"""Convolution and arrangement checks for the grid module, each derived
value backed by a literal-loop oracle computed in this file."""

from __future__ import annotations

import numpy as np

import ulab.grid
from ulab.arrange import PartialMap, respect_stats
from ulab.core import GroupParams
from ulab.grid import (
    MORSE8,
    MORSE32,
    GridFn,
    arr2_exact,
    arr_functional,
    grid_fn_from_json,
    grid_fn_to_json,
    horiz_conv,
    mixed_conv,
    mixed_self,
    vert_conv,
)

# ============================================================
# oracles
# ============================================================


def _vert_conv_oracle(f: GridFn, g: GridFn) -> np.ndarray:
    par = f.params
    N = par.size
    out = np.zeros((N, N), dtype=np.complex128)
    for x in range(N):
        for h in range(N):
            acc = 0j
            for y in range(N):
                acc += f.values[x, y] * np.conj(g.values[x, par.sub(y, h)])
            out[x, h] = acc / N
    return out


def _horiz_conv_oracle(f: GridFn, g: GridFn) -> np.ndarray:
    par = f.params
    N = par.size
    out = np.zeros((N, N), dtype=np.complex128)
    for w in range(N):
        for y in range(N):
            acc = 0j
            for x in range(N):
                acc += f.values[x, y] * np.conj(g.values[par.sub(x, w), y])
            out[w, y] = acc / N
    return out


def _count_4arrangements_in(mask: np.ndarray, par: GroupParams) -> int:
    """Exhaustive 8-parameter loop over first-order arrangements."""
    N = par.size
    count = 0
    for x1 in range(N):
        for x2 in range(N):
            for w in range(N):
                x1w, x2w = par.sub(x1, w), par.sub(x2, w)
                for h in range(N):
                    for y1 in range(N):
                        if not (mask[x1, y1] and mask[x1, par.sub(y1, h)]):
                            continue
                        for y1p in range(N):
                            if not (mask[x1w, y1p] and mask[x1w, par.sub(y1p, h)]):
                                continue
                            for y2 in range(N):
                                if not (mask[x2, y2] and mask[x2, par.sub(y2, h)]):
                                    continue
                                for y2p in range(N):
                                    if mask[x2w, y2p] and mask[x2w, par.sub(y2p, h)]:
                                        count += 1
    return count


def _random_grid(par: GroupParams, rng: np.random.Generator, bounded: bool = False) -> GridFn:
    N = par.size
    v = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    if bounded:
        v /= np.maximum(np.abs(v), 1.0)
    return GridFn(par, v)


# ============================================================
# convolutions
# ============================================================


def test_vert_conv_constant():
    par = GroupParams(5, 1)
    out = vert_conv(GridFn.constant(par), GridFn.constant(par))
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_vert_conv_bilinear_phase():
    # f = omega^{xy} over F_5: (f vconv f)(x, h) = omega^{xh}
    par = GroupParams(5, 1)
    idx = np.arange(5)
    f = GridFn.from_phases(par, np.outer(idx, idx))
    out = vert_conv(f, f)
    expect = np.exp(2j * np.pi * np.outer(idx, idx) / 5)
    assert np.max(np.abs(out.values - expect)) < 1e-12


def test_vert_conv_l1_lower_bound_nonneg():
    rng = np.random.default_rng(10)
    par = GroupParams(3, 1)
    for _ in range(50):
        f = GridFn(par, rng.random((3, 3)).astype(complex))
        assert vert_conv(f, f).norm_l1() >= f.norm_l1() ** 2 - 1e-12


def test_vert_conv_matches_oracle():
    rng = np.random.default_rng(11)
    par = GroupParams(3, 1)
    f, g = _random_grid(par, rng), _random_grid(par, rng)
    assert np.max(np.abs(vert_conv(f, g).values - _vert_conv_oracle(f, g))) < 1e-12


def test_horiz_conv_matches_oracle_and_mirror():
    rng = np.random.default_rng(12)
    par = GroupParams(3, 1)
    f, g = _random_grid(par, rng), _random_grid(par, rng)
    assert np.max(np.abs(horiz_conv(f, g).values - _horiz_conv_oracle(f, g))) < 1e-12
    # mirror relation: horizontal on f is vertical on the transposes,
    # with the output read transposed as well
    ft = GridFn(par, f.values.T.copy())
    gt = GridFn(par, g.values.T.copy())
    mirrored = vert_conv(ft, gt).values.T
    assert np.max(np.abs(horiz_conv(f, g).values - mirrored)) < 1e-12


def test_mixed_conv_constant_and_mean():
    par = GroupParams(3, 1)
    one = GridFn.constant(par)
    out = mixed_conv(one, one, one, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12
    assert abs(mixed_self(one).mean() - 1.0) < 1e-12


def test_self_convolutions_transform_once(monkeypatch):
    # mixed_self shares one transform per pass between its two equal inputs
    # and must give mixed_conv's bits; a pass on two distinct inputs
    # transforms both
    rng = np.random.default_rng(21)
    for par in (GroupParams(5, 2), GroupParams(7, 1), GroupParams(2, 3)):
        N = par.size
        f = GridFn(par, rng.random((N, N)) * np.exp(2j * np.pi * rng.random((N, N))))
        assert np.array_equal(mixed_self(f).values, mixed_conv(f, f, f, f).values)
    calls = []
    inner = ulab.grid.char_transform
    monkeypatch.setattr(ulab.grid, "char_transform", lambda *a, **k: calls.append(1) or inner(*a, **k))
    vert_conv(f, f)
    assert len(calls) == 2
    horiz_conv(f, GridFn(par, f.values.copy()))
    assert len(calls) == 5


def test_mixed_conv_bilinear_phase():
    par = GroupParams(5, 1)
    idx = np.arange(5)
    f = GridFn.from_phases(par, np.outer(idx, idx))
    out = mixed_self(f)
    expect = np.exp(2j * np.pi * np.outer(idx, idx) / 5)
    assert np.max(np.abs(out.values - expect)) < 1e-12


def test_mixed_conv_parallelogram_density():
    # for an indicator, (mixed 1_A)(w, h) = density of width-w height-h
    # vertical parallelograms inside A, checked by a literal 3-loop count
    rng = np.random.default_rng(13)
    par = GroupParams(3, 1)
    N = par.size
    mask = rng.random((N, N)) < 0.6
    f = GridFn.from_mask(par, mask)
    got = mixed_self(f).values
    for w in range(N):
        for h in range(N):
            acc = 0
            for x in range(N):
                for y in range(N):
                    for yp in range(N):
                        xw = par.sub(x, w)
                        ok = (
                            mask[x, y]
                            and mask[x, par.sub(y, h)]
                            and mask[xw, yp]
                            and mask[xw, par.sub(yp, h)]
                        )
                        acc += int(ok)
            assert abs(got[w, h] - acc / N**3) < 1e-12


# ============================================================
# arrangement functionals
# ============================================================


def test_arr_full_grid():
    par = GroupParams(3, 1)
    assert abs(arr_functional(GridFn.constant(par)) - 1.0) < 1e-12


def test_arr_horizontal_line_frozen():
    # A = {(x, y): y = 0} over F_3: every vertex forces y-coordinates to 0,
    # leaving x1, x2, w free, so the count is 27 out of |G|^8 = 6561.
    par = GroupParams(3, 1)
    mask = np.zeros((3, 3), dtype=bool)
    mask[:, 0] = True
    val = arr_functional(GridFn.from_mask(par, mask))
    assert abs(val - 27 / 3**8) < 1e-14


def test_arr_matches_exhaustive_loop():
    rng = np.random.default_rng(14)
    par = GroupParams(3, 1)
    for _ in range(3):
        mask = rng.random((3, 3)) < 0.5
        count = _count_4arrangements_in(mask, par)
        val = arr_functional(GridFn.from_mask(par, mask))
        assert abs(val * 3**8 - count) < 1e-6


def test_arr_lower_bound_manyarrangements():
    # |mixed(mu)|_2^2 >= |mu|_1^8 for nonnegative mu, 50 random draws
    rng = np.random.default_rng(15)
    par = GroupParams(3, 1)
    for _ in range(50):
        mask = rng.random((3, 3)) < rng.random()
        f = GridFn.from_mask(par, mask)
        assert arr_functional(f) >= f.norm_l1() ** 8 - 1e-12


def test_arr2_exact_mc_agreement_tiny():
    # exhaustive stratified count at p = 2 must sit within 3 stderr of the
    # order-2 sampler; with every value 0 each arrangement inside the domain
    # is respected, so the stderr of the respected count is that of the total
    par = GroupParams(2, 1)
    mask = np.array([[True, True], [True, False]])
    phi = PartialMap(par, par, mask, np.zeros((2, 2), dtype=np.int64))
    exact = arr2_exact(phi.indicator())
    st = respect_stats(phi, order=2, mode="mc", samples=40_000, seed=3)
    assert st.respected == st.total
    assert abs(st.total / 2.0**32 - exact) <= 3 * st.stderr / 2.0**32 + 1e-4


def test_arr2_constant_is_one():
    par = GroupParams(3, 1)
    phi = PartialMap(par, par, np.ones((3, 3), dtype=bool), np.zeros((3, 3), dtype=np.int64))
    st = respect_stats(phi, order=2, mode="mc", samples=500, seed=0)
    assert abs(st.total / 3.0**32 - 1.0) < 1e-12 and st.stderr < 1e-12
    assert abs(arr2_exact(GridFn.constant(par)) - 1.0) < 1e-12


def test_arr2_manyarr2s_direction():
    # second-order count >= theta^8 alpha^{-12} |G|^32 with theta the
    # first-order arrangement density, checked exactly on small indicators
    rng = np.random.default_rng(17)
    par = GroupParams(3, 1)
    for _ in range(5):
        mask = rng.random((3, 3)) < 0.8
        if not mask.any():
            continue
        f = GridFn.from_mask(par, mask)
        alpha = f.norm_l1()
        theta = arr_functional(f)
        assert arr2_exact(f) >= theta**8 * alpha**-12 - 1e-12


def test_morse_patterns():
    assert MORSE8.tolist() == [1, -1, -1, 1, -1, 1, 1, -1]
    assert MORSE32.shape == (32,)
    # consistency: MORSE32 restricted to any slot is +-(1,-1,-1,1)
    for j in range(8):
        seg = MORSE32[4 * j : 4 * j + 4]
        assert seg.tolist() == [s * MORSE8[j] for s in (1, -1, -1, 1)]


# ============================================================
# columns and serialization
# ============================================================


def test_column_decay_bounded():
    # transform of each row of mixed_self(f) has l1 norm at most 1 for
    # bounded f
    from ulab.core import dft

    rng = np.random.default_rng(19)
    par = GroupParams(3, 1)
    for _ in range(20):
        f = _random_grid(par, rng, bounded=True)
        m = mixed_self(f)
        for x in range(par.size):
            fh = dft(m.row(x))
            assert np.abs(fh.values).sum() <= 1 + 1e-9


def test_grid_json_roundtrip():
    rng = np.random.default_rng(20)
    par = GroupParams(3, 1)
    f = _random_grid(par, rng)
    back = grid_fn_from_json(grid_fn_to_json(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
