"""Tests for arrangement statistics, densification, and the per-row Freiman
filter."""

from __future__ import annotations

import numpy as np
import pytest

import arrange_oracle as oracle
from ulab.arrange import (
    ArrangementStats,
    PartialMap,
    densify,
    partial_map_from_json,
    partial_map_to_json,
    respect_stats,
    row_freiman_filter,
)
from ulab.core import GroupParams, PolyPhase, dft, poly_phase_fn
from ulab.gowers import derivative2
from ulab.grid import MORSE8

P3 = GroupParams(3, 1)
P5 = GroupParams(5, 1)
P32 = GroupParams(3, 2)


# ============================================================
# helpers
# ============================================================


def _bilinear_map(params: GroupParams, s: int) -> PartialMap:
    """phi(a, b) = (a . b) s on the full grid."""
    N = params.size
    idx = np.arange(N, dtype=np.int64)
    a = np.repeat(idx, N)
    b = np.tile(idx, N)
    dots = params.dot(a, b)
    step = np.full(N * N, s, dtype=np.int64)
    scaled = np.zeros(N * N, dtype=np.int64)
    run = np.zeros(N * N, dtype=np.int64)
    for k in range(1, params.p):
        run = params.add(run, step)
        scaled[dots == k] = run[dots == k]
    return PartialMap(params, params, np.ones((N, N), dtype=bool), scaled.reshape(N, N))


def _random_map(params: GroupParams, rng: np.random.Generator, density: float = 1.0) -> PartialMap:
    N = params.size
    dom = rng.random((N, N)) < density
    vals = rng.integers(0, N, size=(N, N), dtype=np.int64)
    return PartialMap(params, params, dom, vals)


def _brute_order1_counts(phi: PartialMap) -> tuple[int, int]:
    """Literal loop over all 8 parameters: (total inside, respected)."""
    params, vp = phi.params, phi.value_params
    N = params.size
    sub = params.sub
    x1, x2, w, y1, y1p, y2, y2p, h = np.indices((N,) * 8).reshape(8, -1)
    pts = [
        (x1, y1),
        (x1, sub(y1, h)),
        (sub(x1, w), y1p),
        (sub(x1, w), sub(y1p, h)),
        (x2, y2),
        (x2, sub(y2, h)),
        (sub(x2, w), y2p),
        (sub(x2, w), sub(y2p, h)),
    ]
    inside = np.ones(x1.shape[0], dtype=bool)
    for cx, cy in pts:
        inside &= phi.domain[cx, cy]
    acc = np.zeros(x1.shape[0], dtype=np.int64)
    for sgn, (cx, cy) in zip(MORSE8, pts):
        v = phi.values[cx, cy]
        acc = vp.add(acc, v) if sgn > 0 else vp.sub(acc, v)
    return int(inside.sum()), int((inside & (acc == 0)).sum())


def _spectrum_map(f) -> tuple[np.ndarray, np.ndarray]:
    """argmax frequency of each second derivative and its magnitude."""
    params = f.params
    N = params.size
    vals = np.zeros((N, N), dtype=np.int64)
    mags = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            h = dft(derivative2(f, a, b)).values
            r = int(np.argmax(np.abs(h)))
            vals[a, b] = r
            mags[a, b] = abs(h[r])
    return vals, mags


def _row_is_hom(params: GroupParams, vp: GroupParams, ys: np.ndarray, vals: np.ndarray) -> bool:
    """Exhaustive Freiman check: equal pair sums of points force equal
    pair sums of values."""
    if len(ys) == 0:
        return True
    ka = params.add(ys[:, None], ys[None, :]).ravel()
    va = vp.add(vals[:, None], vals[None, :]).ravel()
    seen: dict[int, int] = {}
    for k, v in zip(ka, va):
        if seen.setdefault(int(k), int(v)) != int(v):
            return False
    return True


# ============================================================
# respect_stats
# ============================================================


def test_stats_validation():
    with pytest.raises(ValueError):
        ArrangementStats(total=1.0, respected=2.0, order=1, stderr=0.0, mode="exact")
    phi = _bilinear_map(P3, 1)
    with pytest.raises(ValueError):
        respect_stats(phi, order=3)
    with pytest.raises(ValueError):
        respect_stats(phi, order=2, mode="exact")
    with pytest.raises(ValueError):
        respect_stats(phi, order=1, mode="bogus")
    with pytest.raises(ValueError):
        respect_stats(_bilinear_map(GroupParams(5, 2), 1), order=1, mode="exact")


def test_bilinear_full_grid_all_respected():
    for params, s in [(P3, 2), (P5, 3), (P32, 4)]:
        phi = _bilinear_map(params, s)
        st = respect_stats(phi, order=1, mode="exact")
        assert st.total == float(params.size) ** 8
        assert st.respected == st.total


def test_cubic_derivative_map_fully_respected():
    f = poly_phase_fn(PolyPhase.from_coeffs(P5, {(0, 0, 0): 1}))
    vals, mags = _spectrum_map(f)
    assert mags.min() > 1 - 1e-9
    a = np.arange(5)
    assert np.array_equal(vals, (6 * np.outer(a, a)) % 5)
    phi = PartialMap(P5, P5, np.ones((5, 5), dtype=bool), vals)
    st = respect_stats(phi, order=1, mode="exact")
    assert st.total == 5.0**8
    assert st.respected == 5.0**8


def test_exact_matches_bruteforce():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        phi = _random_map(P3, rng, density=0.7)
        st = respect_stats(phi, order=1, mode="exact")
        tot, resp = _brute_order1_counts(phi)
        assert st.total == tot
        assert st.respected == resp


def test_mc_consistent_with_exact():
    rng = np.random.default_rng(11)
    phi = _random_map(P3, rng, density=0.8)
    exact = respect_stats(phi, order=1, mode="exact")
    samples = 60_000
    mc = respect_stats(phi, order=1, mode="mc", samples=samples, seed=4)
    assert mc.order == 1 and mc.mode == "mc" and mc.samples == samples
    assert abs(mc.respected - exact.respected) <= 4 * mc.stderr
    t = exact.total / 3.0**8
    tot_sigma = np.sqrt(t * (1 - t) / samples) * 3.0**8
    assert abs(mc.total - exact.total) <= 5 * tot_sigma


def test_full_grid_total_count():
    rng = np.random.default_rng(0)
    phi = _random_map(P3, rng, density=1.0)
    st = respect_stats(phi, order=1, mode="exact")
    assert st.total == 3.0**8


def test_mc_deterministic_under_seed():
    rng = np.random.default_rng(2)
    phi = _random_map(P3, rng, density=0.6)
    a = respect_stats(phi, order=2, mode="mc", samples=30_000, seed=9)
    b = respect_stats(phi, order=2, mode="mc", samples=30_000, seed=9)
    assert (a.total, a.respected, a.stderr) == (b.total, b.respected, b.stderr)


# ============================================================
# densify
# ============================================================


def test_densify_k0_returns_domain():
    rng = np.random.default_rng(6)
    phi = _random_map(P3, rng, density=0.9)
    out, rep = densify(phi, 0.05, seed=5, k=0, samples=20_000)
    assert rep.k == 0
    assert np.array_equal(out.domain, phi.domain)
    ref = respect_stats(phi, order=2, mode="mc", samples=20_000, seed=6)
    assert (rep.stats.total, rep.stats.respected, rep.stats.stderr) == (
        ref.total,
        ref.respected,
        ref.stderr,
    )


def test_densify_smallest_k_when_already_coherent():
    phi = _bilinear_map(P3, 1)
    out, rep = densify(phi, 0.05, seed=7, samples=20_000)
    assert rep.k == 0
    assert np.array_equal(out.domain, phi.domain)
    assert rep.criterion >= 0
    assert rep.stats.total > 0 and rep.stats.respected == rep.stats.total
    assert rep.reference_k >= 2**32  # reported formula value is astronomically larger


def test_densify_bilinear_subset_stays_fully_respected():
    phi = _bilinear_map(P3, 2)
    for k in (1, 2):
        out, rep = densify(phi, 0.05, seed=100, k=k, samples=20_000)
        assert rep.k == k
        assert out.domain.any()
        assert out.domain.sum() <= phi.domain.sum()
        ex = respect_stats(out, order=1, mode="exact")
        assert ex.total > 0
        assert ex.respected == ex.total
        if rep.stats.total > 0:
            assert rep.stats.respected == rep.stats.total


def test_densify_favors_coherent_part():
    # bilinear values on ~90% of the full grid, scrambled on the rest
    params = P32
    N = params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    rng = np.random.default_rng(7)
    c1 = rng.integers(0, 3, size=(2, 2))
    c2 = rng.integers(0, 3, size=(2, 2))
    v1 = np.einsum("xs,st,yt->xy", dig, c1, dig) % 3
    v2 = np.einsum("xs,st,yt->xy", dig, c2, dig) % 3
    vals = (v1 + 3 * v2).astype(np.int64)
    garbage = np.zeros((N, N), dtype=bool)
    garbage.flat[rng.choice(N * N, size=8, replace=False)] = True
    vals[garbage] = rng.integers(0, N, size=8)
    phi = PartialMap(params, params, np.ones((N, N), dtype=bool), vals)

    out, rep = densify(phi, 0.05, seed=3, retries=6, samples=20_000)
    kept = int(out.domain.sum())
    garbage_kept = int((out.domain & garbage).sum())
    assert kept > 0
    # the selection keeps coherent points at a strictly higher rate
    coherent_rate = (kept - garbage_kept) / (N * N - 8)
    garbage_rate = garbage_kept / 8
    assert garbage_rate < coherent_rate
    assert garbage_kept / kept < 8 / (N * N)


def test_densify_all_empty_raises():
    dom = np.zeros((3, 3), dtype=bool)
    dom[1, 2] = True
    vals = np.zeros((3, 3), dtype=np.int64)
    vals[1, 2] = 1
    phi = PartialMap(P3, P3, dom, vals)
    with pytest.raises(RuntimeError, match="empt"):
        densify(phi, 0.05, seed=0, k=6, retries=2, samples=1000)


def test_densify_validation():
    phi = _bilinear_map(P3, 1)
    with pytest.raises(ValueError):
        densify(phi, 0.0)
    bad = PartialMap(P3, GroupParams(5, 1), phi.domain, phi.values)
    with pytest.raises(ValueError):
        densify(bad, 0.05)


# ============================================================
# row Freiman filter
# ============================================================


def test_row_freiman_keeps_affine_rows():
    N = 5
    x = np.arange(N)[:, None]
    y = np.arange(N)[None, :]
    vals = ((3 * y + x) % 5).astype(np.int64)
    phi = PartialMap(P5, P5, np.ones((N, N), dtype=bool), vals)
    out = row_freiman_filter(phi)
    assert np.array_equal(out.domain, phi.domain)


def test_row_freiman_consistent_and_maximal():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        phi = _random_map(P5, rng, density=0.9)
        out = row_freiman_filter(phi)
        assert not (out.domain & ~phi.domain).any()
        for x in range(5):
            ys = np.nonzero(out.domain[x])[0].astype(np.int64)
            vals = phi.values[x, ys]
            assert _row_is_hom(P5, P5, ys, vals)
            dropped = np.nonzero(phi.domain[x] & ~out.domain[x])[0]
            for y in dropped:
                ys2 = np.append(ys, np.int64(y))
                vals2 = np.append(vals, phi.values[x, y])
                assert not _row_is_hom(P5, P5, ys2, vals2)


# every F_p^n with p^n <= 49, and F_11^2
FILTER_GROUPS = [
    (p, n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for n in range(1, 6)
    if p**n <= 49
] + [(11, 2)]


def _filter_inputs(params: GroupParams, rng: np.random.Generator):
    """Maps into the domain's group, a group of another p and, where it has
    at most 121 elements, a group of the same p and another dimension; each
    at densities 0.3, 0.9 and 1.0 with a cleared row and column, and on the
    full grid."""
    N = params.size
    others = [g for g in FILTER_GROUPS if g[0] != params.p]
    other_n = params.n % 2 + 1 if params.n < 3 else 1
    value_groups = [params, GroupParams(*others[rng.integers(len(others))])]
    if params.p**other_n <= 121:
        value_groups.append(GroupParams(params.p, other_n))
    for vp in value_groups:
        if vp.p == params.p:
            # affine rows y -> A_x y + c_x with 10% of the values replaced,
            # so the greedy runs long before its first conflict
            A = rng.integers(0, vp.p, size=(N, vp.n, params.n))
            c = rng.integers(0, vp.p, size=(N, vp.n))
            dy = params.digits(np.arange(N))
            values = vp.index(np.einsum("xks,ys->xyk", A, dy) + c[:, None, :])
            noisy = rng.random((N, N)) < 0.1
            values[noisy] = rng.integers(0, vp.size, size=int(noisy.sum()))
        else:
            values = rng.integers(0, vp.size, size=(N, N), dtype=np.int64)
        for density in (0.3, 0.9, 1.0):
            domain = rng.random((N, N)) < density
            domain[rng.integers(N), :] = False
            domain[:, rng.integers(N)] = False
            yield PartialMap(params, vp, domain, values)
        yield PartialMap(params, vp, np.ones((N, N), dtype=bool), values)


@pytest.mark.parametrize("p, n", FILTER_GROUPS)
def test_row_freiman_filter_matches_the_per_row_oracle(p, n):
    params = GroupParams(p, n)
    rng = np.random.default_rng(p * 10 + n)
    for phi in _filter_inputs(params, rng):
        got = row_freiman_filter(phi)
        want = oracle.row_freiman_filter(phi)
        assert np.array_equal(got.domain, want.domain)
        assert got.value_params == phi.value_params
        assert np.array_equal(got.values, phi.values)


# ============================================================
# counting inequalities
# ============================================================


def test_somearrangements_bound():
    # exact phase cubic: every derivative spectrum has a full-weight peak
    f = poly_phase_fn(PolyPhase.from_coeffs(P5, {(0, 0, 0): 1}))
    vals, mags = _spectrum_map(f)
    gamma = mags.min()
    assert gamma > 1 - 1e-9
    phi = PartialMap(P5, P5, np.ones((5, 5), dtype=bool), vals)
    st = respect_stats(phi, order=1, mode="exact")
    assert st.respected >= gamma**48 * 5.0**8 - 1e-6

    # bounded random function, map read off the derivative spectra
    rng = np.random.default_rng(3)
    rf = np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
    from ulab.core import GroupFn

    g = GroupFn(P3, rf)
    vals3, mags3 = _spectrum_map(g)
    gamma3 = mags3.min()
    assert gamma3 > 0
    phi3 = PartialMap(P3, P3, np.ones((3, 3), dtype=bool), vals3)
    st3 = respect_stats(phi3, order=1, mode="exact")
    assert st3.respected >= gamma3**48 * 3.0**8 - 1e-6


def test_manyarr2s_bound():
    # dense domain missing one point so both counts stay measurable
    dom = np.ones((3, 3), dtype=bool)
    dom[1, 2] = False
    bil = _bilinear_map(P3, 2)
    for vals in (bil.values, np.random.default_rng(8).integers(0, 3, (3, 3))):
        phi = PartialMap(P3, P3, dom, np.asarray(vals, dtype=np.int64))
        st1 = respect_stats(phi, order=1, mode="exact")
        theta = st1.respected / 3.0**8
        alpha = phi.density()
        bound = theta**8 * alpha**-12 * 3.0**32
        st2 = respect_stats(phi, order=2, mode="mc", samples=100_000, seed=12)
        assert st2.respected >= bound - 3 * st2.stderr


# ============================================================
# serialization and map basics
# ============================================================


def test_partial_map_json_roundtrip():
    rng = np.random.default_rng(13)
    phi = _random_map(P5, rng, density=0.5)
    data = partial_map_to_json(phi)
    assert data["p"] == 5 and data["value_p"] == 5
    pts = data["points"]
    assert pts == sorted(pts, key=lambda e: (e["x"], e["y"]))
    back = partial_map_from_json(data)
    assert np.array_equal(back.domain, phi.domain)
    assert np.array_equal(back.values[back.domain], phi.values[phi.domain])


def test_partial_map_basics():
    phi = PartialMap.from_points(P3, P3, {(0, 1): 2, (2, 2): 7})
    assert phi.domain.sum() == 2
    assert phi.values[2, 2] == 7 % 3
    assert phi.density() == 2 / 9
    with pytest.raises(ValueError):
        PartialMap(P3, P3, np.ones((2, 2), dtype=bool), np.zeros((3, 3), dtype=np.int64))
