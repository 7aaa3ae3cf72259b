"""Tests for bi-affine maps, map ranks, high-rank Bohr decompositions,
averaging projections, and Bogolyubov-type approximations."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import bilinear_oracle
import cli_oracle
from ulab.bilinear import (
    BiAffineMap,
    _affine_map_tables,
    _exact_cover,
    _fitted_candidates,
    _greedy_cover,
    avg_projection,
    biaffine_from_json,
    biaffine_to_json,
    bogolyubov_bilinear,
    bohr_decompose,
)
from ulab.arrange import PartialMap
from ulab.core import GroupParams, char_transform, gf_family_ranks, gf_rank
from ulab.grid import GridFn, vert_conv
from ulab.pipeline import fit_biaffine

P3 = GroupParams(3, 1)
P5 = GroupParams(5, 1)
P32 = GroupParams(3, 2)
P33 = GroupParams(3, 3)
P52 = GroupParams(5, 2)
P53 = GroupParams(5, 3)


# ============================================================
# helpers
# ============================================================


def _dot_map(params: GroupParams) -> BiAffineMap:
    """The single form (x, y) -> x . y."""
    return BiAffineMap.bilinear(params, np.eye(params.n, dtype=np.int64))


def _random_biaffine(params: GroupParams, k: int, rng: np.random.Generator) -> BiAffineMap:
    n, p = params.n, params.p
    return BiAffineMap(
        params,
        rng.integers(0, p, (k, n, n)),
        rng.integers(0, p, (k, n)),
        rng.integers(0, p, (k, n)),
        rng.integers(0, p, k),
    )


def _checked_cells(dec) -> int:
    """The number of cells by the packed code, which must equal the
    per-translate oracle's count; the oracle also ranks every occupied
    translate and raises below the decomposition's certificate."""
    cells = np.unique(dec.cell_index()).size
    assert bilinear_oracle.verify_cells(dec) == cells
    return cells


def _phase_grid(beta: BiAffineMap) -> GridFn:
    """omega^{beta_1(x, y)} for a one-form map."""
    assert beta.k == 1
    return GridFn.from_phases(beta.params, beta.value_table()[:, :, 0])


# ============================================================
# BiAffineMap basics
# ============================================================


def test_evaluate_matches_hand_formula():
    T = np.array([[[1, 2], [0, 1]]], dtype=np.int64)
    a = np.array([[1, 0]], dtype=np.int64)
    b = np.array([[0, 2]], dtype=np.int64)
    lam = np.array([4], dtype=np.int64)
    beta = BiAffineMap(P52, T, a, b, lam)
    for x in range(25):
        dx = P52.digits(np.array([x]))[0]
        for y in range(25):
            dy = P52.digits(np.array([y]))[0]
            want = (dx @ T[0] @ dy + a[0] @ dy + dx @ b[0] + lam[0]) % 5
            got = beta.value_table()[x, y, 0]
            assert got == want


def test_combine_and_is_bilinear():
    mats = np.stack([np.eye(2, dtype=np.int64), np.array([[0, 1], [0, 0]], dtype=np.int64)])
    beta = BiAffineMap.bilinear(P32, mats)
    assert bilinear_oracle.is_bilinear(beta)
    T, a, b, lam = bilinear_oracle.combine(beta, np.array([1, 2]))
    assert np.array_equal(T, (mats[0] + 2 * mats[1]) % 3)
    assert not a.any() and not b.any() and lam == 0
    shifted = BiAffineMap(P32, mats, np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64), np.array([0, 1]))
    assert not bilinear_oracle.is_bilinear(shifted)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BiAffineMap(P32, np.zeros((1, 2, 3), np.int64), np.zeros((1, 2), np.int64), np.zeros((1, 2), np.int64), np.zeros(1, np.int64))
    with pytest.raises(ValueError):
        BiAffineMap(P32, np.zeros((1, 2, 2), np.int64), np.zeros((2, 2), np.int64), np.zeros((1, 2), np.int64), np.zeros(1, np.int64))


def test_json_roundtrip():
    rng = np.random.default_rng(11)
    beta = _random_biaffine(P53, 2, rng)
    again = biaffine_from_json(biaffine_to_json(beta))
    assert again.params == beta.params
    assert np.array_equal(again.T, beta.T)
    assert np.array_equal(again.a, beta.a)
    assert np.array_equal(again.b, beta.b)
    assert np.array_equal(again.lam, beta.lam)


def test_restrict_agrees_with_evaluation():
    rng = np.random.default_rng(5)
    beta = _random_biaffine(P33, 2, rng)
    bx = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    by = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    v, w = 4, 2  # translate representatives as point indices
    res = bilinear_oracle.restrict(beta, bx, by, v, w)
    assert res.params.n == 2 and res.k == 2
    dv = P33.digits(np.array([v]))[0]
    dw = P33.digits(np.array([w]))[0]
    for s0 in range(3):
        for s1 in range(3):
            for t0 in range(3):
                for t1 in range(3):
                    x = (dv + s0 * bx[0] + s1 * bx[1]) % 3
                    y = (dw + t0 * by[0] + t1 * by[1]) % 3
                    xi = int(P33.index(x))
                    yi = int(P33.index(y))
                    want = beta.value_table()[xi, yi]
                    si = s0 + 3 * s1
                    ti = t0 + 3 * t1
                    got = res.value_table()[si, ti]
                    assert np.array_equal(got, want)


# ============================================================
# parts: the pipeline's exact fit splits a bi-affine map into its bilinear
# part T, x-part s, y-part t and constant e
# ============================================================


def _fit_full_map(beta: BiAffineMap):
    """fit_biaffine of beta's value table on the whole grid."""
    params, N = beta.params, beta.params.size
    vp = GroupParams(params.p, beta.k)
    vals = vp.index(beta.value_table().reshape(-1, beta.k)).reshape(N, N).astype(np.int64)
    return fit_biaffine(PartialMap(params, vp, np.ones((N, N), dtype=bool), vals))


def test_parts_of_xy_plus_x_plus_y_plus_one():
    beta = BiAffineMap(
        P5,
        np.array([[[1]]], np.int64),
        np.array([[1]], np.int64),
        np.array([[1]], np.int64),
        np.array([1], np.int64),
    )
    fit = _fit_full_map(beta)
    assert fit.agreement == 1.0
    assert np.array_equal(fit.T, np.array([[[1]]]))
    assert np.array_equal(fit.s, np.array([[1]]))
    assert np.array_equal(fit.t, np.array([[1]]))
    assert np.array_equal(fit.e, np.array([1]))


def test_parts_recompose_random_map():
    rng = np.random.default_rng(23)
    beta = _random_biaffine(P33, 3, rng)
    fit = _fit_full_map(beta)
    assert fit.agreement == 1.0
    assert np.array_equal(fit.T, beta.T)
    assert np.array_equal(fit.s, beta.b)  # x-part
    assert np.array_equal(fit.t, beta.a)  # y-part
    assert np.array_equal(fit.e, beta.lam)
    assert np.array_equal(cli_oracle.biaffine_value_table(P33, fit), beta.value_table())


def test_parts_of_pure_bilinear_have_no_affine_piece():
    fit = _fit_full_map(_dot_map(P33))
    assert fit.agreement == 1.0
    assert np.array_equal(fit.T, _dot_map(P33).T)
    assert not fit.s.any() and not fit.t.any() and not fit.e.any()


# ============================================================
# ranks of forms
# ============================================================


def test_algebraic_rank_examples():
    assert gf_rank(5, np.eye(3, dtype=np.int64)) == 3
    assert gf_rank(5, np.zeros((3, 3), np.int64)) == 0
    assert gf_rank(3, np.array([[1, 2], [2, 1]], np.int64)) == 1  # det = -3 = 0 mod 3
    assert gf_rank(3, np.array([[1, 2], [2, 2]], np.int64)) == 2  # det = -2 = 1 mod 3


# ============================================================
# rank of a map (minimum over nonzero combinations)
# ============================================================


def _map_rank(p: int, mats: np.ndarray) -> float:
    """The smallest rank over the nonzero combinations, from the family scan."""
    return min(gf_family_ranks(p, mats)[1:].tolist(), default=math.inf)


def test_map_rank_shared_row_space():
    # x1*y1 and x1*y2: the combination u=(1,2) is x1*(y1+2*y2), always rank 1.
    m1 = np.zeros((3, 3), np.int64)
    m1[0, 0] = 1
    m2 = np.zeros((3, 3), np.int64)
    m2[0, 1] = 1
    beta = BiAffineMap.bilinear(P33, np.stack([m1, m2]))
    assert _map_rank(3, beta.T) == 1


def test_map_rank_duplicate_forms_is_zero():
    m = np.eye(3, dtype=np.int64)
    beta = BiAffineMap.bilinear(P33, np.stack([m, m]))
    assert _map_rank(3, beta.T) == 0


def test_map_rank_single_full_form():
    assert _map_rank(5, _dot_map(P53).T) == 3


def test_map_rank_scan_length():
    beta = _random_biaffine(P33, 2, np.random.default_rng(1))
    ranks = gf_family_ranks(3, beta.T)
    assert ranks.shape == (3**2,) and ranks[0] == 0
    assert (min(ranks[1:]), tuple(ranks[1:].tolist())) == bilinear_oracle.mats_map_rank(3, beta.T)


def test_map_rank_of_no_forms_is_infinite():
    assert gf_family_ranks(3, np.zeros((0, 3, 3), np.int64)).tolist() == [0]
    empty = np.zeros((0, 3, 3), np.int64)
    assert _map_rank(3, empty) == math.inf == bilinear_oracle.mats_map_rank(3, empty)[0]


# ============================================================
# the Bohr decomposition
# ============================================================


def test_bohr_decompose_no_peel():
    dec = bohr_decompose(_dot_map(P53), 3)
    assert dec.peeled == ()
    assert dec.X0.dim == 0 and dec.Y0.dim == 0
    assert dec.certified_rank == 3
    assert _checked_cells(dec) >= 1


def test_bohr_decompose_one_peel():
    m1 = np.zeros((3, 3), np.int64)
    m1[0, 0] = 1  # x1*y1, rank 1
    beta = BiAffineMap.bilinear(P53, np.stack([m1, np.eye(3, dtype=np.int64)]))
    dec = bohr_decompose(beta, 2)
    assert dec.peeled == ((1, 0),)
    assert dec.X0.dim == 1 and dec.Y0.dim == 1
    assert dec.X0.dim <= 2 * beta.k and dec.Y0.dim <= 2 * beta.k
    assert dec.certified_rank == 2
    assert _checked_cells(dec) >= 1


def test_bohr_decompose_full_peel_gives_product_cells():
    m = np.zeros((3, 3), np.int64)
    m[0, 0] = 1
    beta = BiAffineMap.bilinear(P33, m)
    dec = bohr_decompose(beta, 2)
    assert bilinear_oracle.reduced(dec).k == 0
    assert dec.certified_rank == math.inf
    assert dec.X0.dim == 1 and dec.Y0.dim == 1
    assert _checked_cells(dec) >= 1


def test_bohr_decompose_random_maps():
    rng = np.random.default_rng(77)
    for _ in range(10):
        k = int(rng.integers(1, 3))
        mats = rng.integers(0, 5, (k, 3, 3))
        beta = BiAffineMap.bilinear(P53, mats)
        dec = bohr_decompose(beta, 2)
        assert dec.X0.dim <= 2 * k and dec.Y0.dim <= 2 * k
        assert dec.certified_rank >= 2
        assert _checked_cells(dec) >= 1


@pytest.mark.parametrize("t", range(1, 13))
def test_bohr_decompose_self_orthogonal_peel(t):
    # T = (0), (1), (2) on F_5: after peeling (1, 0, 0) and (0, 3, 1), the
    # orthogonal space is spanned by (0, 1, 2) = 2 (0, 3, 1), a combination
    # already peeled, so the next round scans a coordinate complement instead
    beta = BiAffineMap.bilinear(P5, np.array([[[0]], [[1]], [[2]]]))
    dec = bohr_decompose(beta, t)
    peeled = np.array(dec.peeled, dtype=np.int64)
    assert gf_rank(5, peeled) == len(dec.peeled) <= beta.k
    assert dec.certified_rank >= t
    assert _checked_cells(dec) >= 1


def _cells_or_error(check, *args):
    try:
        return check(*args)
    except RuntimeError as err:
        return str(err)


@pytest.mark.parametrize("group", [(5, 1), (3, 2), (3, 3), (5, 2)], ids=lambda g: "F_%d^%d" % g)
def test_verify_cells_matches_the_per_translate_loop(group):
    # bi-affine maps, so the cells of a translate depend on (v, w); the last
    # map peels x_0 y_0 and keeps the identity form, so on F_3^3 a reduced
    # map is ranked over several translates.  At every threshold up to the
    # certified rank the per-translate loop counts the packed code's cells;
    # one above a finite certified rank it raises, so the last round's scan
    # is the whole certificate
    params = GroupParams(*group)
    n = params.n
    rng = np.random.default_rng(sum(group))
    betas = [_random_biaffine(params, int(rng.integers(1, 4)), rng) for _ in range(6)]
    corner = np.zeros((n, n), dtype=np.int64)
    corner[0, 0] = 1
    mixed = _random_biaffine(params, 2, rng)
    forms = np.stack([corner, np.eye(n, dtype=np.int64)])
    betas.append(BiAffineMap(params, forms, mixed.a, mixed.b, mixed.lam))
    outcomes = set()
    for i, beta in enumerate(betas):
        dec = bohr_decompose(beta, 2 if i == 6 else int(rng.integers(1, 4)))
        rank = dec.certified_rank
        cells = np.unique(dec.cell_index()).size
        for t in (None, *range(1, int(min(rank, 9)) + 1)):
            got = _cells_or_error(bilinear_oracle.verify_cells, dec, t)
            assert got == cells
            outcomes.add(type(got))
        if rank < math.inf:
            got = _cells_or_error(bilinear_oracle.verify_cells, dec, int(rank) + 1)
            assert got.endswith("has reduced rank %d below %d" % (rank, rank + 1))
            outcomes.add(type(got))
    assert outcomes == {int, str}


def test_cell_index_orders_cells_like_their_triples():
    rng = np.random.default_rng(3)
    beta = _random_biaffine(P32, 2, rng)
    dec = bohr_decompose(beta, 2)
    assert dec.X0.dim > 0
    N, pk = P32.size, 3**beta.k
    code = dec.cell_index()
    xl, yl, zt = dec.x0_labels(), dec.y0_labels(), beta.value_index_table()
    triples = np.stack([np.repeat(xl, N), np.tile(yl, N), zt.ravel()], axis=1)
    assert np.array_equal(code.ravel(), (triples[:, 0] * N + triples[:, 1]) * pk + triples[:, 2])
    # the sorted codes list the distinct triples in lexicographic order
    decoded = [(c // pk // N, c // pk % N, c % pk) for c in np.unique(code).tolist()]
    assert decoded == sorted(set(map(tuple, triples.tolist())))


def test_cell_index_refuses_codes_past_int64():
    # F_5 with k = 26: 5^26 values pack into int64, but N^2 5^26 = 5^28 > 2^63
    dec = replace(bohr_decompose(_dot_map(P5), 1), beta=BiAffineMap.zero(P5, 26))
    assert dec.beta.value_index_table().shape == (5, 5)
    with pytest.raises(ValueError, match="cell space too large to index"):
        dec.cell_index()
    assert replace(dec, beta=BiAffineMap.zero(P5, 25)).cell_index().max() < 2**63 - 1


# ============================================================
# averaging projection onto decomposition cells
# ============================================================


def test_avg_projection_idempotent_and_self_adjoint():
    rng = np.random.default_rng(9)
    beta = _random_biaffine(P52, 1, rng)
    F = GridFn(P52, rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25)))
    G = GridFn(P52, rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25)))
    PF = avg_projection(F, beta)
    PPF = avg_projection(PF, beta)
    assert np.max(np.abs(PF.values - PPF.values)) <= 1e-12
    PG = avg_projection(G, beta)
    lhs = (PF.values * np.conj(G.values)).mean()
    rhs = (F.values * np.conj(PG.values)).mean()
    assert abs(lhs - rhs) <= 1e-10
    assert PF.norm_l2() <= F.norm_l2() + 1e-12


def test_avg_projection_zero_map_gives_mean():
    rng = np.random.default_rng(10)
    F = GridFn(P32, rng.standard_normal((9, 9)))
    P0 = avg_projection(F, BiAffineMap.zero(P32, 1))
    assert np.allclose(P0.values, F.values.mean())


def test_avg_projection_fixes_measurable_functions():
    beta = _dot_map(P33)
    F = _phase_grid(beta)
    PF = avg_projection(F, beta)
    assert np.max(np.abs(PF.values - F.values)) <= 1e-12


# ============================================================
# Bogolyubov-type approximation for mixed convolutions
# ============================================================


def test_bogolyubov_pure_phase_recovers_the_form():
    tab = np.arange(5)[:, None] * np.arange(5)[None, :] % 5
    f = GridFn.from_phases(P5, tab)
    beta, rep = bogolyubov_bilinear(f, 0.1)
    assert rep.m == 1
    assert rep.maps == (((1,), (0,)),)
    assert rep.k == 1
    assert rep.error <= 1e-9
    assert not rep.flagged and not rep.budget_exhausted


def test_bogolyubov_constant_function():
    f = GridFn.constant(P3, 1.0)
    beta, rep = bogolyubov_bilinear(f, 0.2)
    assert rep.error <= 1e-9
    assert not beta.T.any()


def test_bogolyubov_zero_function():
    f = GridFn.constant(P3, 0.0)
    beta, rep = bogolyubov_bilinear(f, 0.2)
    assert rep.m == 0 and rep.k == 0 and rep.error == 0.0


def test_bogolyubov_random_set_meets_error_target():
    rng = np.random.default_rng(42)
    mask = rng.random((9, 9)) < 0.5
    f = GridFn.from_mask(P32, mask)
    beta, rep = bogolyubov_bilinear(f, 0.1)
    assert rep.error <= 0.1
    assert not rep.flagged
    assert rep.k > 0
    assert rep.l1_max <= rep.l1_cap + 1e-9
    assert rep.uncovered == 0
    assert rep.gamma == pytest.approx(0.1**2 / 8)
    assert rep.delta == pytest.approx(0.05)


def test_bogolyubov_greedy_matches_error_target_small_n():
    # the fitted candidates' greedy cover leaves no more of the spectrum
    # uncovered than the exact cover over every map, which the run takes at n = 2
    rng = np.random.default_rng(42)
    mask = rng.random((9, 9)) < 0.5
    f = GridFn.from_mask(P32, mask)
    _, rep = bogolyubov_bilinear(f, 0.1)
    assert rep.method == "exact" and rep.error <= 0.1
    g = vert_conv(f, f)
    us, hs = np.nonzero(np.abs(char_transform(g.values, P32, axis=0)) ** 2 >= rep.gamma - 1e-15)
    points = sorted((int(h), int(u)) for u, h in zip(us, hs))
    eps_count = rep.gamma * P32.size
    _, exact_uncovered = _exact_cover(P32, points, eps_count, 48)
    mats, shifts = _fitted_candidates(P32, points, 4096)
    _, greedy_uncovered = _greedy_cover(_affine_map_tables(P32, mats, shifts), points, eps_count, 48)
    assert exact_uncovered == rep.uncovered
    assert greedy_uncovered <= exact_uncovered


def test_bogolyubov_deterministic_reports():
    rng = np.random.default_rng(4)
    mask = rng.random((9, 9)) < 0.4
    f = GridFn.from_mask(P32, mask)
    _, r1 = bogolyubov_bilinear(f, 0.15)
    _, r2 = bogolyubov_bilinear(f, 0.15)
    assert r1 == r2


def test_bogolyubov_input_validation():
    f = GridFn.constant(P3, 2.0)
    with pytest.raises(ValueError):
        bogolyubov_bilinear(f, 0.1)
    with pytest.raises(ValueError):
        bogolyubov_bilinear(GridFn.constant(P3, 1.0), 0.0)
    with pytest.raises(ValueError):
        bogolyubov_bilinear(GridFn.constant(P3, 1.0), float("nan"))
