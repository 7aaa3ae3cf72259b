"""Tests for trilinear forms: exact rank statistics, symmetrization,
low-rank slice structure, coset-restricted correlations, cubic phase
extraction, and exhaustive quadratic phase search."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ulab.trilinear
from ulab.core import BudgetError, GroupFn, GroupParams, PolyPhase, Subspace, gf_rank, poly_phase_fn
from ulab.grid import GridFn
from ulab.trilinear import (
    PhaseProduct,
    SliceFamily,
    TrilinearForm,
    analytic_mean_tri,
    analytic_rank_tri,
    box3_criterion,
    box3_value,
    kappa_from_sigma,
    lowrank_subspaces,
    pass_to_subspace,
    quad_phase_search,
    slice_rank_mean,
    subadditivity_check,
    symmetrize,
    symmetry_pipeline,
    tri_correlation,
    trilinear_from_json,
    trilinear_to_json,
    u3_lower,
)

P5 = GroupParams(5, 1)
P52 = GroupParams(5, 2)
P53 = GroupParams(5, 3)

RANK_ABC = math.log(25 / 9) / math.log(5)

ZLIN1 = (np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))
ZLIN2 = (np.zeros((2, 2), dtype=np.int64), np.zeros(2, dtype=np.int64))


def _random_form(params, seed):
    rng = np.random.default_rng(seed)
    n = params.n
    return TrilinearForm(params, rng.integers(0, params.p, size=(n, n, n)))


def _symmetric_form(params, seed):
    rng = np.random.default_rng(seed)
    n = params.n
    raw = rng.integers(0, params.p, size=(n, n, n))
    acc = np.zeros((n, n, n), dtype=np.int64)
    for perm in itertools.permutations((0, 1, 2)):
        acc = (acc + np.transpose(raw, perm)) % params.p
    return TrilinearForm(params, acc)


def _unimodular(params, seed):
    rng = np.random.default_rng(seed)
    return GroupFn(params, np.exp(2j * np.pi * rng.random(params.size)))


def _bounded_grid(params, seed):
    rng = np.random.default_rng(seed)
    shape = (params.size, params.size)
    return GridFn(params, rng.random(shape) * np.exp(2j * np.pi * rng.random(shape)))


def _product_form():
    return TrilinearForm(P5, np.ones((1, 1, 1), dtype=np.int64))


# ------------------------------------------------------------------
# the form type
# ------------------------------------------------------------------


def test_evaluate_matches_explicit_triple_sum():
    tau = _random_form(P52, 1)
    rng = np.random.default_rng(2)
    for a, b, c in rng.integers(0, 25, size=(20, 3)):
        da, db, dc = P52.digits(int(a)), P52.digits(int(b)), P52.digits(int(c))
        want = 0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want += int(tau.coeffs[i, j, k]) * int(da[i]) * int(db[j]) * int(dc[k])
        assert tau.evaluate(int(a), int(b), int(c)) == want % 5


def test_evaluate_is_linear_in_each_slot():
    tau = _random_form(P52, 3)
    rng = np.random.default_rng(4)
    for a, a2, b, c in rng.integers(0, 25, size=(20, 4)):
        a, a2, b, c = int(a), int(a2), int(b), int(c)
        s = P52.add(a, a2)
        assert tau.evaluate(s, b, c) == (tau.evaluate(a, b, c) + tau.evaluate(a2, b, c)) % 5
        assert tau.evaluate(b, s, c) == (tau.evaluate(b, a, c) + tau.evaluate(b, a2, c)) % 5
        assert tau.evaluate(b, c, s) == (tau.evaluate(b, c, a) + tau.evaluate(b, c, a2)) % 5


def test_permute_args_all_six_orders():
    tau = _random_form(P52, 5)
    rng = np.random.default_rng(6)
    pts = rng.integers(0, 25, size=(20, 3))
    for perm in itertools.permutations((0, 1, 2)):
        new = tau.permute_args(perm)
        for row in pts:
            args = [int(x) for x in row]
            assert new.evaluate(*args) == tau.evaluate(args[perm[0]], args[perm[1]], args[perm[2]])


def test_permute_args_rejects_bad_order():
    tau = _random_form(P52, 7)
    with pytest.raises(ValueError):
        tau.permute_args((0, 1, 1))


def test_from_component_mats_pairs_last_slot():
    rng = np.random.default_rng(8)
    mats = rng.integers(0, 5, size=(2, 2, 2))
    tau = TrilinearForm.from_component_mats(P52, mats)
    for a, b, c in rng.integers(0, 25, size=(20, 3)):
        da, db, dc = P52.digits(int(a)), P52.digits(int(b)), P52.digits(int(c))
        want = sum(int(dc[k]) * int(da @ mats[k] @ db) for k in range(2)) % 5
        assert tau.evaluate(int(a), int(b), int(c)) == want


def test_diagonal_form_values():
    tau = TrilinearForm.diagonal(P52)
    rng = np.random.default_rng(9)
    for a, b, c in rng.integers(0, 25, size=(20, 3)):
        da, db, dc = P52.digits(int(a)), P52.digits(int(b)), P52.digits(int(c))
        assert tau.evaluate(int(a), int(b), int(c)) == int((da * db * dc).sum()) % 5


def test_addition_subtraction_scaling():
    tau = _random_form(P52, 10)
    rho = _random_form(P52, 11)
    back = (tau + rho) - rho
    assert np.array_equal(back.coeffs, tau.coeffs)
    doubled = tau.scaled(2)
    rng = np.random.default_rng(12)
    for a, b, c in rng.integers(0, 25, size=(10, 3)):
        assert doubled.evaluate(int(a), int(b), int(c)) == (2 * tau.evaluate(int(a), int(b), int(c))) % 5


def test_is_symmetric_detects_order_dependence():
    assert _symmetric_form(P52, 13).is_symmetric()
    skew = np.zeros((2, 2, 2), dtype=np.int64)
    skew[0, 1, 0] = 1
    assert not TrilinearForm(P52, skew).is_symmetric()


# ------------------------------------------------------------------
# slice families
# ------------------------------------------------------------------


def test_slices_pair_with_remaining_arguments():
    tau = _random_form(P52, 14)
    rng = np.random.default_rng(15)
    pts = rng.integers(0, 25, size=(20, 3))
    for axis in (0, 1, 2):
        fam = tau.slices(axis)
        for row in pts:
            a, b, c = (int(x) for x in row)
            mat = fam.slice_at((a, b, c)[axis])
            rest = [(a, b, c)[i] for i in range(3) if i != axis]
            got = int(P52.digits(rest[0]) @ mat @ P52.digits(rest[1])) % 5
            assert got == tau.evaluate(a, b, c)


def test_slice_at_is_additive():
    fam = _random_form(P52, 16).slices(0)
    for x in range(25):
        for y in range(25):
            s = P52.add(x, y)
            assert np.array_equal(fam.slice_at(s), (fam.slice_at(x) + fam.slice_at(y)) % 5)


# ------------------------------------------------------------------
# exact rank statistics
# ------------------------------------------------------------------


def test_zero_form_has_mean_one_rank_zero():
    tau = TrilinearForm.zero(P52)
    assert analytic_mean_tri(tau) == Fraction(1)
    assert analytic_rank_tri(tau) == 0.0


def test_product_form_mean_and_rank():
    tau = _product_form()
    assert analytic_mean_tri(tau) == Fraction(9, 25)
    assert abs(analytic_rank_tri(tau) - RANK_ABC) < 1e-12


def test_diagonal_rank_adds_across_coordinates():
    tau = TrilinearForm.diagonal(P52)
    assert analytic_mean_tri(tau) == Fraction(81, 625)
    assert abs(analytic_rank_tri(tau) - 2 * RANK_ABC) < 1e-12


def test_rank_invariant_under_nonzero_scaling():
    tau = _random_form(P52, 17)
    base = analytic_mean_tri(tau)
    for lam in (1, 2, 3, 4):
        assert analytic_mean_tri(tau.scaled(lam)) == base


def test_mean_equals_slice_rank_average_all_axes():
    tau = _random_form(P52, 18)
    mean = analytic_mean_tri(tau)
    for axis in (0, 1, 2):
        assert slice_rank_mean(tau.slices(axis)) == mean


def test_mean_budget_rejects_large_group():
    with pytest.raises(ValueError):
        analytic_mean_tri(TrilinearForm.zero(P53))


# ------------------------------------------------------------------
# symmetrization
# ------------------------------------------------------------------


def test_symmetrize_recomposes_and_is_idempotent():
    tau = _random_form(P52, 19)
    sym, resid = symmetrize(tau)
    assert np.array_equal((sym + resid).coeffs, tau.coeffs)
    again, zero = symmetrize(sym)
    assert np.array_equal(again.coeffs, sym.coeffs)
    assert not np.any(zero.coeffs)


def test_symmetrize_orbit_coefficients():
    raw = np.zeros((2, 2, 2), dtype=np.int64)
    raw[0, 1, 0] = 1
    sym, _ = symmetrize(TrilinearForm(P52, raw))
    want = np.zeros((2, 2, 2), dtype=np.int64)
    for pos in ((0, 1, 0), (0, 0, 1), (1, 0, 0)):
        want[pos] = 2
    assert np.array_equal(sym.coeffs, want)


def test_symmetrize_output_symmetric_random():
    for seed in range(5):
        sym, _ = symmetrize(_random_form(P52, 20 + seed))
        assert sym.is_symmetric()


def test_symmetric_input_is_fixed():
    tau = _symmetric_form(P52, 25)
    sym, resid = symmetrize(tau)
    assert np.array_equal(sym.coeffs, tau.coeffs)
    assert not np.any(resid.coeffs)


def test_symmetrize_rejects_small_characteristic():
    params = GroupParams(3, 1)
    with pytest.raises(ValueError):
        symmetrize(TrilinearForm.zero(params))


# ------------------------------------------------------------------
# rank subadditivity of sums
# ------------------------------------------------------------------


def test_subadditivity_zero_pair():
    z = TrilinearForm.zero(P52)
    ok, r1, r2, r12 = subadditivity_check(z, z)
    assert ok and r1 == 0.0 and r2 == 0.0 and r12 == 0.0


def test_subadditivity_opposite_forms():
    tau = _product_form()
    ok, r1, r2, r12 = subadditivity_check(tau, tau.scaled(-1))
    assert ok
    assert abs(r1 - RANK_ABC) < 1e-12
    assert abs(r2 - RANK_ABC) < 1e-12
    assert r12 == 0.0


def test_subadditivity_fifty_random_pairs():
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        s1 = TrilinearForm(P52, rng.integers(0, 5, size=(2, 2, 2)))
        s2 = TrilinearForm(P52, rng.integers(0, 5, size=(2, 2, 2)))
        ok, _, _, _ = subadditivity_check(s1, s2)
        assert ok


# ------------------------------------------------------------------
# box averages against the rank bound
# ------------------------------------------------------------------


def test_box_value_ones_product_form():
    ones = GridFn.constant(P5, 1.0)
    val = box3_value(_product_form(), ones, ones, ones)
    assert abs(abs(val) - 9 / 25) < 1e-12
    assert box3_criterion(_product_form(), ones, ones, ones)
    assert 9 / 25 <= 5 ** (-RANK_ABC / 8) + 1e-9


def test_box_value_zero_form_is_one():
    ones = GridFn.constant(P5, 1.0)
    val = box3_value(TrilinearForm.zero(P5), ones, ones, ones)
    assert abs(val - 1.0) < 1e-12
    assert box3_criterion(TrilinearForm.zero(P5), ones, ones, ones)


def test_box_criterion_hundred_random_inputs():
    diag = TrilinearForm.diagonal(P52)
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        grids = [
            GridFn(P52, rng.random((25, 25)) * np.exp(2j * np.pi * rng.random((25, 25))))
            for _ in range(3)
        ]
        assert box3_criterion(diag, *grids)


def test_box_rejects_unbounded_input():
    ones = GridFn.constant(P5, 1.0)
    big = GridFn.constant(P5, 2.0)
    with pytest.raises(ValueError):
        box3_value(_product_form(), big, ones, ones)


# ------------------------------------------------------------------
# structure of low-rank slice families
# ------------------------------------------------------------------


def test_lowrank_single_entry_family():
    mats = np.zeros((3, 3, 3), dtype=np.int64)
    mats[0][0, 0] = 1
    fam = SliceFamily(P53, mats)
    w, e, f = lowrank_subspaces(fam, 1)
    assert w.basis == (5, 25)
    assert e.basis == (5, 25)
    assert f.basis == (1,)
    assert w.codim == 1 and e.codim == 1 and f.dim == 1


def test_lowrank_zero_family():
    fam = SliceFamily(P53, np.zeros((3, 3, 3), dtype=np.int64))
    w, e, f = lowrank_subspaces(fam, 2)
    assert w.dim == 3 and e.dim == 3 and f.dim == 0


def test_lowrank_random_bounded_rank_families():
    for seed in range(3):
        rng = np.random.default_rng(400 + seed)
        m1 = np.outer(rng.integers(1, 5, size=2), rng.integers(1, 5, size=2)) % 5
        m2 = np.outer(rng.integers(1, 5, size=2), rng.integers(1, 5, size=2)) % 5
        mats = np.stack([m1, m2]).astype(np.int64)
        fam = SliceFamily(P52, mats)
        kstar = max(gf_rank(5, fam.slice_at(x)) for x in range(25))
        assert kstar <= 2
        w, e, f = lowrank_subspaces(fam, 2)
        assert w.codim <= kstar**2
        assert e.codim == kstar
        assert f.dim == kstar


def test_lowrank_rejects_rank_above_bound():
    mats = np.zeros((2, 2, 2), dtype=np.int64)
    mats[0] = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError):
        lowrank_subspaces(SliceFamily(P52, mats), 1)


# ------------------------------------------------------------------
# phase products and derivative correlations
# ------------------------------------------------------------------


def _random_phase_product(seed):
    rng = np.random.default_rng(seed)
    return PhaseProduct(
        params=P52,
        ab=rng.integers(0, 5, size=(2, 2)),
        bc=rng.integers(0, 5, size=(2, 2)),
        ac=rng.integers(0, 5, size=(2, 2)),
        la=rng.integers(0, 5, size=2),
        lb=rng.integers(0, 5, size=2),
        lc=rng.integers(0, 5, size=2),
        const=int(rng.integers(0, 5)),
    )


def test_phase_product_shift_identity():
    h = _random_phase_product(26)
    rng = np.random.default_rng(27)
    for a0, b0, c0, a, b, c in rng.integers(0, 25, size=(20, 6)):
        a0, b0, c0, a, b, c = (int(x) for x in (a0, b0, c0, a, b, c))
        moved = h.shifted(a0, b0, c0)
        assert moved.exponent(a, b, c) == h.exponent(P52.add(a, a0), P52.add(b, b0), P52.add(c, c0))


def test_phase_product_combine_adds_exponents():
    h1 = _random_phase_product(28)
    h2 = _random_phase_product(29)
    both = h1.combine(h2)
    rng = np.random.default_rng(30)
    for a, b, c in rng.integers(0, 25, size=(20, 3)):
        a, b, c = int(a), int(b), int(c)
        assert both.exponent(a, b, c) == (h1.exponent(a, b, c) + h2.exponent(a, b, c)) % 5


def test_tri_correlation_planted_cubic():
    kappa = PolyPhase.from_coeffs(P5, {(0, 0, 0): 1})
    f = poly_phase_fn(kappa)
    tau = TrilinearForm(P5, np.full((1, 1, 1), 6 % 5, dtype=np.int64))
    val = tri_correlation(f, PhaseProduct.one(P5), tau)
    assert abs(val - 1.0) < 1e-10


def test_tri_correlation_budget():
    f = GroupFn(P53, np.zeros(125, dtype=complex))
    tau = TrilinearForm.zero(P53)
    with pytest.raises(ValueError):
        tri_correlation(f, PhaseProduct.one(P53), tau)


# ------------------------------------------------------------------
# restriction of correlations to subspace cosets
# ------------------------------------------------------------------


def _mixed_planted_single():
    kappa = PolyPhase.from_coeffs(P5, {(0, 0, 0): 1})
    rng = np.random.default_rng(11)
    vals = 0.917 * poly_phase_fn(kappa).values + 0.083 * np.exp(2j * np.pi * rng.random(5))
    return GroupFn(P5, vals), TrilinearForm(P5, np.full((1, 1, 1), 6 % 5, dtype=np.int64)), rng


def test_pass_identity_preserves_value():
    f, tau, _ = _mixed_planted_single()
    full = Subspace.from_generators(P5, [1])
    alpha0 = abs(tri_correlation(f, PhaseProduct.one(P5), tau, full))
    assert alpha0 >= 0.5
    w, _, val = pass_to_subspace(f, PhaseProduct.one(P5), tau, full, full)
    assert w == 0
    assert abs(val - alpha0) < 1e-12


def test_pass_pure_cubic_to_hyperplane():
    kappa = PolyPhase.from_coeffs(P52, {(0, 0, 0): 1})
    f = poly_phase_fn(kappa)
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[0, 0, 0] = 6 % 5
    tau = TrilinearForm(P52, coeffs)
    big = Subspace.from_generators(P52, [1, 5])
    small = Subspace.from_generators(P52, [1])
    w, _, val = pass_to_subspace(f, PhaseProduct.one(P52), tau, big, small)
    assert abs(val - 1.0) < 1e-9


def test_pass_planted_mix_improves_or_preserves():
    _, _, rng = _mixed_planted_single()
    kappa = PolyPhase.from_coeffs(P52, {(0, 0, 0): 1})
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[0, 0, 0] = 6 % 5
    tau = TrilinearForm(P52, coeffs)
    vals = 0.917 * poly_phase_fn(kappa).values + 0.083 * np.exp(2j * np.pi * rng.random(25))
    f = GroupFn(P52, vals)
    big = Subspace.from_generators(P52, [1, 5])
    small = Subspace.from_generators(P52, [1])
    alpha0 = abs(tri_correlation(f, PhaseProduct.one(P52), tau, big))
    assert alpha0 >= 0.5
    _, _, val = pass_to_subspace(f, PhaseProduct.one(P52), tau, big, small)
    assert val >= alpha0 - 1e-9
    assert val >= 0.5


def test_pass_requires_nested_subspaces():
    f, tau, _ = _mixed_planted_single()
    f2 = GroupFn(P52, np.tile(f.values, 5))
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    tau2 = TrilinearForm(P52, coeffs)
    inside = Subspace.from_generators(P52, [1])
    outside = Subspace.from_generators(P52, [5])
    with pytest.raises(ValueError):
        pass_to_subspace(f2, PhaseProduct.one(P52), tau2, inside, outside)


# ------------------------------------------------------------------
# the symmetrization pipeline
# ------------------------------------------------------------------


def _planted_sym_plus_rank_one():
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 5, size=(2, 2, 2))
    acc = np.zeros((2, 2, 2), dtype=np.int64)
    for perm in itertools.permutations((0, 1, 2)):
        acc = (acc + np.transpose(raw, perm)) % 5
    delta = np.zeros((2, 2, 2), dtype=np.int64)
    delta[0, 1, 0] = 1
    return TrilinearForm(P52, (acc + delta) % 5), TrilinearForm(P52, delta)


def test_pipeline_planted_cubic_full_report():
    kappa = PolyPhase.from_coeffs(P5, {(0, 0, 0): 1})
    f = poly_phase_fn(kappa)
    tau = TrilinearForm(P5, np.full((1, 1, 1), 6 % 5, dtype=np.int64))
    sigma, report = symmetry_pipeline(f, tau, ZLIN1, ZLIN1)
    assert abs(report.alpha - 1.0) < 1e-9
    assert report.residual_rank == 0.0
    assert report.asserted
    assert report.bound is not None and abs(report.bound) < 1e-9
    assert all(rank == 0.0 for _, rank in report.perm_ranks)
    assert np.array_equal(sigma.coeffs, tau.coeffs)


def test_pipeline_vacuous_when_uncorrelated():
    tau, _ = _planted_sym_plus_rank_one()
    f = GroupFn(P52, np.zeros(25, dtype=complex))
    _, report = symmetry_pipeline(f, tau, ZLIN2, ZLIN2)
    assert report.alpha == 0.0
    assert not report.asserted
    assert report.bound is None


def test_pipeline_random_phase_keeps_assertion():
    tau, delta = _planted_sym_plus_rank_one()
    f = _unimodular(P52, 9)
    sigma, report = symmetry_pipeline(f, tau, ZLIN2, ZLIN2)
    assert abs(report.alpha - 0.11011244249808749) < 1e-9
    assert abs(report.residual_rank - 1.406307358832918) < 1e-9
    assert report.asserted
    assert abs(report.bound - 1.3708222067542952) < 1e-9
    ranks = dict(report.perm_ranks)
    assert ranks[(0, 1, 2)] == 0.0
    assert ranks[(2, 1, 0)] == 0.0
    cycles = [ranks[p] for p in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1))]
    assert all(abs(r - cycles[0]) < 1e-12 for r in cycles)
    assert all(r <= report.bound + 1e-9 for r in cycles)
    resid = tau - sigma
    sym_delta, _ = symmetrize(delta)
    assert np.array_equal(resid.coeffs, (delta - sym_delta).coeffs)


def test_pipeline_nonzero_linear_maps():
    kappa = PolyPhase.from_coeffs(P5, {(0, 0, 0): 1})
    f = poly_phase_fn(kappa)
    tau = TrilinearForm(P5, np.full((1, 1, 1), 1, dtype=np.int64))
    rho = (np.array([[2]], dtype=np.int64), np.zeros(1, dtype=np.int64))
    sig = (np.array([[3]], dtype=np.int64), np.zeros(1, dtype=np.int64))
    _, report = symmetry_pipeline(f, tau, rho, sig)
    assert abs(report.alpha - 0.2) < 1e-9
    assert report.asserted


def test_pipeline_rejects_unbounded():
    tau, _ = _planted_sym_plus_rank_one()
    f = GroupFn(P52, 3.0 * np.ones(25, dtype=complex))
    with pytest.raises(ValueError):
        symmetry_pipeline(f, tau, ZLIN2, ZLIN2)


def test_pipeline_bound_is_zero_when_alpha_rounds_above_one(monkeypatch):
    # alpha <= 1 for a bounded f, but the float sum can land a few ulps above
    monkeypatch.setattr(ulab.trilinear, "tri_correlation", lambda *args: 1.0000000000000002)
    f = poly_phase_fn(PolyPhase.from_coeffs(P5, {(0, 0, 0): 1}))
    tau = TrilinearForm(P5, np.full((1, 1, 1), 1, dtype=np.int64))
    _, report = symmetry_pipeline(f, tau, ZLIN1, ZLIN1)
    assert report.alpha == 1.0000000000000002
    assert report.asserted
    assert report.bound == 0.0


# ------------------------------------------------------------------
# cubic phases from symmetric forms
# ------------------------------------------------------------------


def test_kappa_of_product_form():
    sigma = _product_form()
    kappa, cstar = kappa_from_sigma(sigma)
    assert kappa.terms == (((0, 0, 0), 1),)
    assert cstar == (-6) % 5 == 4
    cube = lambda x: (x**3) % 5
    alt = (-cube(0) + 3 * cube(4) - 3 * cube(3) + cube(2)) % 5
    assert alt == (cstar * sigma.evaluate(1, 1, 1)) % 5


def test_kappa_zero_form():
    kappa, cstar = kappa_from_sigma(TrilinearForm.zero(P5))
    assert kappa.terms == ()
    assert cstar == 4


def test_kappa_constant_universal_across_inputs():
    for seed in range(3):
        _, cstar = kappa_from_sigma(_symmetric_form(P5, 500 + seed))
        assert cstar == 4
    for seed in range(2):
        _, cstar = kappa_from_sigma(_symmetric_form(P52, 510 + seed))
        assert cstar == 4


def test_kappa_rejects_asymmetric_input():
    skew = np.zeros((2, 2, 2), dtype=np.int64)
    skew[0, 1, 0] = 1
    with pytest.raises(ValueError):
        kappa_from_sigma(TrilinearForm(P52, skew))


def test_kappa_rejects_small_characteristic_and_certifies_large_group():
    with pytest.raises(ValueError):
        kappa_from_sigma(TrilinearForm.zero(GroupParams(3, 1)))
    # p^{4n} = 2.4e8 points, past any exhaustive check; the certificate is O(n^3)
    _, cstar = kappa_from_sigma(TrilinearForm.zero(P53))
    assert cstar == 4
    kappa, cstar = kappa_from_sigma(_symmetric_form(P53, 520))
    assert cstar == 4 and kappa.degree == 3


# ------------------------------------------------------------------
# lower bounds for the third uniformity norm
# ------------------------------------------------------------------


def test_u3_ones_matches_eighth_power():
    rng = np.random.default_rng(7)
    g = GroupFn(P52, np.exp(2j * np.pi * rng.random(25)) * rng.random(25))
    ones = GridFn.constant(P52, 1.0)
    alpha, norm = u3_lower(g, ones, ones, ones)
    assert abs(alpha - norm**8) < 1e-10


def test_u3_quadratic_phase_saturates():
    q = PolyPhase.from_coeffs(P52, {(0, 0): 2, (1,): 3})
    g = poly_phase_fn(q)
    ones = GridFn.constant(P52, 1.0)
    alpha, norm = u3_lower(g, ones, ones, ones)
    assert abs(alpha - 1.0) < 1e-9
    assert abs(norm - 1.0) < 1e-9


def test_u3_hundred_random_quadruples():
    for seed in range(100):
        rng = np.random.default_rng(100 + seed)
        g = GroupFn(P52, np.exp(2j * np.pi * rng.random(25)) * rng.random(25))
        grids = [
            GridFn(P52, rng.random((25, 25)) * np.exp(2j * np.pi * rng.random((25, 25))))
            for _ in range(3)
        ]
        alpha, norm = u3_lower(g, *grids)
        assert alpha <= norm + 1e-9


def test_u3_rejects_unbounded():
    ones = GridFn.constant(P52, 1.0)
    with pytest.raises(ValueError):
        u3_lower(GroupFn(P52, 2.0 * np.ones(25, dtype=complex)), ones, ones, ones)
    good = _unimodular(P52, 31)
    with pytest.raises(ValueError):
        u3_lower(good, GridFn.constant(P52, 3.0), ones, ones)


# ------------------------------------------------------------------
# exhaustive quadratic phase search
# ------------------------------------------------------------------


def test_search_recovers_pure_quadratic():
    q = PolyPhase.from_coeffs(P5, {(0, 0): 1})
    found, corr = quad_phase_search(poly_phase_fn(q))
    assert found.terms == (((0, 0), 1),)
    assert corr >= 1 - 1e-12


def test_search_tolerates_ten_percent_corruption():
    rng = np.random.default_rng(3)
    q1 = PolyPhase.from_coeffs(P5, {(0, 0): 1})
    noisy1 = GroupFn(P5, 0.9 * poly_phase_fn(q1).values + 0.1 * np.exp(2j * np.pi * rng.random(5)))
    found1, corr1 = quad_phase_search(noisy1)
    assert found1.terms == q1.terms
    assert corr1 >= 0.9
    q2 = PolyPhase.from_coeffs(P52, {(0, 1): 2, (1,): 1})
    noisy2 = GroupFn(P52, 0.9 * poly_phase_fn(q2).values + 0.1 * np.exp(2j * np.pi * rng.random(25)))
    found2, corr2 = quad_phase_search(noisy2)
    assert found2.terms == q2.terms
    assert corr2 >= 0.89


def test_search_full_quadratic_two_dims():
    q = PolyPhase.from_coeffs(P52, {(0, 0): 3, (1, 1): 1, (0,): 2})
    found, corr = quad_phase_search(poly_phase_fn(q))
    assert found.terms == q.terms
    assert corr >= 1 - 1e-9


def test_search_random_unimodular_stays_small():
    for seed in (40, 41):
        g = _unimodular(P52, seed)
        _, corr = quad_phase_search(g)
        assert 0.0 < corr < 0.9


def test_search_budget():
    # the transform holds 5^6 quadratic parts times N = 125 values, 1.95e6 > SIZE_CAP
    with pytest.raises(BudgetError, match=r"p\^6 quadratic parts times N = 125"):
        quad_phase_search(GroupFn(P53, np.ones(125, dtype=complex)))


def test_search_recovers_cross_term_on_f11_squared():
    # 11^3 quadratic parts times N = 121 is 161,051 values, within SIZE_CAP
    q = PolyPhase.from_coeffs(GroupParams(11, 2), {(0, 0): 4, (0, 1): 7, (1, 1): 2, (1,): 9})
    found, corr = quad_phase_search(poly_phase_fn(q))
    assert found.terms == q.terms
    assert corr >= 1 - 1e-9


def test_search_deterministic_and_constant_free():
    g = _unimodular(P52, 42)
    q1, c1 = quad_phase_search(g)
    q2, c2 = quad_phase_search(g)
    assert q1.terms == q2.terms and c1 == c2
    assert all(mono != () for mono, _ in q1.terms)


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------


def test_json_roundtrip():
    tau = _random_form(P52, 43)
    blob = trilinear_to_json(tau)
    back = trilinear_from_json(blob)
    assert back.params == tau.params
    assert np.array_equal(back.coeffs, tau.coeffs)


def test_json_schema_and_sparsity():
    blob = trilinear_to_json(TrilinearForm.zero(P52))
    assert set(blob) == {"p", "n", "coeffs"}
    assert blob["coeffs"] == []
    tau = _product_form()
    blob2 = trilinear_to_json(tau)
    assert blob2["coeffs"] == [[0, 0, 0, 1]]
