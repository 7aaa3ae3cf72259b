"""Tests for trilinear forms: exact rank statistics, symmetrization, the
symmetry correlation, cubic phase extraction, and exhaustive quadratic
phase search."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilinear_oracle as oracle
from trilinear_oracle import SliceFamily
import ulab.core
import ulab.trilinear
from ulab.core import GroupFn, GroupParams, PolyPhase, poly_phase_fn
from ulab.gowers import uk_norm
from ulab.grid import GridFn
from ulab.trilinear import (
    TrilinearForm,
    analytic_means_tri,
    analytic_rank_tri,
    box3_criterion,
    box3_value,
    kappa_from_sigma,
    quad_phase_search,
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


def _slot_first(tau, axis):
    """tau with its slot `axis` moved first, by `permute_args`: its
    first-slot slices are tau's slices along `axis`."""
    return tau.permute_args([(0, 1, 2), (1, 0, 2), (1, 2, 0)][axis])


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
        assert oracle.form_value(tau, int(a), int(b), int(c)) == want % 5


def test_evaluate_is_linear_in_each_slot():
    tau = _random_form(P52, 3)
    rng = np.random.default_rng(4)
    for a, a2, b, c in rng.integers(0, 25, size=(20, 4)):
        a, a2, b, c = int(a), int(a2), int(b), int(c)
        s = P52.add(a, a2)
        value = oracle.form_value
        assert value(tau, s, b, c) == (value(tau, a, b, c) + value(tau, a2, b, c)) % 5
        assert value(tau, b, s, c) == (value(tau, b, a, c) + value(tau, b, a2, c)) % 5
        assert value(tau, b, c, s) == (value(tau, b, c, a) + value(tau, b, c, a2)) % 5


def test_permute_args_all_six_orders():
    tau = _random_form(P52, 5)
    rng = np.random.default_rng(6)
    pts = rng.integers(0, 25, size=(20, 3))
    for perm in itertools.permutations((0, 1, 2)):
        new = tau.permute_args(perm)
        for row in pts:
            args = [int(x) for x in row]
            assert oracle.form_value(new, *args) == oracle.form_value(tau, *(args[i] for i in perm))


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
        assert oracle.form_value(tau, int(a), int(b), int(c)) == want


def test_diagonal_form_values():
    tau = TrilinearForm.diagonal(P52)
    rng = np.random.default_rng(9)
    for a, b, c in rng.integers(0, 25, size=(20, 3)):
        da, db, dc = P52.digits(int(a)), P52.digits(int(b)), P52.digits(int(c))
        assert oracle.form_value(tau, int(a), int(b), int(c)) == int((da * db * dc).sum()) % 5


def test_addition_subtraction_scaling():
    tau = _random_form(P52, 10)
    rho = _random_form(P52, 11)
    back = (tau + rho) - rho
    assert np.array_equal(back.coeffs, tau.coeffs)
    doubled = oracle.scaled(tau, 2)
    rng = np.random.default_rng(12)
    for a, b, c in rng.integers(0, 25, size=(10, 3)):
        a, b, c = int(a), int(b), int(c)
        assert oracle.form_value(doubled, a, b, c) == (2 * oracle.form_value(tau, a, b, c)) % 5


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
        fam = SliceFamily.of(tau, axis)
        for row in pts:
            a, b, c = (int(x) for x in row)
            mat = oracle.slice_at(fam, (a, b, c)[axis])
            rest = [(a, b, c)[i] for i in range(3) if i != axis]
            got = int(P52.digits(rest[0]) @ mat @ P52.digits(rest[1])) % 5
            assert got == oracle.form_value(tau, a, b, c)


def test_slice_at_is_additive():
    fam = SliceFamily.of(_random_form(P52, 16))
    for x in range(25):
        for y in range(25):
            s = P52.add(x, y)
            want = (oracle.slice_at(fam, x) + oracle.slice_at(fam, y)) % 5
            assert np.array_equal(oracle.slice_at(fam, s), want)


# ------------------------------------------------------------------
# exact rank statistics
# ------------------------------------------------------------------


def test_zero_form_has_mean_one_rank_zero():
    tau = TrilinearForm.zero(P52)
    assert analytic_means_tri([tau]) == [Fraction(1)]
    assert analytic_rank_tri(tau) == 0.0


def test_product_form_mean_and_rank():
    tau = _product_form()
    assert analytic_means_tri([tau]) == [Fraction(9, 25)]
    assert abs(analytic_rank_tri(tau) - RANK_ABC) < 1e-12


def test_diagonal_rank_adds_across_coordinates():
    tau = TrilinearForm.diagonal(P52)
    assert analytic_means_tri([tau]) == [Fraction(81, 625)]
    assert abs(analytic_rank_tri(tau) - 2 * RANK_ABC) < 1e-12


def test_rank_invariant_under_nonzero_scaling():
    tau = _random_form(P52, 17)
    means = analytic_means_tri([oracle.scaled(tau, lam) for lam in (1, 2, 3, 4)])
    assert means == [oracle.slice_rank_mean(SliceFamily.of(tau))] * 4


def test_mean_equals_slice_rank_average_all_axes():
    # the forms with each slot moved first, ranked in one batch, give the
    # per-slice means along every slot of tau, and those agree
    tau = _random_form(P52, 18)
    moved = [_slot_first(tau, axis) for axis in (0, 1, 2)]
    means = analytic_means_tri(moved)
    for axis, form in enumerate(moved):
        fam = SliceFamily.of(tau, axis)
        assert np.array_equal(SliceFamily.of(form).mats, fam.mats)
        assert means[axis] == oracle.slice_rank_mean(fam)
    assert means[1] == means[2] == means[0]


def test_mean_on_a_large_group_is_not_refused():
    # p^{3n} = 1.95e6 triples: the slice ranks need no triple count
    assert analytic_means_tri([TrilinearForm.zero(P53)]) == [Fraction(1)]


# every F_p^n with p^{3n} <= 10^6, that is p^n <= 100
MEAN_GROUPS = [(p, 1) for p in range(2, 101) if all(p % d for d in range(2, p))]
MEAN_GROUPS += [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (2, 6)]


@pytest.mark.parametrize("group", MEAN_GROUPS, ids=lambda g: "F%d^%d" % g)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([0, 1, 2]))
def test_mean_matches_the_triple_count(group, seed, axis):
    params = GroupParams(*group)
    rng = np.random.default_rng(seed)
    n = params.n
    # often sparse, so zero forms and low ranks come up too
    coeffs = rng.integers(0, params.p, size=(n, n, n)) * (rng.random((n, n, n)) < rng.random())
    tau = TrilinearForm(params, coeffs)
    mean = oracle.analytic_mean_tri(tau)
    assert analytic_means_tri([tau, _slot_first(tau, axis)]) == [mean, mean]
    assert oracle.slice_rank_mean(SliceFamily.of(tau, axis)) == mean


@pytest.mark.parametrize("group", [(2, 6), (3, 4), (5, 2), (7, 1)], ids=lambda g: "F%d^%d" % g)
@pytest.mark.parametrize("seed", [1, 7, 40])
def test_slice_rank_mean_blocks_match_the_loop(monkeypatch, group, seed):
    # SIZE_CAP at p^n keeps the ceiling on the p^n members and splits the
    # ranks of three forms into blocks of p^n // (3 n^2) members, at least
    # one: 1 on F_2^6 and F_3^4, 2 on F_5^2 and F_7.  The means must not
    # change.
    params = GroupParams(*group)
    n = params.n
    rng = np.random.default_rng(seed + 10 * n)
    forms = [
        TrilinearForm(params, rng.integers(0, params.p, size=(n, n, n)) * (rng.random((n, n, n)) < 0.5))
        for _ in range(3)
    ]
    want = [oracle.slice_rank_mean(SliceFamily.of(tau)) for tau in forms]
    monkeypatch.setattr(ulab.core, "SIZE_CAP", params.size)
    blocks = []
    echelon = ulab.core._echelon
    monkeypatch.setattr(ulab.core, "_echelon", lambda *a: blocks.append(1) or echelon(*a))
    assert analytic_means_tri(forms) == want
    assert len(blocks) >= params.size // 2


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


def _subadditive(s: TrilinearForm, t: TrilinearForm) -> bool:
    """rank(s + t) <= 8 (rank(s) + rank(t)), compared on the exact rational
    means (mean of the sum at least the 8th power of the product of the means)."""
    sum_mean, s_mean, t_mean = analytic_means_tri([s + t, s, t])
    return sum_mean >= (s_mean * t_mean) ** 8


def test_subadditivity_zero_pair():
    z = TrilinearForm.zero(P52)
    assert _subadditive(z, z)
    assert analytic_rank_tri(z + z) == 0.0


def test_subadditivity_opposite_forms():
    tau = _product_form()
    assert _subadditive(tau, oracle.scaled(tau, -1))
    assert abs(analytic_rank_tri(tau) - RANK_ABC) < 1e-12
    assert abs(analytic_rank_tri(oracle.scaled(tau, -1)) - RANK_ABC) < 1e-12
    assert analytic_rank_tri(tau + oracle.scaled(tau, -1)) == 0.0


def test_subadditivity_fifty_random_pairs():
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        s1 = TrilinearForm(P52, rng.integers(0, 5, size=(2, 2, 2)))
        s2 = TrilinearForm(P52, rng.integers(0, 5, size=(2, 2, 2)))
        assert _subadditive(s1, s2)


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
# phase products and derivative correlations
# ------------------------------------------------------------------


def test_tri_correlation_planted_cubic():
    kappa = PolyPhase.from_coeffs(P5, {(0, 0, 0): 1})
    f = poly_phase_fn(kappa)
    tau = TrilinearForm(P5, np.full((1, 1, 1), 6 % 5, dtype=np.int64))
    val = tri_correlation(f, oracle.phase_one(P5), tau)
    assert abs(val - 1.0) < 1e-10


def test_tri_correlation_on_f5_cubed():
    # p^{3n} = 1.95e6 triples: the spectra route holds O(N^2) per row, so no refusal
    tau = TrilinearForm.zero(P53)
    assert tri_correlation(GroupFn(P53, np.zeros(125, dtype=complex)), oracle.phase_one(P53), tau) == 0
    rng = np.random.default_rng(53)
    f = GroupFn(P53, rng.random(125) * np.exp(2j * np.pi * rng.random(125)))
    want = uk_norm(f, 3).value ** 8
    assert abs(tri_correlation(f, oracle.phase_one(P53), tau) - want) <= 1e-12 * want


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


@pytest.mark.parametrize("group", [(5, 1), (7, 1), (5, 2), (7, 2), (5, 3), (11, 2)])
def test_pipeline_ranks_all_forms_in_one_call(group, monkeypatch):
    # the ranks do not depend on f; f = 0 keeps the rank assertion vacuous
    params = GroupParams(*group)
    n = params.n
    zlin = (np.zeros((n, n), dtype=np.int64), np.zeros(n, dtype=np.int64))
    f = GroupFn(params, np.zeros(params.size, dtype=complex))
    calls = []
    inner = ulab.trilinear.gf_family_ranks
    monkeypatch.setattr(ulab.trilinear, "gf_family_ranks", lambda *a: calls.append(1) or inner(*a))
    for seed in range(4):
        tau = _random_form(params, seed)
        if seed == 3:
            tau = symmetrize(tau)[0]
        calls.clear()
        _, report = symmetry_pipeline(f, tau, zlin, zlin)
        assert len(calls) == 1
        assert (report.perm_ranks, report.residual_rank) == oracle.symmetry_ranks(tau)


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
    assert alt == (cstar * oracle.form_value(sigma, 1, 1, 1)) % 5


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
    assert cstar == 4 and {len(m) for m, _ in kappa.terms} == {3}


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


def test_search_recovers_cross_term_on_f11_squared():
    # 11^3 quadratic parts times N = 121 is 161,051 values, one block
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
