"""Property tests: `tri_correlation`, `u3_lower` and `quad_phase_search`
against the loops and tables in `trilinear_oracle`, and identities checked
where the oracle loops are too slow.

The correlation reads each (a, b) term off the spectrum of the second
derivative by the autocorrelation (Parseval) identity, at one frequency,
so it sums other terms than the oracle's loop, not the same terms in
another order.  It transforms one spectrum per orbit of (a, b) under sign
changes and swaps, and a pair whose spectrum is its representative's
mirrored r -> -r reads it at the negated frequency; p = 2 and 3 are among
the groups, so the orbits' small and degenerate cases come up.  The two
must agree within 1e-12 on random bounded f, random phase products and
forms.  `u3_lower` takes its
autocorrelations as the inverse transform of the power spectrum
(Wiener-Khinchin), within 1e-12 of the oracle's gather.  On F_11^2 and
F_5^3, with h = 1 and tau = 0, both equal the U^3 norm to the eighth power,
and a planted cubic correlates with its own third difference at 1.  The
quadratic search scores by FFT what the oracle scores by a candidate table:
the chosen terms must be identical and the correlations within 1e-12, exact
ties included.  The search goes through its quadratic parts in blocks of
SIZE_CAP // N; at every block size it must return the bits of the
unblocked oracle, also on real inputs, where Q and -Q tie across blocks.

The pipeline's cubic stage once ran `u3_lower` on the remainder
f omega^{-kappa} with the phases of the fitted maps as grids
(`oracle.cubic_stage_box`).  Its correlation is |tri_correlation(f, h,
sigma)| for the symmetry stage's phase product h, within 1e-12, on planted
cubics, on corrupted inputs where sigma differs from the fitted tau, and on
random bounded inputs; its norm is `uk_norm` of the remainder, which the
stage now reports, bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trilinear_oracle as oracle
import ulab.pipeline
from ulab import gowers, trilinear
from ulab.core import GroupFn, GroupParams, PolyPhase, poly_phase_fn
from ulab.gowers import uk_norm
from ulab.grid import GridFn
from ulab.pipeline import STAGES, PipelineConfig, run_inverse_pipeline
from ulab.trilinear import (
    PhaseProduct,
    TrilinearForm,
    quad_phase_search,
    symmetrize,
    symmetry_pipeline,
    tri_correlation,
    u3_lower,
)

TOL = 1e-12
GROUPS = [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3)]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_inputs(params: GroupParams, rng: np.random.Generator):
    p, n, N = params.p, params.n, params.size
    f = GroupFn(params, rng.random(N) * np.exp(2j * np.pi * rng.random(N)))

    def m():
        return rng.integers(0, p, size=(n, n))

    def v():
        return rng.integers(0, p, size=n)

    h = PhaseProduct(params, m(), m(), m(), v(), v(), v(), int(rng.integers(p)))
    tau = TrilinearForm(params, rng.integers(0, p, size=(n, n, n)))
    return f, h, tau


@SETTINGS
@given(st.sampled_from(GROUPS), st.integers(0, 2**32 - 1))
def test_tri_correlation_matches_the_pair_loop(group, seed):
    params = GroupParams(*group)
    f, h, tau = _random_inputs(params, np.random.default_rng(seed))
    assert abs(tri_correlation(f, h, tau) - oracle.tri_correlation(f, h, tau)) < TOL


def test_tri_correlation_gathers_once_per_row(monkeypatch):
    # one second-derivative gather per batch of N orbit representatives: the
    # 625 pairs (a, b) of the N = 25 point group fall into 91 orbits under
    # sign changes and swaps, so ceil(91 / 25) = 4 gathers, in the symmetry
    # correlation and in the gate's peak map alike, since both read the
    # same orbit pass
    params = GroupParams(5, 2)
    N = params.size
    reps, _, _ = gowers._orbit_slots(params)
    orbits = len(reps)
    assert orbits == 91
    f, h, tau = _random_inputs(params, np.random.default_rng(3))
    want = oracle.tri_correlation(f, h, tau)
    calls = []
    gather = gowers._derivative2_rows
    monkeypatch.setattr(gowers, "_derivative2_rows", lambda *args: calls.append(1) or gather(*args))
    got = tri_correlation(f, h, tau)
    assert len(calls) == -(-orbits // N) == 4
    assert abs(got - want) < TOL
    calls.clear()
    gowers.derivative2_peaks(f)
    assert len(calls) == 4


@SETTINGS
@given(st.sampled_from(GROUPS), st.integers(0, 2**32 - 1))
def test_u3_lower_matches_the_four_way_gather(group, seed):
    params = GroupParams(*group)
    rng = np.random.default_rng(seed)
    N = params.size
    g = GroupFn(params, rng.random(N) * np.exp(2j * np.pi * rng.random(N)))
    grids = [GridFn(params, rng.random((N, N)) * np.exp(2j * np.pi * rng.random((N, N)))) for _ in range(3)]
    alpha, _ = u3_lower(g, *grids)
    assert abs(alpha - oracle.u3_lower_alpha(g, *grids)) < TOL


# groups past the p^{3n} reach of the oracle loops
IDENTITY_GROUPS = [(11, 2), (5, 3)]


def _bounded(params: GroupParams, seed: int) -> GroupFn:
    rng = np.random.default_rng(seed)
    return GroupFn(params, rng.random(params.size) * np.exp(2j * np.pi * rng.random(params.size)))


@pytest.mark.parametrize("group", IDENTITY_GROUPS)
def test_tri_correlation_of_one_is_the_u3_power(group):
    params = GroupParams(*group)
    f = _bounded(params, 11)
    want = uk_norm(f, 3).value ** 8
    got = tri_correlation(f, oracle.phase_one(params), TrilinearForm.zero(params))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("group", IDENTITY_GROUPS)
def test_u3_lower_of_ones_is_the_u3_power(group):
    params = GroupParams(*group)
    f = _bounded(params, 12)
    ones = GridFn.constant(params, 1.0)
    alpha, norm = u3_lower(f, ones, ones, ones)
    assert abs(alpha - norm**8) <= 1e-12 * norm**8


def _third_difference(kappa: PolyPhase) -> TrilinearForm:
    """The trilinear form of the cubic part of kappa: each cubic monomial's
    coefficient at all six orderings of its indices."""
    n = kappa.params.n
    coeffs = np.zeros((n, n, n), dtype=np.int64)
    for mono, coef in kappa.terms:
        if len(mono) == 3:
            for perm in itertools.permutations(mono):
                coeffs[perm] += coef
    return TrilinearForm(kappa.params, coeffs)


def test_tri_correlation_planted_cubic_on_f11_squared():
    params = GroupParams(11, 2)
    kappa = PolyPhase.from_coeffs(
        params, {(0, 0, 0): 3, (0, 0, 1): 5, (0, 1, 1): 8, (1, 1, 1): 1, (0, 1): 4, (1,): 9}
    )
    got = tri_correlation(poly_phase_fn(kappa), oracle.phase_one(params), _third_difference(kappa))
    assert abs(got - 1) < 1e-10


# every group whose candidate table p^(dim) x N stays under 10^6 entries
QUAD_GROUPS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (31, 1), (2, 2), (3, 2), (5, 2), (2, 3), (2, 4)]


def _random_quadratic(params: GroupParams, rng: np.random.Generator) -> PolyPhase:
    n, p = params.n, params.p
    terms = {(i, j): int(rng.integers(p)) for i in range(n) for j in range(i, n)}
    terms.update({(i,): int(rng.integers(p)) for i in range(n)})
    return PolyPhase.from_coeffs(params, {m: c for m, c in terms.items() if c})


@st.composite
def search_inputs(draw) -> GroupFn:
    """Random bounded functions, planted quadratic phases with and without
    noise, and inputs with exact ties: the zero and constant functions and
    averages of two quadratic phases."""
    params = GroupParams(*draw(st.sampled_from(QUAD_GROUPS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = params.size
    kind = draw(st.sampled_from(["random", "planted", "noisy", "pair", "zero", "constant"]))
    if kind == "random":
        return GroupFn(params, rng.random(N) * np.exp(2j * np.pi * rng.random(N)))
    if kind == "zero":
        return GroupFn(params, np.zeros(N, dtype=complex))
    if kind == "constant":
        return GroupFn(params, np.ones(N, dtype=complex))
    q1 = poly_phase_fn(_random_quadratic(params, rng)).values
    if kind == "planted":
        return GroupFn(params, q1)
    if kind == "noisy":
        return GroupFn(params, 0.8 * q1 + 0.2 * np.exp(2j * np.pi * rng.random(N)))
    q2 = poly_phase_fn(_random_quadratic(params, rng)).values
    return GroupFn(params, (q1 + q2) / 2)


@settings(SETTINGS, max_examples=60)
@given(search_inputs())
def test_quad_phase_search_matches_the_candidate_table(g):
    found, corr = quad_phase_search(g)
    want, want_corr = oracle.quad_phase_search(g)
    assert found.terms == want.terms
    assert abs(corr - want_corr) < TOL


def _search_input(params: GroupParams, kind: str, rng: np.random.Generator) -> GroupFn:
    N = params.size
    if kind == "noise":
        return GroupFn(params, rng.random(N) * np.exp(2j * np.pi * rng.random(N)))
    if kind == "planted":
        return poly_phase_fn(_random_quadratic(params, rng))
    # real values: |g_hat| at (Q, r) and (-Q, -r) are equal, up to rounding
    return GroupFn(params, (2 * rng.random(N) - 1).astype(complex))


@pytest.mark.parametrize("group", [(5, 2), (7, 2), (5, 3), (11, 2)], ids=lambda g: "F_%d^%d" % g)
def test_blocked_search_matches_the_unblocked_oracle(group, monkeypatch):
    params = GroupParams(*group)
    N, default = params.size, trilinear.SIZE_CAP
    # the real input of seed 1 ties Q and -Q within 1e-12 on every group,
    # and on F_11^2 and F_5^3 the later of the two is larger in the last bit
    for kind, seed in [("noise", 0), ("planted", 0), ("real", 1)]:
        g = _search_input(params, kind, np.random.default_rng([seed, N]))
        want, want_corr = oracle.unblocked_quad_phase_search(g)
        for cap in (N, 3 * N, default):
            monkeypatch.setattr(trilinear, "SIZE_CAP", cap)
            found, corr = quad_phase_search(g)
            assert (found.terms, corr) == (want.terms, want_corr), (kind, cap)


# ============================================================
# the cubic stage's box correlation is the symmetry stage's
# ============================================================


def _random_cubic(params: GroupParams, rng: np.random.Generator) -> PolyPhase:
    n, p = params.n, params.p
    monos = [m for d in (1, 2, 3) for m in itertools.combinations_with_replacement(range(n), d)]
    return PolyPhase.from_coeffs(params, {m: int(rng.integers(p)) for m in monos})


def _run_recording_symmetry(f: GroupFn, cfg: PipelineConfig, monkeypatch):
    """The pipeline's report on f, and (tau, theta, lambda, sigma, report)
    of its symmetry stage."""
    seen = []
    inner = ulab.pipeline.symmetry_pipeline

    def recording(f, tau, theta, lam):
        sigma, srep = inner(f, tau, theta, lam)
        seen.append((tau, theta, lam, sigma, srep))
        return sigma, srep

    monkeypatch.setattr(ulab.pipeline, "symmetry_pipeline", recording)
    report = run_inverse_pipeline(f, cfg)
    (call,) = seen
    return report, call


def _assert_cubic_stage_matches_the_box(f: GroupFn, report, call) -> None:
    tau, theta, lam, sigma, srep = call
    cubic = report.stages[STAGES.index("cubic")].data
    g, alpha, norm = oracle.cubic_stage_box(f, sigma, theta, lam)
    assert abs(alpha - abs(tri_correlation(f, srep.phase, sigma))) < TOL
    assert abs(cubic["alpha_box"] - alpha) < TOL
    assert cubic["u3_norm"] == norm == uk_norm(g, 3).value


@pytest.mark.parametrize("group, seed", [((5, 2), 0), ((5, 2), 1), ((7, 1), 2), ((13, 1), 3)])
def test_cubic_stage_box_on_planted_cubics(group, seed, monkeypatch):
    params = GroupParams(*group)
    f = poly_phase_fn(_random_cubic(params, np.random.default_rng(seed)))
    report, call = _run_recording_symmetry(f, PipelineConfig(p=params.p, n=params.n), monkeypatch)
    assert not report.halted
    tau, _, _, sigma, _ = call
    assert np.array_equal(tau.coeffs, sigma.coeffs)
    _assert_cubic_stage_matches_the_box(f, report, call)


@pytest.mark.parametrize("seed, symmetric", [(1, True), (10, False), (35, False)])
def test_cubic_stage_box_on_corrupted_inputs(seed, symmetric, monkeypatch):
    # a residual_tol of 10 lets an asymmetric fitted tau through to cubic
    params = GroupParams(5, 2)
    rng = np.random.default_rng(seed)
    vals = poly_phase_fn(_random_cubic(params, rng)).values.copy()
    idx = rng.choice(params.size, size=5, replace=False)
    vals[idx] = np.exp(2j * np.pi * rng.random(5))
    f = GroupFn(params, vals)
    report, call = _run_recording_symmetry(f, PipelineConfig(p=5, n=2, residual_tol=10.0), monkeypatch)
    assert not report.halted
    tau, _, _, sigma, _ = call
    assert np.array_equal(tau.coeffs, sigma.coeffs) == symmetric
    _assert_cubic_stage_matches_the_box(f, report, call)


@SETTINGS
@given(st.sampled_from([(5, 1), (7, 1), (5, 2), (7, 2)]), st.integers(0, 2**32 - 1))
def test_cubic_stage_box_on_random_inputs(group, seed):
    params = GroupParams(*group)
    p, n = params.p, params.n
    rng = np.random.default_rng(seed)
    f = _bounded(params, int(rng.integers(2**32)))
    sigma, _ = symmetrize(TrilinearForm(params, rng.integers(0, p, size=(n, n, n))))
    theta, lam = [(rng.integers(0, p, size=(n, n)), rng.integers(0, p, size=n)) for _ in range(2)]
    _, srep = symmetry_pipeline(f, sigma, theta, lam)
    _, alpha, _ = oracle.cubic_stage_box(f, sigma, theta, lam)
    assert abs(alpha - abs(tri_correlation(f, srep.phase, sigma))) < TOL
