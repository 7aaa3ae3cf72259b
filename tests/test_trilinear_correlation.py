"""Property tests: `tri_correlation`, `u3_lower` and `quad_phase_search`
against the loops and tables in `trilinear_oracle`.

The correlation's per-row evaluation sums the same terms as the per-(a, b)
loop in a different order, so the two must agree within 1e-12 on random
bounded f, random phase products and forms, over the whole group and over
proper subspaces with non-zero shifts.  `u3_lower` multiplies the same
factors in another association, within 1e-12.  The quadratic search scores
by FFT what the oracle scores by a candidate table: the chosen terms must
be identical and the correlations within 1e-12, exact ties included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trilinear_oracle as oracle
from ulab import trilinear
from ulab.core import GroupFn, GroupParams, PolyPhase, Subspace, poly_phase_fn
from ulab.grid import GridFn
from ulab.trilinear import PhaseProduct, TrilinearForm, quad_phase_search, tri_correlation, u3_lower

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
@given(st.sampled_from(GROUPS), st.integers(0, 2**32 - 1), st.booleans())
def test_tri_correlation_matches_the_pair_loop(group, seed, whole):
    params = GroupParams(*group)
    rng = np.random.default_rng(seed)
    f, h, tau = _random_inputs(params, rng)
    if whole or params.n == 1:
        space, shifts = None, (0, 0, 0)
    else:
        gens = rng.integers(1, params.size, size=int(rng.integers(1, params.n)))
        space = Subspace.from_generators(params, gens)
        shifts = tuple(int(s) for s in rng.integers(1, params.size, size=3))
    got = tri_correlation(f, h, tau, space, shifts)
    want = oracle.tri_correlation(f, h, tau, space, shifts)
    assert abs(got - want) < TOL


def test_tri_correlation_blocks_match_the_pair_loop(monkeypatch):
    # with the budget at k N, every row of a k-point subspace splits into
    # blocks of one b each: k^2 second-derivative gathers in all
    params = GroupParams(5, 2)
    f, h, tau = _random_inputs(params, np.random.default_rng(3))
    space = Subspace.from_generators(params, [7])
    want = oracle.tri_correlation(f, h, tau, space, (1, 4, 7))
    calls = []
    gather = trilinear._derivative2_rows
    monkeypatch.setattr(trilinear, "SIZE_CAP", 5 * params.size)
    monkeypatch.setattr(trilinear, "_derivative2_rows", lambda *args: calls.append(1) or gather(*args))
    got = tri_correlation(f, h, tau, space, (1, 4, 7))
    assert len(calls) == 25
    assert abs(got - want) < TOL


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
