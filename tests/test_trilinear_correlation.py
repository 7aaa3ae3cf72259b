"""Property tests: the per-row evaluation of `tri_correlation` against the
per-(a, b) loop in `trilinear_oracle`.

The two sum the same terms in a different order, so they must agree within
1e-12 on random bounded f, random phase products and forms, over the whole
group and over proper subspaces with non-zero shifts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trilinear_oracle as oracle
from ulab import trilinear
from ulab.core import GroupFn, GroupParams, Subspace
from ulab.trilinear import PhaseProduct, TrilinearForm, tri_correlation

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
