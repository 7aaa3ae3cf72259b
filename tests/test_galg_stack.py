"""The stacked character pass of `ulab.galg` against the per-character loop
in `galg_oracle`, and a memory guard on the defect.

`respected_density` takes every character slice of mu phi through one
`arr_functional_stack` pass, where the oracle calls `arr_functional` once per
slice and takes the mixed convolution's final inverse.  The two sum the same
terms in another order, so they must agree within 1e-12 (relative, above
1), on the pipeline's
groups F_5^2, F_7, F_31 and F_7^2, value groups equal to and different from
the domain, point maps and weighted tables, a weighted mu and an empty
domain.  The exact respect counts round both ratios to integers, which must
not change for any |G| <= 9.

The stacked pass scores one character per conjugate pair {s, -s} with
weight 2, and weight 1 where s = -s (s = 0, and every s when p = 2), where
the oracle scores all |H|.  On small groups of p in {2, 3, 5, 7}, value
groups different from the domain, point maps and weighted tables, with and
without mu, the two must agree within 1e-14 (relative, above 1).  A point
map's table shares one `Dist` per value, which must equal the `Dist` built
for each point on its own.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import galg_oracle as oracle
from ulab.arrange import PartialMap, respect_stats
from ulab.core import GroupParams
from ulab.galg import Dist, DistFn, bihom_defect, respected_density
from ulab.grid import GridFn, arr_functional, arr_functional_stack

TOL = 1e-12
DOMAINS = [(5, 2), (7, 1), (31, 1), (7, 2)]
VALUE_GROUPS = [(3, 1), (5, 2), (7, 1), (2, 3), (31, 1), (7, 2)]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def stacked_cases(draw, domains=DOMAINS, value_groups=VALUE_GROUPS) -> tuple[DistFn, GridFn | None]:
    """A table on one of the domains, a point map or up to three weighted
    values per cell, on a domain of density 0 (empty), 0.3 or 1, and no mu,
    its indicator, or a non-negative weighted mu."""
    params = GroupParams(*draw(st.sampled_from(domains)))
    vp = params if draw(st.booleans()) else GroupParams(*draw(st.sampled_from(value_groups)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N, K = params.size, vp.size
    dom = rng.random((N, N)) < density
    if weighted:
        tab = {
            (int(x), int(y)): Dist(vp, {int(g): float(rng.random()) for g in rng.integers(0, K, size=3)})
            for x, y in zip(*np.nonzero(dom))
        }
        phi = DistFn(params, vp, tab)
    else:
        vals = rng.integers(0, K, size=(N, N))
        phi = DistFn.from_point_map(params, vp, {(int(x), int(y)): int(vals[x, y]) for x, y in zip(*np.nonzero(dom))})
    mu = draw(st.sampled_from(["none", "indicator", "weighted"]))
    if mu == "none":
        return phi, None
    if mu == "indicator":
        return phi, GridFn.from_mask(params, dom)
    return phi, GridFn(params, rng.random((N, N)) * (rng.random((N, N)) < 0.8))


@SETTINGS
@given(stacked_cases())
def test_respected_density_matches_the_character_loop(case):
    phi, mu = case
    got = respected_density(phi, mu)
    want = oracle.respected_density(phi, mu)
    # weighted cells carry totals up to 3, and the functional is of degree 8
    assert abs(got - want) <= TOL * max(1.0, want)
    if not phi.table:
        assert got == 0.0
    if mu is not None and oracle.arr_functional(mu) > 0:
        want = 1.0 - want / oracle.arr_functional(mu)
        assert abs(bihom_defect(phi, mu) - want) <= TOL


# small groups of every characteristic up to 7, as domains and value groups
PAIR_GROUPS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


@settings(SETTINGS, max_examples=80)
@given(stacked_cases(PAIR_GROUPS, PAIR_GROUPS))
def test_one_character_per_conjugate_pair_matches_every_character(case):
    phi, mu = case
    got = respected_density(phi, mu)
    want = oracle.respected_density(phi, mu)
    assert abs(got - want) <= 1e-14 * max(1.0, want)
    if mu is not None and oracle.arr_functional(mu) > 0:
        want = 1.0 - want / oracle.arr_functional(mu)
        assert abs(bihom_defect(phi, mu) - want) <= 1e-14


@pytest.mark.parametrize("group, value_group", [((5, 2), (5, 2)), ((3, 2), (7, 1)), ((7, 1), (2, 3))])
def test_point_map_table_is_the_per_point_construction(group, value_group):
    params, vp = GroupParams(*group), GroupParams(*value_group)
    N, K = params.size, vp.size
    rng = np.random.default_rng(N * K)
    dom = rng.random((N, N)) < 0.7
    vals = rng.integers(0, K, size=(N, N))
    # values outside [0, |H|) reduce mod |H|, as Dist.delta reduces them
    points = {(int(x), int(y)): int(vals[x, y]) - K * int(rng.integers(-2, 3)) for x, y in zip(*np.nonzero(dom))}
    table = DistFn.from_point_map(params, vp, points).table
    assert table == {xy: Dist.delta(vp, g) for xy, g in points.items()}
    assert len({id(u) for u in table.values()}) == len({g % K for g in points.values()})
    pm = PartialMap(params, vp, dom, vals)
    assert pm.to_dist_fn().table == {xy: Dist.delta(vp, int(vals[xy])) for xy in zip(*np.nonzero(dom))}


@SETTINGS
@given(st.sampled_from(DOMAINS), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_arr_functional_stack_matches_each_slice(group, K, seed):
    params = GroupParams(*group)
    N = params.size
    rng = np.random.default_rng(seed)
    stack = rng.random((K, N, N)) * np.exp(2j * np.pi * rng.random((K, N, N)))
    kept = stack.copy()
    got = arr_functional_stack(stack, params)
    assert got.shape == (K,)
    assert np.array_equal(stack, kept)  # the input is not written to
    for k in range(K):
        f = GridFn(params, stack[k])
        assert abs(got[k] - oracle.arr_functional(f)) <= TOL
        assert abs(arr_functional(f) - oracle.arr_functional(f)) <= TOL


# every F_p^n with p^n <= 9, the exact mode's limit
EXACT_DOMAINS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("domain", EXACT_DOMAINS, ids=["F_%d^%d" % d for d in EXACT_DOMAINS])
@settings(SETTINGS, max_examples=8)
@given(data=st.data())
def test_exact_respect_counts_match_the_character_loop(domain, data):
    params = GroupParams(*domain)
    vp = data.draw(st.sampled_from([params, GroupParams(3, 1), GroupParams(2, 2), GroupParams(5, 1)]))
    N = params.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dom = rng.random((N, N)) < data.draw(st.sampled_from([0.3, 0.7, 1.0]))
    dom[0, 0] = True
    phi = PartialMap(params, vp, dom, np.where(dom, rng.integers(0, vp.size, size=(N, N)), 0))
    got = respect_stats(phi, order=1, mode="exact")
    scale = float(N) ** 8
    assert got.total == float(round(oracle.arr_functional(phi.indicator()) * scale))
    assert got.respected == float(round(oracle.respected_density(phi.to_dist_fn()) * scale))


def test_defect_on_a_full_f7_squared_map_stays_small():
    # the stacked pass must not raise the process's peak memory: one
    # (|H|, N, N) complex stack is 1.9 MB on F_7^2, and the pass holds the
    # stack and one work copy (about 3.8 MB), where the per-character loop
    # peaked at 4.7 MB and the pipeline's rounding at about 9.5 MB
    params = GroupParams(7, 2)
    N = params.size
    rng = np.random.default_rng(3)
    phi = PartialMap(params, params, np.ones((N, N), dtype=bool), rng.integers(0, N, size=(N, N)))
    F, mu = phi.to_dist_fn(), phi.indicator()
    tracemalloc.start()
    try:
        bihom_defect(F, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
