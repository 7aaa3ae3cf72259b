"""Property tests: the Monte-Carlo arrangement sampler and its consumers
against the point-array sampler in `grid_oracle`.

`grid.sample_blocks` forms each vertex by gathers from the cached
subtraction table, from the same draws, in the same order and from the same
per-block streams as the oracle's (m, 32, 2) blocks, and `respect_stats`
adds each vertex's packed digit code into a per-sample accumulator, so the
vertices and the respect counts must be identical, also when the codes span
several int64 words.  Three more tests need no oracle: a bi-affine map
respects every arrangement, one call stays within a memory budget that the
point-array blocks exceed, and a large value group costs no more than its
digit table.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import grid_oracle as oracle
from ulab.arrange import ArrangementStats, PartialMap, respect_stats
from ulab.core import GroupParams
from ulab.grid import sample_blocks

# every F_p^n with p^n <= 49
GROUPS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
    (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1),
    (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4), (2, 5),
]
# 8192 and 8193 sit on either side of the block size
SAMPLES = [1, 777, 8192, 8193, 20_000]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partial_maps(draw):
    """A random domain and random values; the value group is the domain's
    group or another one from GROUPS."""
    params = GroupParams(*draw(st.sampled_from(GROUPS)))
    vp = params if draw(st.booleans()) else GroupParams(*draw(st.sampled_from(GROUPS)))
    N = params.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domain = rng.random((N, N)) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    values = rng.integers(0, vp.size, size=(N, N), dtype=np.int64)
    return PartialMap(params, vp, domain, values)


def _oracle_stats(phi: PartialMap, order: int, samples: int, seed: int) -> ArrangementStats:
    tot, resp, se = oracle._mc_respect(phi, order, samples, seed)
    scale = float(phi.params.size) ** (8 if order == 1 else 32)
    return ArrangementStats(tot * scale, resp * scale, order, se * scale, "mc", samples)


@SETTINGS
@given(
    params=st.sampled_from(GROUPS).map(lambda g: GroupParams(*g)),
    order=st.sampled_from([1, 2]),
    samples=st.sampled_from(SAMPLES),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_blocks_match_the_point_arrays(params, order, samples, seed):
    got = list(sample_blocks(params, order, samples, seed))
    want = list(oracle.sample_blocks(params, order, samples, seed))
    assert len(got) == len(want)
    for (m, vertices), pts in zip(got, want):
        assert m == pts.shape[0]
        verts = list(vertices)
        assert len(verts) == pts.shape[1]
        for j, (x, y) in enumerate(verts):
            assert np.array_equal(x, pts[:, j, 0]) and np.array_equal(y, pts[:, j, 1])


@SETTINGS
@given(
    phi=partial_maps(),
    samples=st.sampled_from(SAMPLES),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_respect_stats_match_the_oracle(phi, samples, seed):
    for order in (1, 2):
        got = respect_stats(phi, order=order, mode="mc", samples=samples, seed=seed)
        assert got == _oracle_stats(phi, order, samples, seed)


def _biaffine_map(params: GroupParams, vp: GroupParams, rng: np.random.Generator) -> PartialMap:
    """phi(x, y)_k = x.M_k y + a_k.x + b_k.y + c_k mod p, k < vp.n, on the full grid."""
    p, n, N = params.p, params.n, params.size
    dx = params.digits(np.repeat(np.arange(N), N))
    dy = params.digits(np.tile(np.arange(N), N))
    M = rng.integers(0, p, size=(vp.n, n, n))
    a, b = rng.integers(0, p, size=(2, vp.n, n))
    c = rng.integers(0, p, size=vp.n)
    coords = np.einsum("ms,kst,mt->mk", dx, M, dy) + dx @ a.T + dy @ b.T + c
    return PartialMap(params, vp, np.ones((N, N), dtype=bool), vp.index(coords).reshape(N, N))


def test_mc_biaffine_map_respects_every_arrangement():
    rng = np.random.default_rng(3)
    for (p, n), vn in [((5, 2), 2), ((5, 2), 3), ((3, 2), 1), ((7, 1), 2), ((2, 3), 3)]:
        params = GroupParams(p, n)
        phi = _biaffine_map(params, GroupParams(p, vn), rng)
        for order, samples in [(1, 5000), (2, 9000)]:
            st_ = respect_stats(phi, order=order, mode="mc", samples=samples, seed=p + vn)
            scale = float(params.size) ** (8 if order == 1 else 32)
            assert st_.total == scale and st_.respected == st_.total and st_.stderr == 0.0


def test_mc_respect_memory_on_f7_squared():
    # the point-array blocks hold (8192, 32, 2) indices plus their gathers
    # (10.3 MB peak); vertices consumed one at a time need a fraction of it
    params = GroupParams(7, 2)
    rng = np.random.default_rng(5)
    phi = PartialMap(params, params, np.ones((49, 49), dtype=bool), rng.integers(0, 49, size=(49, 49)))
    tracemalloc.start()
    try:
        st_ = respect_stats(phi, order=2, mode="mc", samples=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st_.total == 49.0**32
    assert peak < 8 * 2**20


def test_mc_packed_codes_span_several_words():
    # 17 fields of 4 bits at order 1 on F_2^16, 11 of 6 bits at order 2 on
    # F_2^10 and 10 of 7 bits on F_3^9 do not fit one 63-bit word; the
    # bi-affine maps need a value group of the domain's characteristic
    rng = np.random.default_rng(7)
    for p, n, vn in [(2, 2, 16), (2, 3, 10), (3, 2, 9)]:
        params, vp = GroupParams(p, n), GroupParams(p, vn)
        N = params.size
        affine = _biaffine_map(params, vp, rng)
        noisy = PartialMap(params, vp, rng.random((N, N)) < 0.9, rng.integers(0, vp.size, size=(N, N)))
        for phi in (affine, affine.restrict(rng.random((N, N)) < 0.9), noisy):
            for order in (1, 2):
                got = respect_stats(phi, order=order, mode="mc", samples=3000, seed=vn)
                assert got == _oracle_stats(phi, order, 3000, vn)
                if phi is affine:
                    assert got.respected == got.total == float(N) ** (8 if order == 1 else 32)


def test_mc_respect_memory_for_a_large_value_group():
    # a Cayley table of F_1031 alone holds 8.5 MB; the packed codes of a map
    # on F_5 need a few hundred bytes (0.2 MB traced peak with the digit
    # accumulator they replace)
    params, vp = GroupParams(5, 1), GroupParams(1031, 1)
    rng = np.random.default_rng(0)
    phi = PartialMap(params, vp, np.ones((5, 5), dtype=bool), rng.integers(0, vp.size, size=(5, 5)))
    for order in (1, 2):
        tracemalloc.start()
        try:
            st_ = respect_stats(phi, order=order, mode="mc", samples=1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.total == 5.0 ** (8 if order == 1 else 32)
        assert peak < 2**19
