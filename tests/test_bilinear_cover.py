"""Property tests: the per-matrix count behind the exact Bogolyubov cover
against the full map table in `bilinear_oracle`, the fitted cover
candidates against one `gf_solve` per pair, and the Bohr peeling against
the oracle's inline round scan and its old complement rule.

Each matrix covers each spectrum point with exactly one shift, so a bincount
over the uncovered points must give every map's gain; the cover has to pick
the same rows, earliest row first on ties, and leave the same points
uncovered as the greedy pass over all p^(n^2+n) tabulated maps.  The
peeling is exact F_p arithmetic, so every field of the decomposition must
be identical.  Any complement of the peeled span gives the same forms
modulo the peeled ones, so wherever the old orthogonal rule returns, it
certifies the same rank with as many peels and the same X0, Y0 dimensions.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bilinear_oracle as oracle
from ulab.bilinear import BiAffineMap, _exact_cover, _fitted_candidates, bogolyubov_bilinear, bohr_decompose
from ulab.core import GroupParams, char_transform
from ulab.grid import GridFn, vert_conv

# every F_p^n with p^n <= 25, and F_2^3 (exact covers may be forced at n = 3)
GROUPS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (23, 1), (2, 2), (3, 2), (5, 2), (2, 3)]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cover_inputs(draw):
    """Sorted (h, u) spectrum points: the graphs of up to three random affine
    maps on random subsets of h, plus up to N^2 random points."""
    params = GroupParams(*draw(st.sampled_from(GROUPS)))
    p, n, N = params.p, params.n, params.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = set(rng.choice(N * N, size=draw(st.integers(0, N * N)), replace=False).tolist())
    for _ in range(draw(st.integers(0, 3))):
        M = rng.integers(0, p, size=(n, n))
        c = rng.integers(0, p, size=n)
        hs = np.nonzero(rng.random(N) < draw(st.floats(0.2, 1.0)))[0]
        us = params.index((params.digits(hs) @ M.T + c) % p)
        flat.update((hs * N + us).tolist())
    if not flat:
        flat = {int(rng.integers(N * N))}
    points = sorted((i // N, i % N) for i in flat)
    eps_count = draw(st.floats(0.0, float(len(points))))
    max_maps = draw(st.integers(1, 2 * N))
    return params, points, eps_count, max_maps


@SETTINGS
@given(cover_inputs())
def test_exact_cover_matches_the_map_table(case):
    params, points, eps_count, max_maps = case
    assert _exact_cover(params, points, eps_count, max_maps) == oracle.exact_cover(
        params, points, eps_count, max_maps
    )


def test_exact_cover_full_grid_ties_to_the_earliest_maps():
    # every map covers exactly N points of the full grid, so every step is a
    # tie; the earliest rows are M = 0 with shifts 0, 1, ..., N - 1
    for params in (GroupParams(5, 1), GroupParams(2, 2), GroupParams(3, 2)):
        N = params.size
        points = [(h, u) for h in range(N) for u in range(N)]
        chosen, uncovered = _exact_cover(params, points, 0, 2 * N)
        assert (chosen, uncovered) == oracle.exact_cover(params, points, 0, 2 * N)
        assert chosen == list(range(N)) and uncovered == 0


def _two_phase_spectrum(params: GroupParams, gamma: float) -> list[tuple[int, int]]:
    """The sorted (h, u) points where the column power spectrum of the
    vertical self-convolution reaches gamma, for the mean of two random
    bilinear phases on a random 70% of the grid: two graphs of linear maps,
    so most h carry two points."""
    p, n, N = params.p, params.n, params.size
    rng = np.random.default_rng(N)
    D = params.digits(np.arange(N, dtype=np.int64))
    phases = [np.exp(2j * np.pi * (D @ rng.integers(0, p, (n, n)) @ D.T % p) / p) for _ in range(2)]
    f = GridFn(params, np.where(rng.random((N, N)) < 0.7, (phases[0] + phases[1]) / 2, 0))
    g = vert_conv(f, f)
    us, hs = np.nonzero(np.abs(char_transform(g.values, params, axis=0)) ** 2 >= gamma)
    return sorted(zip(hs.tolist(), us.tolist()))


# (group, cap): no cap reached; caps below the pool, one of them below the
# number of constant maps; the F_5^3 pool holds 1487 maps
@pytest.mark.parametrize(
    "group,cap", [((3, 3), 4096), ((3, 3), 100), ((3, 3), 10), ((5, 3), 300), ((5, 3), 50)]
)
def test_fitted_candidates_match_one_solve_per_pair(group, cap):
    params = GroupParams(*group)
    points = _two_phase_spectrum(params, 0.01)
    assert len({h for h, _ in points}) < len(points)
    want = oracle.fitted_candidates(params, points, cap)
    got = _fitted_candidates(params, points, cap)
    assert len(want[0]) > 1
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("cap", [1, 3, 25])
def test_fitted_candidates_blocks_match_one_pass(monkeypatch, cap):
    # blocks of `cap` pairs keep the same maps in the same order
    params = GroupParams(3, 3)
    points = _two_phase_spectrum(params, 0.01)
    want = _fitted_candidates(params, points, 4096)
    monkeypatch.setattr("ulab.bilinear.SIZE_CAP", cap * 6 * 13)
    got = _fitted_candidates(params, points, 4096)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_fitted_candidates_skip_blocks_of_pairs_that_share_h(monkeypatch):
    # the first blocks of 5 pairs all share h = 0 and solve nothing
    params = GroupParams(3, 3)
    points = [(0, u) for u in range(10)] + [(5, 1), (5, 7), (20, 3)]
    want = oracle.fitted_candidates(params, points, 4096)
    monkeypatch.setattr("ulab.bilinear.SIZE_CAP", 5 * 6 * 13)
    got = _fitted_candidates(params, points, 4096)
    assert len(want[0]) > 10
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@st.composite
def bohr_inputs(draw):
    """A bi-affine map with k <= 3 forms of random rank each (low ranks make
    the peeling run several rounds), and a threshold t in {1, 2, 3}."""
    params = GroupParams(*draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)])))
    p, n = params.p, params.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 3))
    T = np.zeros((k, n, n), dtype=np.int64)
    for i in range(k):
        r = draw(st.integers(0, n))
        T[i] = rng.integers(0, p, (n, r)) @ rng.integers(0, p, (r, n)) % p
    beta = BiAffineMap(params, T, rng.integers(0, p, (k, n)), rng.integers(0, p, (k, n)), rng.integers(0, p, k))
    return beta, draw(st.integers(1, 3))


@SETTINGS
@given(bohr_inputs())
# T = (0), (1), (2) on F_5 exhausts the orthogonal rule's k rounds
@example((BiAffineMap.bilinear(GroupParams(5, 1), np.array([[[0]], [[1]], [[2]]])), 1))
def test_bohr_decompose_matches_the_inline_scan(case):
    beta, t = case
    want = oracle.bohr_decompose(beta, t)
    got = bohr_decompose(beta, t)
    for name in ("X0", "X1", "Y0", "Y1", "rank_certificate", "certified_rank", "peeled", "round_scans"):
        assert getattr(got, name) == getattr(want, name), name


@st.composite
def dependent_form_inputs(draw):
    """A bi-affine map with 2 to 4 uniform random forms (3 at most on F_7),
    and a threshold t in {1, 2, 3}: several peels per map, where the two
    complement rules often peel different vectors."""
    params = GroupParams(*draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])))
    p, n = params.p, params.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 3 if p == 7 else 4))
    beta = BiAffineMap(
        params,
        rng.integers(0, p, (k, n, n)),
        rng.integers(0, p, (k, n)),
        rng.integers(0, p, (k, n)),
        rng.integers(0, p, k),
    )
    return beta, draw(st.integers(1, 3))


@SETTINGS
@given(dependent_form_inputs())
def test_bohr_decompose_certifies_what_the_orthogonal_rule_does(case):
    beta, t = case
    try:
        old = oracle.bohr_decompose_orthogonal(beta, t)
    except RuntimeError as err:
        # a peeled vector orthogonal to itself: the old rule peels it again
        assert "exceeded k rounds" in str(err)
        return
    got = bohr_decompose(beta, t)
    assert got.certified_rank == old.certified_rank
    assert len(got.peeled) == len(old.peeled)
    assert (got.X0.dim, got.Y0.dim) == (old.X0.dim, old.Y0.dim)


def test_bogolyubov_exact_cover_memory_on_f7_squared():
    # the full map table of F_7^2 holds 7^6 maps x 49 points (225 MB peak)
    params = GroupParams(7, 2)
    rng = np.random.default_rng(5)
    f = GridFn.from_mask(params, rng.random((49, 49)) < 0.5)
    tracemalloc.start()
    try:
        _, rep = bogolyubov_bilinear(f, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.method == "exact" and rep.spectrum_size > 0
    assert peak < 32 * 2**20
