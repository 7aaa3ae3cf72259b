"""Property tests: the per-matrix count behind the exact Bogolyubov cover
against the full map table in `bilinear_oracle`.

Each matrix covers each spectrum point with exactly one shift, so a bincount
over the uncovered points must give every map's gain; the cover has to pick
the same rows, earliest row first on ties, and leave the same points
uncovered as the greedy pass over all p^(n^2+n) tabulated maps.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bilinear_oracle as oracle
from ulab.bilinear import _exact_cover, bogolyubov_bilinear
from ulab.core import GroupParams
from ulab.grid import GridFn

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
