"""Property tests: the rounding votes counted through characters and the
fit's one-pass row scan, against the loops in `cli_oracle`.

Both routes are exact integer arithmetic, so the vote histograms, the
rounded maps, the chosen rows and the fitted models must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_oracle as oracle
from ulab import pipeline
from ulab.arrange import PartialMap
from ulab.core import GroupParams
from ulab.pipeline import _first_independent_rows, _vote_histogram, consensus_rounding, fit_biaffine

# every F_p^n with p^n <= 27
GROUPS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
    (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4),
]
# derandomized, so tier-1 runs the same examples every time
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _planted_map(params: GroupParams, vp: GroupParams, density: float, noise: float, rng) -> PartialMap:
    """A bi-affine map into vp's digits (when the characteristics match),
    with a share `noise` of its values replaced at random, on a random
    domain of the given density."""
    N, q = params.size, vp.size
    if vp.p == params.p:
        dig = params.digits(np.arange(N, dtype=np.int64))
        n, m = params.n, vp.n
        T = rng.integers(0, vp.p, size=(m, n, n))
        table = (
            np.einsum("ai,cij,bj->abc", dig, T, dig)
            + (dig @ rng.integers(0, vp.p, size=(m, n)).T)[:, None, :]
            + (dig @ rng.integers(0, vp.p, size=(m, n)).T)[None, :, :]
        )
        vals = vp.index(table.reshape(-1, m) % vp.p).reshape(N, N).astype(np.int64)
    else:
        vals = rng.integers(0, q, size=(N, N))
    bad = rng.random((N, N)) < noise
    vals = np.where(bad, rng.integers(0, q, size=(N, N)), vals)
    dom = rng.random((N, N)) < density
    return PartialMap(params, vp, dom, np.where(dom, vals, 0))


@st.composite
def partial_maps(draw) -> PartialMap:
    params = GroupParams(*draw(st.sampled_from(GROUPS)))
    same = draw(st.booleans())
    vp = params if same else GroupParams(*draw(st.sampled_from(GROUPS)))
    density = draw(st.floats(0.2, 1.0))
    noise = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _planted_map(params, vp, density, noise, rng)


@SETTINGS
@given(partial_maps())
def test_vote_histograms_and_rounded_maps_match_the_loop(phi):
    got = _vote_histogram(phi)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle.vote_histogram(phi))
    rounded, stats = consensus_rounding(phi)
    want_rounded, want_stats = oracle.consensus_rounding(phi)
    assert np.array_equal(rounded.domain, want_rounded.domain)
    assert np.array_equal(rounded.values, want_rounded.values)
    assert stats == want_stats


def test_vote_histogram_blocks_match_the_loop(monkeypatch):
    # with the budget at one line's elements, every line is its own block
    params = GroupParams(3, 2)
    phi = _planted_map(params, GroupParams(5, 1), 0.7, 0.2, np.random.default_rng(5))
    want = oracle.vote_histogram(phi)
    monkeypatch.setattr(pipeline, "SIZE_CAP", params.size * 5)
    assert np.array_equal(_vote_histogram(phi), want)


@st.composite
def row_sets(draw) -> tuple[int, np.ndarray]:
    """Rows over F_p spanning a random subspace, with repeated rows and
    zero rows, so the set is often rank-deficient."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 10))
    r = draw(st.integers(0, d))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, d)) % p
    dup = rng.random(m) < 0.2
    rows[dup] = rows[rng.integers(0, m, size=int(dup.sum()))]
    return p, rows


@SETTINGS
@given(row_sets())
def test_chosen_rows_match_the_rank_scan_for_every_start(case):
    p, rows = case
    for start in range(len(rows)):
        assert _first_independent_rows(p, rows, start) == oracle.first_independent_rows(p, rows, start)


@pytest.mark.parametrize("group", [(5, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
@pytest.mark.parametrize("noise", [0.0, 0.15, 1.0])
def test_fit_matches_the_per_digit_solve(group, noise):
    params = GroupParams(*group)
    rng = np.random.default_rng(group[0] * 100 + group[1] * 10 + int(noise * 100))
    phi = _planted_map(params, params, 0.6, noise, rng)
    got = fit_biaffine(phi, offsets=9)
    want = oracle.fit_biaffine(phi, offsets=9)
    for name in ("T", "s", "t", "e"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.agreement, got.offset) == (want.agreement, want.offset)
