"""Property tests: the rounding votes counted through characters and the
fit's one-pass row scan, against the loops in `cli_oracle`.

Both routes are exact integer arithmetic, so the vote histograms, the
rounded maps, the chosen rows and the fitted models must be identical.
The library skips the vote on a map its fit certifies exactly bi-affine,
and stops the fit at its first exact offset; the oracle does neither, and
the results must still agree.  The fit's affine parts are the ones the
symmetry stage uses, so no re-derivation of them is compared here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_oracle as oracle
from ulab import galg, pipeline
from ulab.arrange import PartialMap
from ulab.core import GroupParams
from ulab.pipeline import (
    _first_independent_rows,
    _vote_histogram,
    consensus_rounding,
    fit_biaffine,
)

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


def _sparse_bi_affine_maps(params: GroupParams, vp: GroupParams, rng):
    """Clean planted maps on random domains of several densities, with one
    row cut to a single point and another to two."""
    N = params.size
    for density in (0.3, 0.6, 1.0):
        table = _planted_map(params, vp, 1.0, 0.0, rng).values
        dom = rng.random((N, N)) < density
        for r, keep in zip(rng.permutation(N)[:2], (1, 2)):
            dom[r] = False
            dom[r, rng.permutation(N)[:keep]] = True
        yield PartialMap(params, vp, dom, np.where(dom, table, 0))


class _VotesCounted(Exception):
    pass


def _no_votes(phi):
    raise _VotesCounted


@pytest.mark.parametrize("group", GROUPS, ids=["F_%d^%d" % g for g in GROUPS])
@pytest.mark.parametrize("other_dim", [False, True], ids=["same", "other-dim"])
def test_certified_rounding_equals_the_vote(monkeypatch, group, other_dim):
    # an exactly bi-affine map is certified by the fit's offset-0 solve and
    # must round exactly as the oracle's votes do, without a histogram; one
    # value moved at a point whose design row is spanned by the rows before
    # it breaks bi-affinity, so that map must go to the vote
    params = GroupParams(*group)
    vp = GroupParams(params.p, params.n % 2 + 1) if other_dim else params
    rng = np.random.default_rng(params.p * 10 + params.n + 100 * other_dim)
    moved = 0
    monkeypatch.setattr(pipeline, "_vote_histogram", _no_votes)
    for phi in _sparse_bi_affine_maps(params, vp, rng):
        rounded, stats = consensus_rounding(phi)
        want_rounded, want_stats = oracle.consensus_rounding(phi)
        assert np.array_equal(rounded.domain, want_rounded.domain)
        assert np.array_equal(rounded.values, want_rounded.values)
        assert stats == want_stats

        _, _, _, rows, _ = pipeline._fit_design(phi)
        spanned = np.setdiff1d(np.arange(len(rows)), _first_independent_rows(params.p, rows, 0))
        if spanned.size == 0:
            continue
        xs, ys = np.nonzero(phi.domain)
        x, y = xs[spanned[0]], ys[spanned[0]]
        vals = phi.values.copy()
        vals[x, y] = (vals[x, y] + 1) % vp.size
        with pytest.raises(_VotesCounted):
            consensus_rounding(PartialMap(params, vp, phi.domain, vals))
        moved += 1
    # F_2's four points have independent design rows, so no value can be
    # moved off bi-affinity there; every larger group checks a moved map
    assert moved or params.size == 2


def test_vote_histogram_blocks_match_the_loop(monkeypatch):
    # with the budget at one line's elements, every line is its own block
    params = GroupParams(3, 2)
    phi = _planted_map(params, GroupParams(5, 1), 0.7, 0.2, np.random.default_rng(5))
    want = oracle.vote_histogram(phi)
    monkeypatch.setattr(galg, "SIZE_CAP", params.size * 5)
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
def test_fit_matches_the_per_digit_solve(monkeypatch, group, noise):
    # the oracle walks all 9 offsets; the fit stops at its first exact one,
    # which on a clean planted map is offset 0
    params = GroupParams(*group)
    rng = np.random.default_rng(group[0] * 100 + group[1] * 10 + int(noise * 100))
    phi = _planted_map(params, params, 0.6, noise, rng)
    scans = []

    def counted(*args):
        scans.append(args[2])
        return _first_independent_rows(*args)

    monkeypatch.setattr(pipeline, "_first_independent_rows", counted)
    got = fit_biaffine(phi, offsets=9)
    want = oracle.fit_biaffine(phi, offsets=9)
    for name in ("T", "s", "t", "e"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.agreement, got.offset) == (want.agreement, want.offset)
    if noise == 0.0:
        assert scans == [0]
