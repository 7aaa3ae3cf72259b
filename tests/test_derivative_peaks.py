"""The U^4 gate and the peak map from one spectrum per symmetry orbit of
(a, b), against the row-by-row pass over all N^2 spectra that
`cli_oracle.derivative_peak_map` keeps."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import cli_oracle
from ulab import gowers
from ulab.core import GroupFn, GroupParams, PolyPhase, poly_phase_fn
from ulab.gowers import derivative2_spectra, uk_norm
from ulab.pipeline import derivative_peak_map

GROUPS = [(5, 1), (7, 1), (13, 1), (31, 1), (5, 2), (7, 2), (11, 2), (5, 3), (3, 3)]
KINDS = ["noise", "cubic", "corrupted", "signs", "cosine", "sparse"]


def _input(params: GroupParams, kind: str, seed: int) -> GroupFn:
    """Unit-modulus noise, a planted cubic phase, that cubic with 20% of its
    points replaced by random unit values, or a real-valued function (random
    signs, a cosine of a random linear form, a sparse 0/1 indicator), whose
    spectra tie at r and -r."""
    rng = np.random.default_rng(seed)
    N, n, p = params.size, params.n, params.p
    if kind == "noise":
        return GroupFn(params, np.exp(2j * np.pi * rng.random(N)))
    if kind == "signs":
        return GroupFn(params, rng.choice([-1.0, 1.0], N).astype(np.complex128))
    if kind == "cosine":
        form = params.dot(np.arange(N), int(rng.integers(1, N)))
        return GroupFn(params, np.cos(2 * np.pi * form / p).astype(np.complex128))
    if kind == "sparse":
        return GroupFn(params, (rng.random(N) < 0.3).astype(np.complex128))
    monos = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
    monos += [(i, j) for i in range(n) for j in range(i, n)] + [(i,) for i in range(n)]
    coeffs = {m: int(rng.integers(p)) for m in monos}
    coeffs[(0, 0, 0)] = int(rng.integers(1, p))
    f = poly_phase_fn(PolyPhase.from_coeffs(params, coeffs))
    if kind == "cubic":
        return f
    vals = f.values.copy()
    hit = rng.choice(N, size=max(1, N // 5), replace=False)
    vals[hit] = np.exp(2j * np.pi * rng.random(len(hit)))
    return GroupFn(params, vals)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("group", GROUPS)
def test_peak_map_matches_the_row_by_row_oracle(group, kind):
    params = GroupParams(*group)
    f = _input(params, kind, 1000 * params.size + KINDS.index(kind))
    for c1 in (0.3, 0.6, 0.9):
        phi, stats, u4 = derivative_peak_map(f, c1)
        want_phi, want_stats, want_u4 = cli_oracle.derivative_peak_map(f, c1)
        assert np.array_equal(phi.domain, want_phi.domain)
        assert np.array_equal(phi.values, want_phi.values)
        assert abs(u4 - want_u4) <= 1e-15
        assert stats.keys() == want_stats.keys()
        for key, want in want_stats.items():
            if want is None or isinstance(want, int):
                assert stats[key] == want, key
            else:
                assert abs(stats[key] - want) <= 1e-15, key
        # the gate and `uk_norm` read the same power array
        assert u4 == uk_norm(f, 4).value


@pytest.mark.parametrize("group", [(5, 1), (7, 1), (5, 2), (3, 3)])
def test_orbit_table_covers_every_pair_with_its_spectrum(group):
    params = GroupParams(*group)
    N = params.size
    rep, mirror = gowers._orbit_table(params)
    keys = np.arange(N * N).reshape(N, N)
    reps = np.flatnonzero(rep.ravel() == keys.ravel())
    assert len(reps) <= N * N / 8 + N
    # every pair's representative is one of its eight images, and is its
    # own representative
    neg = params.neg(np.arange(N))
    a, b = np.divmod(keys, N)
    images = [u * N + v for x, y in ((a, b), (b, a)) for u in (x, neg[x]) for v in (y, neg[y])]
    assert np.all(np.any(np.stack(images) == rep, axis=0))
    assert np.all(np.isin(rep, reps))
    # the slot layout both orbit passes read: the representatives in key
    # order, each pair's slot naming its representative, the same flags
    got_reps, slot, got_mirror = gowers._orbit_slots(params)
    assert np.array_equal(got_reps, reps) and np.all(np.diff(got_reps) > 0)
    assert np.array_equal(got_reps[slot], rep)
    assert np.array_equal(got_mirror, mirror)
    f = _input(params, "noise", 7)
    spectra = np.stack(list(derivative2_spectra(f))).reshape(N * N, N)
    want = spectra[rep.ravel()]
    want[mirror.ravel()] = want[mirror.ravel()][:, neg]
    assert np.abs(spectra - want).max() < 1e-12


def test_peak_map_peak_memory_is_at_most_the_oracle_s():
    params = GroupParams(13, 2)
    f = _input(params, "noise", 13)
    peaks = []
    for peak_map in (derivative_peak_map, cli_oracle.derivative_peak_map):
        peak_map(f, 0.35)  # fill the group's cached index tables first
        tracemalloc.start()
        try:
            peak_map(f, 0.35)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
