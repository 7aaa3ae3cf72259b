"""Reference implementations of the exact Bogolyubov cover and the Bohr
peeling.

`exact_cover` is the table route that `ulab.bilinear` replaced with its
per-matrix count: it builds every one of the p^(n^2+n) affine maps and the
index of M h + c for every map and every h, then runs the greedy cover on
that table.  `bohr_decompose` is the peeling loop with its own inline scan
of the combinations in each round and a second full rank scan of the last
round's matrices at exit, which `ulab.bilinear` replaced with one
`_mats_map_rank` call per round.  `verify_cells` restricts and ranks the
reduced map again on every occupied translate (v, w) and counts each
translate's cells with its own `np.unique`, where
`BohrDecomposition.verify_cells` ranks once and counts the cells in one
pass.  `is_bilinear` and `combine` are
`BiAffineMap` helpers that only tests use.  Tests compare the library
against them; nothing in the package imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from ulab.bilinear import (
    BiAffineMap,
    BohrDecomposition,
    _affine_map_tables,
    _complement,
    _greedy_cover,
    _mats_map_rank,
    _subspace_from_rows,
)
from ulab.core import GroupParams, gf_nullspace, gf_rank, gf_rowreduce


def is_bilinear(beta: BiAffineMap) -> bool:
    return not (beta.a.any() or beta.b.any() or beta.lam.any())


def combine(beta: BiAffineMap, u) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Coordinate data of the single form u.beta, for u in F_p^k digits."""
    p = beta.params.p
    ud = np.asarray(u, dtype=np.int64) % p
    T = np.tensordot(ud, beta.T, axes=(0, 0)) % p
    a = ud @ beta.a % p
    b = ud @ beta.b % p
    lam = int(ud @ beta.lam % p)
    return T, a, b, lam


def exact_candidates(params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """All p^(n^2+n) affine maps h -> Mh + c, in lexicographic order."""
    n = params.n
    mp = GroupParams(params.p, n * n)
    mats = mp.digits(np.arange(mp.size, dtype=np.int64)).reshape(-1, n, n)
    cs = params.digits(np.arange(params.size, dtype=np.int64))
    M = np.repeat(mats, params.size, axis=0)
    C = np.tile(cs, (mp.size, 1))
    return M, C


def exact_cover(
    params: GroupParams, points: list[tuple[int, int]], eps_count: float, max_maps: int
) -> tuple[list[int], int]:
    """(chosen row ids, uncovered count) of the greedy cover over the full map table."""
    tables = _affine_map_tables(params, *exact_candidates(params))
    return _greedy_cover(tables, points, eps_count, max_maps)


def bohr_decompose(beta: BiAffineMap, t: int) -> BohrDecomposition:
    """Peel low-rank combinations until the rest have rank at least t.

    Each round scans the combinations orthogonal to everything already
    peeled, restricted to the current product V x W; the minimal-rank one
    (earliest in index order on ties) is peeled, shrinking V and W by its
    kernels.  The loop runs at most k rounds before the reduced map is empty.
    """
    params = beta.params
    p, n, k = params.p, params.n, beta.k
    BV = np.eye(n, dtype=np.int64)
    BW = np.eye(n, dtype=np.int64)
    U = np.zeros((0, k), dtype=np.int64)
    peeled: list[tuple[int, ...]] = []
    scans: list[tuple[int, ...]] = []
    for _ in range(k + 1):
        NB = gf_nullspace(p, U) if U.shape[0] else np.eye(k, dtype=np.int64)
        kk = NB.shape[0]
        ranks: list[int] = []
        combos: list[np.ndarray] = []
        if kk:
            cp = GroupParams(p, kk)
            for c in range(1, cp.size):
                u = cp.digits(c) @ NB % p
                Tu = np.tensordot(u, beta.T, axes=(0, 0)) % p
                ranks.append(gf_rank(p, BV @ Tu @ BW.T % p))
                combos.append(u)
        scans.append(tuple(ranks))
        min_rank: float = min(ranks) if ranks else math.inf
        if min_rank >= t:
            X1 = _subspace_from_rows(params, BV)
            Y1 = _subspace_from_rows(params, BW)
            X0 = _complement(params, X1)
            Y0 = _complement(params, Y1)
            if X0.dim > t * k or Y0.dim > t * k:
                raise RuntimeError("peeled dimensions exceed the t*k guarantee")
            Tr = np.tensordot(NB, beta.T, axes=(1, 0)) % p
            reduced = BiAffineMap(params, Tr, NB @ beta.a % p, NB @ beta.b % p, NB @ beta.lam % p)
            certified, _ = _mats_map_rank(p, np.einsum("vs,kst,wt->kvw", BV, Tr, BW) % p)
            return BohrDecomposition(
                beta=beta,
                X0=X0,
                X1=X1,
                Y0=Y0,
                Y1=Y1,
                rank_certificate=t,
                certified_rank=certified,
                reduced=reduced,
                peeled=tuple(peeled),
                round_scans=tuple(scans),
            )
        pick = ranks.index(int(min_rank))
        u = combos[pick]
        Tu = np.tensordot(u, beta.T, axes=(0, 0)) % p
        Tres = BV @ Tu @ BW.T % p
        BV = gf_rowreduce(p, gf_nullspace(p, Tres.T) @ BV % p)[0]
        BW = gf_rowreduce(p, gf_nullspace(p, Tres) @ BW % p)[0]
        U = np.concatenate([U, u.reshape(1, -1)], axis=0)
        peeled.append(tuple(int(c) for c in u))
    raise RuntimeError("peeling exceeded k rounds; the reduction invariant failed")


def verify_cells(dec: BohrDecomposition, t: int | None = None) -> int:
    """The per-translate loop of `BohrDecomposition.verify_cells`."""
    threshold = dec.rank_certificate if t is None else t
    p = dec.beta.params.p
    xl, yl, zt = dec.cell_tables()
    checked = 0
    for v in dec.X0.member_indices():
        xs = np.nonzero(xl == v)[0]
        for w in dec.Y0.member_indices():
            ys = np.nonzero(yl == w)[0]
            zs = np.unique(zt[np.ix_(xs, ys)])
            if zs.size == 0:
                continue
            if dec.reduced.k == 0:
                rank: float = math.inf
            else:
                restricted = dec.reduced.restrict(dec.X1.matrix(), dec.Y1.matrix(), int(v), int(w))
                rank, _ = _mats_map_rank(p, restricted.T)
            if rank < threshold:
                raise RuntimeError(
                    "cell translate (%d, %d) has reduced rank %s below %d" % (v, w, rank, threshold)
                )
            checked += int(zs.size)
    return checked
