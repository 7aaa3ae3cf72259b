"""Reference implementations of the exact Bogolyubov cover, the fitted
cover candidates, the rank scan and the Bohr peeling.

`exact_cover` is the table route that `ulab.bilinear` replaced with its
per-matrix count: it builds every one of the p^(n^2+n) affine maps and the
index of M h + c for every map and every h, then runs the greedy cover on
that table.  `fitted_candidates` solves one pair of spectrum points at a
time with `gf_solve` and keeps each new map in a set, where
`ulab.bilinear._fitted_candidates` solves a block of pairs per
`_solve_stack` call.  `mats_map_rank` ranks one combination of the matrices at a time,
which `ulab.core.gf_family_ranks` replaced with one reduction of every
combination.  `bohr_decompose` is the peeling loop with its own inline scan
of the combinations in each round and a second full rank scan of the last
round's matrices at exit, which `ulab.bilinear` replaced with one
`gf_family_ranks` call per round; like the package, it scans the
combinations of the unit vectors off the pivots of the peeled vectors.
`bohr_decompose_orthogonal` is the same loop with the rule the package
used before, the combinations orthogonal to the peeled ones: where it
returns, both rules certify the same rank with the same number of peels.
`verify_cells` restricts and ranks the reduced map, rebuilt from `peeled`
by `reduced`, on every occupied translate (v, w) with `restrict`, and
counts each translate's cells with its own `np.unique`: the check the
cells stage made before it trusted the peeling's last scan and counted
its cells with one `BohrDecomposition.cell_index`.  `is_bilinear` and
`combine` are `BiAffineMap` helpers that only tests use.  The linear
algebra is `core_oracle`'s.  Tests compare the library against them;
nothing in the package imports this module.
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
)
from ulab.core import GroupParams, Subspace

from core_oracle import gf_nullspace, gf_rank, gf_rowreduce, gf_solve


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


def restrict(beta: BiAffineMap, bx: np.ndarray, by: np.ndarray, v: int = 0, w: int = 0) -> BiAffineMap:
    """Restriction of beta to (row span of bx + v) x (row span of by + w).

    The result lives on coefficient space F_p^d with d = rows of bx,
    which must equal rows of by.
    """
    params = beta.params
    p = params.p
    bx = np.asarray(bx, dtype=np.int64).reshape(-1, params.n) % p
    by = np.asarray(by, dtype=np.int64).reshape(-1, params.n) % p
    if bx.shape[0] != by.shape[0]:
        raise ValueError("restriction needs equal dimensions on both sides")
    if bx.shape[0] == 0:
        raise ValueError("cannot restrict to a zero-dimensional product")
    dv = params.digits(int(v))
    dw = params.digits(int(w))
    Tr = np.einsum("vs,kst,wt->kvw", bx, beta.T, by) % p
    ar = (np.einsum("kst,s->kt", beta.T, dv) + beta.a) @ by.T % p
    br = (np.einsum("kst,t->ks", beta.T, dw) + beta.b) @ bx.T % p
    lamr = (np.einsum("s,kst,t->k", dv, beta.T, dw) + beta.a @ dw + beta.b @ dv + beta.lam) % p
    return BiAffineMap(GroupParams(p, bx.shape[0]), Tr, ar, br, lamr)


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


def mats_map_rank(p: int, mats: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """(min rank, full u-scan) over nonzero combinations of the given matrices,
    one combination and one rank at a time.

    An empty family has no nonzero combinations; its rank is infinite.
    """
    k = mats.shape[0]
    if k == 0:
        return math.inf, ()
    vp = GroupParams(p, k)
    scan = []
    for u in range(1, vp.size):
        Tu = np.tensordot(vp.digits(u), mats, axes=(0, 0)) % p
        scan.append(gf_rank(p, Tu))
    return min(scan), tuple(scan)


def fitted_candidates(params: GroupParams, points: list[tuple[int, int]], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant maps through single points plus maps interpolating point
    pairs, one `gf_solve` per pair, until the pool holds cap maps."""
    p, n = params.p, params.n
    seen: set[tuple[int, ...]] = set()
    mats: list[np.ndarray] = []
    shifts: list[np.ndarray] = []

    def push(M: np.ndarray, c: np.ndarray) -> None:
        key = tuple(M.reshape(-1).tolist()) + tuple(c.tolist())
        if key not in seen:
            seen.add(key)
            mats.append(M)
            shifts.append(c)

    for _, u in points:
        push(np.zeros((n, n), dtype=np.int64), params.digits(u).copy())
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if len(mats) >= cap:
                break
            (h1, u1), (h2, u2) = points[i], points[j]
            if h1 == h2:
                continue
            rows = np.zeros((2 * n, n * n + n), dtype=np.int64)
            rhs = np.zeros(2 * n, dtype=np.int64)
            for q, (h, u) in enumerate(((h1, u1), (h2, u2))):
                dh, du = params.digits(h), params.digits(u)
                for r in range(n):
                    rows[q * n + r, r * n : (r + 1) * n] = dh
                    rows[q * n + r, n * n + r] = 1
                    rhs[q * n + r] = du[r]
            sol = gf_solve(p, rows, rhs)
            if sol is not None:
                push(sol[: n * n].reshape(n, n), sol[n * n :])
        if len(mats) >= cap:
            break
    return np.array(mats, dtype=np.int64).reshape(-1, n, n), np.array(shifts, dtype=np.int64).reshape(-1, n)


def _coordinate_complement(p: int, U: np.ndarray, k: int) -> np.ndarray:
    """Unit vectors of F_p^k off the pivot columns of rref(U)."""
    pivots = gf_rowreduce(p, U)[1] if U.shape[0] else []
    return np.eye(k, dtype=np.int64)[[c for c in range(k) if c not in pivots]]


def _orthogonal_complement(p: int, U: np.ndarray, k: int) -> np.ndarray:
    """A basis of the vectors of F_p^k orthogonal to the rows of U."""
    return gf_nullspace(p, U) if U.shape[0] else np.eye(k, dtype=np.int64)


def _peel(beta: BiAffineMap, t: int, complement) -> BohrDecomposition:
    """Peel low-rank combinations until the rest have rank at least t.

    Each round scans the combinations of the rows of complement(p, U, k),
    U the peeled vectors, restricted to the current product V x W; the
    minimal-rank one (earliest in index order on ties) is peeled, shrinking
    V and W by its kernels.
    """
    params = beta.params
    p, n, k = params.p, params.n, beta.k
    BV = np.eye(n, dtype=np.int64)
    BW = np.eye(n, dtype=np.int64)
    U = np.zeros((0, k), dtype=np.int64)
    peeled: list[tuple[int, ...]] = []
    scans: list[tuple[int, ...]] = []
    for _ in range(k + 1):
        NB = complement(p, U, k)
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
            X1 = Subspace.from_generators(params, params.index(BV))
            Y1 = Subspace.from_generators(params, params.index(BW))
            X0 = _complement(params, X1)
            Y0 = _complement(params, Y1)
            if X0.dim > t * k or Y0.dim > t * k:
                raise RuntimeError("peeled dimensions exceed the t*k guarantee")
            Tr = np.tensordot(NB, beta.T, axes=(1, 0)) % p
            certified, _ = mats_map_rank(p, np.einsum("vs,kst,wt->kvw", BV, Tr, BW) % p)
            return BohrDecomposition(
                beta=beta,
                X0=X0,
                X1=X1,
                Y0=Y0,
                Y1=Y1,
                rank_certificate=t,
                certified_rank=certified,
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


def bohr_decompose(beta: BiAffineMap, t: int) -> BohrDecomposition:
    """The peeling over the unit vectors off the peeled vectors' pivots."""
    return _peel(beta, t, _coordinate_complement)


def bohr_decompose_orthogonal(beta: BiAffineMap, t: int) -> BohrDecomposition:
    """The peeling over the combinations orthogonal to the peeled ones.

    Over F_p a peeled vector can be orthogonal to itself; then this rule
    peels a combination already peeled and runs out of its k rounds.
    """
    return _peel(beta, t, _orthogonal_complement)


def reduced(dec: BohrDecomposition) -> BiAffineMap:
    """The combinations of beta left unpeeled: the unit vectors off the
    pivots of `peeled`, applied to every coordinate array."""
    beta = dec.beta
    p, k = beta.params.p, beta.k
    NB = _coordinate_complement(p, np.array(dec.peeled, dtype=np.int64).reshape(-1, k), k)
    return BiAffineMap(
        beta.params,
        np.tensordot(NB, beta.T, axes=(1, 0)) % p,
        NB @ beta.a % p,
        NB @ beta.b % p,
        NB @ beta.lam % p,
    )


def verify_cells(dec: BohrDecomposition, t: int | None = None) -> int:
    """Rank the reduced map restricted to every occupied cell translate
    (v, w) and return the number of nonempty cells; raise if a translate
    falls below the threshold (the decomposition's certificate by default)."""
    threshold = dec.rank_certificate if t is None else t
    p = dec.beta.params.p
    xl, yl, zt = dec.x0_labels(), dec.y0_labels(), dec.beta.value_index_table()
    rest = reduced(dec)
    checked = 0
    for v in dec.X0.member_indices():
        xs = np.nonzero(xl == v)[0]
        for w in dec.Y0.member_indices():
            ys = np.nonzero(yl == w)[0]
            zs = np.unique(zt[np.ix_(xs, ys)])
            if zs.size == 0:
                continue
            if rest.k == 0:
                rank: float = math.inf
            else:
                restricted = restrict(rest, dec.X1.matrix(), dec.Y1.matrix(), int(v), int(w))
                rank, _ = mats_map_rank(p, restricted.T)
            if rank < threshold:
                raise RuntimeError(
                    "cell translate (%d, %d) has reduced rank %s below %d" % (v, w, rank, threshold)
                )
            checked += int(zs.size)
    return checked
