"""Bi-affine maps on G x G, rank certificates, high-rank Bohr decompositions,
averaging projections, and the L2 structure theory of mixed convolutions.

A bi-affine map into F_p^k is stored coordinatewise as
beta_i(x, y) = x.T_i y + a_i.y + x.b_i + lam_i.  Its rank is the smallest
rank, over nonzero combinations u, of the bilinear coefficient matrix of
u.beta; peeling low-rank combinations yields a cell decomposition of G^2
whose nonempty cells all carry certified high rank.  The Bogolyubov step
approximates the mixed self-convolution of a bounded grid function, in L2,
by its average over the level sets of such a map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ulab.core import (
    CharacterSum,
    GroupFn,
    GroupParams,
    Subspace,
    _gf_matinv,
    _json_fields,
    _json_params,
    dft,
    gf_nullspace,
    gf_rank,
    gf_rowreduce,
    gf_solve,
)
from ulab.grid import GridFn, _transform_cols, _transform_rows, mixed_self, vert_conv

__all__ = [
    "BiAffineMap",
    "BohrDecomposition",
    "PeelStep",
    "RankCertificate",
    "BogolyubovReport",
    "QrSampleReport",
    "biaffine_parts",
    "algebraic_rank",
    "analytic_rank_bilinear",
    "map_rank",
    "map_rank_scan",
    "normality",
    "indstep",
    "bohr_decompose",
    "avg_projection",
    "bogolyubov_bilinear",
    "weak_bog_linear",
    "qr_sample_check",
    "row_surjectivity_fraction",
    "arrangement_cell_probability",
    "biaffine_to_json",
    "biaffine_from_json",
]


# ============================================================
# the map type
# ============================================================


@dataclass(frozen=True)
class BiAffineMap:
    """Map G x G -> F_p^k with coordinates x.T_i y + a_i.y + x.b_i + lam_i.

    T has shape (k, n, n), a and b have shape (k, n), lam has shape (k,).
    k = 0 is allowed and denotes the trivial map into the zero group.
    """

    params: GroupParams
    T: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        p, n = self.params.p, self.params.n
        T = np.asarray(self.T, dtype=np.int64) % p
        a = np.asarray(self.a, dtype=np.int64) % p
        b = np.asarray(self.b, dtype=np.int64) % p
        lam = np.atleast_1d(np.asarray(self.lam, dtype=np.int64)) % p
        k = T.shape[0] if T.ndim == 3 else 0
        if T.shape != (k, n, n) or a.shape != (k, n) or b.shape != (k, n) or lam.shape != (k,):
            raise ValueError("coordinate arrays must have shapes (k,n,n), (k,n), (k,n), (k,)")
        for name, arr in (("T", T), ("a", a), ("b", b), ("lam", lam)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.T.shape[0]

    @classmethod
    def bilinear(cls, params: GroupParams, mats) -> "BiAffineMap":
        T = np.asarray(mats, dtype=np.int64)
        if T.ndim == 2:
            T = T[None]
        k, n = T.shape[0], params.n
        z = np.zeros((k, n), dtype=np.int64)
        return cls(params, T, z, z.copy(), np.zeros(k, dtype=np.int64))

    @classmethod
    def zero(cls, params: GroupParams, k: int) -> "BiAffineMap":
        n = params.n
        return cls(
            params,
            np.zeros((k, n, n), dtype=np.int64),
            np.zeros((k, n), dtype=np.int64),
            np.zeros((k, n), dtype=np.int64),
            np.zeros(k, dtype=np.int64),
        )

    def is_bilinear(self) -> bool:
        return not (self.a.any() or self.b.any() or self.lam.any())

    def evaluate(self, x, y) -> np.ndarray:
        """Value digits, shape broadcast(x, y) + (k,)."""
        p = self.params.p
        dx = self.params.digits(np.asarray(x, dtype=np.int64))
        dy = self.params.digits(np.asarray(y, dtype=np.int64))
        bil = np.einsum("...s,kst,...t->...k", dx, self.T, dy)
        lin = dy @ self.a.T + dx @ self.b.T
        return (bil + lin + self.lam) % p

    def value_table(self) -> np.ndarray:
        """Digits of beta on the full grid, shape (N, N, k)."""
        p, N = self.params.p, self.params.size
        D = self.params.digits(np.arange(N, dtype=np.int64))
        bil = np.einsum("xs,kst,yt->xyk", D, self.T, D)
        out = bil + (D @ self.a.T)[None, :, :] + (D @ self.b.T)[:, None, :] + self.lam
        return out % p

    def value_index_table(self) -> np.ndarray:
        """Little-endian packed values, shape (N, N).  Needs p^k to fit int64."""
        p, k = self.params.p, self.k
        if k * math.log2(p) > 62:
            raise ValueError("value space too large to index")
        if k == 0:
            N = self.params.size
            return np.zeros((N, N), dtype=np.int64)
        pows = p ** np.arange(k, dtype=np.int64)
        return self.value_table() @ pows

    def combine(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Coordinate data of the single form u.beta, for u in F_p^k digits."""
        p = self.params.p
        ud = np.asarray(u, dtype=np.int64) % p
        T = np.tensordot(ud, self.T, axes=(0, 0)) % p
        a = ud @ self.a % p
        b = ud @ self.b % p
        lam = int(ud @ self.lam % p)
        return T, a, b, lam

    def restrict(self, bx: np.ndarray, by: np.ndarray, v: int = 0, w: int = 0) -> "BiAffineMap":
        """Restriction to (row span of bx + v) x (row span of by + w).

        The result lives on coefficient space F_p^d with d = rows of bx,
        which must equal rows of by.
        """
        p = self.params.p
        bx = np.asarray(bx, dtype=np.int64).reshape(-1, self.params.n) % p
        by = np.asarray(by, dtype=np.int64).reshape(-1, self.params.n) % p
        if bx.shape[0] != by.shape[0]:
            raise ValueError("restriction needs equal dimensions on both sides")
        if bx.shape[0] == 0:
            raise ValueError("cannot restrict to a zero-dimensional product")
        dv = self.params.digits(int(v))
        dw = self.params.digits(int(w))
        Tr = np.einsum("vs,kst,wt->kvw", bx, self.T, by) % p
        ar = (np.einsum("kst,s->kt", self.T, dv) + self.a) @ by.T % p
        br = (np.einsum("kst,t->ks", self.T, dw) + self.b) @ bx.T % p
        lamr = (np.einsum("s,kst,t->k", dv, self.T, dw) + self.a @ dw + self.b @ dv + self.lam) % p
        return BiAffineMap(GroupParams(p, bx.shape[0]), Tr, ar, br, lamr)


def biaffine_to_json(beta: BiAffineMap) -> dict:
    return {
        "p": beta.params.p,
        "n": beta.params.n,
        "k": beta.k,
        "coords": [
            {
                "T": beta.T[i].tolist(),
                "a": beta.a[i].tolist(),
                "b": beta.b[i].tolist(),
                "lambda": int(beta.lam[i]),
            }
            for i in range(beta.k)
        ],
    }


def biaffine_from_json(obj) -> BiAffineMap:
    params = _json_params(obj, "bi-affine map")
    (coords,) = _json_fields(obj, "bi-affine map", "coords")
    k = int(obj.get("k", len(coords)))
    if k != len(coords):
        raise ValueError("declared k disagrees with the coordinate list")
    n = params.n
    parts = [_json_fields(c, "bi-affine coordinate", "T", "a", "b", "lambda") for c in coords]
    T = np.array([c[0] for c in parts], dtype=np.int64).reshape(k, n, n)
    a = np.array([c[1] for c in parts], dtype=np.int64).reshape(k, n)
    b = np.array([c[2] for c in parts], dtype=np.int64).reshape(k, n)
    lam = np.array([c[3] for c in parts], dtype=np.int64).reshape(k)
    return BiAffineMap(params, T, a, b, lam)


# ============================================================
# parts and ranks
# ============================================================


def biaffine_parts(beta: BiAffineMap) -> tuple[BiAffineMap, np.ndarray, np.ndarray, np.ndarray]:
    """Split beta into (bilinear gamma, x-part A, y-part B, constant z).

    Recovered by black-box evaluation: z = beta(0,0), A[i] and B[i] are the
    digit functionals with A.x = beta(x,0) - z and B.y = beta(0,y) - z, and
    gamma(x,y) = beta(x,y) - beta(x,0) - beta(0,y) + z.  Recomposition
    beta = gamma + A.x + B.y + z is exact at every point.
    """
    params = beta.params
    p, n, k = params.p, params.n, beta.k
    units = [int(p**s) for s in range(n)]
    z = beta.evaluate(0, 0)
    A = np.zeros((k, n), dtype=np.int64)
    B = np.zeros((k, n), dtype=np.int64)
    T = np.zeros((k, n, n), dtype=np.int64)
    row0 = [beta.evaluate(e, 0) for e in units]
    col0 = [beta.evaluate(0, e) for e in units]
    for s in range(n):
        A[:, s] = (row0[s] - z) % p
        B[:, s] = (col0[s] - z) % p
    for s in range(n):
        for t in range(n):
            T[:, s, t] = (beta.evaluate(units[s], units[t]) - row0[s] - col0[t] + z) % p
    gamma = BiAffineMap.bilinear(params, T)
    return gamma, A, B, z


def algebraic_rank(p: int, mat) -> int:
    """Rank of a coefficient matrix over F_p, by Gaussian elimination."""
    return gf_rank(p, mat)


def analytic_rank_bilinear(beta: BiAffineMap) -> int:
    """-log_p of the mean of omega^beta over the grid, for one bilinear form.

    Computed exactly: the residue counts of x.Ty collapse to the rational
    p^(-rank), and the result is checked against the algebraic rank.
    """
    if beta.k != 1:
        raise ValueError("analytic rank takes a single coordinate form")
    if not beta.is_bilinear():
        raise ValueError("analytic rank is defined for bilinear forms only")
    p = beta.params.p
    counts = CharacterSum.from_values(p, beta.value_table()[:, :, 0])
    mean = counts.rational_mean()
    if mean <= 0:
        raise RuntimeError("character mean of a bilinear phase must be positive, got %s" % mean)
    rank = 0
    while Fraction(1, p**rank) != mean:
        rank += 1
        if rank > 2 * beta.params.n:
            raise RuntimeError("character mean %s is not a power of 1/p" % mean)
    alg = algebraic_rank(p, beta.T[0])
    if rank != alg:
        raise RuntimeError("analytic rank %d disagrees with algebraic rank %d" % (rank, alg))
    return rank


def _mats_map_rank(p: int, mats: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """(min rank, full u-scan) over nonzero combinations of the given matrices.

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


def map_rank(beta: BiAffineMap) -> float:
    """Smallest rank of u.beta over nonzero u, scanning all p^k - 1 of them."""
    return _mats_map_rank(beta.params.p, beta.T)[0]


def map_rank_scan(beta: BiAffineMap) -> tuple[int, ...]:
    """Rank of every nonzero combination, indexed by u = 1 .. p^k - 1."""
    return _mats_map_rank(beta.params.p, beta.T)[1]


# ============================================================
# normality
# ============================================================


def normality(points, beta: BiAffineMap, axis: str) -> bool:
    """Whether the simultaneous system beta(x_j, .) = 0 (axis "x", solving in
    y; symmetrically for axis "y") has exactly p^(-rk) |G| solutions.

    The count is exact: the system is affine, so it is p^(n - rank) when
    consistent and 0 otherwise.
    """
    params = beta.params
    p, n, k = params.p, params.n, beta.k
    idx = [int(q) for q in points]
    r = len(idx)
    rows = []
    rhs = []
    for q in idx:
        d = params.digits(q)
        if axis == "x":
            block = (np.einsum("kst,s->kt", beta.T, d) + beta.a) % p
            const = (beta.b @ d + beta.lam) % p
        elif axis == "y":
            block = (np.einsum("kst,t->ks", beta.T, d) + beta.b) % p
            const = (beta.a @ d + beta.lam) % p
        else:
            raise ValueError("axis must be 'x' or 'y'")
        rows.append(block)
        rhs.append((-const) % p)
    if r == 0 or k == 0:
        count = p**n
    else:
        mat = np.concatenate(rows, axis=0)
        vec = np.concatenate(rhs, axis=0)
        aug = np.concatenate([mat, vec.reshape(-1, 1)], axis=1)
        red, pivots = gf_rowreduce(p, aug)
        if n in pivots:
            count = 0
        else:
            count = p ** (n - len(pivots))
    return Fraction(count) == Fraction(p**n, p ** (r * k))


# ============================================================
# peeling and the Bohr decomposition
# ============================================================


@dataclass(frozen=True)
class PeelStep:
    """A nonzero combination u of rank below threshold, with the kernels on
    which u.beta becomes linear: V = ker T_u^T on the x side, W = ker T_u."""

    u: tuple[int, ...]
    V: Subspace
    W: Subspace
    rank: int


@dataclass(frozen=True)
class RankCertificate:
    """Witness that every nonzero combination has rank >= threshold."""

    threshold: int
    min_rank: float
    scan: tuple[int, ...]


def _subspace_from_rows(params: GroupParams, rows: np.ndarray) -> Subspace:
    rows = np.asarray(rows, dtype=np.int64) % params.p
    if rows.size == 0:
        return Subspace(params, ())
    return Subspace.from_generators(params, np.atleast_1d(params.index(rows)))


def indstep(beta: BiAffineMap, t: int) -> PeelStep | RankCertificate:
    """One peeling step: the first u (in index order) whose combination has
    rank below t, with the kernel pair, or a certificate that none exists."""
    p = beta.params.p
    min_rank, scan = _mats_map_rank(p, beta.T)
    if min_rank >= t:
        return RankCertificate(t, min_rank, scan)
    vp = GroupParams(p, beta.k)
    for u in range(1, vp.size):
        if scan[u - 1] < t:
            ud = vp.digits(u)
            Tu = np.tensordot(ud, beta.T, axes=(0, 0)) % p
            V = _subspace_from_rows(beta.params, gf_nullspace(p, Tu.T))
            W = _subspace_from_rows(beta.params, gf_nullspace(p, Tu))
            return PeelStep(tuple(int(c) for c in ud), V, W, scan[u - 1])
    raise RuntimeError("scan reported a low-rank combination but none was found")


@dataclass(frozen=True)
class BohrDecomposition:
    """Cell decomposition of G^2 by (x_0, y_0, beta value), certified high rank.

    X = X0 (+) X1 and Y = Y0 (+) Y1; each cell is
    {(x, y): x_0 = v, y_0 = w, beta(x, y) = z}.  The peeled combinations in
    `peeled` are linear on every cell's ambient product; `certified_rank`
    is the measured rank of the reduced map (the combinations orthogonal to
    the peeled ones) restricted to X1 x Y1, and is at least
    `rank_certificate` (infinite when nothing remains to combine).
    """

    beta: BiAffineMap
    X0: Subspace
    X1: Subspace
    Y0: Subspace
    Y1: Subspace
    rank_certificate: int
    certified_rank: float
    reduced: BiAffineMap
    peeled: tuple[tuple[int, ...], ...]
    round_scans: tuple[tuple[int, ...], ...]

    def _component_labels(self, sub1: Subspace, sub0: Subspace) -> np.ndarray:
        """For each group element, the index of its sub0-component."""
        params = self.beta.params
        p, n, N = params.p, params.n, params.size
        b1, b0 = sub1.matrix(), sub0.matrix()
        M = np.concatenate([b1, b0], axis=0)
        Minv = _gf_matinv(p, M)
        coeffs = params.digits(np.arange(N, dtype=np.int64)) @ Minv % p
        comp0 = coeffs[:, sub1.dim :] @ b0 % p if sub0.dim else np.zeros((N, n), dtype=np.int64)
        return np.atleast_1d(params.index(comp0)).astype(np.int64)

    def x0_labels(self) -> np.ndarray:
        return self._component_labels(self.X1, self.X0)

    def y0_labels(self) -> np.ndarray:
        return self._component_labels(self.Y1, self.Y0)

    def cell_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x0 label per x, y0 label per y, packed beta value per (x, y))."""
        return self.x0_labels(), self.y0_labels(), self.beta.value_index_table()

    def verify_cells(self, t: int | None = None) -> int:
        """Re-derive the restricted reduced map on every occupied translate and
        check its rank; returns the number of nonempty cells inspected.

        Raises if any occupied cell fails the threshold."""
        threshold = self.rank_certificate if t is None else t
        p = self.beta.params.p
        xl, yl, zt = self.cell_tables()
        checked = 0
        for v in self.X0.member_indices():
            xs = np.nonzero(xl == v)[0]
            for w in self.Y0.member_indices():
                ys = np.nonzero(yl == w)[0]
                zs = np.unique(zt[np.ix_(xs, ys)])
                if zs.size == 0:
                    continue
                if self.reduced.k == 0:
                    # every combination is peeled: cells are full products
                    rank: float = math.inf
                else:
                    restricted = self.reduced.restrict(self.X1.matrix(), self.Y1.matrix(), int(v), int(w))
                    rank, _ = _mats_map_rank(p, restricted.T)
                if rank < threshold:
                    raise RuntimeError(
                        "cell translate (%d, %d) has reduced rank %s below %d" % (v, w, rank, threshold)
                    )
                checked += int(zs.size)
        return checked


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


def _complement(params: GroupParams, sub: Subspace) -> Subspace:
    """Coordinate complement spanned by the unit vectors off the pivots."""
    _, pivots = gf_rowreduce(params.p, sub.matrix()) if sub.dim else (None, [])
    gens = [params.p**j for j in range(params.n) if j not in pivots]
    return Subspace.from_generators(params, gens)


# ============================================================
# averaging projection and the Bogolyubov argument
# ============================================================


def avg_projection(F: GridFn, beta: BiAffineMap) -> GridFn:
    """Replace F by its mean over each level set of beta."""
    if F.params != beta.params:
        raise ValueError("mismatched group parameters")
    N = F.params.size
    if beta.k == 0:
        return GridFn.constant(F.params, F.mean())
    rows = beta.value_table().reshape(N * N, beta.k)
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    flat = F.values.reshape(-1)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=flat.real) + 1j * np.bincount(inverse, weights=flat.imag)
    means = sums / counts
    return GridFn(F.params, means[inverse].reshape(N, N))


@dataclass(frozen=True)
class BogolyubovReport:
    """Measured quantities from one Bogolyubov approximation run."""

    zeta: float
    gamma: float
    delta: float
    method: str
    m: int
    k: int
    maps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    spectrum_size: int
    uncovered: int
    l1_max: float
    l1_cap: float
    error: float
    flagged: bool
    budget_exhausted: bool


def _affine_map_tables(params: GroupParams, mats: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Index of M h + c for every map (rows of mats/shifts) and every h."""
    N = params.size
    D = params.digits(np.arange(N, dtype=np.int64))
    vals = (np.einsum("mst,ht->mhs", mats, D) + shifts[:, None, :]) % params.p
    return params.index(vals.reshape(-1, params.n)).reshape(mats.shape[0], N)


def _greedy_cover(
    tables: np.ndarray, points: list[tuple[int, int]], eps_count: float, max_maps: int
) -> tuple[list[int], int]:
    """Pick map rows until at most eps_count spectrum points stay uncovered.

    Returns (chosen row ids, uncovered count).  Ties go to the earliest row,
    so a lexicographic candidate order makes the cover deterministic.
    """
    hs = np.array([h for h, _ in points], dtype=np.int64)
    us = np.array([u for _, u in points], dtype=np.int64)
    covers = tables[:, hs] == us[None, :]
    uncovered = np.ones(len(points), dtype=bool)
    chosen: list[int] = []
    while uncovered.sum() > eps_count and len(chosen) < max_maps:
        gain = (covers & uncovered).sum(axis=1)
        best = int(np.argmax(gain))
        if gain[best] == 0:
            break
        chosen.append(best)
        uncovered &= ~covers[best]
    return chosen, int(uncovered.sum())


def _exact_candidates(params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """All p^(n^2+n) affine maps h -> Mh + c, in lexicographic order."""
    p, n = params.p, params.n
    mp = GroupParams(p, n * n)
    mats = mp.digits(np.arange(mp.size, dtype=np.int64)).reshape(-1, n, n)
    cs = params.digits(np.arange(params.size, dtype=np.int64))
    M = np.repeat(mats, params.size, axis=0)
    C = np.tile(cs, (mp.size, 1))
    return M, C


def _fitted_candidates(params: GroupParams, points: list[tuple[int, int]], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant maps through single points plus maps interpolating point pairs.

    Pair fits solve the 2n interpolation equations for (M, c) with free
    entries set to zero, so the pool is deterministic.
    """
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


def bogolyubov_bilinear(
    f: GridFn,
    zeta: float,
    *,
    cover_method: str = "auto",
    max_maps: int = 48,
    candidate_cap: int = 4096,
) -> tuple[BiAffineMap, BogolyubovReport]:
    """L2-approximate the mixed self-convolution of f by a level-set average.

    Computes F as the mixed self-convolution, covers the gamma-large column
    spectrum of the vertical self-convolution by affine maps (gamma =
    zeta^2/8, exhaustively enumerated for n <= 2, greedily fitted above),
    truncates the transforms of the per-map coefficient functions at
    (zeta/2)^2 / m^2, and concatenates the surviving bilinear phases into a
    single map beta.  The measured error of the averaging projection is
    returned and flagged when it misses the target.
    """
    if zeta <= 0:
        raise ValueError("the approximation target must be positive")
    if f.norm_linf() > 1 + 1e-9:
        raise ValueError("needs a bounded input (sup norm at most 1)")
    params = f.params
    p, n, N = params.p, params.n, params.size
    F = mixed_self(f)
    g = vert_conv(f, f)

    Gc = _transform_cols(g.values, p, n, -1, True)
    Fc = _transform_cols(F.values, p, n, -1, True)
    if not np.allclose(Fc, np.abs(Gc) ** 2, atol=1e-9):
        raise RuntimeError("column transforms of the mixed convolution lost the square law")
    row_l1 = np.abs(_transform_rows(F.values, p, n, -1, True)).sum(axis=1).max()
    if row_l1 > 1 + 1e-9:
        raise RuntimeError("row transform l1 bound violated: %g" % row_l1)

    gamma = zeta**2 / 8
    delta = zeta / 2
    power = np.abs(Gc) ** 2
    us, hs = np.nonzero(power >= gamma - 1e-15)
    points = [(int(h), int(u)) for u, h in zip(us, hs)]
    points.sort()

    method = cover_method
    if method == "auto":
        method = "exact" if n <= 2 else "greedy"
    if method not in ("exact", "greedy"):
        raise ValueError("cover_method must be auto, exact, or greedy")

    if points:
        if method == "exact":
            mats, shifts = _exact_candidates(params)
        else:
            mats, shifts = _fitted_candidates(params, points, candidate_cap)
        tables = _affine_map_tables(params, mats, shifts)
        chosen, uncovered = _greedy_cover(tables, points, gamma * N, max_maps)
        cover_mats = mats[chosen]
        cover_shifts = shifts[chosen]
        cover_tables = tables[chosen]
    else:
        cover_mats = np.zeros((0, n, n), dtype=np.int64)
        cover_shifts = np.zeros((0, n), dtype=np.int64)
        cover_tables = np.zeros((0, N), dtype=np.int64)
        uncovered = 0
    m = cover_mats.shape[0]

    coord_T: list[np.ndarray] = []
    coord_a: list[np.ndarray] = []
    coord_b: list[np.ndarray] = []
    l1_max = 0.0
    ys = np.arange(N)
    for i in range(m):
        ui = Fc[cover_tables[i], ys].copy()
        for j in range(i):
            ui[cover_tables[j] == cover_tables[i]] = 0.0
        uhat = dft(GroupFn(params, ui)).values
        l1_max = max(l1_max, float(np.abs(uhat).sum()))
        keep = np.nonzero(np.abs(uhat) >= delta**2 / m**2 - 1e-15)[0]
        for v in keep:
            coord_T.append(cover_mats[i])
            coord_a.append(params.digits(int(v)))
            coord_b.append(cover_shifts[i])
    k = len(coord_T)
    if k:
        beta = BiAffineMap(
            params,
            np.array(coord_T, dtype=np.int64),
            np.array(coord_a, dtype=np.int64),
            np.array(coord_b, dtype=np.int64),
            np.zeros(k, dtype=np.int64),
        )
    else:
        beta = BiAffineMap.zero(params, 0)

    diff = F.values - avg_projection(F, beta).values
    error = float(np.sqrt((np.abs(diff) ** 2).mean()))
    budget_exhausted = uncovered > gamma * N
    report = BogolyubovReport(
        zeta=float(zeta),
        gamma=gamma,
        delta=delta,
        method=method,
        m=m,
        k=k,
        maps=tuple(
            (tuple(int(v) for v in M.reshape(-1)), tuple(int(v) for v in c))
            for M, c in zip(cover_mats, cover_shifts)
        ),
        spectrum_size=len(points),
        uncovered=uncovered,
        l1_max=l1_max,
        l1_cap=float(2**m),
        error=error,
        flagged=error > zeta,
        budget_exhausted=budget_exhausted,
    )
    return beta, report


def weak_bog_linear(f: GroupFn, g: GroupFn, eps: float) -> Subspace:
    """Subspace B with the convolution f*g close to its B-coset averages.

    B annihilates the joint spectrum {r: |fhat(r) ghat(r)| >= eps/4}; the
    resulting L2 error is measured and must come in at or below eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.params != g.params:
        raise ValueError("mismatched group parameters")
    prod = np.abs(dft(f).values * dft(g).values)
    spec = np.nonzero(prod >= eps / 4 - 1e-15)[0]
    span = Subspace.from_generators(f.params, spec)
    B = span.annihilator()
    if B.codim > 4 / eps + 1e-9:
        raise RuntimeError("spectrum span exceeded the 4/eps codimension bound")
    kept = span.indicator()
    error = float(np.sqrt((prod[~kept] ** 2).sum()))
    if error > eps + 1e-12:
        raise RuntimeError("measured approximation error %g exceeds eps" % error)
    return B


# ============================================================
# quasirandom sampling and decomposition statistics
# ============================================================


@dataclass(frozen=True)
class QrSampleReport:
    """Exception statistics for sampling a function through a set family."""

    m: int
    exceptions: int
    fraction: Fraction
    alpha: Fraction
    eps1: Fraction
    eps2: Fraction
    theta: float
    bound: float


def qr_sample_check(sets, f, theta: float) -> QrSampleReport:
    """Count the sets whose sample mean of f misses alpha times the true mean.

    alpha is the modal per-point membership density of the family, eps1 and
    eps2 the exact fractions of points and pairs off the alpha and alpha^2
    densities; the exception count must respect (2 alpha eps1 + eps2) m / theta^2.
    """
    A = np.asarray(sets, dtype=bool)
    if A.ndim != 2:
        raise ValueError("sets must form an (m, |X|) array of indicators")
    vals = np.asarray(f, dtype=np.float64)
    m, X = A.shape
    if vals.shape != (X,):
        raise ValueError("f must be a length-|X| array")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
        raise ValueError("f must take values in [0, 1]")

    counts = A.sum(axis=0)
    mode = int(np.bincount(counts, minlength=m + 1).argmax())
    alpha = Fraction(mode, m)
    eps1 = Fraction(int((counts != mode).sum()), X)
    P = A.T.astype(np.int64) @ A.astype(np.int64)
    eps2 = Fraction(int((P * m != mode * mode).sum()), X * X)

    samples = (A @ vals) / X
    target = float(alpha) * float(vals.mean())
    exceptions = int((np.abs(samples - target) > theta + 1e-12).sum())
    bound = float(2 * alpha * eps1 + eps2) * m / theta**2
    if exceptions > bound + 1e-9:
        raise RuntimeError("exception count %d exceeds the second-moment bound %g" % (exceptions, bound))
    return QrSampleReport(m, exceptions, Fraction(exceptions, m), alpha, eps1, eps2, float(theta), bound)


def row_surjectivity_fraction(beta: BiAffineMap, xspace: Subspace, yspace: Subspace) -> Fraction:
    """Fraction of x in xspace whose row functionals span F_p^k on yspace.

    The row map sends y to beta(x, y) minus its constant part; restricted to
    yspace it is surjective exactly when the k functionals T_i^T x + a_i stay
    independent modulo the annihilator of yspace.
    """
    params = beta.params
    p, k = params.p, beta.k
    by = yspace.matrix()
    members = xspace.member_indices()
    good = 0
    for x in members:
        d = params.digits(int(x))
        funcs = (np.einsum("kst,s->kt", beta.T, d) + beta.a) % p
        if gf_rank(p, funcs @ by.T % p) == k:
            good += 1
    return Fraction(good, len(members))


def arrangement_cell_probability(decomp: BohrDecomposition, triples) -> Fraction:
    """Exact probability that a random 4-arrangement's 8 vertices land in the
    8 named cells (v, w, z) of the decomposition, in listed order.

    The arrangement is (x_i, y_i), (x_i, y_i - h) for i = 1..4 with
    x_1 - x_2 = x_3 - x_4; the count factors through per-column pair counts
    and two correlation sums, so the total is exact integer arithmetic.
    """
    trips = [(int(v), int(w), int(z)) for v, w, z in triples]
    if len(trips) != 8:
        raise ValueError("exactly eight (v, w, z) triples are required")
    params = decomp.beta.params
    N = params.size
    xl, yl, zt = decomp.cell_tables()
    masks = []
    for v, w, z in trips:
        masks.append(((xl[:, None] == v) & (yl[None, :] == w) & (zt == z)).astype(np.int64))
    idx = np.arange(N, dtype=np.int64)
    total = 0
    for h in range(N):
        shifted = params.sub(idx, h)
        pair = [
            (masks[2 * j] * masks[2 * j + 1][:, shifted]).sum(axis=1) for j in range(4)
        ]
        corr12 = np.zeros(N, dtype=object)
        corr34 = np.zeros(N, dtype=object)
        for d in range(N):
            cols = params.sub(idx, d)
            corr12[d] = int(pair[0] @ pair[1][cols])
            corr34[d] = int(pair[2] @ pair[3][cols])
        total += int(sum(int(corr12[d]) * int(corr34[d]) for d in range(N)))
    return Fraction(total, N**8)
