"""Bi-affine maps on G x G, high-rank Bohr decompositions, averaging
projections, and the L2 structure theory of mixed convolutions.

A bi-affine map into F_p^k is stored coordinatewise as
beta_i(x, y) = x.T_i y + a_i.y + x.b_i + lam_i.  Its rank is the smallest
rank, over nonzero combinations u, of the bilinear coefficient matrix of
u.beta, all ranked by one `gf_family_ranks` call; peeling low-rank
combinations yields a cell decomposition of G^2 whose cells all carry high
rank, certified by the peeling's last scan of every remaining combination.
The Bogolyubov step approximates the mixed self-convolution of a bounded
grid function, in L2, by its average over the level sets of such a map,
covering its spectrum above n = 2 by maps fitted through pairs of spectrum
points, a block of pairs per `_solve_stack` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ulab.core import (
    SIZE_CAP,
    GroupFn,
    GroupParams,
    Subspace,
    _echelon,
    _gf_matinv,
    _json_fields,
    _json_params,
    _solve_stack,
    char_transform,
    dft,
    gf_family_ranks,
    gf_nullspace,
    gf_rowreduce,
)
from ulab.grid import GridFn, horiz_conv, vert_conv

__all__ = [
    "BiAffineMap",
    "BohrDecomposition",
    "BogolyubovReport",
    "bohr_decompose",
    "avg_projection",
    "bogolyubov_bilinear",
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
# peeling and the Bohr decomposition
# ============================================================


@dataclass(frozen=True)
class BohrDecomposition:
    """Cell decomposition of G^2 by (x_0, y_0, beta value), certified high rank.

    X = X0 (+) X1 and Y = Y0 (+) Y1; each cell is
    {(x, y): x_0 = v, y_0 = w, beta(x, y) = z}.  The peeled combinations in
    `peeled` are linear on every cell's ambient product.  `certified_rank`
    is the minimum of the peeling's last scan, which ranked every nonzero
    combination of a complement of the peeled ones restricted to X1 x Y1;
    the peeling stops only when it is at least `rank_certificate` (infinite
    when nothing remains to combine), so that scan is the certificate.
    """

    beta: BiAffineMap
    X0: Subspace
    X1: Subspace
    Y0: Subspace
    Y1: Subspace
    rank_certificate: int
    certified_rank: float
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

    def cell_index(self) -> np.ndarray:
        """Cell code of every (x, y), shape (N, N): (x0 label * N + y0 label)
        * p^k + packed beta value, so codes sort in the lexicographic order
        of the (x0 label, y0 label, beta value) triples.  Needs N^2 p^k to
        fit int64."""
        params = self.beta.params
        N, pk = params.size, params.p**self.beta.k
        if N * N * pk >= 2**63:
            raise ValueError("cell space too large to index")
        labels = self.x0_labels()[:, None] * N + self.y0_labels()[None, :]
        return labels * pk + self.beta.value_index_table()


def bohr_decompose(beta: BiAffineMap, t: int) -> BohrDecomposition:
    """Peel low-rank combinations until the rest have rank at least t >= 1.

    Each round ranks every nonzero combination in a complement of the span
    of everything already peeled, restricted to the current product V x W,
    with one `gf_family_ranks` call on the restricted matrices; the
    minimal-rank one (earliest in index order on ties) is peeled, shrinking
    V and W by its kernels.  The complement is spanned by the unit vectors
    off the pivot columns of the peeled vectors, so every peeled vector is
    independent of the earlier ones and the loop runs at most k rounds
    before nothing is left to combine.  The last round's scan ranks every
    remaining combination; its minimum is the certified rank, infinite when
    no combination remains.
    """
    if t < 1:
        raise ValueError("rank threshold t must be at least 1, got %d" % t)
    params = beta.params
    p, n, k = params.p, params.n, beta.k
    BV = np.eye(n, dtype=np.int64)
    BW = np.eye(n, dtype=np.int64)
    U = np.zeros((0, k), dtype=np.int64)
    peeled: list[tuple[int, ...]] = []
    scans: list[tuple[int, ...]] = []
    for _ in range(k + 1):
        NB = np.eye(k, dtype=np.int64)[~_echelon(p, U)[1]]
        Tr = np.tensordot(NB, beta.T, axes=(1, 0)) % p
        mats = np.einsum("vs,kst,wt->kvw", BV, Tr, BW) % p
        scan = tuple(gf_family_ranks(p, mats)[1:].tolist())
        min_rank = min(scan, default=math.inf)
        scans.append(scan)
        if min_rank >= t:
            # BV and BW are row reduced, so their rows are the subspaces' bases
            X1 = Subspace(params, tuple(params.index(BV).tolist()))
            Y1 = Subspace(params, tuple(params.index(BW).tolist()))
            X0 = _complement(params, X1)
            Y0 = _complement(params, Y1)
            if X0.dim > t * k or Y0.dim > t * k:
                raise RuntimeError("peeled dimensions exceed the t*k guarantee")
            return BohrDecomposition(
                beta=beta,
                X0=X0,
                X1=X1,
                Y0=Y0,
                Y1=Y1,
                rank_certificate=t,
                certified_rank=min_rank,
                peeled=tuple(peeled),
                round_scans=tuple(scans),
            )
        d = GroupParams(p, NB.shape[0]).digits(scan.index(min_rank) + 1)
        u = d @ NB % p
        Tres = np.tensordot(d, mats, axes=(0, 0)) % p
        BV = gf_rowreduce(p, gf_nullspace(p, Tres.T) @ BV % p)[0]
        BW = gf_rowreduce(p, gf_nullspace(p, Tres) @ BW % p)[0]
        U = np.concatenate([U, u.reshape(1, -1)], axis=0)
        peeled.append(tuple(int(c) for c in u))
    raise RuntimeError("peeling exceeded k rounds; the reduction invariant failed")


def _complement(params: GroupParams, sub: Subspace) -> Subspace:
    """Coordinate complement spanned by the unit vectors off the pivots of
    the (row reduced) basis, each row's first non-zero column."""
    pivots = (sub.matrix() != 0).argmax(axis=1)
    return Subspace(params, tuple(params.p**j for j in range(params.n) if j not in pivots))


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


def _exact_cover(
    params: GroupParams, points: list[tuple[int, int]], eps_count: float, max_maps: int
) -> tuple[list[int], int]:
    """`_greedy_cover` over all p^(n^2+n) affine maps h -> Mh + c, counted per matrix.

    A map covers the point (h, u) exactly when c = u - Mh, so each matrix M
    covers each point with one shift; row_of[M, j] = M * N + index(u_j - M h_j)
    names that map in the lexicographic row order (M major, c minor), and a
    bincount of the uncovered columns gives every map's gain at once.  Rows
    are returned as those flat ids; ties go to the earliest, as in
    `_greedy_cover`, so the chosen maps are the same.
    """
    p, n, N = params.p, params.n, params.size
    n_mats = p ** (n * n)
    mats = GroupParams(p, n * n).digits(np.arange(n_mats, dtype=np.int64)).reshape(-1, n, n)
    dh = params.digits(np.array([h for h, _ in points], dtype=np.int64))
    du = params.digits(np.array([u for _, u in points], dtype=np.int64))
    row_of = np.repeat(np.arange(n_mats, dtype=np.int64)[:, None] * N, len(points), axis=1)
    # digit s of u - Mh, built in place in one (n_mats, len(points)) buffer,
    # freed before the greedy loop's gathers
    digit = np.empty_like(row_of)
    for s, weight in enumerate(p ** np.arange(n)):
        np.matmul(mats[:, s, :], dh.T, out=digit)
        np.subtract(du[:, s], digit, out=digit)
        digit %= p
        digit *= weight
        row_of += digit
    del digit
    uncovered = np.ones(len(points), dtype=bool)
    chosen: list[int] = []
    while uncovered.sum() > eps_count and len(chosen) < max_maps:
        gain = np.bincount(row_of[:, uncovered].ravel(), minlength=n_mats * N)
        best = int(np.argmax(gain))
        if gain[best] == 0:
            break
        chosen.append(best)
        uncovered &= row_of[best // N] != best
    return chosen, int(uncovered.sum())


def _with_new_rows(pool: np.ndarray, rows: np.ndarray, room: int) -> np.ndarray:
    """pool, then the first `room` rows of `rows` new to it, each at its first occurrence."""
    both = np.concatenate([pool, rows])
    _, first = np.unique(both, axis=0, return_index=True)
    return both[np.concatenate([np.arange(len(pool)), np.sort(first[first >= len(pool)])[:room]])]


def _fitted_candidates(params: GroupParams, points: list[tuple[int, int]], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Constant maps through single points plus maps interpolating point pairs.

    A pair (h1, u1), (h2, u2) with h1 != h2 gives the 2n equations
    M h_q + c = u_q for (M, c).  The pairs (i, j), i < j, are solved in
    order, one `_solve_stack` call per block of about SIZE_CAP entries, with
    the free entries set to zero, so the pool is deterministic: each map at
    its first occurrence, the constant maps first, until it holds cap maps.
    """
    p, n = params.p, params.n
    hs, us = np.array(points, dtype=np.int64).reshape(-1, 2).T
    eye, du = np.eye(n, dtype=np.int64), params.digits(us)
    consts = np.concatenate([np.zeros((len(us), n * n), dtype=np.int64), du], axis=1)
    pool = _with_new_rows(consts[:0], consts, len(us))
    # the augmented rows [I (x) h | I | u] of the n equations M h + c = u of each point (h, u)
    lhs = np.einsum("rs,qt->qrst", eye, params.digits(hs)).reshape(-1, n, n * n)
    eqs = np.concatenate([lhs, np.broadcast_to(eye, (len(us), n, n)), du[:, :, None]], axis=2)
    # pair number q is (i, j) with starts[i] <= q < starts[i + 1], j = i + 1 + q - starts[i]
    starts = np.concatenate([[0], np.cumsum(np.arange(len(points) - 1, -1, -1))])
    block = max(1, SIZE_CAP // (2 * n * (n * n + n + 1)))
    for lo in range(0, int(starts[-1]), block):
        if len(pool) >= cap:
            break
        q = np.arange(lo, min(lo + block, int(starts[-1])), dtype=np.int64)
        i = np.searchsorted(starts, q, side="right") - 1
        pair = np.stack([i, i + 1 + q - starts[i]], axis=1)
        pair = pair[hs[pair[:, 0]] != hs[pair[:, 1]]]
        consistent, sols = _solve_stack(p, eqs[pair].reshape(-1, 2 * n, eqs.shape[2]))
        pool = _with_new_rows(pool, sols[consistent], cap - len(pool))
    return pool[:, : n * n].reshape(-1, n, n), pool[:, n * n :]


def bogolyubov_bilinear(
    f: GridFn,
    zeta: float,
    *,
    max_maps: int = 48,
    candidate_cap: int = 4096,
) -> tuple[BiAffineMap, BogolyubovReport]:
    """L2-approximate the mixed self-convolution of f by a level-set average.

    Computes F as the mixed self-convolution, covers the gamma-large column
    spectrum of the vertical self-convolution by affine maps h -> Mh + c
    (gamma = zeta^2/8), truncates the transforms of the per-map coefficient
    functions at (zeta/2)^2 / m^2, and concatenates the surviving bilinear
    phases into a single map beta.  The measured error of the averaging projection is
    returned and flagged when it misses the target.

    The cover is greedy.  For n <= 2 (method "exact") it picks among all
    p^(n^2+n) maps, counted per matrix: each M covers each spectrum point
    (h, u) with the one shift c = u - Mh, so one bincount per step gives
    every map's gain, and ties go to the lexicographically earliest map (M
    first, then c).  Above that (method "greedy") the candidates are maps
    fitted through single spectrum points and pairs of them, at most
    candidate_cap.
    """
    if not zeta > 0:
        raise ValueError("the approximation target must be positive")
    if f.norm_linf() > 1 + 1e-9:
        raise ValueError("needs a bounded input (sup norm at most 1)")
    params = f.params
    p, n, N = params.p, params.n, params.size
    g = vert_conv(f, f)
    F = horiz_conv(g, g)  # mixed_self(f), sharing its column pass with g

    Gc = char_transform(g.values, params, axis=0)
    Fc = char_transform(F.values, params, axis=0)
    if not np.allclose(Fc, np.abs(Gc) ** 2, atol=1e-9):
        raise RuntimeError("column transforms of the mixed convolution lost the square law")
    row_l1 = np.abs(char_transform(F.values, params, axis=1)).sum(axis=1).max()
    if row_l1 > 1 + 1e-9:
        raise RuntimeError("row transform l1 bound violated: %g" % row_l1)

    gamma = zeta**2 / 8
    delta = zeta / 2
    power = np.abs(Gc) ** 2
    us, hs = np.nonzero(power >= gamma - 1e-15)
    points = [(int(h), int(u)) for u, h in zip(us, hs)]
    points.sort()

    method = "exact" if n <= 2 else "greedy"

    if points and method == "exact":
        rows, uncovered = _exact_cover(params, points, gamma * N, max_maps)
        rows = np.array(rows, dtype=np.int64)
        cover_mats = GroupParams(p, n * n).digits(rows // N).reshape(-1, n, n)
        cover_shifts = params.digits(rows % N)
        cover_tables = _affine_map_tables(params, cover_mats, cover_shifts)
    elif points:
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
