"""Trilinear forms over F_p^n: exact analytic rank, symmetrization, the
structure of low-rank slice families, coset restriction of correlation
inequalities, cubic phase extraction, and exhaustive quadratic phase search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ulab.core import (
    SIZE_CAP,
    BudgetError,
    GroupFn,
    GroupParams,
    PolyPhase,
    Subspace,
    _gf_matinv,
    _json_fields,
    _json_index,
    _json_params,
    char_transform,
    gf_nullspace,
    gf_rank,
    gf_rowreduce,
)
from ulab.gowers import _derivative2_rows, _first_derivatives, derivative, uk_norm
from ulab.grid import GridFn

__all__ = [
    "TrilinearForm",
    "SliceFamily",
    "PhaseProduct",
    "SymmetryReport",
    "analytic_mean_tri",
    "analytic_rank_tri",
    "slice_rank_mean",
    "symmetrize",
    "subadditivity_check",
    "box3_value",
    "box3_criterion",
    "lowrank_subspaces",
    "tri_correlation",
    "pass_to_subspace",
    "symmetry_pipeline",
    "kappa_from_sigma",
    "u3_lower",
    "quad_phase_search",
    "trilinear_to_json",
    "trilinear_from_json",
]

_TIE_TOL = 1e-12


# ============================================================
# trilinear forms
# ============================================================


@dataclass(frozen=True)
class TrilinearForm:
    """tau(a, b, c) = sum_{ijk} coeffs[i,j,k] a_i b_j c_k over F_p."""

    params: GroupParams
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.params.n
        c = np.asarray(self.coeffs, dtype=np.int64) % self.params.p
        if c.shape != (n, n, n):
            raise ValueError("coefficient tensor must have shape (n, n, n)")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, params: GroupParams) -> "TrilinearForm":
        return cls(params, np.zeros((params.n,) * 3, dtype=np.int64))

    @classmethod
    def diagonal(cls, params: GroupParams) -> "TrilinearForm":
        """sum_i a_i b_i c_i."""
        c = np.zeros((params.n,) * 3, dtype=np.int64)
        for i in range(params.n):
            c[i, i, i] = 1
        return cls(params, c)

    @classmethod
    def from_component_mats(cls, params: GroupParams, mats) -> "TrilinearForm":
        """Form (a,b,c) -> phi(a,b).c for phi with component matrices mats[s]."""
        m = np.asarray(mats, dtype=np.int64)
        if m.shape != (params.n,) * 3:
            raise ValueError("need n component matrices of shape (n, n)")
        return cls(params, np.moveaxis(m, 0, 2))

    def evaluate(self, a, b, c):
        """Values mod p; a, b, c are point indices (scalars or arrays)."""
        da = self.params.digits(np.atleast_1d(np.asarray(a, dtype=np.int64)))
        db = self.params.digits(np.atleast_1d(np.asarray(b, dtype=np.int64)))
        dc = self.params.digits(np.atleast_1d(np.asarray(c, dtype=np.int64)))
        out = np.einsum("xi,xj,xk,ijk->x", da, db, dc, self.coeffs) % self.params.p
        return out if np.ndim(a) or np.ndim(b) or np.ndim(c) else int(out[0])

    def permute_args(self, perm) -> "TrilinearForm":
        """Form whose value at (a0, a1, a2) is this form at (a_perm[0], a_perm[1], a_perm[2])."""
        perm = tuple(int(q) for q in perm)
        if sorted(perm) != [0, 1, 2]:
            raise ValueError("perm must rearrange (0, 1, 2)")
        inverse = tuple(perm.index(t) for t in range(3))
        return TrilinearForm(self.params, np.transpose(self.coeffs, inverse))

    def scaled(self, lam: int) -> "TrilinearForm":
        return TrilinearForm(self.params, self.coeffs * (int(lam) % self.params.p))

    def __add__(self, other: "TrilinearForm") -> "TrilinearForm":
        if other.params != self.params:
            raise ValueError("mismatched group parameters")
        return TrilinearForm(self.params, self.coeffs + other.coeffs)

    def __sub__(self, other: "TrilinearForm") -> "TrilinearForm":
        if other.params != self.params:
            raise ValueError("mismatched group parameters")
        return TrilinearForm(self.params, self.coeffs - other.coeffs)

    def is_symmetric(self) -> bool:
        return all(
            np.array_equal(self.coeffs, np.transpose(self.coeffs, perm))
            for perm in itertools.permutations(range(3))
        )

    def slices(self, axis: int = 0) -> "SliceFamily":
        """Family x -> T_x of the bilinear forms got by fixing one slot."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1, or 2")
        mats = np.moveaxis(self.coeffs, axis, 0)
        return SliceFamily(self.params, mats)


@dataclass(frozen=True)
class SliceFamily:
    """Linear family x -> T_x of n x n matrices; mats[s] is the slice at e_s."""

    params: GroupParams
    mats: np.ndarray

    def __post_init__(self) -> None:
        n = self.params.n
        m = np.asarray(self.mats, dtype=np.int64) % self.params.p
        if m.shape != (n, n, n):
            raise ValueError("generator slices must have shape (n, n, n)")
        m.setflags(write=False)
        object.__setattr__(self, "mats", m)

    def slice_at(self, x: int) -> np.ndarray:
        d = self.params.digits(np.asarray([x], dtype=np.int64))[0]
        return np.tensordot(d, self.mats, axes=(0, 0)) % self.params.p


# ============================================================
# analytic rank
# ============================================================


def _tri_budget(params: GroupParams) -> None:
    if params.size**3 > SIZE_CAP:
        raise BudgetError("p^{3n} = %d exceeds the size cap %d" % (params.size**3, SIZE_CAP))


def analytic_mean_tri(tau: TrilinearForm) -> Fraction:
    """Exact rational value of E_{a,b,c} omega^{tau(a,b,c)}.

    For fixed a, E_{b,c} omega^{b.T_a c} = p^{-rank T_a}, so the mean is
    `slice_rank_mean` of the slices along the first slot: N ranks of n x n
    matrices in place of N^3 evaluations.
    """
    return slice_rank_mean(tau.slices(0))


def analytic_rank_tri(tau: TrilinearForm) -> float:
    """-log_p E_{a,b,c} omega^{tau(a,b,c)}; need not be an integer."""
    mean = analytic_mean_tri(tau)
    return (math.log(mean.denominator) - math.log(mean.numerator)) / math.log(tau.params.p)


def slice_rank_mean(fam: SliceFamily) -> Fraction:
    """E_x p^{-rank(T_x)}, exactly."""
    params = fam.params
    p = params.p
    total = Fraction(0)
    for x in range(params.size):
        total += Fraction(1, p ** gf_rank(p, fam.slice_at(x)))
    return total / params.size


# ============================================================
# symmetrization and rank inequalities
# ============================================================


def symmetrize(tau: TrilinearForm) -> tuple[TrilinearForm, TrilinearForm]:
    """Average of tau over all six argument orders, and the residual tau - sym."""
    p = tau.params.p
    if p < 5:
        raise ValueError("symmetrization needs p >= 5 (division by 6)")
    inv6 = pow(6, p - 2, p)
    acc = np.zeros_like(tau.coeffs)
    for perm in itertools.permutations(range(3)):
        acc = acc + np.transpose(tau.coeffs, perm)
    sym = TrilinearForm(tau.params, acc * inv6)
    if not sym.is_symmetric():
        raise RuntimeError("symmetrized coefficients are not symmetric")
    return sym, tau - sym


def subadditivity_check(
    sigma: TrilinearForm, tau: TrilinearForm
) -> tuple[bool, float, float, float]:
    """Whether rank(sigma + tau) <= 8 (rank(sigma) + rank(tau)).

    The comparison is done on exact rational character means (mean of the sum
    at least the 8th power of the product of the means), so no floating-point
    logs are involved; the returned ranks are floats for reporting only.
    """
    m1 = analytic_mean_tri(sigma)
    m2 = analytic_mean_tri(tau)
    m12 = analytic_mean_tri(sigma + tau)
    ok = m12 >= (m1 * m2) ** 8
    logp = math.log(sigma.params.p)

    def _rank(m: Fraction) -> float:
        return (math.log(m.denominator) - math.log(m.numerator)) / logp

    return ok, _rank(m1), _rank(m2), _rank(m12)


# ============================================================
# box-norm rank criterion
# ============================================================


def _check_bounded_grid(g: GridFn, name: str) -> None:
    if float(np.abs(g.values).max(initial=0.0)) > 1 + 1e-9:
        raise ValueError("%s needs a bounded input (sup norm at most 1)" % name)


def box3_value(tau: TrilinearForm, u: GridFn, v: GridFn, w: GridFn) -> complex:
    """E_{a,b,c} u(a,b) v(b,c) w(a,c) omega^{-tau(a,b,c)}."""
    params = tau.params
    for g in (u, v, w):
        if g.params != params:
            raise ValueError("mismatched group parameters")
        _check_bounded_grid(g, "box3_value")
    _tri_budget(params)
    p, N = params.p, params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    om = np.exp(-2j * np.pi / p)
    total = 0.0 + 0.0j
    for a in range(N):
        Ta = np.tensordot(dig[a], tau.coeffs, axes=(0, 0)) % p
        phase = om ** ((dig @ Ta @ dig.T) % p)
        total += u.values[a] @ ((v.values * phase) @ w.values[a])
    return complex(total / N**3)


def box3_criterion(tau: TrilinearForm, u: GridFn, v: GridFn, w: GridFn) -> bool:
    """Whether |E u v w omega^{-tau}| <= p^{-rank/8}."""
    val = abs(box3_value(tau, u, v, w))
    r = analytic_rank_tri(tau)
    return val <= tau.params.p ** (-r / 8) + 1e-9


# ============================================================
# structure of low-rank slice families
# ============================================================


def _full_space(params: GroupParams) -> Subspace:
    return Subspace.from_generators(params, [params.p**s for s in range(params.n)])


def lowrank_subspaces(fam: SliceFamily, k: int) -> tuple[Subspace, Subspace, Subspace]:
    """Subspaces (W, E, F) with T_x u in F for every x in W and u in E.

    Requires every slice to have rank at most k.  W has codimension at most
    k^2, E codimension at most k, and F dimension at most k; the containment
    is re-verified exhaustively before returning.
    """
    params = fam.params
    p, n, N = params.p, params.n, params.size
    ranks = [gf_rank(p, fam.slice_at(x)) for x in range(N)]
    kstar = max(ranks)
    if kstar > k:
        raise ValueError("a slice has rank %d above the bound %d" % (kstar, k))
    if kstar == 0:
        return _full_space(params), _full_space(params), Subspace(params, ())

    xstar = ranks.index(kstar)
    M = fam.slice_at(xstar)
    _, colpivs = gf_rowreduce(p, M)
    # X-basis: pivot-column units of M, then a kernel basis; the two spans
    # meet only at 0, so the matrix is invertible.
    ker = gf_nullspace(p, M)
    Q = np.zeros((n, n), dtype=np.int64)
    for j, c in enumerate(colpivs):
        Q[c, j] = 1
    if ker.shape[0]:
        Q[:, kstar:] = ker.T % p
    # Y-basis: the images of the pivot columns, extended greedily by units.
    Y = np.zeros((n, n), dtype=np.int64)
    Y[:, :kstar] = M[:, colpivs] % p
    filled = kstar
    for j in range(n):
        if filled == n:
            break
        cand = Y.copy()
        cand[j, filled] = 1
        if gf_rank(p, cand[:, : filled + 1].T) == filled + 1:
            Y[j, filled] = 1
            filled += 1
    Yinv = _gf_matinv(p, Y)
    reduced = np.stack([(Yinv @ fam.mats[s] @ Q) % p for s in range(n)])
    # W: the slices whose top-left kstar x kstar block vanishes in the new bases.
    constraints = reduced[:, :kstar, :kstar].reshape(n, kstar * kstar).T % p
    wbasis = gf_nullspace(p, constraints)
    W = Subspace.from_generators(params, params.index(wbasis % p) if wbasis.shape[0] else [])
    E = Subspace.from_generators(params, params.index(Q[:, kstar:].T % p) if kstar < n else [])
    F = Subspace.from_generators(params, params.index(Y[:, :kstar].T % p))
    if W.codim > kstar * kstar or E.codim != kstar or F.dim != kstar:
        raise RuntimeError("subspace dimensions fell outside the guaranteed bounds")
    for x in W.member_indices():
        Tx = fam.slice_at(int(x))
        for u in E.member_indices():
            du = params.digits(np.asarray([u], dtype=np.int64))[0]
            img = int(params.index((Tx @ du) % p))
            if not F.contains(img):
                raise RuntimeError("a slice image escaped the target subspace")
    return W, E, F


# ============================================================
# phase products and correlation functionals
# ============================================================


@dataclass(frozen=True)
class PhaseProduct:
    """omega^{a.AB b + b.BC c + a.AC c + la.a + lb.b + lc.c + const} on triples."""

    params: GroupParams
    ab: np.ndarray
    bc: np.ndarray
    ac: np.ndarray
    la: np.ndarray
    lb: np.ndarray
    lc: np.ndarray
    const: int

    def __post_init__(self) -> None:
        p, n = self.params.p, self.params.n
        for name in ("ab", "bc", "ac"):
            m = np.asarray(getattr(self, name), dtype=np.int64) % p
            if m.shape != (n, n):
                raise ValueError("matrix %s must have shape (n, n)" % name)
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        for name in ("la", "lb", "lc"):
            vec = np.asarray(getattr(self, name), dtype=np.int64) % p
            if vec.shape != (n,):
                raise ValueError("vector %s must have shape (n,)" % name)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "const", int(self.const) % p)

    @classmethod
    def one(cls, params: GroupParams) -> "PhaseProduct":
        n = params.n
        z = np.zeros((n, n), dtype=np.int64)
        v = np.zeros(n, dtype=np.int64)
        return cls(params, z, z, z, v, v, v, 0)

    def exponent(self, a, b, c):
        """Values mod p at index triples (vectorized)."""
        da = self.params.digits(np.atleast_1d(np.asarray(a, dtype=np.int64)))
        db = self.params.digits(np.atleast_1d(np.asarray(b, dtype=np.int64)))
        dc = self.params.digits(np.atleast_1d(np.asarray(c, dtype=np.int64)))
        out = (
            np.einsum("xi,ij,xj->x", da, self.ab, db)
            + np.einsum("xi,ij,xj->x", db, self.bc, dc)
            + np.einsum("xi,ij,xj->x", da, self.ac, dc)
            + da @ self.la
            + db @ self.lb
            + dc @ self.lc
            + self.const
        ) % self.params.p
        return out if np.ndim(a) or np.ndim(b) or np.ndim(c) else int(out[0])

    def evaluate(self, a, b, c):
        return np.exp(2j * np.pi * self.exponent(a, b, c) / self.params.p)

    def combine(self, other: "PhaseProduct") -> "PhaseProduct":
        if other.params != self.params:
            raise ValueError("mismatched group parameters")
        return PhaseProduct(
            self.params,
            self.ab + other.ab,
            self.bc + other.bc,
            self.ac + other.ac,
            self.la + other.la,
            self.lb + other.lb,
            self.lc + other.lc,
            self.const + other.const,
        )

    def shifted(self, a0: int, b0: int, c0: int) -> "PhaseProduct":
        """The phase (a,b,c) -> self(a+a0, b+b0, c+c0)."""
        params = self.params
        da = params.digits(np.asarray([a0], dtype=np.int64))[0]
        db = params.digits(np.asarray([b0], dtype=np.int64))[0]
        dc = params.digits(np.asarray([c0], dtype=np.int64))[0]
        la = self.la + self.ab @ db + self.ac @ dc
        lb = self.lb + self.ab.T @ da + self.bc @ dc
        lc = self.lc + self.bc.T @ db + self.ac.T @ da
        const = (
            self.const
            + da @ self.ab @ db
            + db @ self.bc @ dc
            + da @ self.ac @ dc
            + self.la @ da
            + self.lb @ db
            + self.lc @ dc
        )
        return PhaseProduct(params, self.ab, self.bc, self.ac, la, lb, lc, int(const))


def _tau_cross_phase(tau: TrilinearForm, a0: int, b0: int, c0: int) -> PhaseProduct:
    """Phase with exponent -(tau(a+a0, b+b0, c+c0) - tau(a, b, c))."""
    params = tau.params
    t = tau.coeffs
    da = params.digits(np.asarray([a0], dtype=np.int64))[0]
    db = params.digits(np.asarray([b0], dtype=np.int64))[0]
    dc = params.digits(np.asarray([c0], dtype=np.int64))[0]
    bc = np.einsum("i,ijk->jk", da, t)
    ac = np.einsum("j,ijk->ik", db, t)
    ab = np.einsum("k,ijk->ij", dc, t)
    lc = np.einsum("i,j,ijk->k", da, db, t)
    lb = np.einsum("i,k,ijk->j", da, dc, t)
    la = np.einsum("j,k,ijk->i", db, dc, t)
    const = int(np.einsum("i,j,k,ijk->", da, db, dc, t))
    return PhaseProduct(params, -ab, -bc, -ac, -la, -lb, -lc, -const)


def tri_correlation(
    f: GroupFn,
    h: PhaseProduct,
    tau: TrilinearForm,
    space: Subspace | None = None,
    shifts: tuple[int, int, int] = (0, 0, 0),
) -> complex:
    """E_x E_{a,b,c in space} h(a,b,c) D_{a+s1,b+s2,c+s3} f(x) omega^{-tau(a,b,c)}.

    D denotes the third multiplicative difference; space defaults to the whole
    group and shifts to zero, giving the plain correlation functional.

    Evaluated one row a at a time: the second derivatives d_{a+s1,b+s2} f of
    every b come from one gather of d_{a+s1} f (`gowers._derivative2_rows`),
    their autocorrelations E_x g(x) conj(g(x - c - s3)) at every c from one
    more gather, and h and tau once over the (b, c) grid.  A row of
    k = |space| points holds k^2 N products, so it is split into blocks of b
    of at most max(kN, SIZE_CAP) products; other tables are O(kN).
    """
    params = f.params
    if h.params != params or tau.params != params:
        raise ValueError("mismatched group parameters")
    idx = space.member_indices() if space is not None else np.arange(params.size, dtype=np.int64)
    k = len(idx)
    if k**3 > SIZE_CAP:
        raise BudgetError("correlation over %d points exceeds the size cap" % k**3)
    a0, b0, c0 = shifts
    N = params.size
    om = np.exp(-2j * np.pi / params.p)
    all_x = np.arange(N, dtype=np.int64)
    sub_b = params.sub(all_x[None, :], params.add(idx, b0)[:, None])
    sub_c = params.sub(all_x[None, :], params.add(idx, c0)[:, None])
    block = max(1, SIZE_CAP // (k * N))
    total = 0.0 + 0.0j
    for a in idx:
        d1_a = derivative(f, int(params.add(a, a0))).values
        for lo in range(0, k, block):
            d2 = _derivative2_rows(d1_a, sub_b[lo : lo + block])
            # prod[j, i, x] = d2[j, x] conj(d2[j, x - c_i]), built in the gathered buffer
            prod = d2[:, sub_c]
            np.conjugate(prod, out=prod)
            np.multiply(d2[:, None, :], prod, out=prod)
            ac = prod.mean(axis=2)
            bs = np.repeat(idx[lo : lo + block], k)
            cs = np.tile(idx, len(ac))
            a_rep = np.full(len(bs), a)
            ph = h.exponent(a_rep, bs, cs)
            te = tau.evaluate(a_rep, bs, cs)
            total += (np.exp(2j * np.pi * ph / params.p) * (om**te) * ac.ravel()).sum()
    return complex(total / k**3)


# ============================================================
# coset restriction of a correlation inequality
# ============================================================


def _coset_reps(big: Subspace, small: Subspace) -> np.ndarray:
    """Canonical (minimal-index) representatives of small-cosets inside big."""
    params = big.params
    members = big.member_indices()
    base = small.member_indices()
    reps = sorted({int(params.add(np.full(len(base), m), base).min()) for m in members})
    return np.asarray(reps, dtype=np.int64)


def pass_to_subspace(
    f: GroupFn,
    h: PhaseProduct,
    tau: TrilinearForm,
    big: Subspace,
    small: Subspace,
) -> tuple[int, PhaseProduct, float]:
    """Restrict a correlation inequality from one subspace to a smaller one.

    Scans all coset triples of small inside big for the one carrying the
    largest piece of the correlation; since the pieces average exactly to the
    value over big, the maximum is at least it.  Returns the combined shift
    w = a0+b0+c0, the phase with the coset expansion of tau and of h folded
    in, and the retained correlation value.
    """
    params = f.params
    for s in small.basis:
        if not big.contains(s):
            raise ValueError("the target subspace is not contained in the source")
    alpha0 = abs(tri_correlation(f, h, tau, big))
    reps = _coset_reps(big, small)
    best = None
    best_val = -1.0
    for a0 in reps:
        for b0 in reps:
            for c0 in reps:
                piece = tri_correlation(
                    f, h.shifted(int(a0), int(b0), int(c0)).combine(_tau_cross_phase(tau, int(a0), int(b0), int(c0))),
                    tau, small, shifts=(int(a0), int(b0), int(c0)),
                )
                if abs(piece) > best_val:
                    best_val = abs(piece)
                    best = (int(a0), int(b0), int(c0))
    assert best is not None
    if best_val < alpha0 - 1e-9:
        raise RuntimeError("no coset kept the correlation; averaging was violated")
    a0, b0, c0 = best
    w = int(params.add(params.add(np.asarray([a0]), b0), c0)[0])
    h1 = h.shifted(a0, b0, c0).combine(_tau_cross_phase(tau, a0, b0, c0))
    return w, h1, best_val


# ============================================================
# the symmetry argument
# ============================================================


@dataclass(frozen=True)
class SymmetryReport:
    alpha: float
    perm_ranks: tuple[tuple[tuple[int, int, int], float], ...]
    residual_rank: float
    bound: float | None
    asserted: bool


def symmetry_pipeline(
    f: GroupFn,
    tau: TrilinearForm,
    rho_lin: tuple[np.ndarray, np.ndarray],
    sigma_lin: tuple[np.ndarray, np.ndarray],
) -> tuple[TrilinearForm, SymmetryReport]:
    """Measure the correlation, symmetrize, and bound the asymmetry ranks.

    rho_lin and sigma_lin are affine maps (matrix, shift) entering the phase
    as -rho(a).c - sigma(b).c.  When the measured correlation alpha is
    positive, the rank of the (a,c,b)-swap difference is asserted to be at
    most log_p(1/alpha); with alpha at the noise floor no assertion is made.
    """
    params = f.params
    p, n = params.p, params.n
    if float(np.abs(f.values).max(initial=0.0)) > 1 + 1e-9:
        raise ValueError("symmetry_pipeline needs a bounded input (sup norm at most 1)")
    Mr, vr = (np.asarray(x, dtype=np.int64) % p for x in rho_lin)
    Ms, vs = (np.asarray(x, dtype=np.int64) % p for x in sigma_lin)
    z = np.zeros((n, n), dtype=np.int64)
    zv = np.zeros(n, dtype=np.int64)
    h = PhaseProduct(params, z, -Ms.T, -Mr.T, zv, zv, -(vr + vs), 0)
    alpha = abs(tri_correlation(f, h, tau))
    sigma, residual = symmetrize(tau)
    perm_ranks = []
    for perm in itertools.permutations(range(3)):
        diff = tau - tau.permute_args(perm)
        perm_ranks.append((perm, analytic_rank_tri(diff)))
    residual_rank = analytic_rank_tri(residual)
    swap_rank = dict(perm_ranks)[(0, 2, 1)]
    if alpha > _TIE_TOL:
        # alpha <= 1 for a bounded f; rounding can put it a few ulps above
        bound = math.log(1 / min(alpha, 1.0)) / math.log(p)
        if swap_rank > bound + 1e-9:
            raise RuntimeError(
                "swap-difference rank %.6f exceeds the correlation bound %.6f"
                % (swap_rank, bound)
            )
        return sigma, SymmetryReport(alpha, tuple(perm_ranks), residual_rank, bound, True)
    return sigma, SymmetryReport(alpha, tuple(perm_ranks), residual_rank, None, False)


# ============================================================
# cubic phase extraction
# ============================================================


def _alternating_sum_form(kappa: PolyPhase) -> np.ndarray:
    """The (n, n, n) coefficients of the third difference of a homogeneous cubic:
    Delta_a Delta_b Delta_c x_i x_j x_k is the sum of a_i' b_j' c_k' over the 6
    orderings (i', j', k') of (i, j, k), with multiplicity, at every x.  A
    monomial not of degree 3 raises RuntimeError."""
    n = kappa.params.n
    out = np.zeros((n, n, n), dtype=np.int64)
    for mono, coef in kappa.terms:
        if len(mono) != 3:
            raise RuntimeError("kappa has the monomial %r, not of degree 3" % (mono,))
        for perm in itertools.permutations(mono):
            out[perm] += coef
    return out % kappa.params.p


def kappa_from_sigma(sigma: TrilinearForm) -> tuple[PolyPhase, int]:
    """Cubic q(x) = sigma(x,x,x) and the exact alternating-sum constant.

    The alternating sum of q over the cube at x with edges -a, -b, -c is
    Delta_{-a} Delta_{-b} Delta_{-c} q(x) = cstar * sigma(a,b,c), cstar = -6
    mod p, by polarisation of the symmetric sigma.  The certificate is
    complete: q is a homogeneous cubic, so its third difference does not
    depend on x and is the trilinear form `_alternating_sum_form` builds in
    O(n^3), which must equal -cstar * sigma coefficient by coefficient.
    """
    params = sigma.params
    p = params.p
    if p < 5:
        raise ValueError("cubic extraction needs p >= 5")
    if not sigma.is_symmetric():
        raise ValueError("cubic extraction needs a symmetric form")
    terms: dict[tuple[int, ...], int] = {}
    it = np.nditer(sigma.coeffs, flags=["multi_index"])
    for val in it:
        v = int(val)
        if v:
            key = tuple(sorted(it.multi_index))
            terms[key] = (terms.get(key, 0) + v) % p
    kappa = PolyPhase.from_coeffs(params, terms)
    cstar = (-6) % p
    if np.any((-_alternating_sum_form(kappa) - cstar * sigma.coeffs) % p):
        raise RuntimeError("alternating sum is not proportional to the form")
    return kappa, cstar


# ============================================================
# box lower bound for the third uniformity norm
# ============================================================


def u3_lower(g: GroupFn, u: GridFn, v: GridFn, w: GridFn) -> tuple[float, float]:
    """(correlation alpha, third uniformity norm), asserting norm >= alpha.

    alpha = |E_{a,b,c} u(a,b) v(b,c) w(a,c) E_x D_{a,b,c} g(x)|.  Row a's
    second derivatives come from the shared gather `_derivative2_rows`, as
    in `tri_correlation`, and their autocorrelations at every c from one
    more gather; memory is O(N^3) per row, within the p^{3n} budget.
    """
    params = g.params
    if float(np.abs(g.values).max(initial=0.0)) > 1 + 1e-9:
        raise ValueError("u3_lower needs a bounded input (sup norm at most 1)")
    for grid in (u, v, w):
        if grid.params != params:
            raise ValueError("mismatched group parameters")
        _check_bounded_grid(grid, "u3_lower")
    _tri_budget(params)
    N = params.size
    d1, sub_t = _first_derivatives(g)
    total = 0.0 + 0.0j
    for a in range(N):
        d2 = _derivative2_rows(d1[a], sub_t)
        # prod[b, c, x] = d2[b, x] conj(d2[b, x - c]), built in the gathered buffer
        prod = d2[:, sub_t]
        np.conjugate(prod, out=prod)
        np.multiply(d2[:, None, :], prod, out=prod)
        total += u.values[a] @ ((v.values * prod.mean(axis=2)) @ w.values[a])
    alpha = abs(complex(total / N**3))
    norm = uk_norm(g, 3).value
    if norm < alpha - 1e-9:
        raise RuntimeError("third uniformity norm %.6g below correlation %.6g" % (norm, alpha))
    return alpha, norm


# ============================================================
# exhaustive quadratic phase search
# ============================================================


def quad_phase_search(g: GroupFn) -> tuple[PolyPhase, float]:
    """Argmax of |E g(x) omega^{-q(x)}| over all quadratics q.

    Candidates are ordered lexicographically by coefficient (monomials
    x_i x_j with i <= j, then the linear terms r_0, ..., r_{n-1}); ties
    within 1e-12 resolve to the earliest candidate, so the result is
    deterministic.  The constant term does not change |.|, so it is left
    out and the winner's constant is always 0.

    For each quadratic part Q, `char_transform` of g omega^{-Q} scores
    every linear part at once; all Q go through one batched transform.
    Its columns are indexed by `params.index` (r_0 least significant), so
    they are gathered into the candidate order (r_0 most significant)
    before the tie rule is applied.  The transform holds p^{n(n+1)/2} * N
    values, which must fit in `SIZE_CAP`.
    """
    params = g.params
    p, n, N = params.p, params.n, params.size
    monos = [(i, j) for i in range(n) for j in range(i, n)]
    if p ** len(monos) * N > SIZE_CAP:
        raise BudgetError(
            "p^%d quadratic parts times N = %d values exceed the size cap %d" % (len(monos), N, SIZE_CAP)
        )
    dig = params.digits(np.arange(N, dtype=np.int64))
    quad_basis = np.stack([dig[:, i] * dig[:, j] for (i, j) in monos], axis=1)
    quads = np.asarray(list(itertools.product(range(p), repeat=len(monos))), dtype=np.int64)
    lins = np.asarray(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    twisted = g.values[None, :] * np.exp(-2j * np.pi * ((quads @ quad_basis.T) % p) / p)
    hat = char_transform(twisted, params, axis=1)
    corrs = np.abs(hat[:, params.index(lins)]).ravel()
    top = float(corrs.max())
    winner = int(np.flatnonzero(corrs >= top - _TIE_TOL)[0])
    qi, ri = divmod(winner, N)
    coeffs: dict[tuple[int, ...], int] = {}
    for (i, j), c in zip(monos, quads[qi]):
        if c:
            coeffs[(i, j)] = int(c)
    for i, c in enumerate(lins[ri]):
        if c:
            coeffs[(i,)] = int(c)
    return PolyPhase.from_coeffs(params, coeffs), float(corrs[winner])


# ============================================================
# serialization
# ============================================================


def trilinear_to_json(tau: TrilinearForm) -> dict:
    entries = [
        [i, j, k, int(tau.coeffs[i, j, k])]
        for i, j, k in itertools.product(range(tau.params.n), repeat=3)
        if tau.coeffs[i, j, k]
    ]
    return {"p": tau.params.p, "n": tau.params.n, "coeffs": entries}


def trilinear_from_json(obj) -> TrilinearForm:
    params = _json_params(obj, "trilinear form")
    (coeffs,) = _json_fields(obj, "trilinear form", "coeffs")
    n = params.n
    c = np.zeros((n,) * 3, dtype=np.int64)
    for entry in coeffs:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError("trilinear coefficient must be [i, j, k, value], got %r" % (entry,))
        i, j, k = (_json_index(a, n, "trilinear index") for a in entry[:3])
        c[i, j, k] = int(entry[3])
    return TrilinearForm(params, c)
