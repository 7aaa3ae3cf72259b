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
    CharacterSum,
    GroupFn,
    GroupParams,
    PolyPhase,
    Subspace,
    _gf_matinv,
    _json_fields,
    _json_index,
    _json_params,
    gf_nullspace,
    gf_rank,
    gf_rowreduce,
)
from ulab.gowers import derivative2, uk_norm
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
    """Exact rational value of E_{a,b,c} omega^{tau(a,b,c)}."""
    params = tau.params
    _tri_budget(params)
    p, N = params.p, params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    counts = np.zeros(p, dtype=np.int64)
    for a in range(N):
        Ta = np.tensordot(dig[a], tau.coeffs, axes=(0, 0)) % p
        vals = (dig @ Ta @ dig.T) % p
        counts += np.bincount(vals.ravel(), minlength=p)
    mean = CharacterSum(p, counts).rational_mean()
    if mean <= 0:
        raise RuntimeError("character mean of a trilinear form must be positive")
    return mean


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


def _autocorr(values: np.ndarray, sub_rows: np.ndarray) -> np.ndarray:
    """E_x g(x) conj(g(x - c)) for each row of shifted indices."""
    return (values[None, :] * np.conj(values[sub_rows])).mean(axis=1)


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
    """
    params = f.params
    if h.params != params or tau.params != params:
        raise ValueError("mismatched group parameters")
    idx = space.member_indices() if space is not None else np.arange(params.size)
    if len(idx) ** 3 > SIZE_CAP:
        raise BudgetError("correlation over %d points exceeds the size cap" % len(idx) ** 3)
    a0, b0, c0 = shifts
    N = params.size
    om = np.exp(-2j * np.pi / params.p)
    all_x = np.arange(N, dtype=np.int64)
    shifted_c = params.add(np.asarray(idx, dtype=np.int64), c0)
    sub_rows = params.sub(all_x[None, :], shifted_c[:, None])
    total = 0.0 + 0.0j
    for a in idx:
        aa = int(params.add(np.asarray([a]), a0)[0])
        for b in idx:
            bb = int(params.add(np.asarray([b]), b0)[0])
            g = derivative2(f, aa, bb).values
            ac = _autocorr(g, sub_rows)
            ph = h.exponent(np.full(len(idx), a), np.full(len(idx), b), idx)
            te = tau.evaluate(np.full(len(idx), a), np.full(len(idx), b), idx)
            total += (np.exp(2j * np.pi * ph / params.p) * (om**te) * ac).sum()
    return complex(total / len(idx) ** 3)


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
        bound = math.log(1 / alpha) / math.log(p)
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


def kappa_from_sigma(sigma: TrilinearForm) -> tuple[PolyPhase, int]:
    """Cubic q(x) = sigma(x,x,x) and the exact alternating-sum constant.

    The eight-point alternating sum of q over a combinatorial cube equals
    cstar * sigma(a,b,c) at every point; cstar is found from one nonzero
    value and then re-verified exhaustively over all p^{4n} points.
    """
    params = sigma.params
    p, n, N = params.p, params.n, params.size
    if p < 5:
        raise ValueError("cubic extraction needs p >= 5")
    if not sigma.is_symmetric():
        raise ValueError("cubic extraction needs a symmetric form")
    if N**4 > SIZE_CAP:
        raise BudgetError("p^{4n} = %d exceeds the verification budget %d" % (N**4, SIZE_CAP))
    terms: dict[tuple[int, ...], int] = {}
    it = np.nditer(sigma.coeffs, flags=["multi_index"])
    for val in it:
        v = int(val)
        if v:
            key = tuple(sorted(it.multi_index))
            terms[key] = (terms.get(key, 0) + v) % p
    kappa = PolyPhase.from_coeffs(params, terms)
    ktab = kappa.phase_table()

    all_idx = np.arange(N, dtype=np.int64)
    sub = params.sub(all_idx[:, None], all_idx[None, :])
    X = all_idx[:, None, None, None]
    A = all_idx[None, :, None, None]
    B = all_idx[None, None, :, None]
    C = all_idx[None, None, None, :]
    xa = sub[X, A]
    xb = sub[X, B]
    xc = sub[X, C]
    xab = sub[xa, B]
    xbc = sub[xb, C]
    xac = sub[xa, C]
    xabc = sub[xab, C]
    S = (
        -ktab[X] + ktab[xa] + ktab[xb] + ktab[xc]
        - ktab[xab] - ktab[xbc] - ktab[xac] + ktab[xabc]
    ) % p
    stab = np.broadcast_to(
        sigma.evaluate(
            np.repeat(all_idx, N * N),
            np.tile(np.repeat(all_idx, N), N),
            np.tile(all_idx, N * N),
        ).reshape(N, N, N)[None, :, :, :],
        S.shape,
    )
    nz = np.flatnonzero(stab.ravel())
    if nz.size == 0:
        return kappa, (-6) % p
    i = int(nz[0])
    sval = int(S.ravel()[i])
    tval = int(stab.ravel()[i])
    cstar = sval * pow(tval, p - 2, p) % p
    if np.any((S - cstar * stab) % p):
        raise RuntimeError("alternating sum is not proportional to the form")
    return kappa, int(cstar)


# ============================================================
# box lower bound for the third uniformity norm
# ============================================================


def u3_lower(g: GroupFn, u: GridFn, v: GridFn, w: GridFn) -> tuple[float, float]:
    """(correlation alpha, third uniformity norm), asserting norm >= alpha."""
    params = g.params
    if float(np.abs(g.values).max(initial=0.0)) > 1 + 1e-9:
        raise ValueError("u3_lower needs a bounded input (sup norm at most 1)")
    for grid in (u, v, w):
        if grid.params != params:
            raise ValueError("mismatched group parameters")
        _check_bounded_grid(grid, "u3_lower")
    _tri_budget(params)
    N = params.size
    all_x = np.arange(N, dtype=np.int64)
    sub_rows = params.sub(all_x[None, :], all_x[:, None])
    gv = g.values
    cgv = np.conj(gv)
    total = 0.0 + 0.0j
    for a in range(N):
        da = gv[None, :] * cgv[sub_rows[a]][None, :] * cgv[sub_rows] * gv[sub_rows[:, sub_rows[a]]]
        ac = (da[:, None, :] * np.conj(da[:, sub_rows])).mean(axis=-1)
        total += u.values[a] @ ((v.values * ac) @ w.values[a])
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

    Candidates are enumerated in lexicographic coefficient order (monomials
    x_i x_j with i <= j, then linear terms, then the constant); ties within
    1e-12 resolve to the earliest candidate, so the result is deterministic
    and the constant term of the winner is always 0.
    """
    params = g.params
    p, n, N = params.p, params.n, params.size
    monos = [(i, j) for i in range(n) for j in range(i, n)]
    dim = len(monos) + n + 1
    if p**dim > SIZE_CAP:
        raise BudgetError("p^%d quadratic candidates exceed the size cap" % dim)
    dig = params.digits(np.arange(N, dtype=np.int64))
    cols = [dig[:, i] * dig[:, j] for (i, j) in monos]
    cols += [dig[:, i] for i in range(n)]
    cols += [np.ones(N, dtype=np.int64)]
    basis = np.stack(cols, axis=1)
    cand = np.asarray(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
    tables = (basis @ cand.T) % p
    phases = np.exp(-2j * np.pi * tables / p)
    corrs = np.abs(g.values @ phases) / N
    top = float(corrs.max())
    winner = int(np.flatnonzero(corrs >= top - _TIE_TOL)[0])
    coeffs: dict[tuple[int, ...], int] = {}
    row = cand[winner]
    for t, (i, j) in enumerate(monos):
        if row[t]:
            coeffs[(i, j)] = int(row[t])
    for i in range(n):
        if row[len(monos) + i]:
            coeffs[(i,)] = int(row[len(monos) + i])
    if row[-1]:
        coeffs[()] = int(row[-1])
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
