"""Trilinear forms over F_p^n: exact analytic rank, symmetrization, the
symmetry correlation, cubic phase extraction, and exhaustive quadratic
phase search.

Every rank goes through `analytic_means_tri`, one `gf_family_ranks` call
per batch of forms; `tri_correlation` reads the gate's orbit pass,
`gowers._orbit_slots` and `gowers._orbit_spectra`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ulab.core import (
    SIZE_CAP,
    GroupFn,
    GroupParams,
    PolyPhase,
    _json_fields,
    _json_index,
    _json_params,
    char_transform,
    gf_family_ranks,
)
from ulab.gowers import _orbit_slots, _orbit_spectra, derivative2_spectra, uk_norm
from ulab.grid import GridFn

__all__ = [
    "TrilinearForm",
    "PhaseProduct",
    "SymmetryReport",
    "analytic_means_tri",
    "analytic_rank_tri",
    "symmetrize",
    "box3_value",
    "box3_criterion",
    "tri_correlation",
    "symmetry_pipeline",
    "kappa_from_sigma",
    "u3_lower",
    "quad_search_size",
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

    def permute_args(self, perm) -> "TrilinearForm":
        """Form whose value at (a0, a1, a2) is this form at (a_perm[0], a_perm[1], a_perm[2])."""
        perm = tuple(int(q) for q in perm)
        if sorted(perm) != [0, 1, 2]:
            raise ValueError("perm must rearrange (0, 1, 2)")
        inverse = tuple(perm.index(t) for t in range(3))
        return TrilinearForm(self.params, np.transpose(self.coeffs, inverse))

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


# ============================================================
# analytic rank
# ============================================================


def analytic_means_tri(forms: list[TrilinearForm]) -> list[Fraction]:
    """Exact rational value of E_{a,b,c} omega^{tau(a,b,c)} for each form.

    For fixed a, E_{b,c} omega^{b.T_a c} = p^{-rank T_a}, so a form's mean
    is E_a p^{-rank T_a} over its slices T_a along the first slot.  Its
    coefficient array is that linear family of slices, so the forms stack
    into one batch of families and one `gf_family_ranks` call ranks every
    slice of every form, in place of N^3 evaluations per form.
    """
    p = forms[0].params.p
    ranks = gf_family_ranks(p, np.stack([form.coeffs for form in forms]))
    return [_mean_of_ranks(p, r) for r in ranks]


def analytic_rank_tri(tau: TrilinearForm) -> float:
    """-log_p E_{a,b,c} omega^{tau(a,b,c)}; need not be an integer."""
    return _rank_of_mean(tau.params.p, analytic_means_tri([tau])[0])


def _rank_of_mean(p: int, mean: Fraction) -> float:
    return (math.log(mean.denominator) - math.log(mean.numerator)) / math.log(p)


def _mean_of_ranks(p: int, ranks: np.ndarray) -> Fraction:
    """E_x p^{-ranks[x]}, exactly: with count_r the number of slices of
    rank r, sum_r count_r p^{-r} / N."""
    counts = np.bincount(ranks)
    return sum(Fraction(int(c), p**r) for r, c in enumerate(counts)) / len(ranks)


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


def tri_correlation(f: GroupFn, h: PhaseProduct, tau: TrilinearForm) -> complex:
    """E_x E_{a,b,c} h(a,b,c) D_{a,b,c} f(x) omega^{-tau(a,b,c)}, where D
    denotes the third multiplicative difference.

    For fixed (a, b) the phase is affine in c: h omega^{-tau} =
    omega^{e0(a,b) + L(a,b).c}, L = BC^T b + AC^T a + lc - tau(a,b,.).  With
    g = d_{a,b} f, the autocorrelation identity E_x g(x) conj(g(x - c)) =
    Sigma_r |g_hat(r)|^2 omega^{r.c} turns the average over c into one
    value of the spectrum:

        E_{a,b} omega^{e0(a,b)} |g_hat_{a,b}(-L(a,b))|^2.

    The eight pairs (+-a, +-b), (+-b, +-a) share one spectrum, mirrored
    r -> -r when one sign is flipped, so only the orbits' representatives
    are transformed, in the batches of N that `gowers._orbit_spectra`
    yields, and each pair reads its representative's spectrum at -L(a, b),
    or at L(a, b) when mirrored (`gowers._orbit_slots`).  The pairs are
    sorted by representative, so each batch reads one contiguous run of
    them, and memory stays O(N^2).
    """
    params = f.params
    if h.params != params or tau.params != params:
        raise ValueError("mismatched group parameters")
    p, N = params.p, params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    # e0(a, b) = b.(AB^T a + lb) + la.a + const and
    # L(a, b) = b.(BC - T_a) + AC^T a + lc, with T_a[j, k] = sum_i a_i tau_ijk
    e0 = (dig @ h.ab + h.lb) @ dig.T + (dig @ h.la + h.const)[:, None]
    L = (dig @ h.bc)[None] - dig @ np.tensordot(dig, tau.coeffs, axes=(1, 0))
    L += (dig @ h.ac + h.lc)[:, None]
    reps, slot, mirror = _orbit_slots(params)
    # the frequency each pair reads off its representative's spectrum
    freq = params.index(np.where(mirror[..., None], L, -L)).ravel()
    order = np.argsort(slot.ravel(), kind="stable")
    slot, freq = slot.ravel()[order], freq[order]
    phase = np.exp(2j * np.pi * np.arange(p) / p)[e0.ravel()[order] % p]
    bounds = np.searchsorted(slot, np.arange(0, len(reps) + N, N))
    total = 0.0 + 0.0j
    for (s, spec), lo, hi in zip(_orbit_spectra(f, reps), bounds, bounds[1:]):
        total += phase[lo:hi] @ np.square(spec[slot[lo:hi] - s, freq[lo:hi]])
    return complex(total / N**2)


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
    phase: PhaseProduct  # the h that alpha = |tri_correlation(f, h, tau)| was measured with


def symmetry_pipeline(
    f: GroupFn,
    tau: TrilinearForm,
    rho_lin: tuple[np.ndarray, np.ndarray],
    sigma_lin: tuple[np.ndarray, np.ndarray],
) -> tuple[TrilinearForm, SymmetryReport]:
    """Measure the correlation, symmetrize, and bound the asymmetry ranks.

    rho_lin and sigma_lin are affine maps (matrix, shift) entering the phase
    as -rho(a).c - sigma(b).c; only the sum of their shifts matters.  The
    pipeline passes the extend stage's fit a.T.b + s.a + t.b + e as
    rho = (s, e) and sigma = (t, 0).  When the measured correlation alpha is
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
    perms = list(itertools.permutations(range(3)))
    # the six permutation differences and the residual, ranked in one call
    forms = [tau - tau.permute_args(perm) for perm in perms] + [residual]
    *perm_values, residual_rank = (_rank_of_mean(p, m) for m in analytic_means_tri(forms))
    perm_ranks = list(zip(perms, perm_values))
    swap_rank = dict(perm_ranks)[(0, 2, 1)]
    if alpha > _TIE_TOL:
        # alpha <= 1 for a bounded f; rounding can put it a few ulps above
        bound = math.log(1 / min(alpha, 1.0)) / math.log(p)
        if swap_rank > bound + 1e-9:
            raise RuntimeError(
                "swap-difference rank %.6f exceeds the correlation bound %.6f"
                % (swap_rank, bound)
            )
        return sigma, SymmetryReport(alpha, tuple(perm_ranks), residual_rank, bound, True, h)
    return sigma, SymmetryReport(alpha, tuple(perm_ranks), residual_rank, None, False, h)


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
    spectra |(d_{a,b} g)^(r)| come from `gowers.derivative2_spectra`, one
    batched `char_transform` per row.  By Wiener-Khinchin, the
    autocorrelations E_x d(x) conj(d(x - c)) = Sigma_r |d_hat(r)|^2
    omega^{r.c} at every c are the inverse transform of their squares along
    the frequency axis.  So a row costs O(N^2 log N) time and O(N^2) memory:
    N^3 log N in all.

    No stage calls it: the cubic stage reads the norm from `uk_norm` and
    the correlation from `tri_correlation`.  The benchmark's tracer wraps
    it by name.
    """
    params = g.params
    if float(np.abs(g.values).max(initial=0.0)) > 1 + 1e-9:
        raise ValueError("u3_lower needs a bounded input (sup norm at most 1)")
    for grid in (u, v, w):
        if grid.params != params:
            raise ValueError("mismatched group parameters")
        _check_bounded_grid(grid, "u3_lower")
    N = params.size
    total = 0.0 + 0.0j
    for a, spec in enumerate(derivative2_spectra(g)):
        autocorr = char_transform(spec**2, params, axis=1, inverse=True)
        total += u.values[a] @ ((v.values * autocorr) @ w.values[a])
    alpha = abs(complex(total / N**3))
    norm = uk_norm(g, 3).value
    if norm < alpha - 1e-9:
        raise RuntimeError("third uniformity norm %.6g below correlation %.6g" % (norm, alpha))
    return alpha, norm


# ============================================================
# exhaustive quadratic phase search
# ============================================================


def quad_search_size(p: int, n: int) -> int:
    """Values `quad_phase_search` scores on F_p^n: p^{n(n+1)/2} quadratic
    parts times p^n linear parts."""
    return p ** (n * (n + 1) // 2 + n)


def quad_phase_search(g: GroupFn) -> tuple[PolyPhase, float]:
    """Argmax of |E g(x) omega^{-q(x)}| over all quadratics q.

    Candidates are ordered lexicographically by coefficient (monomials
    x_i x_j with i <= j, then the linear terms r_0, ..., r_{n-1}); ties
    within 1e-12 resolve to the earliest candidate, so the result is
    deterministic.  The constant term does not change |.|, so it is left
    out and the winner's constant is always 0.

    For each quadratic part Q, `char_transform` of g omega^{-Q} scores
    every linear part at once.  Its columns are indexed by `params.index`
    (r_0 least significant), so they are gathered into the candidate order
    (r_0 most significant).  The quadratic parts go through the transform
    in blocks of at most SIZE_CAP // N, so a block holds about SIZE_CAP
    values.  Each block keeps its candidates within 1e-12 of its own
    maximum; the earliest candidate within 1e-12 of the global maximum is
    among them, so the winner is the one the whole table would give.
    """
    params = g.params
    p, n, N = params.p, params.n, params.size
    monos = [(i, j) for i in range(n) for j in range(i, n)]
    dig = params.digits(np.arange(N, dtype=np.int64))
    quad_basis = np.stack([dig[:, i] * dig[:, j] for (i, j) in monos], axis=1)
    quads = np.asarray(list(itertools.product(range(p), repeat=len(monos))), dtype=np.int64)
    lins = np.asarray(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    order = params.index(lins)
    # omega^{-k} for each exponent k, the same expression as on every value
    twist = np.exp(-2j * np.pi * np.arange(p) / p)
    block = SIZE_CAP // N
    kept_idx, kept_corr = [], []
    for lo in range(0, len(quads), block):
        expo = (quads[lo : lo + block] @ quad_basis.T) % p
        hat = char_transform(g.values[None, :] * twist[expo], params, axis=1)
        corrs = np.abs(hat[:, order]).ravel()
        keep = np.flatnonzero(corrs >= corrs.max() - _TIE_TOL)
        kept_idx.append(keep + lo * N)
        kept_corr.append(corrs[keep])
    idx, corr = np.concatenate(kept_idx), np.concatenate(kept_corr)
    first = int(np.flatnonzero(corr >= corr.max() - _TIE_TOL)[0])
    qi, ri = divmod(int(idx[first]), N)
    coeffs: dict[tuple[int, ...], int] = {}
    for (i, j), c in zip(monos, quads[qi]):
        if c:
            coeffs[(i, j)] = int(c)
    for i, c in enumerate(lins[ri]):
        if c:
            coeffs[(i,)] = int(c)
    return PolyPhase.from_coeffs(params, coeffs), float(corr[first])


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
