"""Reference implementations of the symmetry correlation, the box lower
bound, the quadratic search and the cubic's certificate.

`tri_correlation` is the per-(a, b) loop, one `derivative2` call, one
autocorrelation and one phase evaluation per pair, that
`ulab.trilinear.tri_correlation` replaced with a gather from the spectra of
the second derivatives: by the autocorrelation (Parseval) identity the sum
over c collapses to one frequency, so the library sums other terms than
this loop does, not the same terms in another order.
`u3_lower_alpha` is the four-way gather of the autocorrelations that
`ulab.trilinear.u3_lower` replaced with the inverse transform of the power
spectrum (Wiener-Khinchin), and `quad_phase_search` the candidate table that
`ulab.trilinear.quad_phase_search` replaced with one FFT per quadratic part.
`unblocked_quad_phase_search` is that FFT route with every quadratic part
in one batch and `np.exp` over every phase value, which the library
replaced with blocks of at most SIZE_CAP // N quadratic parts and a p-entry
table of phases; it must give the same bits.
`SliceFamily` is the family x -> T_x of the bilinear forms got by fixing
one slot of a form, and `slice_rank_mean` ranks every slice T_x in turn,
which `ulab.trilinear.analytic_means_tri` replaced with one
`gf_family_ranks` call for the first-slot slices of a batch of forms and a
count of the slices of each rank.  `analytic_rank` is -log_p of that
per-slice mean, and `symmetry_ranks` is `ulab.trilinear.symmetry_pipeline`'s
ranks with one `analytic_rank` per permutation difference and for the
residual, where the library ranks all seven forms in one call; it must
give the same floats.  `kappa_from_sigma` is the exhaustive check over all
p^{4n} points (x, a, b, c) that `ulab.trilinear.kappa_from_sigma` replaced
with a symbolic polarisation certificate; `alternating_sum_constant` is
that check alone, so a test can hand it a changed cubic.
`analytic_mean_tri` counts the values of tau over all p^{3n} triples,
which the library replaced with the ranks of the slices T_a, and keeps
those counts exact in a `CharacterSum`.  `form_value`, `scaled`,
`slice_at`, `phase_one` and `phase_exponent` evaluate and build forms and
phase products pointwise, as only tests need.  `cubic_stage_box` is the
cubic stage's box lower bound as the pipeline ran it before it reused the
symmetry stage's correlation: `u3_lower` of the remainder with the phases
of the fitted maps as grids.
The ranks are `core_oracle`'s.  Tests compare the library against them;
nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ulab.core import SIZE_CAP, GroupFn, GroupParams, PolyPhase, char_transform
from ulab.gowers import derivative2
from ulab.grid import GridFn
import ulab.trilinear
from ulab.trilinear import PhaseProduct, TrilinearForm, symmetrize, u3_lower

from core_oracle import gf_rank


def form_value(tau: TrilinearForm, a, b, c):
    """Values of tau mod p; a, b, c are point indices (scalars or arrays)."""
    params = tau.params
    da = params.digits(np.atleast_1d(np.asarray(a, dtype=np.int64)))
    db = params.digits(np.atleast_1d(np.asarray(b, dtype=np.int64)))
    dc = params.digits(np.atleast_1d(np.asarray(c, dtype=np.int64)))
    out = np.einsum("xi,xj,xk,ijk->x", da, db, dc, tau.coeffs) % params.p
    return out if np.ndim(a) or np.ndim(b) or np.ndim(c) else int(out[0])


def scaled(tau: TrilinearForm, lam: int) -> TrilinearForm:
    return TrilinearForm(tau.params, tau.coeffs * (int(lam) % tau.params.p))


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

    @classmethod
    def of(cls, tau: TrilinearForm, axis: int = 0) -> "SliceFamily":
        """The slices of tau got by fixing its slot `axis`."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1, or 2")
        return cls(tau.params, np.moveaxis(tau.coeffs, axis, 0))


def slice_at(fam: SliceFamily, x: int) -> np.ndarray:
    """The slice matrix T_x."""
    d = fam.params.digits(np.asarray([x], dtype=np.int64))[0]
    return np.tensordot(d, fam.mats, axes=(0, 0)) % fam.params.p


def phase_one(params) -> PhaseProduct:
    """The phase product that is 1 on every triple."""
    n = params.n
    z = np.zeros((n, n), dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    return PhaseProduct(params, z, z, z, v, v, v, 0)


def phase_exponent(h: PhaseProduct, a, b, c):
    """Exponents of h mod p at index triples (vectorized)."""
    params = h.params
    da = params.digits(np.atleast_1d(np.asarray(a, dtype=np.int64)))
    db = params.digits(np.atleast_1d(np.asarray(b, dtype=np.int64)))
    dc = params.digits(np.atleast_1d(np.asarray(c, dtype=np.int64)))
    return (
        np.einsum("xi,ij,xj->x", da, h.ab, db)
        + np.einsum("xi,ij,xj->x", db, h.bc, dc)
        + np.einsum("xi,ij,xj->x", da, h.ac, dc)
        + da @ h.la
        + db @ h.lb
        + dc @ h.lc
        + h.const
    ) % params.p


@dataclass(eq=False)
class CharacterSum:
    """Exact sum of p-th roots of unity, kept as integer counts per residue.

    counts[c] is the number of summands equal to omega^c; the complex value
    only materializes at the boundary, so rank computations can stay in
    integer or rational arithmetic.
    """

    p: int
    counts: np.ndarray

    @classmethod
    def from_values(cls, p: int, vals) -> "CharacterSum":
        v = np.asarray(vals, dtype=np.int64) % p
        return cls(p, np.bincount(v.ravel(), minlength=p).astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def complex_value(self) -> complex:
        return complex(self.counts @ np.exp(2j * np.pi * np.arange(self.p) / self.p))

    def complex_mean(self) -> complex:
        return self.complex_value() / self.total

    def rational_mean(self) -> Fraction:
        """Exact rational value of the mean.

        Valid only when counts[1:] are all equal, in which case the
        nontrivial roots collapse: the mean equals
        (counts[0] - counts[1]) / total.  Raises otherwise.
        """
        rest = self.counts[1:]
        if rest.size and np.any(rest != rest[0]):
            raise ValueError("character sum is not rational: counts %r" % (self.counts.tolist(),))
        c1 = int(rest[0]) if rest.size else 0
        return Fraction(int(self.counts[0]) - c1, self.total)


def analytic_mean_tri(tau: TrilinearForm) -> Fraction:
    """E_{a,b,c} omega^{tau(a,b,c)} from the counts of tau's values over
    every triple, one row a at a time."""
    params = tau.params
    p, N = params.p, params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    counts = np.zeros(p, dtype=np.int64)
    for a in range(N):
        Ta = np.tensordot(dig[a], tau.coeffs, axes=(0, 0)) % p
        vals = (dig @ Ta @ dig.T) % p
        counts += np.bincount(vals.ravel(), minlength=p)
    return CharacterSum(p, counts).rational_mean()


def slice_rank_mean(fam: SliceFamily) -> Fraction:
    """E_x p^{-rank(T_x)}, one `slice_at` and one rank per x."""
    params = fam.params
    p = params.p
    total = Fraction(0)
    for x in range(params.size):
        total += Fraction(1, p ** gf_rank(p, slice_at(fam, x)))
    return total / params.size


def analytic_rank(tau: TrilinearForm) -> float:
    """-log_p of `slice_rank_mean` of tau's first-slot slices."""
    mean = slice_rank_mean(SliceFamily.of(tau))
    return (math.log(mean.denominator) - math.log(mean.numerator)) / math.log(tau.params.p)


def tri_correlation(f: GroupFn, h: PhaseProduct, tau: TrilinearForm) -> complex:
    """The correlation functional, one `derivative2` call per (a, b) pair."""
    params = f.params
    N = params.size
    om = np.exp(-2j * np.pi / params.p)
    idx = np.arange(N, dtype=np.int64)
    sub_rows = params.sub(idx[None, :], idx[:, None])
    total = 0.0 + 0.0j
    for a in range(N):
        for b in range(N):
            g = derivative2(f, a, b).values
            ac = (g[None, :] * np.conj(g[sub_rows])).mean(axis=1)
            ph = phase_exponent(h, np.full(N, a), np.full(N, b), idx)
            te = form_value(tau, np.full(N, a), np.full(N, b), idx)
            total += (np.exp(2j * np.pi * ph / params.p) * (om**te) * ac).sum()
    return complex(total / N**3)


def u3_lower_alpha(g: GroupFn, u: GridFn, v: GridFn, w: GridFn) -> float:
    """u3_lower's correlation alpha, with its own four-way gather of the
    second derivatives of each row a."""
    params = g.params
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
    return abs(complex(total / N**3))


def quad_phase_search(g: GroupFn) -> tuple[PolyPhase, float]:
    """The quadratic search by a table of every candidate (quadratic part,
    linear part, constant) in lexicographic order; ties within 1e-12 go to
    the earliest candidate."""
    params = g.params
    p, n, N = params.p, params.n, params.size
    monos = [(i, j) for i in range(n) for j in range(i, n)]
    dim = len(monos) + n + 1
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
    winner = int(np.flatnonzero(corrs >= top - 1e-12)[0])
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


def unblocked_quad_phase_search(g: GroupFn) -> tuple[PolyPhase, float]:
    """The quadratic search with all p^{n(n+1)/2} quadratic parts in one
    batched transform; ties within 1e-12 go to the earliest candidate."""
    params = g.params
    p, n, N = params.p, params.n, params.size
    monos = [(i, j) for i in range(n) for j in range(i, n)]
    dig = params.digits(np.arange(N, dtype=np.int64))
    quad_basis = np.stack([dig[:, i] * dig[:, j] for (i, j) in monos], axis=1)
    quads = np.asarray(list(itertools.product(range(p), repeat=len(monos))), dtype=np.int64)
    lins = np.asarray(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    twisted = g.values[None, :] * np.exp(-2j * np.pi * ((quads @ quad_basis.T) % p) / p)
    hat = char_transform(twisted, params, axis=1)
    corrs = np.abs(hat[:, params.index(lins)]).ravel()
    top = float(corrs.max())
    winner = int(np.flatnonzero(corrs >= top - 1e-12)[0])
    qi, ri = divmod(winner, N)
    coeffs: dict[tuple[int, ...], int] = {}
    for (i, j), c in zip(monos, quads[qi]):
        if c:
            coeffs[(i, j)] = int(c)
    for i, c in enumerate(lins[ri]):
        if c:
            coeffs[(i,)] = int(c)
    return PolyPhase.from_coeffs(params, coeffs), float(corrs[winner])


def kappa_from_sigma(sigma: TrilinearForm) -> tuple[PolyPhase, int]:
    """Cubic q(x) = sigma(x,x,x) and the exact alternating-sum constant.

    The eight-point alternating sum of q over a combinatorial cube equals
    cstar * sigma(a,b,c) at every point; cstar is found from one nonzero
    value and then re-verified exhaustively over all p^{4n} points.
    """
    params = sigma.params
    p, N = params.p, params.size
    if p < 5:
        raise ValueError("cubic extraction needs p >= 5")
    if not sigma.is_symmetric():
        raise ValueError("cubic extraction needs a symmetric form")
    if N**4 > SIZE_CAP:
        raise ValueError("p^{4n} = %d exceeds the verification budget %d" % (N**4, SIZE_CAP))
    terms: dict[tuple[int, ...], int] = {}
    it = np.nditer(sigma.coeffs, flags=["multi_index"])
    for val in it:
        v = int(val)
        if v:
            key = tuple(sorted(it.multi_index))
            terms[key] = (terms.get(key, 0) + v) % p
    kappa = PolyPhase.from_coeffs(params, terms)
    return kappa, alternating_sum_constant(kappa, sigma)


def alternating_sum_constant(kappa: PolyPhase, sigma: TrilinearForm) -> int:
    """The constant cstar with alternating sum of kappa = cstar * sigma at all
    p^{4n} points; RuntimeError if there is none."""
    params = sigma.params
    p, N = params.p, params.size
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
        form_value(
            sigma,
            np.repeat(all_idx, N * N),
            np.tile(np.repeat(all_idx, N), N),
            np.tile(all_idx, N * N),
        ).reshape(N, N, N)[None, :, :, :],
        S.shape,
    )
    nz = np.flatnonzero(stab.ravel())
    if nz.size == 0:
        return (-6) % p
    i = int(nz[0])
    sval = int(S.ravel()[i])
    tval = int(stab.ravel()[i])
    cstar = sval * pow(tval, p - 2, p) % p
    if np.any((S - cstar * stab) % p):
        raise RuntimeError("alternating sum is not proportional to the form")
    return int(cstar)


def cubic_stage_box(f: GroupFn, sigma: TrilinearForm, theta, lam) -> tuple[GroupFn, float, float]:
    """(g, alpha_box, U^3 norm of g) for the remainder g = f omega^{-kappa}
    of the cubic integrated from sigma, with alpha_box the box correlation
    of g against the grids omega^{-lam(b).c - (u_theta + u_lam).c} and
    omega^{-theta(a).c} of the fitted affine maps theta = (M, u) and lam."""
    params = f.params
    p, N = params.p, params.size
    (Mth, uth), (Mlm, ulm) = theta, lam
    kappa0, cstar = ulab.trilinear.kappa_from_sigma(sigma)
    scale = (-pow(cstar, p - 2, p)) % p
    kappa = PolyPhase.from_coeffs(params, {mono: coef * scale % p for mono, coef in kappa0.terms})
    g = GroupFn(params, f.values * np.exp(-2j * np.pi * kappa.phase_table() / p))
    dig = params.digits(np.arange(N, dtype=np.int64))
    BC = (-Mlm.T) % p
    AC = (-Mth.T) % p
    lc = (-(uth + ulm)) % p
    expo_v = (np.einsum("bi,ij,cj->bc", dig, BC, dig) + dig @ lc) % p
    expo_w = np.einsum("ai,ij,cj->ac", dig, AC, dig) % p
    vgrid = GridFn(params, np.exp(2j * np.pi * expo_v / p))
    wgrid = GridFn(params, np.exp(2j * np.pi * expo_w / p))
    alpha, norm = u3_lower(g, GridFn.constant(params, 1.0), vgrid, wgrid)
    return g, alpha, norm


def symmetry_ranks(tau: TrilinearForm):
    """(perm_ranks, residual_rank) as `symmetry_pipeline` reports them, one
    `analytic_rank` per form."""
    _, residual = symmetrize(tau)
    perm_ranks = tuple(
        (perm, analytic_rank(tau - tau.permute_args(perm))) for perm in itertools.permutations(range(3))
    )
    return perm_ranks, analytic_rank(residual)
