"""Reference implementations of the symmetry correlation, the box lower
bound, the quadratic search and the cubic's certificate.

`tri_correlation` is the per-(a, b) loop that `ulab.trilinear.tri_correlation`
replaced with one evaluation per row a: one `derivative2` call, one
autocorrelation and one phase evaluation per pair.  `u3_lower_alpha` is the
four-way gather that `ulab.trilinear.u3_lower` replaced with the shared
second-derivative gather, and `quad_phase_search` the candidate table that
`ulab.trilinear.quad_phase_search` replaced with one FFT per quadratic part.
`kappa_from_sigma` is the exhaustive check over all p^{4n} points (x, a, b, c)
that `ulab.trilinear.kappa_from_sigma` replaced with a symbolic
polarisation certificate; `alternating_sum_constant` is that check alone, so
a test can hand it a changed cubic.  Tests compare the library against
them; nothing in the package imports this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from ulab.core import SIZE_CAP, BudgetError, GroupFn, PolyPhase, Subspace
from ulab.gowers import derivative2
from ulab.grid import GridFn
from ulab.trilinear import PhaseProduct, TrilinearForm


def tri_correlation(
    f: GroupFn,
    h: PhaseProduct,
    tau: TrilinearForm,
    space: Subspace | None = None,
    shifts: tuple[int, int, int] = (0, 0, 0),
) -> complex:
    """The correlation functional, one `derivative2` call per (a, b) pair."""
    params = f.params
    idx = space.member_indices() if space is not None else np.arange(params.size)
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
            ac = (g[None, :] * np.conj(g[sub_rows])).mean(axis=1)
            ph = h.exponent(np.full(len(idx), a), np.full(len(idx), b), idx)
            te = tau.evaluate(np.full(len(idx), a), np.full(len(idx), b), idx)
            total += (np.exp(2j * np.pi * ph / params.p) * (om**te) * ac).sum()
    return complex(total / len(idx) ** 3)


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
        raise BudgetError("p^{4n} = %d exceeds the verification budget %d" % (N**4, SIZE_CAP))
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
        sigma.evaluate(
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
