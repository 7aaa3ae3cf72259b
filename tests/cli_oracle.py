"""Reference implementations of the rounding votes and the fit's row scan.

`vote_histogram` is the per-b loop that `ulab.pipeline.consensus_rounding`
replaced with one character count over G x H, and `first_independent_rows`
is the scan that row-reduced the whole kept matrix again for each candidate
row, which `ulab.pipeline._first_independent_rows` replaced with one elimination
pass.  `consensus_rounding` and `fit_biaffine` are the two stages on these
routes, the fit with one `gf_solve` per output digit.  The oracle rounding
always votes, as the library's does, even on a map the pipeline's rounding
stage certifies exactly bi-affine by the fit's offset-0 solve and so never
votes on; the oracle fit walks every offset, where the library stops at
the first exact one.
`extract_affine_parts` is the retired backfit stage, kept as the record
of what it computed: from the data it re-derived the two affine parts the
fit already holds, theta from a reference column and lambda by a vote per
column, each linearized by `exhaustive_affine_fit`, a search over all
p^{n+1} affine maps per digit.  The symmetry stage takes those parts from
the fit, as `ulab.pipeline.extract_affine_parts` returns them; on a sparse
map whose reference column holds few points the oracle explains less of
the map than the fit does.  `derivative_peak_map` reads the gate and the
peak map off all N^2 spectra, one row a of `derivative2_spectra` at a
time, where `ulab.pipeline.derivative_peak_map` transforms one spectrum
per symmetry orbit of (a, b).  `best_cubic_phase`
is the pipeline's target found by exhaustion: the cubic q maximising
|E f omega^{-q}|.  `biaffine_value_table` tabulates a fitted model over all
of G^2, the table the extend stage checked for bi-affinity until that check
was dropped as one that cannot fail.  `best_cell` is the cells stage's
`Counter` over the domain's (x0 label, y0 label, beta value) triples, which
`ulab.pipeline` replaced with one `np.unique` of the packed
`BohrDecomposition.cell_index` codes.  `affine_in_each_variable` checks
every shift h in each variable, where `ulab.pipeline.affine_in_each_variable`
checks only the n basis shifts.  `trirank` is `ulab trirank`'s output with
one per-slice `trilinear_oracle.slice_rank_mean` loop per form, where the
command ranks all eight forms in one `gf_family_ranks` call.  The linear
algebra is `core_oracle`'s.  Tests compare the library against them;
nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from ulab.arrange import PartialMap
from ulab.bilinear import BohrDecomposition
from ulab.core import GroupFn, GroupParams, PolyPhase, _add_table, char_transform
from ulab.gowers import PEAK_TIE_TOL, derivative2_spectra, norm_from_power
from ulab.pipeline import BiAffineFit
from ulab.trilinear import TrilinearForm, symmetrize

from core_oracle import gf_rowreduce, gf_solve
from trilinear_oracle import SliceFamily, analytic_rank, slice_rank_mean


def derivative_peak_map(f: GroupFn, c1: float) -> tuple[PartialMap, dict, float]:
    """The peak map at floor c1, its stats and the U^4 norm, from every
    row a of `derivative2_spectra`: each row gives the peaks of its N
    spectra and its term E_b Sigma_r S^4 of |f|_{U^4}^16."""
    params = f.params
    N = params.size
    dom = np.zeros((N, N), dtype=bool)
    vals = np.zeros((N, N), dtype=np.int64)
    rows = np.arange(N)
    kept = []
    acc = 0.0
    for a, spec in enumerate(derivative2_spectra(f)):
        sq = np.square(spec)
        np.square(sq, out=sq)
        acc += float(sq.sum(axis=1).mean())
        r = np.argmax(spec >= spec.max(axis=1, keepdims=True) - PEAK_TIE_TOL, axis=1)
        mag = spec[rows, r]
        dom[a] = mag >= c1
        vals[a] = np.where(dom[a], r, 0)
        kept.append(mag[dom[a]])
    kept_peaks = np.concatenate(kept)
    stats = {
        "density": float(dom.mean()),
        "kept": int(dom.sum()),
        "min_kept_peak": float(kept_peaks.min()) if kept_peaks.size else None,
        "mean_kept_peak": float(np.mean(kept_peaks)) if kept_peaks.size else None,
    }
    u4 = norm_from_power(acc / N, 4).value
    return PartialMap(params, params, dom, vals), stats, u4


def vote_histogram(phi: PartialMap) -> np.ndarray:
    """(N, N, q) row plus column line votes, one gather per (line, b)."""
    params, vp = phi.params, phi.value_params
    N, q = params.size, vp.size
    dom, vmap = phi.domain, phi.values
    idx = np.arange(N, dtype=np.int64)
    add = params.add(idx[:, None], idx[None, :])
    sub = params.sub(idx[:, None], idx[None, :])
    vidx = np.arange(q, dtype=np.int64)
    vadd = vp.add(vidx[:, None], vidx[None, :])
    vsub = vp.sub(vidx[:, None], vidx[None, :])
    hist = np.zeros((N, N, q), dtype=np.int64)

    def line_votes(dom_line: np.ndarray, val_line: np.ndarray) -> np.ndarray:
        out = np.zeros((N, q), dtype=np.int64)
        pair_val = vadd[val_line[:, None], val_line[None, :]]
        pair_dom = dom_line[:, None] & dom_line[None, :]
        for b in range(N):
            b3 = sub[add, b]
            ok = pair_dom & dom_line[b3]
            if ok.any():
                out[b] = np.bincount(vsub[pair_val, val_line[b3]][ok], minlength=q)
        return out

    for a in range(N):
        hist[a] += line_votes(dom[a], vmap[a])
    for b in range(N):
        hist[:, b, :] += line_votes(dom[:, b], vmap[:, b])
    return hist


def first_independent_rows(p: int, rows: np.ndarray, start: int) -> list[int]:
    """The rank-raising rows in cyclic scan order, one full row reduction
    of the kept matrix per candidate row."""
    m, d = rows.shape
    keep: list[int] = []
    cur = np.zeros((0, d), dtype=np.int64)
    rank = 0
    for off in range(m):
        i = (start + off) % m
        trial = np.concatenate([cur, rows[i : i + 1]], axis=0)
        red, _ = gf_rowreduce(p, trial)
        rr = int(red.any(axis=1).sum())
        if rr > rank:
            keep.append(i)
            cur = red[red.any(axis=1)]
            rank = rr
        if rank == d:
            break
    return keep


def consensus_rounding(phi: PartialMap) -> tuple[PartialMap, dict]:
    """The rounding stage on `vote_histogram`."""
    params, vp = phi.params, phi.value_params
    dom, vmap = phi.domain, phi.values
    hist = vote_histogram(phi)
    rounded = hist.argmax(axis=2).astype(np.int64)
    tot = hist.sum(axis=2)
    top = hist.max(axis=2)
    voted = dom & (tot > 0)
    stability = np.where(voted, top / np.maximum(tot, 1), 0.0)
    new_vals = np.where(voted, rounded, vmap)
    stats = {
        "stability_mean": float(stability[dom].mean()) if dom.any() else 0.0,
        "stability_min": float(stability[dom].min()) if dom.any() else 0.0,
        "changed": int(np.sum(voted & (new_vals != vmap))),
        "voted": int(voted.sum()),
    }
    return PartialMap(params, vp, dom, np.where(dom, new_vals, 0).astype(np.int64)), stats


def fit_biaffine(phi: PartialMap, offsets: int = 7) -> BiAffineFit:
    """The fit on `first_independent_rows`, one `gf_solve` per output digit."""
    params, vp = phi.params, phi.value_params
    p, n = params.p, params.n
    xs, ys = np.nonzero(phi.domain)
    m = len(xs)
    d = n * n + 2 * n + 1
    da = params.digits(xs.astype(np.int64))
    db = params.digits(ys.astype(np.int64))
    rows = np.concatenate(
        [np.einsum("mi,mj->mij", da, db).reshape(m, n * n), da, db, np.ones((m, 1), dtype=np.int64)],
        axis=1,
    ) % p
    targets = vp.digits(phi.values[xs, ys])
    best = None
    for j in range(max(1, offsets)):
        keep = first_independent_rows(p, rows, (j * m) // max(1, offsets))
        sol = np.stack([gf_solve(p, rows[keep], targets[keep][:, c]) for c in range(vp.n)])
        T = sol[:, : n * n].reshape(vp.n, n, n)
        s = sol[:, n * n : n * n + n]
        t = sol[:, n * n + n : n * n + 2 * n]
        e = sol[:, -1]
        pred = (np.einsum("mi,cij,mj->mc", da, T, db) + da @ s.T + db @ t.T + e[None, :]) % p
        cand = BiAffineFit(T, s, t, e, float(np.mean(np.all(pred == targets, axis=1))), j)
        if best is None or cand.agreement > best.agreement + 1e-12:
            best = cand
    return best


def exhaustive_affine_fit(
    params: GroupParams, xs: np.ndarray, data_digits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best affine approximation x -> Mx + u of tabulated digit data, by
    exhaustive per-coordinate search; ties go to the lexicographically first
    candidate.  Returns (M, u, joint agreement)."""
    p, n = params.p, params.n
    dx = params.digits(np.asarray(xs, dtype=np.int64))
    grids = np.meshgrid(*([np.arange(p)] * (n + 1)), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)  # rows (m_0..m_{n-1}, u), lex order
    M = np.zeros((n, n), dtype=np.int64)
    u = np.zeros(n, dtype=np.int64)
    pred_all = (dx @ cand[:, :n].T + cand[:, n][None, :]) % p
    for c in range(data_digits.shape[1]):
        best = int(np.argmax((pred_all == data_digits[:, c : c + 1]).sum(axis=0)))
        M[c] = cand[best, :n]
        u[c] = cand[best, n]
    joint = (dx @ M.T + u[None, :]) % p
    return M, u, float(np.mean(np.all(joint == data_digits, axis=1)))


def extract_affine_parts(phi: PartialMap, fit: BiAffineFit) -> dict:
    """The backfit with three per-point loops: theta from the reference
    column, lambda by a `Counter` vote per column (ties to the smallest
    tuple), and theta again for rows missing the reference."""
    params, vp = phi.params, phi.value_params
    p = params.p
    N = params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    gamma = np.einsum("ai,cij,bj->abc", dig, fit.T, dig) % p
    xs, ys = np.nonzero(phi.domain)
    resid = (vp.digits(phi.values[xs, ys]) - gamma[xs, ys]) % p
    # per-variable corrections: theta from a reference column, lambda by
    # majority vote, then a second pass for rows missing the reference
    b0 = int(ys[0])
    theta_data: dict[int, tuple] = {}
    for a, b, r in zip(xs, ys, resid):
        if b == b0 and int(a) not in theta_data:
            theta_data[int(a)] = tuple(int(v) for v in r)
    lam_votes: dict[int, Counter] = {}
    for a, b, r in zip(xs, ys, resid):
        th = theta_data.get(int(a))
        if th is not None:
            off = tuple(int(v) for v in (r - np.array(th, dtype=np.int64)) % p)
            lam_votes.setdefault(int(b), Counter())[off] += 1
    lam_data = {
        b: max(sorted(c), key=lambda k: c[k]) for b, c in lam_votes.items()
    }
    for a, b, r in zip(xs, ys, resid):
        if int(a) not in theta_data and int(b) in lam_data:
            theta_data[int(a)] = tuple(
                int(v) for v in (r - np.array(lam_data[int(b)], dtype=np.int64)) % p
            )
    th_keys = sorted(theta_data)
    lm_keys = sorted(lam_data)
    Mth, uth, ath = exhaustive_affine_fit(
        params, np.array(th_keys, dtype=np.int64), np.array([theta_data[a] for a in th_keys], dtype=np.int64)
    ) if th_keys else (np.zeros((params.n,) * 2, dtype=np.int64), np.zeros(params.n, dtype=np.int64), 1.0)
    Mlm, ulm, alm = exhaustive_affine_fit(
        params, np.array(lm_keys, dtype=np.int64), np.array([lam_data[b] for b in lm_keys], dtype=np.int64)
    ) if lm_keys else (np.zeros((params.n,) * 2, dtype=np.int64), np.zeros(params.n, dtype=np.int64), 1.0)
    th_tab = (dig @ Mth.T + uth[None, :]) % p
    lm_tab = (dig @ Mlm.T + ulm[None, :]) % p
    full = (gamma + th_tab[:, None, :] + lm_tab[None, :, :]) % p
    back = float(np.mean(np.all(full[xs, ys] == vp.digits(phi.values[xs, ys]), axis=1)))
    return {
        "theta": (Mth, uth),
        "lambda": (Mlm, ulm),
        "theta_agreement": ath,
        "lambda_agreement": alm,
        "back_agreement": back,
    }


def affine_in_each_variable(params: GroupParams, table: np.ndarray) -> bool:
    """Every difference of the (N, N, digits) table along either variable,
    by every shift h, is constant in that variable."""
    p = params.p
    add = _add_table(p, params.n)
    for h in range(params.size):
        dif = (table[:, add[:, h], :] - table) % p
        if not np.all(dif == dif[:, :1, :]):
            return False
        dif = (table[add[:, h], :, :] - table) % p
        if not np.all(dif == dif[:1, :, :]):
            return False
    return True


def trirank(tau: TrilinearForm) -> dict:
    """The `ulab trirank` record of tau, one per-slice rank loop per form."""
    _, residual = symmetrize(tau)
    return {
        "analytic_rank": analytic_rank(tau),
        "mean": slice_rank_mean(SliceFamily.of(tau)),
        "is_symmetric": tau.is_symmetric(),
        "residual_rank": analytic_rank(residual),
        "perm_difference_ranks": {
            "".join(map(str, perm)): analytic_rank(tau - tau.permute_args(perm))
            for perm in itertools.permutations(range(3))
        },
    }


def biaffine_value_table(params: GroupParams, fit: BiAffineFit) -> np.ndarray:
    """(N, N, vn) digit table of the fitted model over all of G^2."""
    p = params.p
    dig = params.digits(np.arange(params.size, dtype=np.int64))
    return (
        np.einsum("ai,cij,bj->abc", dig, fit.T, dig)
        + (dig @ fit.s.T)[:, None, :]
        + (dig @ fit.t.T)[None, :, :]
        + fit.e[None, None, :]
    ) % p


def best_cell(dec: BohrDecomposition, domain: np.ndarray) -> tuple[int, tuple[int, int, int], int]:
    """(occupied cells, best cell, its points) of the domain: the most
    populated (x0 label, y0 label, beta value) triple, the first in sorted
    order on ties."""
    xl, yl, zt = dec.x0_labels(), dec.y0_labels(), dec.beta.value_index_table()
    counts: Counter = Counter()
    for a, b in zip(*np.nonzero(domain)):
        counts[(int(xl[a]), int(yl[b]), int(zt[a, b]))] += 1
    cell, points = max(sorted(counts.items()), key=lambda kv: kv[1])
    return len(counts), cell, points


def best_cubic_phase(f: GroupFn) -> tuple[PolyPhase, float, float]:
    """The cubic phase q (no constant) maximising |E f omega^{-q}|, that
    maximum, and the largest value over every other cubic.

    One batched `char_transform` of f omega^{-Q} over all p^M non-linear
    parts Q (M quadratic and cubic monomials; 5^7 = 78,125 on F_5^2)
    scores every linear part at once.
    """
    params = f.params
    p, n, N = params.p, params.n, params.size
    monos = [m for d in (3, 2) for m in itertools.combinations_with_replacement(range(n), d)]
    dig = params.digits(np.arange(N, dtype=np.int64))
    basis = np.stack([np.prod(dig[:, list(m)], axis=1) for m in monos], axis=1)
    parts = np.asarray(list(itertools.product(range(p), repeat=len(monos))), dtype=np.int64)
    twisted = f.values[None, :] * np.exp(-2j * np.pi * ((parts @ basis.T) % p) / p)
    corrs = np.abs(char_transform(twisted, params, axis=1))
    qi, r = np.unravel_index(int(np.argmax(corrs)), corrs.shape)
    best = float(corrs[qi, r])
    corrs[qi, r] = -1.0
    coeffs = dict(zip(monos, (int(c) for c in parts[qi])))
    coeffs.update({(i,): int(c) for i, c in enumerate(dig[r])})
    return PolyPhase.from_coeffs(params, coeffs), best, float(corrs.max())
