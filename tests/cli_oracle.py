"""Reference implementations of the rounding votes and the fit's row scan.

`vote_histogram` is the per-b loop that `ulab.pipeline.consensus_rounding`
replaced with one character count over G x H, and `first_independent_rows`
is the scan that row-reduced the whole kept matrix again for each candidate
row, which `ulab.pipeline._first_independent_rows` replaced with one elimination
pass.  `consensus_rounding` and `fit_biaffine` are the two stages on these
routes, the fit with one `gf_solve` per output digit.  `best_cubic_phase`
is the pipeline's target found by exhaustion: the cubic q maximising
|E f omega^{-q}|.  Tests compare the library against them; nothing in the
package imports this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from ulab.arrange import PartialMap
from ulab.core import GroupFn, PolyPhase, char_transform, gf_rowreduce, gf_solve
from ulab.pipeline import BiAffineFit


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
