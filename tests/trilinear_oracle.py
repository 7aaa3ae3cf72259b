"""Reference implementation of the symmetry correlation.

`tri_correlation` is the per-(a, b) loop that `ulab.trilinear.tri_correlation`
replaced with one evaluation per row a: one `derivative2` call, one
autocorrelation and one phase evaluation per pair.  Tests compare the
library against it; nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from ulab.core import GroupFn, Subspace
from ulab.gowers import derivative2
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
