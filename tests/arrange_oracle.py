"""Reference implementation of the per-row Freiman filter.

`row_freiman_filter` is the one-row-at-a-time greedy that
`ulab.arrange.row_freiman_filter` replaced with one numpy step per column
over every row at once: each row visits its domain points in index order,
and a point joins when none of the pair sums it creates conflicts with a
pair-sum value already set.  The library must keep exactly the same points.
Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from ulab.arrange import PartialMap


def row_freiman_filter(phi: PartialMap) -> PartialMap:
    params, vp = phi.params, phi.value_params
    N = params.size
    idx = np.arange(N, dtype=np.int64)
    add_d = params.add(idx[:, None], idx[None, :])
    vidx = np.arange(vp.size, dtype=np.int64)
    add_v = vp.add(vidx[:, None], vidx[None, :])
    keep = np.zeros_like(phi.domain)
    for x in range(N):
        row_vals = phi.values[x]
        sums = np.full(N, -1, dtype=np.int64)  # pair-sum value, -1 where unset
        chosen = np.zeros(N, dtype=bool)
        for y in np.nonzero(phi.domain[x])[0]:
            chosen[y] = True
            ys = np.nonzero(chosen)[0]
            keys = add_d[y, ys]
            vals = add_v[row_vals[y], row_vals[ys]]
            seen = sums[keys]
            if ((seen < 0) | (seen == vals)).all():
                sums[keys] = vals
            else:
                chosen[y] = False
        keep[x] = chosen
    return phi.restrict(keep)
