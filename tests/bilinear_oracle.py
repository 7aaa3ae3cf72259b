"""Reference implementation of the exact Bogolyubov cover.

`exact_cover` is the table route that `ulab.bilinear` replaced with its
per-matrix count: it builds every one of the p^(n^2+n) affine maps and the
index of M h + c for every map and every h, then runs the greedy cover on
that table.  Tests compare the library against it; nothing in the package
imports this module.
"""

from __future__ import annotations

import numpy as np

from ulab.bilinear import _affine_map_tables, _greedy_cover
from ulab.core import GroupParams


def exact_candidates(params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """All p^(n^2+n) affine maps h -> Mh + c, in lexicographic order."""
    n = params.n
    mp = GroupParams(params.p, n * n)
    mats = mp.digits(np.arange(mp.size, dtype=np.int64)).reshape(-1, n, n)
    cs = params.digits(np.arange(params.size, dtype=np.int64))
    M = np.repeat(mats, params.size, axis=0)
    C = np.tile(cs, (mp.size, 1))
    return M, C


def exact_cover(
    params: GroupParams, points: list[tuple[int, int]], eps_count: float, max_maps: int
) -> tuple[list[int], int]:
    """(chosen row ids, uncovered count) of the greedy cover over the full map table."""
    tables = _affine_map_tables(params, *exact_candidates(params))
    return _greedy_cover(tables, points, eps_count, max_maps)
