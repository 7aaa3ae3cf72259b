"""Reference implementation of the character transform of F_p^n.

`tensor_transform` is the radix-p route that `ulab.core.char_transform`
replaced with numpy's FFT: n passes of a p x p character matrix, one per
digit axis.  Tests compare the library against it; nothing in the package
imports this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _char_matrix(p: int, sign: int) -> np.ndarray:
    r = np.arange(p)
    m = np.exp(sign * 2j * np.pi * np.outer(r, r) / p)
    m.setflags(write=False)
    return m


def tensor_transform(arr: np.ndarray, p: int, n: int, sign: int, normalize: bool, start_axis: int = 0) -> np.ndarray:
    """Radix-p character transform along n consecutive axes of length p.

    sign -1 with normalize=True is the forward (averaged) transform; sign +1
    with normalize=False is its exact inverse (summed).
    """
    m = _char_matrix(p, sign)
    for ax in range(start_axis, start_axis + n):
        arr = np.moveaxis(np.tensordot(m, np.moveaxis(arr, ax, 0), axes=(1, 0)), 0, ax)
        if normalize:
            arr = arr / p
    return arr
