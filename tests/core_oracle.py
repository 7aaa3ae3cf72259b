"""Reference implementations of the character transform of F_p^n and of
linear algebra over F_p.

`tensor_transform` is the radix-p route that `ulab.core.char_transform`
replaced with numpy's FFT: n passes of a p x p character matrix, one per
digit axis.  `gf_rowreduce` is the one-matrix row reduction, a loop over
the columns and over the rows to clear, that `ulab.core._echelon` replaced
with one reduction vectorised over a stack of matrices; `gf_rank`,
`gf_nullspace` and `gf_solve` are built on it as the package built them
before, and `gf_solve` is the one-system solve that `ulab.core._solve_stack`
replaced with a solve of a stack of systems.  The other oracles take their linear algebra from here, so they do
not check the kernel against itself.  Tests compare the library against
them; nothing in the package imports this module.
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


def gf_rowreduce(p: int, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p: (R, pivots), R its nonzero rows.

    Column by column, the first non-zero row at or below the next pivot row
    is swapped up, normalised and cleared from every other row, one row at
    a time.
    """
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        a = np.atleast_2d(a)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        sel = np.nonzero(a[r:, c])[0]
        if sel.size == 0:
            continue
        i = r + int(sel[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        for j in np.nonzero(a[:, c])[0]:
            if j != r:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def gf_rank(p: int, mat) -> int:
    return gf_rowreduce(p, mat)[0].shape[0]


def gf_nullspace(p: int, mat) -> np.ndarray:
    """Rows spanning {x : mat @ x = 0 mod p}; shape (dim_null, cols)."""
    a = np.asarray(mat, dtype=np.int64)
    cols = a.shape[1] if a.ndim == 2 else a.shape[0]
    red, pivots = gf_rowreduce(p, a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, c]) % p
    return basis


def gf_solve(p: int, mat, rhs) -> np.ndarray | None:
    """One solution x of mat @ x = rhs mod p, free entries 0, or None if
    inconsistent."""
    a = np.array(mat, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64) % p
    red, pivots = gf_rowreduce(p, np.concatenate([a, b.reshape(-1, 1)], axis=1))
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, cols]
    return x
