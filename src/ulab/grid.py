"""Functions on G x G: cross-sections, vertical/horizontal/mixed
convolutions, and the arrangement functionals.

A 4-arrangement is a pair of vertical parallelograms sharing a width and a
height (8 points); a second-order 4-arrangement applies the same construction
to parallelograms of parallelograms (32 points).  The value of the mixed
convolution of an indicator at (w, h) is the density of vertical
parallelograms of width w and height h inside the set, which is what makes
these functionals computable at p^{2n} cost instead of p^{8n}.  The
convolutions and the arrangement functional also come in stacked forms
(`*_stack`) over arrays of shape (..., N, N), so `ulab.galg` takes all the
character slices of an algebra-valued function through one pass.

The Monte-Carlo counts sample arrangements through `sample_blocks`, one
seeded stream per block: it forms every vertex from the drawn indices by one
gather from the cached subtraction table and hands the vertices out one at
a time, in Morse order, so a consumer (`respect_stats` in `ulab.arrange`)
folds each into a per-sample accumulator and never holds a block's 8 or 32
points at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ulab.core import (
    GroupFn,
    GroupParams,
    _json_fields,
    _json_params,
    _sub_table,
    char_transform,
)

__all__ = [
    "GridFn",
    "vert_conv",
    "horiz_conv",
    "mixed_conv",
    "mixed_self",
    "vert_conv_stack",
    "horiz_conv_stack",
    "mixed_conv_stack",
    "arr_functional",
    "arr_functional_stack",
    "arr2_exact",
    "sample_blocks",
    "MORSE8",
    "MORSE32",
    "grid_fn_to_json",
    "grid_fn_from_json",
]

# Signs governing which alternating vertex sums over arrangements vanish.
MORSE8 = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=np.int64)
MORSE32 = np.kron(MORSE8, np.array([1, -1, -1, 1], dtype=np.int64))


@dataclass(eq=False)
class GridFn:
    """Dense complex function on G x G, values[x, y]."""

    params: GroupParams
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        N = self.params.size
        if self.values.shape != (N, N):
            raise ValueError("values must have shape (p^n, p^n)")

    @classmethod
    def constant(cls, params: GroupParams, c: complex = 1.0) -> "GridFn":
        N = params.size
        return cls(params, np.full((N, N), c, dtype=np.complex128))

    @classmethod
    def from_mask(cls, params: GroupParams, mask) -> "GridFn":
        return cls(params, np.asarray(mask, dtype=bool).astype(np.complex128))

    @classmethod
    def from_phases(cls, params: GroupParams, table) -> "GridFn":
        t = np.asarray(table, dtype=np.int64) % params.p
        return cls(params, np.exp(2j * np.pi * t / params.p))

    def row(self, x: int) -> GroupFn:
        return GroupFn(self.params, self.values[x, :].copy())

    def mean(self) -> complex:
        return complex(self.values.mean())

    def norm_l1(self) -> float:
        return float(np.abs(self.values).mean())

    def norm_l2(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).mean()))

    def norm_linf(self) -> float:
        return float(np.abs(self.values).max())

    def inner(self, other: "GridFn") -> complex:
        return complex((self.values * other.values.conj()).mean())


def _check(f: GridFn, g: GridFn) -> None:
    if f.params != g.params:
        raise ValueError("mismatched group parameters")


def _conv_pass(f: np.ndarray, g: np.ndarray, params: GroupParams, axis: int) -> np.ndarray:
    """E_t f(.., t, ..) conj(g(.., t - d, ..)) along one axis of two value
    arrays; a self-convolution (g is f) transforms its input once."""
    fh = char_transform(f, params, axis=axis)
    gh = fh if g is f else char_transform(g, params, axis=axis)
    return char_transform(fh * gh.conj(), params, axis=axis, inverse=True)


def vert_conv_stack(f: np.ndarray, g: np.ndarray, params: GroupParams) -> np.ndarray:
    """`vert_conv` of stacks of grid values of shape (..., N, N); leading axes are a batch."""
    return _conv_pass(f, g, params, -1)


def horiz_conv_stack(f: np.ndarray, g: np.ndarray, params: GroupParams) -> np.ndarray:
    """`horiz_conv` of stacks of grid values of shape (..., N, N); leading axes are a batch."""
    return _conv_pass(f, g, params, -2)


def mixed_conv_stack(f1, f2, f3, f4, params: GroupParams) -> np.ndarray:
    """`mixed_conv` of stacks of grid values of shape (..., N, N)."""
    return horiz_conv_stack(vert_conv_stack(f1, f2, params), vert_conv_stack(f3, f4, params), params)


def vert_conv(f: GridFn, g: GridFn) -> GridFn:
    """(f vconv g)(x, h) = E_y f(x, y) conj(g(x, y - h)); columns fixed."""
    _check(f, g)
    return GridFn(f.params, vert_conv_stack(f.values, g.values, f.params))


def horiz_conv(f: GridFn, g: GridFn) -> GridFn:
    """(f hconv g)(w, y) = E_x f(x, y) conj(g(x - w, y)); rows fixed."""
    _check(f, g)
    return GridFn(f.params, horiz_conv_stack(f.values, g.values, f.params))


def mixed_conv(f1: GridFn, f2: GridFn, f3: GridFn, f4: GridFn) -> GridFn:
    """Horizontal convolution of two vertical convolutions.

    For an indicator 1_A the value at (w, h) is the probability that a random
    vertical parallelogram of width w and height h lies inside A.
    """
    return horiz_conv(vert_conv(f1, f2), vert_conv(f3, f4))


def mixed_self(f: GridFn) -> GridFn:
    """mixed_conv(f, f, f, f), with its two equal column passes computed once."""
    v = vert_conv(f, f)
    return horiz_conv(v, v)


def arr_functional_stack(values: np.ndarray, params: GroupParams) -> np.ndarray:
    """`arr_functional` of each grid function in a (K, N, N) stack, shape (K,).

    One column transform, |.|^2 and its inverse give the column pass
    v = vert_conv(f, f) (Wiener-Khinchin); one row transform of v then holds
    the row pass as |v^|^2, and by Parseval over the rows
    |mixed_self(f)|_2^2 = E_h Sigma_r |v^(r, h)|^4, so the last inverse is
    never taken.  Every step after the first transform runs in place in one
    complex work array, so the pass holds one (K, N, N) copy beside the input.
    """
    work = char_transform(values, params, axis=-1, out=np.empty(values.shape, dtype=np.complex128))
    np.abs(work, out=work)
    np.square(work, out=work)
    work = char_transform(work, params, axis=-1, inverse=True, out=work)
    work = char_transform(work, params, axis=-2, out=work)
    np.abs(work, out=work)
    power = work.real
    power **= 4
    return power.sum(axis=-2).mean(axis=-1)


def arr_functional(f: GridFn) -> float:
    """Density of pairs of equal-shape parallelograms weighted by f.

    Equals |mixed_self(f)|_2^2; for f = 1_A this is the 4-arrangement density
    of A, i.e. the exact count divided by |G|^8.  Computed as
    `arr_functional_stack` of a stack of one.
    """
    return float(arr_functional_stack(f.values[None], f.params)[0])


def arr2_exact(f: GridFn) -> float:
    """Second-order arrangement density, exactly.

    Stratifies the 32-point count over its 11 independent parameters: the
    inner mixed convolution tabulates the 3 free parameters of each of the 8
    parallelogram slots, and the outer pass runs over the 8 slot parameters.
    The second-order 4-arrangement count is |G|^32 times this value.
    """
    return arr_functional(mixed_self(f))


_MC_BLOCK = 8192


def sample_blocks(params: GroupParams, order: int, samples: int, seed: int):
    """Yield `samples` uniform random arrangements of the given order in
    blocks of at most _MC_BLOCK, as (m, vertices) pairs.

    `vertices` yields the m-long index arrays (x, y) of each vertex in
    Morse order: vertex j takes the sign MORSE8[j] at order 1 and
    MORSE32[j] at order 2.  `vertices` is lazy: it draws a slot's numbers
    when that slot's first vertex is asked for, so a consumer that folds
    each vertex into an accumulator holds one slot's arrays at a time.

    The draws are a contract, since every Monte-Carlo number in the package
    is a function of them.  Block b draws from its own child stream
    SeedSequence([seed, b]), so the samples depend only on (seed, samples)
    and not on how blocks might be distributed over workers.  Within a
    block, `rng.integers(0, |G|, ...)` is called
    * at order 1 once, shape (8, m): x1, x2, w, y1, y1', y2, y2', h, giving
      the parallelograms with corners (x, y), (x, y - h), (x - w, y'),
      (x - w, y' - h) for (x, y, y') = (x1, y1, y1') and (x2, y2, y2');
    * at order 2 once, shape (8, m): W, H, u1, v1, v1', u2, v2, v2', whose
      8 slots (a, b) are those corners in the same order; then once per
      slot, shape (3, m): x, y, y', giving the slot's vertices (x, y),
      (x, y - b), (x - a, y'), (x - a, y' - b).
    Every difference such as x - (u1 - W) is formed in index space, one
    gather `take(sub, x * N + a)` from the subtraction table per difference.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    N = params.size
    sub = _sub_table(params.p, params.n)

    def minus(x, a):
        return np.take(sub, x * N + a)

    def parallelogram(xyy, a, b):
        # xyy: indices of (x, y, y'); a, b: indices of the width and height
        x, y, yp = xyy
        xa = minus(x, a)
        yield x, y
        yield x, minus(y, b)
        yield xa, yp
        yield xa, minus(yp, b)

    def vertices(rng, m):
        draws = rng.integers(0, N, size=(8, m), dtype=np.int64)
        if order == 1:
            w, h = draws[2], draws[7]
            # (x1, y1, y1') and (x2, y2, y2')
            yield from parallelogram(draws[[0, 3, 4]], w, h)
            yield from parallelogram(draws[[1, 5, 6]], w, h)
            return
        W, H, u1, v1, v1p, u2, v2, v2p = draws
        for u, v, vp in ((u1, v1, v1p), (u2, v2, v2p)):
            uW = minus(u, W)
            for a, b in ((u, v), (u, minus(v, H)), (uW, vp), (uW, minus(vp, H))):
                yield from parallelogram(rng.integers(0, N, size=(3, m), dtype=np.int64), a, b)

    for block, start in enumerate(range(0, samples, _MC_BLOCK)):
        m = min(_MC_BLOCK, samples - start)
        yield m, vertices(np.random.default_rng(np.random.SeedSequence([seed, block])), m)


def grid_fn_to_json(f: GridFn) -> dict:
    flat = f.values.reshape(-1)
    return {
        "p": f.params.p,
        "n": f.params.n,
        "values": [[float(v.real), float(v.imag)] for v in flat],
    }


def grid_fn_from_json(obj) -> GridFn:
    if isinstance(obj, str):
        obj = json.loads(obj)
    params = _json_params(obj, "grid function")
    N = params.size
    (values,) = _json_fields(obj, "grid function", "values")
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (N * N, 2):
        raise ValueError("values must be a row-major list of [re, im] pairs of length p^{2n}")
    return GridFn(params, (vals[:, 0] + 1j * vals[:, 1]).reshape(N, N))
