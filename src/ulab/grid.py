"""Functions on G x G: cross-sections, vertical/horizontal/mixed
convolutions, and the arrangement functionals.

A 4-arrangement is a pair of vertical parallelograms sharing a width and a
height (8 points); a second-order 4-arrangement applies the same construction
to parallelograms of parallelograms (32 points).  The value of the mixed
convolution of an indicator at (w, h) is the density of vertical
parallelograms of width w and height h inside the set, which is what makes
these functionals computable at p^{2n} cost instead of p^{8n}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ulab.core import (
    GroupElem,
    GroupFn,
    GroupParams,
    _json_fields,
    _json_params,
    char_transform,
)

__all__ = [
    "GridFn",
    "Parallelogram",
    "vert_conv",
    "horiz_conv",
    "mixed_conv",
    "mixed_self",
    "arr_functional",
    "arr2_exact",
    "arr2_estimate",
    "sample_arrangement_points",
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

    def col(self, y: int) -> GroupFn:
        return GroupFn(self.params, self.values[:, y].copy())

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


@dataclass(frozen=True)
class Parallelogram:
    """Vertical parallelogram with vertices (x,y), (x,y+h), (x+w,y'), (x+w,y'+h)."""

    w: GroupElem
    h: GroupElem
    x: GroupElem
    y: GroupElem
    y2: GroupElem

    def vertices(self) -> tuple[tuple[GroupElem, GroupElem], ...]:
        x2 = self.x + self.w
        return (
            (self.x, self.y),
            (self.x, self.y + self.h),
            (x2, self.y2),
            (x2, self.y2 + self.h),
        )

    @classmethod
    def from_vertices(cls, pts) -> "Parallelogram":
        (x1, y1), (x1b, y1b), (x2, y2), (x2b, y2b) = pts
        if x1b.index != x1.index or x2b.index != x2.index:
            raise ValueError("left/right vertex pairs must share x coordinates")
        h = y1b - y1
        if (y2b - y2).index != h.index:
            raise ValueError("the two sides must have equal height")
        return cls(w=x2 - x1, h=h, x=x1, y=y1, y2=y2)


def _check(f: GridFn, g: GridFn) -> None:
    if f.params != g.params:
        raise ValueError("mismatched group parameters")


def vert_conv(f: GridFn, g: GridFn) -> GridFn:
    """(f vconv g)(x, h) = E_y f(x, y) conj(g(x, y - h)); columns fixed."""
    _check(f, g)
    fh = char_transform(f.values, f.params, axis=1)
    gh = char_transform(g.values, f.params, axis=1)
    return GridFn(f.params, char_transform(fh * gh.conj(), f.params, axis=1, inverse=True))


def horiz_conv(f: GridFn, g: GridFn) -> GridFn:
    """(f hconv g)(w, y) = E_x f(x, y) conj(g(x - w, y)); rows fixed."""
    _check(f, g)
    fh = char_transform(f.values, f.params, axis=0)
    gh = char_transform(g.values, f.params, axis=0)
    return GridFn(f.params, char_transform(fh * gh.conj(), f.params, axis=0, inverse=True))


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


def arr_functional(f: GridFn) -> float:
    """Density of pairs of equal-shape parallelograms weighted by f.

    Equals |mixed_self(f)|_2^2; for f = 1_A this is the 4-arrangement density
    of A, i.e. the exact count divided by |G|^8.
    """
    m = mixed_self(f)
    return float((np.abs(m.values) ** 2).mean())


def arr2_exact(f: GridFn) -> float:
    """Second-order arrangement density, exactly.

    Stratifies the 32-point count over its 11 independent parameters: the
    inner mixed convolution tabulates the 3 free parameters of each of the 8
    parallelogram slots, and the outer pass runs over the 8 slot parameters.
    The second-order 4-arrangement count is |G|^32 times this value.
    """
    return arr_functional(mixed_self(f))


def sample_arrangement_points(
    params: GroupParams, order: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random arrangements; shape (m, 8, 2) or (m, 32, 2) of indices.

    Vertex j of a first-order arrangement takes the conjugation sign
    MORSE8[j]; vertex j of a second-order arrangement takes MORSE32[j].
    """
    N = params.size
    sub = params.sub
    if order == 1:
        x1, x2, w, y1, y1p, y2, y2p, h = rng.integers(0, N, size=(8, m), dtype=np.int64)
        cols = [
            (x1, y1),
            (x1, sub(y1, h)),
            (sub(x1, w), y1p),
            (sub(x1, w), sub(y1p, h)),
            (x2, y2),
            (x2, sub(y2, h)),
            (sub(x2, w), y2p),
            (sub(x2, w), sub(y2p, h)),
        ]
        return np.stack([np.stack(c, axis=-1) for c in cols], axis=1)
    if order == 2:
        W, H, u1, v1, v1p, u2, v2, v2p = rng.integers(0, N, size=(8, m), dtype=np.int64)
        slots = [
            (u1, v1),
            (u1, sub(v1, H)),
            (sub(u1, W), v1p),
            (sub(u1, W), sub(v1p, H)),
            (u2, v2),
            (u2, sub(v2, H)),
            (sub(u2, W), v2p),
            (sub(u2, W), sub(v2p, H)),
        ]
        out = np.empty((m, 32, 2), dtype=np.int64)
        for j, (a, b) in enumerate(slots):
            x, y, yp = rng.integers(0, N, size=(3, m), dtype=np.int64)
            quad = [
                (x, y),
                (x, sub(y, b)),
                (sub(x, a), yp),
                (sub(x, a), sub(yp, b)),
            ]
            for i, (cx, cy) in enumerate(quad):
                out[:, 4 * j + i, 0] = cx
                out[:, 4 * j + i, 1] = cy
        return out
    raise ValueError("order must be 1 or 2")


_MC_BLOCK = 8192


def sample_blocks(params: GroupParams, order: int, samples: int, seed: int):
    """Yield `samples` uniform arrangements (see sample_arrangement_points)
    in blocks of at most _MC_BLOCK.

    Block b draws from its own child stream SeedSequence([seed, b]), so the
    samples depend only on (seed, samples) and not on how blocks might be
    distributed over workers.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    for block, start in enumerate(range(0, samples, _MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
        yield sample_arrangement_points(params, order, min(_MC_BLOCK, samples - start), rng)


def arr2_estimate(f: GridFn, samples: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of arr2_exact over the 32 free parameters.

    Deterministic for a fixed seed (see sample_blocks).  Returns
    (estimate, stderr).
    """
    N = f.params.size
    flat = f.values.reshape(-1)
    conj_mask = MORSE32 < 0
    total = 0.0
    total_sq = 0.0
    for pts in sample_blocks(f.params, 2, samples, seed):
        vals = flat[pts[:, :, 0] * N + pts[:, :, 1]]
        vals[:, conj_mask] = vals[:, conj_mask].conj()
        prod = vals.prod(axis=1).real
        total += float(prod.sum())
        total_sq += float((prod**2).sum())
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    stderr = float(np.sqrt(var / samples))
    return mean, stderr


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
