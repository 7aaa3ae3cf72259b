"""Group-algebra-valued functions and homomorphism-quality measurement.

An element of the group algebra of H = F_p^m is a sparse non-negative weight
map (`Dist`).  A weight map of total 1 is a distribution; the distance
between two distributions u, v is d(u, v) = total(u) total(v) - <u, v>,
which extends bilinearly to arbitrary non-negative elements.

Grid functions valued in the algebra (`DistFn`) support the same mixed
convolution as scalar grid functions, with conjugation replaced by the
adjoint.  It is computed through the characters of H: the character
transform turns the algebra product into a pointwise product and the
adjoint into conjugation, so a table becomes one (|H|, N, N) stack of
scalar grid functions, one per character, which the stacked kernels of
`ulab.grid` convolve in a single pass before it is transformed back.  By
Parseval over H the squared norm of the mixed convolution is the mean over
characters of the scalar arrangement functional; conjugate characters give
equal functionals, so one `arr_functional_stack` pass over one slice per
pair {s, -s} gives it.  For a point map on A the
character average keeps exactly the 4-arrangements in A whose Morse-signed
value sum vanishes, so that norm measures how close the map is to
respecting every 4-arrangement (`respected_density`, `bihom_defect`).

Functions on a line G -> Sigma(H) take the same route over G x H; one
batched kernel, `line_triple_conv`, forms theta = phi * phi * phi^adj, which
the pipeline's consensus rounding rounds by.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ulab.core import SIZE_CAP, GroupParams, char_transform
from ulab.grid import (
    GridFn,
    arr_functional,
    arr_functional_stack,
    mixed_conv_stack,
)

__all__ = [
    "Dist",
    "DistFn",
    "dist_product",
    "ddist",
    "mixed_conv_dist",
    "grid_inner_dist",
    "respected_density",
    "bihom_defect",
    "gen_inner",
    "line_triple_conv",
]

_TRUNC = 1e-15


@dataclass(frozen=True)
class Dist:
    """Sparse non-negative element of the group algebra of `params`."""

    params: GroupParams
    weights: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for w in self.weights.values():
            if w < 0:
                raise ValueError("negative weight %r" % w)

    @classmethod
    def delta(cls, params: GroupParams, g: int, w: float = 1.0) -> "Dist":
        return cls(params, {int(g) % params.size: float(w)})

    @classmethod
    def zero(cls, params: GroupParams) -> "Dist":
        return cls(params, {})

    @classmethod
    def from_dense(cls, params: GroupParams, vec: np.ndarray) -> "Dist":
        (support,) = np.nonzero(vec >= _TRUNC)
        return cls(params, {int(g): float(vec[g]) for g in support})

    def dense(self) -> np.ndarray:
        out = np.zeros(self.params.size)
        for g, w in self.weights.items():
            out[g] = w
        return out

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def inner(self, other: "Dist") -> float:
        a, b = self.weights, other.weights
        if len(b) < len(a):
            a, b = b, a
        return float(sum(w * b[g] for g, w in a.items() if g in b))


def dist_product(u: Dist, v: Dist) -> Dist:
    """(uv)(c) = sum_{a+b=c} u(a) v(b); totals multiply."""
    params = u.params
    if not u.weights or not v.weights:
        return Dist.zero(params)
    ka = np.fromiter(u.weights.keys(), dtype=np.int64)
    kb = np.fromiter(v.weights.keys(), dtype=np.int64)
    wa = np.fromiter(u.weights.values(), dtype=np.float64)
    wb = np.fromiter(v.weights.values(), dtype=np.float64)
    out = np.zeros(params.size)
    np.add.at(out, params.add(ka[:, None], kb[None, :]).ravel(), np.outer(wa, wb).ravel())
    return Dist.from_dense(params, out)


def ddist(u: Dist, v: Dist) -> float:
    return u.total() * v.total() - u.inner(v)


# ============================================================
# algebra-valued grid functions and their mixed convolution
# ============================================================


@dataclass(frozen=True)
class DistFn:
    """Sparse map (x, y) -> Dist; absent points are the zero element."""

    params: GroupParams  # domain group of each coordinate
    value_params: GroupParams  # group of the algebra the values live in
    table: dict[tuple[int, int], Dist] = field(default_factory=dict)

    @classmethod
    def from_point_map(
        cls, params: GroupParams, value_params: GroupParams, points: dict[tuple[int, int], int]
    ) -> "DistFn":
        # one delta per distinct value, shared by its points: no code mutates
        # a Dist's weights
        deltas: dict[int, Dist] = {}
        tab = {}
        for (x, y), g in points.items():
            g = int(g) % value_params.size
            u = deltas.get(g)
            if u is None:
                u = deltas[g] = Dist.delta(value_params, g)
            tab[int(x), int(y)] = u
        return cls(params, value_params, tab)


def _char_stack(phi: DistFn, mu: GridFn | None = None) -> np.ndarray:
    """hat[s, x, y] = sum_g mu(x, y) phi(x, y)(g) omega^{-s.g}, shape (|H|, N, N).

    This is `char_transform` over H = F_p^m on the leading value axis, times
    |H|, since that transform averages and this one sums.  Slice s is a
    scalar grid function; the algebra product becomes the pointwise product
    of slices and the adjoint becomes conjugation.  The weights reach the
    stack by one scatter of every (g, x, y, weight) entry of the table, and
    the transform runs in place.
    """
    N, vp = phi.params.size, phi.value_params
    hat = np.zeros((vp.size, N, N), dtype=np.complex128)
    entries = [(g, x, y, w) for (x, y), u in phi.table.items() for g, w in u.weights.items()]
    if entries:
        g, x, y, w = zip(*entries)
        hat[g, x, y] = w
    hat *= vp.size if mu is None else vp.size * np.maximum(mu.values.real, 0.0)
    return char_transform(hat, vp, axis=0, out=hat)


def _from_char_stack(params: GroupParams, vp: GroupParams, hat: np.ndarray) -> DistFn:
    """Inverse of _char_stack (`char_transform` inverse on the value axis,
    divided by |H|): back to weights, dropping cells with none left."""
    dense = char_transform(hat, vp, axis=0, inverse=True).real / vp.size
    cells = zip(*np.nonzero((dense >= _TRUNC).any(axis=0)))
    return DistFn(
        params, vp, {(int(x), int(y)): Dist.from_dense(vp, dense[:, x, y]) for x, y in cells}
    )


def _per_character(conv, *fns: DistFn) -> DistFn:
    """Apply a stacked scalar grid convolution to the character stacks of the inputs."""
    f = fns[0]
    if any(g.params != f.params or g.value_params != f.value_params for g in fns):
        raise ValueError("mismatched parameters")
    out = conv(*(_char_stack(g) for g in fns), f.params)
    return _from_char_stack(f.params, f.value_params, out)


def mixed_conv_dist(f1: DistFn, f2: DistFn, f3: DistFn, f4: DistFn) -> DistFn:
    """Column pass on (f1, f2) and (f3, f4), then a row pass across the two."""
    return _per_character(mixed_conv_stack, f1, f2, f3, f4)


def grid_inner_dist(F: DistFn, G: DistFn) -> float:
    """E_{w,h} <F(w,h), G(w,h)> with the plain-sum algebra inner product."""
    N2 = F.params.size ** 2
    keys = F.table.keys() & G.table.keys()
    return sum(F.table[k].inner(G.table[k]) for k in keys) / N2


def gen_inner(phis) -> float:
    """Inner product of the mixed convolutions of two quadruples."""
    if len(phis) != 8:
        raise ValueError("exactly eight functions required")
    return grid_inner_dist(mixed_conv_dist(*phis[:4]), mixed_conv_dist(*phis[4:]))


def respected_density(phi: DistFn, mu: GridFn | None = None) -> float:
    """|mixed_conv_dist(mu phi)|_2^2, as the mean over characters s of H of
    arr_functional(s-th character slice of mu phi) (Parseval over H).

    The weights are real, so slice -s is the conjugate of slice s, and the
    arrangement functional does not change under conjugation.  Of the
    (|H|, N, N) stack from `_char_stack`, one slice per pair {s, -s} goes
    through one stacked `arr_functional_stack` pass with weight 2, or 1
    where s = -s (s = 0, and every s when p = 2), and the weighted sum is
    divided by |H|.  For a point map phi on A and mu = 1_A (or no mu), the
    s-average keeps exactly the 4-arrangements in A whose Morse-signed value
    sum vanishes, so this is the respected-arrangement count divided by
    |G|^8.
    """
    vp = phi.value_params
    s = np.arange(vp.size)
    neg = vp.neg(s)
    keep = s <= neg
    weight = np.where(neg[keep] == s[keep], 1.0, 2.0)
    # the full stack is a temporary, freed once its kept slices are gathered
    return float(weight @ arr_functional_stack(_char_stack(phi, mu)[keep], phi.params) / vp.size)


def bihom_defect(phi: DistFn, mu: GridFn) -> float:
    """Smallest eta with |mixed_conv(mu phi)|_2^2 >= (1 - eta) |mixed_conv(mu)|_2^2.

    mu must be non-negative; a mu whose mixed convolution vanishes leaves the
    defect undefined and raises.
    """
    if np.any(mu.values.real < -1e-12) or np.max(np.abs(mu.values.imag)) > 1e-12:
        raise ValueError("mu must be non-negative real")
    denom = arr_functional(mu)
    if denom <= 0.0:
        raise ArithmeticError("mixed convolution of mu vanishes; defect undefined")
    return 1.0 - respected_density(phi, mu) / denom


# ============================================================
# the line kernel of consensus rounding
# ============================================================


def line_triple_conv(lines: np.ndarray, params: GroupParams, vp: GroupParams) -> np.ndarray:
    """theta[l, x] = E_{b1+b2-b3=x} phi_l(b1) phi_l(b2) phi_l(b3)* for dense (L, N, |H|) lines.

    This is phi * phi * phi^adj = phi * (phi * phi^adj)^adj.  Over G x H it
    is F^ F^ conj(F^), whose inverse is theta / |H|^2 since both transforms
    average; on graph indicators N^2 theta counts the voting triples.  Lines
    go through the transform in blocks of at most SIZE_CAP elements.
    """
    L, N, q = lines.shape
    theta = np.empty((L, N, q))
    block = max(1, SIZE_CAP // (N * q))
    for lo in range(0, L, block):
        hat = char_transform(char_transform(lines[lo : lo + block], params, axis=1), vp, axis=2)
        # rebound before the G pass, so neither F^ nor the product lives through it
        hat = char_transform(hat * hat * hat.conj(), vp, axis=2, inverse=True)
        theta[lo : lo + block] = char_transform(hat, params, axis=1, inverse=True).real * q**2
    return theta
