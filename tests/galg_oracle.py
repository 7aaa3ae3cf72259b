"""Reference implementations of the algebra-valued convolutions.

These are the direct dict-loop versions that `ulab.galg` replaced with its
character-stack route.  In the mixed convolution each cell accumulates
`dist_product(u, adjoint(v))` over the matching points of one column or
row, with `adjoint` the pointwise u*(a) = u(-a); on a line, `line_conv`
makes N^2 `dist_product` calls, and two of them with `line_adjoint` give
the theta = phi * phi * phi^adj that `ulab.galg.line_triple_conv` forms
through characters.  `respected_density` is the character route
before it was stacked: one `arr_functional` per character slice, each the
mean of |mixed_self|^2 with its final inverse transform taken, where
`ulab.galg.respected_density` now makes one `ulab.grid.arr_functional_stack`
pass over all slices.  `uniform`, `scale`, `is_distribution` and
`scaled_by` are `Dist` and `DistFn` helpers that only tests use.  Tests
compare the library against them; nothing in the package imports this
module.
"""

from __future__ import annotations

import numpy as np

from ulab.core import GroupParams, char_transform
from ulab.galg import Dist, DistFn, dist_product, grid_inner_dist
from ulab.grid import GridFn, mixed_self


def uniform(params: GroupParams) -> Dist:
    """The uniform distribution on the group."""
    w = 1.0 / params.size
    return Dist(params, {g: w for g in range(params.size)})


def scale(u: Dist, c: float) -> Dist:
    """c u for a non-negative c."""
    if c == 0.0:
        return Dist.zero(u.params)
    if c < 0:
        raise ValueError("scale factor must be non-negative")
    return Dist(u.params, {g: w * c for g, w in u.weights.items()})


def is_distribution(u: Dist) -> bool:
    """Whether u has total weight 0 or 1, within 1e-12."""
    t = u.total()
    return t == 0.0 or abs(t - 1.0) <= 1e-12


def scaled_by(phi: DistFn, mu: GridFn) -> DistFn:
    """Pointwise scaling by a non-negative scalar grid function."""
    vals = mu.values.real
    tab = {}
    for (x, y), u in phi.table.items():
        c = float(vals[x, y])
        if c > 0:
            tab[(x, y)] = scale(u, c)
    return DistFn(phi.params, phi.value_params, tab)


def adjoint(u: Dist) -> Dist:
    """u*(a) = u(-a); weights are real so conjugation is trivial."""
    neg = u.params.neg
    return Dist(u.params, {int(neg(np.int64(g))): w for g, w in u.weights.items()})


def line_adjoint(phi: list[Dist], params: GroupParams) -> list[Dist]:
    """phi*(x) = phi(-x)*."""
    neg = params.neg
    return [adjoint(phi[int(neg(np.int64(x)))]) for x in range(params.size)]


def vert_conv_dist(f: DistFn, g: DistFn) -> DistFn:
    """(x, h) -> E_y f(x, y) g(x, y - h)*; the algebra-valued column pass."""
    if f.params != g.params or f.value_params != g.value_params:
        raise ValueError("mismatched parameters")
    sub = f.params.sub
    vp = f.value_params
    N = f.params.size
    acc: dict[tuple[int, int], np.ndarray] = {}
    g_by_x: dict[int, list[tuple[int, Dist]]] = {}
    for (x, y), v in g.table.items():
        if v.weights:
            g_by_x.setdefault(x, []).append((y, adjoint(v)))
    for (x, y1), u in f.table.items():
        if not u.weights:
            continue
        for y2, vstar in g_by_x.get(x, ()):  # same column only
            h = int(sub(np.int64(y1), np.int64(y2)))
            prod = dist_product(u, vstar)
            cell = acc.get((x, h))
            if cell is None:
                cell = acc[(x, h)] = np.zeros(vp.size)
            for c, w in prod.weights.items():
                cell[c] += w
    tab = {k: Dist.from_dense(vp, vec / N) for k, vec in acc.items()}
    return DistFn(f.params, vp, {k: d for k, d in tab.items() if d.weights})


def horiz_conv_dist(f: DistFn, g: DistFn) -> DistFn:
    """(w, y) -> E_x f(x, y) g(x - w, y)*; the algebra-valued row pass."""
    if f.params != g.params or f.value_params != g.value_params:
        raise ValueError("mismatched parameters")
    sub = f.params.sub
    vp = f.value_params
    N = f.params.size
    acc: dict[tuple[int, int], np.ndarray] = {}
    g_by_y: dict[int, list[tuple[int, Dist]]] = {}
    for (x, y), v in g.table.items():
        if v.weights:
            g_by_y.setdefault(y, []).append((x, adjoint(v)))
    for (x1, y), u in f.table.items():
        if not u.weights:
            continue
        for x2, vstar in g_by_y.get(y, ()):  # same row only
            w0 = int(sub(np.int64(x1), np.int64(x2)))
            prod = dist_product(u, vstar)
            cell = acc.get((w0, y))
            if cell is None:
                cell = acc[(w0, y)] = np.zeros(vp.size)
            for c, w in prod.weights.items():
                cell[c] += w
    tab = {k: Dist.from_dense(vp, vec / N) for k, vec in acc.items()}
    return DistFn(f.params, vp, {k: d for k, d in tab.items() if d.weights})


def mixed_conv_dist(f1: DistFn, f2: DistFn, f3: DistFn, f4: DistFn) -> DistFn:
    """Column pass on (f1, f2) and (f3, f4), then a row pass across the two."""
    return horiz_conv_dist(vert_conv_dist(f1, f2), vert_conv_dist(f3, f4))


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
    scaled = scaled_by(phi, mu)
    F = mixed_conv_dist(scaled, scaled, scaled, scaled)
    return 1.0 - grid_inner_dist(F, F) / denom


def arr_functional(f: GridFn) -> float:
    """|mixed_self(f)|_2^2, from the mixed convolution itself."""
    return float((np.abs(mixed_self(f).values) ** 2).mean())


def respected_density(phi: DistFn, mu: GridFn | None = None) -> float:
    """Mean over characters s of H of arr_functional(s-th character slice of
    mu phi), one slice at a time."""
    N, vp = phi.params.size, phi.value_params
    dense = np.zeros((N, N, vp.size))
    for (x, y), u in phi.table.items():
        for g, w in u.weights.items():
            dense[x, y, g] = w
    if mu is not None:
        dense *= np.maximum(mu.values.real, 0.0)[:, :, None]
    hat = char_transform(dense, vp, axis=2) * vp.size
    K = hat.shape[2]
    return sum(arr_functional(GridFn(phi.params, hat[..., s])) for s in range(K)) / K


def gen_inner(phis) -> float:
    """Inner product of the mixed convolutions of two quadruples."""
    return grid_inner_dist(mixed_conv_dist(*phis[:4]), mixed_conv_dist(*phis[4:]))


def line_conv(phi: list[Dist], psi: list[Dist], params: GroupParams) -> list[Dist]:
    """(phi * psi)(x) = E_{u+v=x} phi(u) psi(v)."""
    N = params.size
    sub = params.sub
    vp = phi[0].params
    out = []
    for x in range(N):
        acc = np.zeros(vp.size)
        for u in range(N):
            prod = dist_product(phi[u], psi[int(sub(np.int64(x), np.int64(u)))])
            for c, w in prod.weights.items():
                acc[c] += w
        out.append(Dist.from_dense(vp, acc / N))
    return out
