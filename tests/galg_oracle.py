"""Reference implementations of the algebra-valued mixed convolution.

These are the direct dict-loop versions that `ulab.galg` replaced with its
character-stack route: each cell accumulates `dist_product(u, adjoint(v))`
over the matching points of one column or row.  Tests compare the library
against them; nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from ulab.galg import Dist, DistFn, adjoint, dist_product, grid_inner_dist
from ulab.grid import GridFn, arr_functional


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
    scaled = phi.scaled_by(mu)
    F = mixed_conv_dist(scaled, scaled, scaled, scaled)
    return 1.0 - grid_inner_dist(F, F) / denom


def gen_inner(phis) -> float:
    """Inner product of the mixed convolutions of two quadruples."""
    return grid_inner_dist(mixed_conv_dist(*phis[:4]), mixed_conv_dist(*phis[4:]))
