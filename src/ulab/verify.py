"""Cross-module invariant checks: each check draws seeded random inputs,
measures one identity or inequality of a module and reports the worst
violation it saw.  `verify_suite` runs them; `ulab verify` prints them."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arrange import PartialMap, densify, row_freiman_filter
from .bilinear import BiAffineMap, bogolyubov_bilinear, bohr_decompose
from .core import GroupFn, GroupParams, PolyPhase, dft, idft, poly_phase_fn
from .galg import Dist, DistFn, ddist, dist_product, gen_inner
from .gowers import uk_norm
from .grid import GridFn, arr_functional, mixed_conv, mixed_self
from .trilinear import TrilinearForm, quad_phase_search

__all__ = ["CheckResult", "verify_suite"]


@dataclass
class CheckResult:
    module: str
    name: str
    ok: bool
    measured: str
    seconds: float


def _random_group_fn(params: GroupParams, rng: np.random.Generator, bounded: bool = True) -> GroupFn:
    v = rng.standard_normal(params.size) + 1j * rng.standard_normal(params.size)
    if bounded:
        v /= np.maximum(np.abs(v), 1.0)
    return GroupFn(params, v)


def _random_grid_fn(params: GroupParams, rng: np.random.Generator, bounded: bool = True) -> GridFn:
    N = params.size
    v = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    if bounded:
        v /= np.maximum(np.abs(v), 1.0)
    return GridFn(params, v)


def _random_dist(params: GroupParams, rng: np.random.Generator) -> Dist:
    w = rng.random(params.size)
    return Dist.from_dense(params, w / w.sum())


def _check_core_parseval(seed: int, inject_fault: str | None) -> tuple[bool, str]:
    params = GroupParams(5, 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = _random_group_fn(params, rng, bounded=False)
        fh = dft(f).values.copy()
        if inject_fault == "dft":
            fh[0] += 1e-3
        lhs = float(np.sum(np.abs(fh) ** 2))
        rhs = float(np.mean(np.abs(f.values) ** 2))
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, "max Parseval gap %.3e over 20 draws" % worst


def _check_core_inversion(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f = _random_group_fn(params, rng, bounded=False)
        back = idft(dft(f))
        worst = max(worst, float(np.max(np.abs(back.values - f.values))))
    return worst < 1e-10, "max inversion error %.3e over 20 draws" % worst


def _check_core_characters(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 2)
    worst = 0.0
    x = np.arange(params.size, dtype=np.int64)
    dx = params.digits(x)
    for r in range(params.size):
        # the transform of the character at frequency r is a delta at r
        dr = params.digits(np.asarray([r], dtype=np.int64))[0]
        chi = GroupFn(params, np.exp(2j * np.pi * (dx @ dr % params.p) / params.p))
        spec = dft(chi).values
        expect = np.zeros(params.size, dtype=np.complex128)
        expect[r] = 1.0
        worst = max(worst, float(np.max(np.abs(spec - expect))))
    return worst < 1e-10, "max character-delta error %.3e over all frequencies" % worst


def _check_gowers_nesting(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        f = _random_group_fn(params, rng)
        u2 = uk_norm(f, 2).value
        u3 = uk_norm(f, 3).value
        u4 = uk_norm(f, 4).value
        worst = max(worst, u2 - u3, u3 - u4, u4 - 1.0)
    return worst < 1e-9, "max nesting violation %.3e over 10 draws" % worst


def _check_gowers_spectral(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        f = _random_group_fn(params, rng)
        u2 = uk_norm(f, 2).value
        l4 = float(np.sum(np.abs(dft(f).values) ** 4)) ** 0.25
        worst = max(worst, abs(u2 - l4))
    return worst < 1e-9, "max second-norm spectral gap %.3e over 10 draws" % worst


def _check_galg_gencs(seed: int) -> tuple[bool, str]:
    params = GroupParams(3, 1)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(30):
        phis = []
        for _ in range(8):
            pts = {
                (x, y): int(rng.integers(3))
                for x in range(3)
                for y in range(3)
                if rng.random() < 0.7
            }
            phis.append(DistFn.from_point_map(params, params, pts))
        cross = gen_inner(phis)
        bound = 1.0
        for fn in phis:
            bound *= max(gen_inner([fn] * 8), 0.0) ** (1 / 8)
        worst = max(worst, cross - bound)
    return worst < 1e-9, "max Cauchy-Schwarz excess %.3e over 30 tuples" % worst


def _check_galg_triangle(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(1000):
        a, b, c = (_random_dist(params, rng) for _ in range(3))
        worst = max(worst, ddist(a, c) - ddist(a, b) - ddist(b, c))
    return worst < 1e-12, "max triangle excess %.3e over 1000 draws" % worst


def _check_galg_split(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(1000):
        p1, p2, p3, p4 = (_random_dist(params, rng) for _ in range(4))
        lhs = ddist(dist_product(p1, p2), dist_product(p3, p4))
        worst = max(worst, lhs - ddist(p1, p3) - ddist(p2, p4))
    return worst < 1e-12, "max split excess %.3e over 1000 draws" % worst


def _check_galg_cancellation(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    checked = 0
    for _ in range(1000):
        g = int(rng.integers(5))
        base = Dist.delta(params, g).dense()
        na, nb = rng.random(5), rng.random(5)
        a = Dist.from_dense(params, 0.8 * base + 0.2 * na / na.sum())
        b = Dist.from_dense(params, 0.75 * base + 0.25 * nb / nb.sum())
        if ddist(a, b) > 0.5:
            continue
        w = _random_dist(params, rng)
        worst = max(worst, ddist(a, b) - ddist(dist_product(a, w), dist_product(b, w)))
        checked += 1
    ok = worst < 1e-12 and checked >= 100
    return ok, "max cancellation excess %.3e over %d concentrated pairs" % (worst, checked)


def _check_grid_manyarrangements(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    params = GroupParams(3, 1)
    worst = -math.inf
    for _ in range(50):
        mask = rng.random((3, 3)) < rng.random()
        fn = GridFn.from_mask(params, mask)
        worst = max(worst, fn.norm_l1() ** 8 - arr_functional(fn))
    return worst < 1e-12, "max arrangement-count shortfall %.3e over 50 draws" % worst


def _check_grid_simplebound(seed: int) -> tuple[bool, str]:
    params = GroupParams(3, 1)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(100):
        fns = [_random_grid_fn(params, rng) for _ in range(4)]
        m = mixed_conv(*fns)
        bound = max(fn.norm_l2() for fn in fns)
        worst = max(worst, m.norm_l2() - bound)
    return worst < 1e-9, "max mixed-convolution norm excess %.3e over 100 tuples" % worst


def _check_grid_columndecay(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    params = GroupParams(3, 1)
    worst = -math.inf
    for _ in range(20):
        fn = _random_grid_fn(params, rng)
        m = mixed_self(fn)
        for x in range(params.size):
            l1 = float(np.abs(dft(m.row(x)).values).sum())
            worst = max(worst, l1 - 1.0)
    return worst < 1e-9, "max row-transform mass excess %.3e over 20 draws" % worst


def _check_arrange_rowfilter(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    pts = {(a, b): (2 * a * b + 3 * b + 1) % 5 for a in range(5) for b in range(5)}
    phi = PartialMap.from_points(params, params, pts)
    kept = row_freiman_filter(phi).density() / phi.density()
    return abs(kept - 1.0) < 1e-12, "affine rows kept fraction %.4f" % kept


def _check_arrange_densify(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    pts = {(a, b): (a * b) % 5 for a in range(5) for b in range(5)}
    phi = PartialMap.from_points(params, params, pts)
    phi2, rep = densify(phi, eta_target=0.05, seed=seed)
    ok = rep.criterion >= 0.95 and phi2.density() > 0
    return ok, "densify criterion %.4f at k = %d" % (rep.criterion, rep.k)


def _check_bilinear_cover(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    mu = GridFn.constant(params, 1.0)
    beta, rep = bogolyubov_bilinear(mu, 0.15)
    ok = rep.error <= 0.15 + 1e-9 and not rep.budget_exhausted
    return ok, "cover error %.3e with k = %d, m = %d" % (rep.error, rep.k, rep.m)


def _check_bilinear_cells(seed: int) -> tuple[bool, str]:
    params = GroupParams(5, 1)
    beta = BiAffineMap.bilinear(params, np.ones((1, 1, 1), dtype=np.int64))
    dec = bohr_decompose(beta, 2)
    cells = np.unique(dec.cell_index()).size
    ok = cells > 0 and dec.certified_rank >= dec.rank_certificate
    return ok, "%d cells of certified rank %s at threshold %d" % (
        cells, dec.certified_rank, dec.rank_certificate
    )


def _check_trilinear_box(seed: int) -> tuple[bool, str]:
    from .trilinear import box3_criterion

    params = GroupParams(5, 1)
    tau = TrilinearForm.diagonal(params)
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(10):
        u, v, w = (_random_grid_fn(params, rng) for _ in range(3))
        ok = ok and box3_criterion(tau, u, v, w)
    return ok, "rank-decay bound held on 10 random bounded grids"


def _check_trilinear_quadsearch(seed: int) -> tuple[bool, str]:
    # the F_3^2 phase has a cross term and different coefficients on x_0 and
    # x_1, so a slip in the digit order of either part is caught
    planted = [
        PolyPhase.from_coeffs(GroupParams(5, 1), {(0, 0): 3, (0,): 2}),
        PolyPhase.from_coeffs(GroupParams(3, 2), {(0, 0): 1, (0, 1): 2, (0,): 1, (1,): 2}),
    ]
    corrs = []
    ok = True
    for q in planted:
        found, corr = quad_phase_search(poly_phase_fn(q))
        ok = ok and dict(found.terms) == dict(q.terms) and abs(corr - 1.0) < 1e-9
        corrs.append(corr)
    return ok, "recovered the planted quadratics on F_5 and F_3^2 with correlations %s" % (
        ", ".join("%.6f" % c for c in corrs)
    )


_CHECKS = [
    ("core", "parseval", _check_core_parseval),
    ("core", "inversion", _check_core_inversion),
    ("core", "characters", _check_core_characters),
    ("gowers", "nesting", _check_gowers_nesting),
    ("gowers", "spectral", _check_gowers_spectral),
    ("galg", "cauchy_schwarz", _check_galg_gencs),
    ("galg", "triangle", _check_galg_triangle),
    ("galg", "split", _check_galg_split),
    ("galg", "cancellation", _check_galg_cancellation),
    ("grid", "manyarrangements", _check_grid_manyarrangements),
    ("grid", "simplebound", _check_grid_simplebound),
    ("grid", "columndecay", _check_grid_columndecay),
    ("arrange", "rowfilter", _check_arrange_rowfilter),
    ("arrange", "densify", _check_arrange_densify),
    ("bilinear", "cover", _check_bilinear_cover),
    ("bilinear", "cells", _check_bilinear_cells),
    ("trilinear", "box", _check_trilinear_box),
    ("trilinear", "quadsearch", _check_trilinear_quadsearch),
]


def verify_suite(
    seed: int = 0, only: str | None = None, inject_fault: str | None = None
) -> list[CheckResult]:
    """Run the cross-module invariant checks with a fixed seed.

    `only` filters by module name; `inject_fault` deliberately corrupts the
    named computation (currently "dft") so the corresponding check must fail,
    demonstrating the suite has teeth.
    """
    results = []
    for module, name, fn in _CHECKS:
        if only is not None and module != only:
            continue
        t0 = time.perf_counter()
        if fn is _check_core_parseval:
            ok, measured = fn(seed, inject_fault)
        else:
            ok, measured = fn(seed)
        results.append(CheckResult(module, name, ok, measured, time.perf_counter() - t0))
    if only is not None and not results:
        raise ValueError("no checks for module %r" % only)
    return results
