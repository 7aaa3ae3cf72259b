"""Arrangement counting, respect statistics, and dependent-random-selection
densification.

A 4-arrangement in G^2 is the 8-point configuration generated by the
parameters (x1, x2, w, y1, y1', y2, y2', h); a partial map respects it when
all 8 points lie in its domain and the Morse-signed value sum vanishes.
Second-order arrangements repeat the construction inside each of the 8
slots, giving 32 points signed by the length-32 Morse prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ulab.core import GroupParams, _add_table, _json_fields, _json_index, _json_params
from ulab.galg import DistFn, respected_density
from ulab.grid import MORSE8, MORSE32, GridFn, arr_functional, sample_blocks

__all__ = [
    "PartialMap",
    "ArrangementStats",
    "DensifyReport",
    "respect_stats",
    "densify",
    "row_freiman_filter",
    "partial_map_to_json",
    "partial_map_from_json",
]

_EXACT_CAP = 9


@dataclass(frozen=True)
class PartialMap:
    """A map defined on a subset of G^2 with values in a target group."""

    params: GroupParams
    value_params: GroupParams
    domain: np.ndarray  # bool (N, N)
    values: np.ndarray  # int64 (N, N), meaningful only where domain holds

    def __post_init__(self) -> None:
        N = self.params.size
        if self.domain.shape != (N, N) or self.values.shape != (N, N):
            raise ValueError("domain and values must both have shape (N, N)")

    @classmethod
    def from_points(
        cls,
        params: GroupParams,
        value_params: GroupParams,
        points: dict[tuple[int, int], int],
    ) -> "PartialMap":
        N = params.size
        dom = np.zeros((N, N), dtype=bool)
        vals = np.zeros((N, N), dtype=np.int64)
        for (x, y), g in points.items():
            dom[x, y] = True
            vals[x, y] = int(g) % value_params.size
        return cls(params, value_params, dom, vals)

    def density(self) -> float:
        return float(self.domain.mean())

    def restrict(self, mask: np.ndarray) -> "PartialMap":
        return PartialMap(self.params, self.value_params, self.domain & mask, self.values)

    def indicator(self) -> GridFn:
        return GridFn.from_mask(self.params, self.domain)

    def to_dist_fn(self) -> DistFn:
        xs, ys = np.nonzero(self.domain)
        pts = dict(zip(zip(xs.tolist(), ys.tolist()), self.values[xs, ys].tolist()))
        return DistFn.from_point_map(self.params, self.value_params, pts)


@dataclass(frozen=True)
class ArrangementStats:
    total: float
    respected: float
    order: int
    stderr: float
    mode: str
    samples: int = 0

    def __post_init__(self) -> None:
        if self.respected > self.total + 1e-9:
            raise ValueError("respected exceeds total")


def _mc_respect(
    phi: PartialMap, order: int, samples: int, seed: int
) -> tuple[float, float, float]:
    """Returns (total_ratio, respected_ratio, stderr of respected_ratio)."""
    N = phi.params.size
    vp = phi.value_params
    p, n = vp.p, vp.n
    signs = MORSE8 if order == 1 else MORSE32
    half = signs.size // 2  # vertices of each sign
    # Each point's code packs one bit field per value digit d into int64
    # words, d at a plus vertex and p - 1 - d at a minus one, and a last
    # field that is 1 off the domain.  Summed over a sample's vertices the
    # fields never carry: digit field j holds sum(s * d_j) + half * (p - 1),
    # below 2^width, and the last one counts the vertices off the domain.
    width = (2 * half * (p - 1)).bit_length()
    field = np.arange(n + 1)
    word, shift = field // (63 // width), width * (field % (63 // width))
    off = ~phi.domain.reshape(-1, 1)
    digits = np.where(off, 0, vp.digits(phi.values.reshape(-1)))
    fields = np.stack([np.hstack([digits, off]), np.hstack([np.where(off, 0, p - 1 - digits), off])])
    codes = np.zeros((2, word[-1] + 1, N * N), dtype=np.int64)
    for j in field:
        codes[:, word[j]] += fields[:, :, j] << shift[j]
    tot_sum = 0.0
    resp_sum = 0.0
    for m, vertices in sample_blocks(phi.params, order, samples, seed):
        acc = np.zeros((word[-1] + 1, m), dtype=np.int64)
        for s, (x, y) in zip(signs, vertices):
            acc += np.take(codes[int(s < 0)], x * N + y, axis=1)
        sums = (acc[word] >> shift[:, None]) & ((1 << width) - 1)
        inside = sums[n] == 0
        # sum(s * d_j) = 0 mod p  <=>  field j = half * (p - 1) = -half mod p
        resp = inside & ((sums[:n] + half) % p == 0).all(axis=0)
        tot_sum += float(np.count_nonzero(inside))
        resp_sum += float(np.count_nonzero(resp))
    tot_ratio = tot_sum / samples
    resp_ratio = resp_sum / samples
    # resp is 0/1, so its sum of squares is resp_sum
    var = max(resp_sum / samples - resp_ratio**2, 0.0)
    return tot_ratio, resp_ratio, float(np.sqrt(var / samples))


def respect_stats(
    phi: PartialMap,
    order: int = 1,
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> ArrangementStats:
    """Count (or estimate) the 4-arrangements inside the domain and the
    respected ones among them.

    Exact mode (order 1 only) evaluates total / |G|^8 = arr_functional(1_A)
    and respected / |G|^8 as the mean over characters s of the value group
    of arr_functional(1_A omega^{-s.phi}) (galg.respected_density, one
    stacked pass over all characters), then rounds both to integers.  Both
    are float ratios scaled by |G|^8, so the mode is limited to |G| <= 9 and
    raises if either does not round cleanly.
    Monte Carlo mode draws seeded blocks of arrangements at either order
    (grid.sample_blocks) and counts them one vertex at a time: each vertex
    gathers one packed code per point (int64 words with a bit field per
    value digit, signed by the vertex's Morse sign, and one for being off
    the domain) and adds it to a per-sample accumulator.  The fields never
    carry, so no table of the value group is read: a sample is inside when
    its off-domain field is 0 and respected when, besides, every digit
    field is the Morse offset mod p.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    params = phi.params
    N = params.size
    if mode == "exact":
        if order != 1:
            raise ValueError("exact mode supports order 1 only")
        if N > _EXACT_CAP:
            raise ValueError("exact mode limited to |G| <= %d" % _EXACT_CAP)
        total_ratio = arr_functional(phi.indicator())
        resp_ratio = respected_density(phi.to_dist_fn())
        scale = float(N) ** 8
        total = round(total_ratio * scale)
        resp = round(resp_ratio * scale)
        if abs(total - total_ratio * scale) > 1e-6 * scale or abs(
            resp - resp_ratio * scale
        ) > 1e-6 * scale:
            raise ArithmeticError("exact arrangement count did not round cleanly")
        return ArrangementStats(float(total), float(resp), 1, 0.0, "exact")
    if mode == "mc":
        tot_ratio, resp_ratio, se = _mc_respect(phi, order, samples, seed)
        # 8 free parameters at order 1; 8 outer + 24 inner at order 2.
        scale = float(N) ** (8 if order == 1 else 32)
        return ArrangementStats(
            tot_ratio * scale, resp_ratio * scale, order, se * scale, "mc", samples
        )
    raise ValueError("mode must be 'exact' or 'mc'")


# ============================================================
# densification by dependent random selection
# ============================================================


@dataclass(frozen=True)
class DensifyReport:
    k: int
    retries_used: int
    criterion: float  # respected_ratio - eta^{-1} violated_ratio at the winner
    stats: ArrangementStats
    reference_k: int
    kept_points: int
    attempts: list = field(default_factory=list)


def _riesz_select(
    phi: PartialMap, k: int, rng: np.random.Generator
) -> np.ndarray:
    """One dependent random selection: keep (x,y) with probability
    2^{-k} prod_i (1 + cos(2 pi / p (s_i . phi(x,y) + x . M_i y)))."""
    params, vp = phi.params, phi.value_params
    p = params.p
    N = params.size
    xs, ys = np.nonzero(phi.domain)
    if k == 0:
        return phi.domain.copy()
    prob = np.ones(len(xs))
    dx = params.digits(xs.astype(np.int64))
    dy = params.digits(ys.astype(np.int64))
    vals = phi.values[xs, ys]
    for _ in range(k):
        s = int(rng.integers(vp.size))
        M = rng.integers(0, p, size=(params.n, params.n))
        lin = vp.dot(np.full(len(xs), s, dtype=np.int64), vals)
        bil = np.einsum("ms,st,mt->m", dx, M, dy) % p
        theta = 2 * np.pi * ((lin + bil) % p) / p
        prob *= (1 + np.cos(theta)) / 2
    keep = rng.random(len(xs)) < prob
    mask = np.zeros_like(phi.domain)
    mask[xs[keep], ys[keep]] = True
    return mask


def densify(
    phi: PartialMap,
    eta_target: float,
    seed: int = 0,
    k: int | None = None,
    retries: int = 6,
    samples: int = 20_000,
    k_max: int = 6,
) -> tuple[PartialMap, DensifyReport]:
    """Dependent random selection towards a subset whose second-order respect
    ratio beats the X - eta^{-1} Y criterion.

    With k unset, tries k = 0, 1, ... and stops at the first k whose best
    attempt meets the criterion; otherwise uses the given k.  The winning
    attempt overall is returned even if no attempt meets the criterion, but
    an all-empty outcome raises with diagnostics.
    """
    if eta_target <= 0:
        raise ValueError("eta_target must be positive")
    if phi.value_params.p != phi.params.p:
        raise ValueError("selection phases need matching characteristic on both groups")
    inv_eta = 1.0 / eta_target
    delta = max(phi.density(), 1.0 / phi.params.size ** 2)
    reference_k = int(np.ceil(2**32 * (np.log(1 / eta_target) + np.log(1 / delta))))
    ks = [k] if k is not None else list(range(k_max + 1))
    best = None  # (criterion, resp_ratio, kept, mask, stats, k, attempt)
    attempts = []
    attempt_idx = 0
    for kk in ks:
        for r in range(retries if kk > 0 else 1):
            rng = np.random.default_rng(np.random.SeedSequence([seed, kk, r]))
            mask = _riesz_select(phi, kk, rng)
            kept = int(mask.sum())
            attempt_idx += 1
            if kept == 0:
                attempts.append({"k": kk, "retry": r, "kept": 0, "criterion": None})
                continue
            sub = phi.restrict(mask)
            stats = respect_stats(sub, order=2, mode="mc", samples=samples, seed=seed + attempt_idx)
            scale = float(phi.params.size) ** 32
            x_ratio = stats.respected / scale
            y_ratio = (stats.total - stats.respected) / scale
            crit = x_ratio - inv_eta * y_ratio
            attempts.append({"k": kk, "retry": r, "kept": kept, "criterion": crit})
            # A zero total estimate certifies nothing, so such a candidate
            # never outranks one whose criterion was actually measured.
            measured = stats.total > 0
            key = (
                measured and crit >= 0,
                crit if measured else float("-inf"),
                x_ratio,
                kept,
            )
            cand = (key, crit, mask, stats, kk, r, kept)
            if best is None or cand[0] > best[0]:
                best = cand
        if best is not None and best[0][0]:
            break
    if best is None:
        raise RuntimeError(
            "densify: every selection emptied the domain; attempts: %r" % attempts
        )
    _, crit, mask, stats, kk, r, kept = best
    report = DensifyReport(kk, r + 1, crit, stats, reference_k, kept, attempts)
    return phi.restrict(mask), report


# ============================================================
# per-row Freiman filtering
# ============================================================


def row_freiman_filter(phi: PartialMap) -> PartialMap:
    """Greedy maximal subset of each row on which the row map is a Freiman
    homomorphism.

    Each row visits its points in index order; a point joins the row if
    none of the pair sums it creates conflicts with an existing pair-sum
    value.  The pair sums y + y' of one candidate y are distinct, so its new
    entries never conflict with each other, and every row decides its point
    in column y at once: one step per column, with the pair sums and their
    values read from the Cayley tables of both groups.
    """
    params, vp = phi.params, phi.value_params
    N = params.size
    add_d = _add_table(params.p, params.n)
    # built per call, not cached: a value group can be far larger than G
    vidx = np.arange(vp.size, dtype=np.int64)
    add_v = vp.add(vidx[:, None], vidx[None, :])
    domain = phi.domain
    values = np.where(domain, phi.values, 0)
    keep = np.zeros_like(domain)
    sums = np.full((N, N), -1, dtype=np.int64)  # value at each row's pair sum, -1 where unset
    for y in range(N):
        rows = np.nonzero(domain[:, y])[0]
        if rows.size == 0:
            continue
        keep[rows, y] = True
        chosen = keep[rows, : y + 1]
        at = rows[:, None] * N + add_d[y, : y + 1]
        new = add_v[values[rows, y, None], values[rows, : y + 1]]
        seen = np.take(sums, at)
        fits = ((seen < 0) | (seen == new) | ~chosen).all(axis=1)
        keep[rows[~fits], y] = False
        np.put(sums, at[fits], np.where(chosen[fits], new[fits], seen[fits]))
    return phi.restrict(keep)


# ============================================================
# serialization
# ============================================================


def partial_map_to_json(phi: PartialMap) -> dict:
    pts = [
        {"x": int(x), "y": int(y), "v": int(phi.values[x, y])}
        for x, y in zip(*np.nonzero(phi.domain))
    ]
    pts.sort(key=lambda e: (e["x"], e["y"]))
    return {
        "p": phi.params.p,
        "n": phi.params.n,
        "value_p": phi.value_params.p,
        "value_n": phi.value_params.n,
        "points": pts,
    }


def partial_map_from_json(data: dict) -> PartialMap:
    params = _json_params(data, "partial map")
    vp = _json_params(
        {"p": data.get("value_p", params.p), "n": data.get("value_n", params.n)},
        "partial map value group",
    )
    (points,) = _json_fields(data, "partial map", "points")
    if not isinstance(points, list):
        raise ValueError("partial map 'points' must be a list")
    N = params.size
    pts = {}
    for e in points:
        x, y, v = _json_fields(e, "partial-map point", "x", "y", "v")
        key = (_json_index(x, N, "point x"), _json_index(y, N, "point y"))
        pts[key] = _json_index(v, vp.size, "point value v")
    return PartialMap.from_points(params, vp, pts)
