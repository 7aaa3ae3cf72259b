"""Reference implementations of the Monte-Carlo arrangement sampler and its
consumer.

`sample_arrangement_points` materialises each block as an (m, 8, 2) or
(m, 32, 2) array of vertex indices built by `GroupParams.sub`, and
`_mc_respect` gathers from it, forming the Morse-signed value sum by 32
passes of group arithmetic (`_signed_value_sum`).  `ulab.grid.sample_blocks`
replaced this with vertices formed by gathers from the cached subtraction
table and consumed one at a time, from the same draws of the same per-block
streams, so the library must reproduce these numbers exactly.  Nothing in
the package imports this module.
"""

from __future__ import annotations

import numpy as np

from ulab.arrange import PartialMap
from ulab.core import GroupParams
from ulab.grid import _MC_BLOCK, MORSE8, MORSE32


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


def _signed_value_sum(phi: PartialMap, px: np.ndarray, py: np.ndarray, signs) -> np.ndarray:
    """Morse-signed sum of phi values at the given points, in the value group."""
    vp = phi.value_params
    acc = np.zeros(px.shape[0], dtype=np.int64)
    for j, s in enumerate(signs):
        v = phi.values[px[:, j], py[:, j]]
        acc = vp.add(acc, v) if s > 0 else vp.sub(acc, v)
    return acc


def _mc_respect(
    phi: PartialMap, order: int, samples: int, seed: int
) -> tuple[float, float, float]:
    """Returns (total_ratio, respected_ratio, stderr of respected_ratio)."""
    signs = MORSE8 if order == 1 else MORSE32
    tot_sum = 0.0
    resp_sum = 0.0
    resp_sq = 0.0
    for pts in sample_blocks(phi.params, order, samples, seed):
        px, py = pts[:, :, 0], pts[:, :, 1]
        inside = phi.domain[px, py].all(axis=1)
        zero = _signed_value_sum(phi, px, py, signs) == 0
        resp = (inside & zero).astype(np.float64)
        tot_sum += float(inside.sum())
        resp_sum += float(resp.sum())
        resp_sq += float((resp**2).sum())
    tot_ratio = tot_sum / samples
    resp_ratio = resp_sum / samples
    var = max(resp_sq / samples - resp_ratio**2, 0.0)
    return tot_ratio, resp_ratio, float(np.sqrt(var / samples))
