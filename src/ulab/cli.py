"""Command-line interface and the end-to-end cubic-phase recovery pipeline.

The pipeline takes a bounded function on F_p^n whose fourth uniformity norm
clears a configured threshold and walks it down to an explicit cubic phase
polynomial it correlates with:

1.  gate        - measure the fourth uniformity norm.
2.  peaks       - for every (a, b), locate the dominant frequency of the
                  second multiplicative derivative, keeping pairs whose peak
                  clears the spectrum floor; this yields a partial map on G^2.
                  Both stages read the same spectra |(d_{a,b} f)^(r)|, so
                  they share one pass over them, made and timed in the gate;
                  a gate halt still comes before peaks is recorded.
3.  densify     - restrict rows to their largest affinely-consistent piece,
                  then prune to a quantitatively dense sub-map.
4.  defect      - measure how far the map is from a bi-homomorphism via the
                  mixed-convolution mass it retains.
5.  cover       - run the bilinear Bogolyubov argument on the domain
                  indicator, producing a bi-affine map of bounded codomain.
6.  cells       - peel low-rank combinations to get a Bohr-type cell
                  decomposition with certified-rank cells; restrict the map
                  to its best-populated cell.
7.  rounding    - consensus-round each value from the affine line votes of
                  its row and column, measuring the vote stability.  The
                  vote histograms of all rows and columns are exact counts
                  made through characters of G x H, one batched
                  `core.char_transform` per block of lines; ties go to the
                  lowest value.
8.  extend      - fit an exact bi-affine model on the rounded data and
                  verify, exhaustively in both variables, that the extension
                  to all of G^2 is affine in each argument.  Each of the
                  fit's row selections is one elimination pass over the
                  design rows, and one row reduction solves every digit.
9.  backfit     - split the fitted model into its bilinear part and
                  per-variable corrections, linearize the corrections by
                  exhaustive affine search, and measure how much of the
                  original peak map the combination explains.
10. symmetry    - measure the correlation of the derivative family against
                  the trilinear form of the bilinear part, symmetrize the
                  form, and bound the asymmetry ranks.
11. cubic       - integrate the symmetric form sigma to the cubic phase
                  kappa(x) = sigma(x,x,x) and certify by polarisation that
                  its third difference is -6 sigma: kappa is homogeneous
                  cubic, so that difference does not depend on x, and one
                  O(n^3) comparison of coefficients proves it everywhere;
                  divide kappa out and certify the remainder's third
                  uniformity norm by the box lower bound.
12. quadratic   - exhaustively locate the best quadratic phase for the
                  remainder and report the full cubic polynomial together
                  with its correlation against the input.  One character
                  transform per quadratic part scores every linear part;
                  ties within 1e-12 go to the lexicographically first
                  candidate.

Every stage records its measurements; any measured quantity falling below
its configured floor halts the run with diagnostics rather than continuing
on meaningless data, and a kernel that refuses its size budget halts the
run in the "budget" category at the running stage.  Each recorded or
halted stage logs one INFO line on the "ulab" logger.  Reports are
deterministic for a fixed configuration, excluding wall-clock fields.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from .arrange import (
    PartialMap,
    densify,
    partial_map_from_json,
    respect_stats,
    row_freiman_filter,
)
from .bilinear import (
    BiAffineMap,
    biaffine_from_json,
    biaffine_to_json,
    bogolyubov_bilinear,
    bohr_decompose,
)
from .core import (
    SIZE_CAP,
    BudgetError,
    GroupFn,
    GroupParams,
    PolyPhase,
    _is_prime,
    _json_fields,
    char_transform,
    correlation,
    dft,
    gf_rowreduce,
    group_fn_from_json,
    idft,
    inv_mod,
    poly_phase_fn,
)
from .galg import Dist, DistFn, bihom_defect, ddist, dist_product, gen_inner
# derivative2 is not called here; it stays importable from ulab.cli because
# bench/tests/test_tracer.py checks that the tracer wraps this copied binding
from .gowers import (  # noqa: F401
    derivative2,
    derivative2_spectra,
    norm_from_power,
    u4_row_power,
    uk_norm,
)
from .grid import GridFn, arr_functional, mixed_conv, mixed_self
from .trilinear import (
    TrilinearForm,
    kappa_from_sigma,
    quad_phase_search,
    symmetry_pipeline,
    trilinear_from_json,
    trilinear_to_json,
    u3_lower,
)

__all__ = [
    "PipelineConfig",
    "PipelineReport",
    "PipelineHalt",
    "run_inverse_pipeline",
    "derivative_peak_map",
    "consensus_rounding",
    "BiAffineFit",
    "fit_biaffine",
    "biaffine_value_table",
    "affine_in_each_variable",
    "exhaustive_affine_fit",
    "extract_affine_parts",
    "verify_suite",
    "CheckResult",
    "main",
]

REPORT_SCHEMA = "ulab.pipeline-report/1"
STAGES = (
    "gate", "peaks", "densify", "defect", "cover", "cells",
    "rounding", "extend", "backfit", "symmetry", "cubic", "quadratic",
)
# a spectrum's peak is the lowest frequency within this of its maximum, so
# exact ties (common on corrupted inputs) do not depend on rounding
PEAK_TIE_TOL = 1e-9

_log = logging.getLogger("ulab")

# reference constants from the quantitative analysis, echoed in reports so a
# desk-scale run can be compared against the regime the bounds target
REFERENCE_ETA = 1.0 / 1_728_000
STABILITY_LOSS_FACTOR = 27_000


# ============================================================
# configuration
# ============================================================


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the recovery pipeline.

    Floors and ceilings are desk-scale defaults; the quantitative analysis
    works with far harsher constants (e.g. a density target of
    ~5.8e-7), which are echoed in reports for reference but would reject
    every input of tractable size.
    """

    p: int = 5
    n: int = 1
    seed: int = 0
    # stage thresholds
    u4_threshold: float = 0.25
    c1: float = 0.35
    eta: float = 0.05
    zeta: float = 0.5
    t: int | None = None  # None: max(3k + 2, 7) from the cover's codomain
    # sample counts
    densify_samples: int = 20_000
    # budgets: size_cap gates the start (N^3, the largest kernel's work) and
    # the cells stage; the kernels refuse on core.SIZE_CAP
    size_cap: int = 1_000_000
    max_maps: int = 48
    candidate_cap: int = 4096
    # floors / ceilings on measured quantities
    density_floor: float = 0.05
    defect_ceiling: float = 0.9
    stability_floor: float = 0.25
    fit_floor: float = 0.6
    back_floor: float = 0.6
    alpha_floor: float = 0.02
    residual_tol: float = 1e-9
    # optional file endpoints (recorded, not interpreted, by the pipeline)
    input_path: str | None = None
    output_path: str | None = None

    def validate(self) -> None:
        if not _is_prime(self.p):
            raise ValueError("p = %r is not prime" % (self.p,))
        if self.p < 5:
            raise ValueError("cubic extraction needs p >= 5, got p = %d" % self.p)
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("u4_threshold", "c1", "eta", "zeta"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError("%s must lie in (0, 1], got %r" % (name, v))
        for name in (
            "density_floor",
            "defect_ceiling",
            "stability_floor",
            "fit_floor",
            "back_floor",
            "alpha_floor",
        ):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError("%s must lie in [0, 1], got %r" % (name, v))
        if self.t is not None and self.t < 1:
            raise ValueError("t must be positive when given")
        for name in ("densify_samples", "size_cap", "max_maps", "candidate_cap"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.residual_tol < 0:
            raise ValueError("residual_tol must be non-negative")
        N = self.p**self.n
        if N**3 > self.size_cap:
            raise ValueError(
                "p^{3n} = %d exceeds the size budget %d; the pipeline loops "
                "over triples and refuses to start" % (N**3, self.size_cap)
            )

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError("unknown config fields: %s" % ", ".join(sorted(unknown)))
        return cls(**obj)

    def to_dict(self) -> dict:
        return asdict(self)


# ============================================================
# report plumbing
# ============================================================


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


@dataclass
class StageRecord:
    name: str
    seconds: float
    data: dict


class PipelineHalt(Exception):
    """A measured quantity fell below its configured floor (category
    "precondition"), an exhaustive verification failed (category
    "verification") or a kernel refused its size budget (category
    "budget")."""

    def __init__(self, category: str, stage: str, reason: str, data: dict | None = None):
        super().__init__("%s halt at stage %r: %s" % (category, stage, reason))
        self.category = category
        self.stage = stage
        self.reason = reason
        self.data = data or {}


@dataclass
class PipelineReport:
    schema: str
    config: dict
    stages: list
    halted: bool
    halt_stage: str | None
    halt_category: str | None
    halt_reason: str | None
    result: dict | None

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": _json_safe(self.config),
            "stages": [
                {"name": s.name, "seconds": s.seconds, "data": _json_safe(s.data)}
                for s in self.stages
            ],
            "halted": self.halted,
            "halt_stage": self.halt_stage,
            "halt_category": self.halt_category,
            "halt_reason": self.halt_reason,
            "result": _json_safe(self.result),
        }

    def canonical_dict(self) -> dict:
        """The full report minus every wall-clock field."""
        d = self.to_dict()
        d["stages"] = [{"name": s["name"], "data": s["data"]} for s in d["stages"]]
        return d

    def canonical_bytes(self) -> bytes:
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        ).encode()


# ============================================================
# stage helpers
# ============================================================


def derivative_peak_map(f: GroupFn, c1: float) -> tuple[PartialMap, dict, float]:
    """For each (a, b), the dominant frequency of the second multiplicative
    derivative, kept when its transform magnitude reaches c1; also returns
    the fourth uniformity norm, read off the same spectra.

    One pass over `derivative2_spectra` serves both: each row a gives the
    peaks of its N spectra and its term of |f|_{U^4}^16, accumulated in the
    order `uk_norm(f, 4)` uses, so the norm equals `uk_norm(f, 4).value` bit
    for bit.  The peak of a spectrum is the lowest r whose magnitude is
    within PEAK_TIE_TOL of the spectrum's maximum.  The pipeline's gate
    makes this one call, so the gate's seconds include the whole pass.
    """
    params = f.params
    N = params.size
    dom = np.zeros((N, N), dtype=bool)
    vals = np.zeros((N, N), dtype=np.int64)
    rows = np.arange(N)
    kept = []
    acc = 0.0
    for a, spec in enumerate(derivative2_spectra(f)):
        acc += u4_row_power(spec)
        r = np.argmax(spec >= spec.max(axis=1, keepdims=True) - PEAK_TIE_TOL, axis=1)
        mag = spec[rows, r]
        dom[a] = mag >= c1
        vals[a] = np.where(dom[a], r, 0)
        kept.append(mag[dom[a]])
    kept_peaks = np.concatenate(kept)
    stats = {
        "density": float(dom.mean()),
        "kept": int(dom.sum()),
        "min_kept_peak": float(kept_peaks.min()) if kept_peaks.size else None,
        "mean_kept_peak": float(np.mean(kept_peaks)) if kept_peaks.size else None,
    }
    u4 = norm_from_power(acc / N, 4).value
    return PartialMap(params, params, dom, vals), stats, u4


def _line_vote_histograms(params: GroupParams, vp: GroupParams, graphs: np.ndarray) -> np.ndarray:
    """hist[l, b, v] = #{(b1, b2, b3) on line l's graph : b1 + b2 - b3 = b,
    v1 + v2 - v3 = v}, for a stack of (L, N, q) graph indicators.

    The count is F * F * F~ on G x H (F~(x) = F(-x)), so `char_transform`
    over G (axis 1) and over H (axis 2) gives it as F^ F^ conj(F^).  Both
    transforms average, so the inverse of that product is the count divided
    by (N q)^2, and it is multiplied back by that scalar.  The counts are at
    most N^2, so rounding is exact.  Lines go through the transform in
    blocks of at most SIZE_CAP elements.
    """
    L, N, q = graphs.shape
    hist = np.empty((L, N, q), dtype=np.int64)
    block = max(1, SIZE_CAP // (N * q))
    for lo in range(0, L, block):
        hat = char_transform(char_transform(graphs[lo : lo + block], params, axis=1), vp, axis=2)
        counts = char_transform(hat * hat * hat.conj(), vp, axis=2, inverse=True)
        counts = char_transform(counts, params, axis=1, inverse=True)
        hist[lo : lo + block] = np.rint(counts.real * (N * q) ** 2)
    return hist


def _vote_histogram(phi: PartialMap) -> np.ndarray:
    """(N, N, q) integer vote histogram: the row line votes plus the column
    line votes at every (a, b)."""
    params, vp = phi.params, phi.value_params
    graph = phi.domain[:, :, None] & (phi.values[:, :, None] == np.arange(vp.size))
    hist = _line_vote_histograms(params, vp, graph)
    hist += _line_vote_histograms(params, vp, graph.transpose(1, 0, 2)).transpose(1, 0, 2)
    return hist


def consensus_rounding(phi: PartialMap) -> tuple[PartialMap, dict]:
    """Replace each value by the winner of its row and column line votes.

    Rows and columns of a bi-affine map are affine, so for domain points
    b1, b2, b3 of a common row with b1 + b2 - b3 = b, V[b1] + V[b2] - V[b3]
    votes for the value at b; columns vote the same way.  The histograms of
    every row and column are counted at once through characters of G x H
    (`_line_vote_histograms`).  The winner is the most-voted value, the
    lowest one on ties, and its share of the votes is the rounding stability
    at that point.
    """
    params, vp = phi.params, phi.value_params
    dom, vmap = phi.domain, phi.values
    hist = _vote_histogram(phi)
    rounded = hist.argmax(axis=2).astype(np.int64)  # first max: lowest value wins ties
    tot = hist.sum(axis=2)
    top = hist.max(axis=2)
    voted = dom & (tot > 0)
    stability = np.where(voted, top / np.maximum(tot, 1), 0.0)
    new_vals = np.where(voted, rounded, vmap)
    changed = int(np.sum(voted & (new_vals != vmap)))
    stats = {
        "stability_mean": float(stability[dom].mean()) if dom.any() else 0.0,
        "stability_min": float(stability[dom].min()) if dom.any() else 0.0,
        "changed": changed,
        "voted": int(voted.sum()),
    }
    return PartialMap(params, vp, dom, np.where(dom, new_vals, 0).astype(np.int64)), stats


@dataclass(frozen=True)
class BiAffineFit:
    """Exact model digits(value)[c] = a.T[c].b + s[c].a + t[c].b + e[c]."""

    T: np.ndarray  # (n, n, n): component matrix per output digit
    s: np.ndarray  # (n, n)
    t: np.ndarray  # (n, n)
    e: np.ndarray  # (n,)
    agreement: float
    offset: int


def _first_independent_rows(p: int, rows: np.ndarray, start: int) -> list[int]:
    """Indices of a maximal independent subset, scanning cyclically from
    `start` and keeping each row outside the span of the rows before it.

    One elimination pass: the residuals of the rows in scan order start as
    the rows themselves; the first non-zero residual is kept, its pivot is
    normalised, and that pivot column is eliminated from the residuals after
    it.  A residual is zero exactly when its row lies in the span of the
    rows kept before it, so at most d = rows.shape[1] steps are taken.
    """
    m, d = rows.shape
    order = (start + np.arange(m)) % m
    resid = rows[order] % p
    keep: list[int] = []
    for _ in range(d):
        live = np.flatnonzero(resid.any(axis=1))
        if live.size == 0:
            break
        i = int(live[0])
        c = int(np.flatnonzero(resid[i])[0])
        pivot = resid[i] * inv_mod(int(resid[i, c]), p) % p
        keep.append(int(order[i]))
        order, resid = order[i + 1 :], resid[i + 1 :]
        resid = (resid - resid[:, c : c + 1] * pivot) % p
    return keep


def fit_biaffine(phi: PartialMap, offsets: int = 7) -> BiAffineFit:
    """Exact bi-affine fit of a partial map by consensus over several
    deterministic row selections.

    Each attempt keeps a maximal independent subset of design rows, scanned
    cyclically from a different offset (`_first_independent_rows`).  The
    kept rows are independent, so the model is always solvable on them: one
    row reduction of [rows | target digits] solves every output digit.
    Each attempt is scored by its agreement on the whole domain; the
    best-agreeing solution wins, earliest offset first.  With localized
    corruption most offsets hit clean rows, so the consensus tracks the
    majority structure.
    """
    params, vp = phi.params, phi.value_params
    if vp.p != params.p:
        raise ValueError("bi-affine fitting needs matching characteristics")
    p, n = params.p, params.n
    xs, ys = np.nonzero(phi.domain)
    m = len(xs)
    d = n * n + 2 * n + 1
    if m < 1:
        raise ValueError("cannot fit an empty map")
    da = params.digits(xs.astype(np.int64))
    db = params.digits(ys.astype(np.int64))
    rows = (
        np.concatenate(
            [
                np.einsum("mi,mj->mij", da, db).reshape(m, n * n),
                da,
                db,
                np.ones((m, 1), dtype=np.int64),
            ],
            axis=1,
        )
        % p
    )
    targets = vp.digits(phi.values[xs, ys])
    vn = vp.n
    best: BiAffineFit | None = None
    for j in range(max(1, offsets)):
        start = (j * m) // max(1, offsets)
        keep = _first_independent_rows(p, rows, start)
        red, pivots = gf_rowreduce(p, np.concatenate([rows[keep], targets[keep]], axis=1))
        # the kept rows are independent, so every pivot is a model column
        sol = np.zeros((vn, d), dtype=np.int64)
        sol[:, pivots] = red[:, d:].T
        T = sol[:, : n * n].reshape(vn, n, n)
        s = sol[:, n * n : n * n + n]
        t = sol[:, n * n + n : n * n + 2 * n]
        e = sol[:, -1]
        pred = (np.einsum("mi,cij,mj->mc", da, T, db) + da @ s.T + db @ t.T + e[None, :]) % p
        agreement = float(np.mean(np.all(pred == targets, axis=1)))
        cand = BiAffineFit(T, s, t, e, agreement, j)
        if best is None or cand.agreement > best.agreement + 1e-12:
            best = cand
    assert best is not None
    return best


def biaffine_value_table(params: GroupParams, fit: BiAffineFit) -> np.ndarray:
    """(N, N, vn) digit table of the fitted model over all of G^2."""
    p = params.p
    dig = params.digits(np.arange(params.size, dtype=np.int64))
    return (
        np.einsum("ai,cij,bj->abc", dig, fit.T, dig)
        + (dig @ fit.s.T)[:, None, :]
        + (dig @ fit.t.T)[None, :, :]
        + fit.e[None, None, :]
    ) % p


def affine_in_each_variable(params: GroupParams, table: np.ndarray) -> bool:
    """Exhaustive check that every difference of the table along either
    variable is constant in that variable — i.e. all quadruple identities
    hold in each argument."""
    p = params.p
    N = params.size
    idx = np.arange(N, dtype=np.int64)
    add = params.add(idx[:, None], idx[None, :])
    for h in range(N):
        dif = (table[:, add[:, h], :] - table) % p
        if not np.all(dif == dif[:, :1, :]):
            return False
        dif = (table[add[:, h], :, :] - table) % p
        if not np.all(dif == dif[:1, :, :]):
            return False
    return True


def exhaustive_affine_fit(
    params: GroupParams, xs: np.ndarray, data_digits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best affine approximation x -> Mx + u of tabulated digit data, by
    exhaustive per-coordinate search; ties go to the lexicographically first
    candidate.  Returns (M, u, joint agreement)."""
    p, n = params.p, params.n
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size == 0:
        z = np.zeros((n, n), dtype=np.int64)
        return z, np.zeros(n, dtype=np.int64), 1.0
    dx = params.digits(xs)
    grids = np.meshgrid(*([np.arange(p)] * (n + 1)), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)  # rows (m_0..m_{n-1}, u), lex order
    M = np.zeros((n, n), dtype=np.int64)
    u = np.zeros(n, dtype=np.int64)
    pred_all = (dx @ cand[:, :n].T + cand[:, n][None, :]) % p
    for c in range(data_digits.shape[1]):
        hits = (pred_all == data_digits[:, c : c + 1]).sum(axis=0)
        best = int(np.argmax(hits))
        M[c] = cand[best, :n]
        u[c] = cand[best, n]
    joint = (dx @ M.T + u[None, :]) % p
    agreement = float(np.mean(np.all(joint == data_digits, axis=1)))
    return M, u, agreement


def extract_affine_parts(phi: PartialMap, fit: BiAffineFit) -> dict:
    """Split the fitted model's explanation of the data as
    bilinear(a, b) + theta(a) + lambda(b), linearizing the per-variable
    corrections by exhaustive affine search.

    Returns the two affine maps, their fit agreements, and the fraction of
    the map's domain the combined model reproduces exactly.
    """
    params, vp = phi.params, phi.value_params
    p = params.p
    N = params.size
    dig = params.digits(np.arange(N, dtype=np.int64))
    gamma = np.einsum("ai,cij,bj->abc", dig, fit.T, dig) % p
    xs, ys = np.nonzero(phi.domain)
    resid = (vp.digits(phi.values[xs, ys]) - gamma[xs, ys]) % p
    # per-variable corrections: theta from a reference column, lambda by
    # majority vote, then a second pass for rows missing the reference
    b0 = int(ys[0])
    theta_data: dict[int, tuple] = {}
    for a, b, r in zip(xs, ys, resid):
        if b == b0 and int(a) not in theta_data:
            theta_data[int(a)] = tuple(int(v) for v in r)
    lam_votes: dict[int, Counter] = {}
    for a, b, r in zip(xs, ys, resid):
        th = theta_data.get(int(a))
        if th is not None:
            off = tuple(int(v) for v in (r - np.array(th, dtype=np.int64)) % p)
            lam_votes.setdefault(int(b), Counter())[off] += 1
    lam_data = {
        b: max(sorted(c), key=lambda k: c[k]) for b, c in lam_votes.items()
    }
    for a, b, r in zip(xs, ys, resid):
        if int(a) not in theta_data and int(b) in lam_data:
            theta_data[int(a)] = tuple(
                int(v) for v in (r - np.array(lam_data[int(b)], dtype=np.int64)) % p
            )
    th_keys = sorted(theta_data)
    lm_keys = sorted(lam_data)
    Mth, uth, ath = exhaustive_affine_fit(
        params, np.array(th_keys, dtype=np.int64), np.array([theta_data[a] for a in th_keys], dtype=np.int64)
    ) if th_keys else (np.zeros((params.n,) * 2, dtype=np.int64), np.zeros(params.n, dtype=np.int64), 1.0)
    Mlm, ulm, alm = exhaustive_affine_fit(
        params, np.array(lm_keys, dtype=np.int64), np.array([lam_data[b] for b in lm_keys], dtype=np.int64)
    ) if lm_keys else (np.zeros((params.n,) * 2, dtype=np.int64), np.zeros(params.n, dtype=np.int64), 1.0)
    th_tab = (dig @ Mth.T + uth[None, :]) % p
    lm_tab = (dig @ Mlm.T + ulm[None, :]) % p
    full = (gamma + th_tab[:, None, :] + lm_tab[None, :, :]) % p
    back = float(np.mean(np.all(full[xs, ys] == vp.digits(phi.values[xs, ys]), axis=1)))
    return {
        "theta": (Mth, uth),
        "lambda": (Mlm, ulm),
        "theta_agreement": ath,
        "lambda_agreement": alm,
        "back_agreement": back,
    }


# ============================================================
# the pipeline
# ============================================================


def run_inverse_pipeline(f: GroupFn, cfg: PipelineConfig) -> PipelineReport:
    """Walk a bounded function with large fourth uniformity norm down to an
    explicit cubic phase polynomial; see the module docstring for the stage
    list.  Never raises on a measured shortfall — the report carries the
    halt diagnostics instead."""
    cfg.validate()
    stages: list[StageRecord] = []
    report = PipelineReport(
        schema=REPORT_SCHEMA,
        config=cfg.to_dict(),
        stages=stages,
        halted=False,
        halt_stage=None,
        halt_category=None,
        halt_reason=None,
        result=None,
    )

    last_end = time.perf_counter()

    def record(name: str, t0: float, data: dict) -> None:
        nonlocal last_end
        last_end = time.perf_counter()
        stages.append(StageRecord(name, last_end - t0, data))
        _log.info("stage %s done in %.3fs", name, last_end - t0)

    try:
        _pipeline_stages(f, cfg, record)
    except PipelineHalt as err:
        halt = err
    except BudgetError as err:
        # stages are recorded in order, so the running one is the next
        halt = PipelineHalt("budget", STAGES[len(stages)], str(err))
    else:
        report.result = stages[-1].data["result"]
        return report
    # the halting stage started where the last recorded one ended
    seconds = time.perf_counter() - last_end
    stages.append(StageRecord(halt.stage, seconds, halt.data))
    _log.info("stage %s halted (%s) in %.3fs: %s", halt.stage, halt.category, seconds, halt.reason)
    report.halted = True
    report.halt_stage = halt.stage
    report.halt_category = halt.category
    report.halt_reason = halt.reason
    return report


def _pipeline_stages(f: GroupFn, cfg: PipelineConfig, record) -> None:
    params = f.params
    if (params.p, params.n) != (cfg.p, cfg.n):
        raise PipelineHalt(
            "precondition",
            "gate",
            "input lives on F_%d^%d but the config says F_%d^%d"
            % (params.p, params.n, cfg.p, cfg.n),
        )
    sup = float(np.abs(f.values).max(initial=0.0))
    if sup > 1 + 1e-9:
        raise PipelineHalt(
            "precondition", "gate", "input is not bounded: sup norm %.6f > 1" % sup, {"sup": sup}
        )

    # -------- gate (and the peaks' pass over the same spectra) --------
    t0 = time.perf_counter()
    phi, peak_stats, u4 = derivative_peak_map(f, cfg.c1)
    gate_data = {"u4": u4, "threshold": cfg.u4_threshold, "sup": sup}
    if u4 < cfg.u4_threshold:
        raise PipelineHalt(
            "precondition",
            "gate",
            "fourth uniformity norm %.6f is below the threshold %.6f" % (u4, cfg.u4_threshold),
            gate_data,
        )
    record("gate", t0, gate_data)

    # -------- peaks --------
    t0 = time.perf_counter()
    peak_stats["c1"] = cfg.c1
    if peak_stats["density"] < cfg.density_floor:
        raise PipelineHalt(
            "precondition",
            "peaks",
            "peak-map density %.4f is below the floor %.4f"
            % (peak_stats["density"], cfg.density_floor),
            peak_stats,
        )
    record("peaks", t0, peak_stats)

    # -------- densify --------
    t0 = time.perf_counter()
    filtered = row_freiman_filter(phi)
    phi2, drep = densify(
        filtered, eta_target=cfg.eta, seed=cfg.seed, samples=cfg.densify_samples
    )
    dens_data = {
        "row_filter_kept": float(filtered.density() / max(phi.density(), 1e-300)),
        "density": float(phi2.density()),
        "k": drep.k,
        "criterion": drep.criterion,
        "retries_used": drep.retries_used,
        "kept_points": drep.kept_points,
        "reference_k": drep.reference_k,
        "reference_eta": REFERENCE_ETA,
    }
    if dens_data["density"] < cfg.density_floor:
        raise PipelineHalt(
            "precondition",
            "densify",
            "densified map density %.4f is below the floor %.4f"
            % (dens_data["density"], cfg.density_floor),
            dens_data,
        )
    record("densify", t0, dens_data)

    # -------- defect --------
    t0 = time.perf_counter()
    defect = float(bihom_defect(phi2.to_dist_fn(), phi2.indicator()))
    defect_data = {"defect": defect, "ceiling": cfg.defect_ceiling}
    if defect > cfg.defect_ceiling:
        raise PipelineHalt(
            "precondition",
            "defect",
            "bi-homomorphism defect %.4f exceeds the ceiling %.4f"
            % (defect, cfg.defect_ceiling),
            defect_data,
        )
    record("defect", t0, defect_data)

    # -------- cover --------
    t0 = time.perf_counter()
    beta, brep = bogolyubov_bilinear(
        phi2.indicator(), cfg.zeta, max_maps=cfg.max_maps, candidate_cap=cfg.candidate_cap
    )
    cover_data = {
        "zeta": brep.zeta,
        "gamma": brep.gamma,
        "delta": brep.delta,
        "method": brep.method,
        "m": brep.m,
        "k": brep.k,
        "spectrum_size": brep.spectrum_size,
        "uncovered": brep.uncovered,
        "error": brep.error,
        "flagged": brep.flagged,
        "budget_exhausted": brep.budget_exhausted,
    }
    if brep.budget_exhausted:
        raise PipelineHalt(
            "precondition",
            "cover",
            "bilinear Bogolyubov cover exhausted its map budget",
            cover_data,
        )
    record("cover", t0, cover_data)

    # -------- cells --------
    t0 = time.perf_counter()
    if params.p**beta.k > cfg.size_cap:
        raise PipelineHalt(
            "precondition",
            "cells",
            "cover codomain F_%d^%d is too large to decompose within the size "
            "budget %d; raise zeta or the budget" % (params.p, beta.k, cfg.size_cap),
            cover_data,
        )
    t = cfg.t if cfg.t is not None else max(3 * beta.k + 2, 7)
    dec = bohr_decompose(beta, t)
    cells_checked = dec.verify_cells()
    xl, yl, zt = dec.cell_tables()
    counts: Counter = Counter()
    for a, b in zip(*np.nonzero(phi2.domain)):
        counts[(int(xl[a]), int(yl[b]), int(zt[a, b]))] += 1
    best_cell, best_count = max(sorted(counts.items()), key=lambda kv: kv[1])
    v, w, z = best_cell
    cell_mask = (xl[:, None] == v) & (yl[None, :] == w) & (zt == z)
    cell_dom = phi2.domain & cell_mask
    cell_phi = PartialMap(params, phi2.value_params, cell_dom, np.where(cell_dom, phi2.values, 0))
    cell_size = int(cell_mask.sum())
    cell_data = {
        "t": t,
        "x0_dim": dec.X0.dim,
        "y0_dim": dec.Y0.dim,
        "certified_rank": dec.certified_rank,
        "rank_certificate": dec.rank_certificate,
        "peeled": len(dec.peeled),
        "cells_checked": cells_checked,
        "occupied_cells": len(counts),
        "cell": [v, w, z],
        "cell_points": best_count,
        "cell_size": cell_size,
        "cell_fill": best_count / cell_size if cell_size else 0.0,
    }
    min_fit_points = params.n * params.n + 2 * params.n + 1
    if best_count < min_fit_points:
        raise PipelineHalt(
            "precondition",
            "cells",
            "best cell carries %d points, fewer than the %d needed to fit"
            % (best_count, min_fit_points),
            cell_data,
        )
    record("cells", t0, cell_data)

    # -------- rounding --------
    t0 = time.perf_counter()
    rounded, round_stats = consensus_rounding(cell_phi)
    round_stats["reference_stability_bound"] = max(0.0, 1.0 - STABILITY_LOSS_FACTOR * cfg.eta)
    if round_stats["stability_mean"] < cfg.stability_floor:
        raise PipelineHalt(
            "precondition",
            "rounding",
            "mean vote stability %.4f is below the floor %.4f"
            % (round_stats["stability_mean"], cfg.stability_floor),
            round_stats,
        )
    record("rounding", t0, round_stats)

    # -------- extend --------
    t0 = time.perf_counter()
    fit = fit_biaffine(rounded)
    table = biaffine_value_table(params, fit)
    extend_data = {
        "agreement": fit.agreement,
        "offset": fit.offset,
        "affine_parts_nonzero": bool(fit.s.any() or fit.t.any() or fit.e.any()),
    }
    if fit.agreement < cfg.fit_floor:
        raise PipelineHalt(
            "precondition",
            "extend",
            "bi-affine fit explains only %.4f of the rounded map, below the floor %.4f"
            % (fit.agreement, cfg.fit_floor),
            extend_data,
        )
    if not affine_in_each_variable(params, table):
        raise PipelineHalt(
            "verification",
            "extend",
            "extension failed the exhaustive affine-in-each-variable check",
            extend_data,
        )
    extend_data["verified_affine"] = True
    record("extend", t0, extend_data)

    # -------- backfit --------
    t0 = time.perf_counter()
    parts = extract_affine_parts(rounded, fit)
    Mth, uth = parts["theta"]
    Mlm, ulm = parts["lambda"]
    back_data = {
        "theta_matrix": Mth,
        "theta_shift": uth,
        "theta_agreement": parts["theta_agreement"],
        "lambda_matrix": Mlm,
        "lambda_shift": ulm,
        "lambda_agreement": parts["lambda_agreement"],
        "back_agreement": parts["back_agreement"],
    }
    if parts["back_agreement"] < cfg.back_floor:
        raise PipelineHalt(
            "precondition",
            "backfit",
            "bilinear + per-variable model explains only %.4f of the map, below the floor %.4f"
            % (parts["back_agreement"], cfg.back_floor),
            back_data,
        )
    record("backfit", t0, back_data)

    # -------- symmetry --------
    t0 = time.perf_counter()
    tau = TrilinearForm.from_component_mats(params, fit.T)
    try:
        sigma, srep = symmetry_pipeline(f, tau, (Mth, uth), (Mlm, ulm))
    except RuntimeError as err:
        raise PipelineHalt("verification", "symmetry", str(err))
    sym_data = {
        "alpha": srep.alpha,
        "residual_rank": srep.residual_rank,
        "bound": srep.bound,
        "asserted": srep.asserted,
        "perm_ranks": {"".join(map(str, perm)): r for perm, r in srep.perm_ranks},
    }
    if srep.alpha < cfg.alpha_floor:
        raise PipelineHalt(
            "precondition",
            "symmetry",
            "trilinear correlation %.6f is below the floor %.6f" % (srep.alpha, cfg.alpha_floor),
            sym_data,
        )
    if srep.residual_rank > cfg.residual_tol:
        raise PipelineHalt(
            "precondition",
            "symmetry",
            "asymmetric residual has rank %.6f; descending to a subspace where it "
            "vanishes is out of scope at this size" % srep.residual_rank,
            sym_data,
        )
    record("symmetry", t0, sym_data)

    # -------- cubic --------
    t0 = time.perf_counter()
    p = params.p
    kappa0, cstar = kappa_from_sigma(sigma)
    scale = (-pow(cstar, p - 2, p)) % p
    kappa = PolyPhase.from_coeffs(
        params, {mono: coef * scale % p for mono, coef in kappa0.terms}
    )
    g = GroupFn(params, f.values * np.exp(-2j * np.pi * kappa.phase_table() / p))
    dig = params.digits(np.arange(params.size, dtype=np.int64))
    BC = (-Mlm.T) % p
    AC = (-Mth.T) % p
    lc = (-(uth + ulm)) % p
    expo_v = (np.einsum("bi,ij,cj->bc", dig, BC, dig) + dig @ lc) % p
    expo_w = np.einsum("ai,ij,cj->ac", dig, AC, dig) % p
    ugrid = GridFn.constant(params, 1.0)
    vgrid = GridFn(params, np.exp(2j * np.pi * expo_v / p))
    wgrid = GridFn(params, np.exp(2j * np.pi * expo_w / p))
    alpha_box, u3 = u3_lower(g, ugrid, vgrid, wgrid)
    cubic_data = {
        "cstar": cstar,
        "scale": scale,
        "kappa_terms": [[list(mono), coef] for mono, coef in kappa.terms],
        "alpha_box": alpha_box,
        "u3_norm": u3,
    }
    if u3 < srep.alpha - 1e-9:
        raise PipelineHalt(
            "verification",
            "cubic",
            "third uniformity norm %.6f fell below the certified correlation %.6f"
            % (u3, srep.alpha),
            cubic_data,
        )
    record("cubic", t0, cubic_data)

    # -------- quadratic --------
    t0 = time.perf_counter()
    quad, quad_corr = quad_phase_search(g)
    total: dict[tuple, int] = dict(kappa.terms)
    for mono, coef in quad.terms:
        total[mono] = (total.get(mono, 0) + coef) % p
    phase = PolyPhase.from_coeffs(params, {m: c for m, c in total.items() if c})
    final_corr = abs(correlation(f, phase))
    record(
        "quadratic",
        t0,
        {
            "quad_terms": [[list(mono), coef] for mono, coef in quad.terms],
            "quad_correlation": quad_corr,
            "result": {
                "phase_terms": [[list(mono), coef] for mono, coef in phase.terms],
                "correlation": final_corr,
                "u4": u4,
            },
        },
    )


# ============================================================
# verification suite
# ============================================================


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
    checked = dec.verify_cells()
    return checked > 0, "%d cells certified at threshold %d" % (checked, dec.rank_certificate)


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


# ============================================================
# command-line front end
# ============================================================


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _print_json(obj) -> None:
    print(json.dumps(_json_safe(obj), indent=2, sort_keys=True))


def _cmd_norms(args) -> int:
    f = group_fn_from_json(_load_json(args.input))
    rep = uk_norm(f, args.k, method=args.method)
    _print_json({"k": rep.k, "value": rep.value, "method": rep.method})
    return 0


def _cmd_arrange(args) -> int:
    phi = partial_map_from_json(_load_json(args.phi))
    mode = args.mode or ("exact" if args.order == 1 else "mc")
    stats = respect_stats(phi, order=args.order, mode=mode, samples=args.samples, seed=args.seed)
    out = asdict(stats)
    out["respected_fraction"] = stats.respected / stats.total if stats.total else None
    _print_json(out)
    return 0


def _cmd_bohr(args) -> int:
    beta = biaffine_from_json(_load_json(args.beta))
    dec = bohr_decompose(beta, args.t)
    checked = dec.verify_cells()
    _print_json(
        {
            "t": args.t,
            "x0_dim": dec.X0.dim,
            "y0_dim": dec.Y0.dim,
            "x1_dim": dec.X1.dim,
            "y1_dim": dec.Y1.dim,
            "peeled": len(dec.peeled),
            "rank_certificate": dec.rank_certificate,
            "certified_rank": dec.certified_rank,
            "cells_checked": checked,
        }
    )
    return 0


def _cmd_bog2(args) -> int:
    if args.grid:
        from .grid import grid_fn_from_json

        grid_f = grid_fn_from_json(_load_json(args.grid))
    else:
        f = group_fn_from_json(_load_json(args.input))
        grid_f = GridFn(f.params, np.outer(f.values, np.conj(f.values)))
    beta, rep = bogolyubov_bilinear(grid_f, args.zeta)
    _print_json({"report": asdict(rep), "map": biaffine_to_json(beta)})
    return 0


def _cmd_trirank(args) -> int:
    from .trilinear import analytic_mean_tri, analytic_rank_tri, symmetrize

    tau = trilinear_from_json(_load_json(args.form))
    sigma, residual = symmetrize(tau)
    import itertools

    perm_ranks = {
        "".join(map(str, perm)): analytic_rank_tri(tau - tau.permute_args(perm))
        for perm in itertools.permutations(range(3))
    }
    _print_json(
        {
            "analytic_rank": analytic_rank_tri(tau),
            "mean": analytic_mean_tri(tau),
            "is_symmetric": tau.is_symmetric(),
            "residual_rank": analytic_rank_tri(residual),
            "perm_difference_ranks": perm_ranks,
        }
    )
    return 0


def _load_affine_pair(path: str | None, n: int) -> tuple[np.ndarray, np.ndarray]:
    if path is None:
        return np.zeros((n, n), dtype=np.int64), np.zeros(n, dtype=np.int64)
    matrix, shift = _json_fields(_load_json(path), "affine map", "matrix", "shift")
    return np.asarray(matrix, dtype=np.int64), np.asarray(shift, dtype=np.int64)


def _cmd_symmetrize(args) -> int:
    f = group_fn_from_json(_load_json(args.input))
    tau = trilinear_from_json(_load_json(args.tau))
    rho = _load_affine_pair(args.rho, f.params.n)
    sig = _load_affine_pair(args.sigma, f.params.n)
    sigma_form, rep = symmetry_pipeline(f, tau, rho, sig)
    _print_json(
        {
            "alpha": rep.alpha,
            "bound": rep.bound,
            "asserted": rep.asserted,
            "residual_rank": rep.residual_rank,
            "perm_ranks": {"".join(map(str, perm)): r for perm, r in rep.perm_ranks},
            "symmetrized": trilinear_to_json(sigma_form),
        }
    )
    return 0


def _cmd_quadsearch(args) -> int:
    f = group_fn_from_json(_load_json(args.input))
    q, corr = quad_phase_search(f)
    _print_json({"terms": [[list(m), c] for m, c in q.terms], "correlation": corr})
    return 0


def _cmd_pipeline(args) -> int:
    f = group_fn_from_json(_load_json(args.input))
    overrides = _load_json(args.config) if args.config else {}
    overrides.setdefault("p", f.params.p)
    overrides.setdefault("n", f.params.n)
    overrides.setdefault("input_path", args.input)
    overrides.setdefault("output_path", args.out)
    try:
        cfg = PipelineConfig.from_json(overrides)
        cfg.validate()
    except ValueError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    report = run_inverse_pipeline(f, cfg)
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if report.halted:
        print(
            "halted at %s (%s): %s"
            % (report.halt_stage, report.halt_category, report.halt_reason),
            file=sys.stderr,
        )
        return 3 if report.halt_category == "verification" else 2
    res = report.result
    terms = ", ".join(
        "%s:%d" % ("".join(map(str, mono)), coef) for mono, coef in res["phase_terms"]
    )
    print("recovered cubic phase {%s} with correlation %.6f" % (terms, res["correlation"]))
    return 0


def _cmd_verify(args) -> int:
    try:
        results = verify_suite(seed=args.seed, only=args.only, inject_fault=args.inject_fault)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    failed = 0
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        print("%s %s.%s: %s (%.2fs)" % (mark, r.module, r.name, r.measured, r.seconds))
        failed += 0 if r.ok else 1
    print("%d checks, %d failed" % (len(results), failed))
    return 3 if failed else 0


def _apply_thread_cap() -> None:
    cap = os.environ.get("ULAB_THREADS")
    if not cap:
        return
    try:
        k = max(1, int(cap))
    except ValueError:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, str(k))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulab",
        description="Higher-order Fourier analysis toolkit: norms, arrangement "
        "statistics, bilinear covers, and the cubic-phase recovery pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("norms", help="uniformity norm of a function")
    q.add_argument("--input", required=True, help="JSON function file")
    q.add_argument("--k", type=int, required=True, help="norm order (k >= 1)")
    q.add_argument("--method", default="nested", help="evaluation method")
    q.set_defaults(fn=_cmd_norms)

    q = sub.add_parser("arrange", help="arrangement statistics of a partial map")
    q.add_argument("--phi", required=True, help="JSON partial-map file")
    q.add_argument("--order", type=int, default=1)
    q.add_argument(
        "--mode",
        choices=["exact", "mc"],
        help="exact enumeration (order 1) or Monte Carlo; default follows the order",
    )
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=_cmd_arrange)

    q = sub.add_parser("bohr", help="cell decomposition of a bi-affine map")
    q.add_argument("--beta", required=True, help="JSON bi-affine map file")
    q.add_argument("--t", type=int, required=True, help="rank threshold")
    q.set_defaults(fn=_cmd_bohr)

    q = sub.add_parser("bog2", help="bilinear Bogolyubov cover of a grid function")
    q.add_argument("--input", required=True, help="JSON function file (outer product used)")
    q.add_argument("--grid", help="JSON grid-function file (overrides --input)")
    q.add_argument("--zeta", type=float, required=True)
    q.set_defaults(fn=_cmd_bog2)

    q = sub.add_parser("trirank", help="rank statistics of a trilinear form")
    q.add_argument("--form", required=True, help="JSON trilinear form file")
    q.set_defaults(fn=_cmd_trirank)

    q = sub.add_parser("symmetrize", help="symmetrize a trilinear form against a function")
    q.add_argument("--input", required=True, help="JSON function file")
    q.add_argument("--tau", required=True, help="JSON trilinear form file")
    q.add_argument("--rho", help="JSON affine map {matrix, shift} on the first slot")
    q.add_argument("--sigma", help="JSON affine map {matrix, shift} on the second slot")
    q.set_defaults(fn=_cmd_symmetrize)

    q = sub.add_parser("quadsearch", help="exhaustive best quadratic phase")
    q.add_argument("--input", required=True, help="JSON function file")
    q.set_defaults(fn=_cmd_quadsearch)

    q = sub.add_parser("pipeline", help="run the cubic-phase recovery pipeline")
    q.add_argument("--input", required=True, help="JSON function file")
    q.add_argument("--config", help="JSON config overriding the desk defaults")
    q.add_argument("--out", help="where to write the JSON report")
    q.set_defaults(fn=_cmd_pipeline)

    q = sub.add_parser("verify", help="run the invariant verification suite")
    q.add_argument("--only", help="restrict to one module")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument(
        "--inject-fault",
        choices=["dft"],
        help="deliberately corrupt a computation to prove the suite catches it",
    )
    q.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
