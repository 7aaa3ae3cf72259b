"""The end-to-end cubic-phase recovery pipeline.

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
                  then prune to a quantitatively dense sub-map.  A peak map
                  on all of G^2 that is affine in each variable, checked
                  once on the n basis shifts of each, is certified: it
                  respects every arrangement, so the row filter, which
                  would keep every point, is skipped.
4.  defect      - measure how far the map is from a bi-homomorphism via the
                  mixed-convolution mass it retains; on a certified map the
                  densified map is a restriction of it, so the defect is
                  exactly 0 and no mass is computed.
5.  cover       - run the bilinear Bogolyubov argument on the domain
                  indicator, producing a bi-affine map of bounded codomain.
6.  cells       - peel low-rank combinations to get a Bohr-type cell
                  decomposition; the peeling's last scan ranks every
                  remaining combination and is the rank certificate.  One
                  packed code per (x, y) names its cell, so one count of
                  the domain's codes finds the best-populated cell (ties to
                  the lowest code), to which the map is restricted.
7.  rounding    - make the fit's offset-0 solve on the cell.  If it explains
                  every point, rows and columns are affine there, so every
                  vote V(b1) + V(b2) - V(b3) = A(b1 + b2 - b3) names the
                  point's own value: the map is kept with stability 1.0,
                  unvoted.  Otherwise round each value to the winner of its
                  row and column line votes, N^2 theta, theta = phi * phi *
                  phi^adj on each line by `galg.line_triple_conv`, ties to
                  the lowest value, and measure the vote stability.
8.  extend      - fit an exact bi-affine model on the rounded data (an exact
                  rounding solve is that fit); its extension a.T.b + s.a +
                  t.b + e to all of G^2 is affine in each argument by its
                  form, so nothing is tabulated.  Each row selection of the
                  fit is one elimination pass over the design rows, one row
                  reduction solves every digit, and the first exact
                  selection ends the fit.  The record carries s, t and e: T
                  feeds the symmetry argument, and the affine parts are
                  rho = (s, e) in a and sigma = (t, 0) in b.
9.  symmetry    - measure the correlation of the derivative family against
                  the trilinear form of the bilinear part, shifted by the
                  fit's rho and sigma, symmetrize the form, and bound the
                  asymmetry ranks.  The phase is affine in c for fixed
                  (a, b), so by the autocorrelation identity the
                  correlation is one gathered value |(d_{a,b} f)^(r)|^2 per
                  (a, b): N^3 log N time, O(N^2) memory per row a.
10. cubic       - integrate the symmetric form sigma to the cubic phase
                  kappa(x) = sigma(x,x,x) and certify by polarisation that
                  its third difference is -6 sigma: kappa is homogeneous
                  cubic, so that difference does not depend on x, and one
                  O(n^3) comparison of coefficients proves it everywhere;
                  divide kappa out and check that the remainder's third
                  uniformity norm (N^2 log N) is at least the symmetry
                  stage's correlation.  The remainder's box correlation
                  with the fitted maps' phases is |tri_correlation(f, h,
                  sigma)|: the symmetry stage's alpha when sigma = tau,
                  else one more pass of that kernel.
11. quadratic   - exhaustively locate the best quadratic phase for the
                  remainder and report the full cubic polynomial together
                  with its correlation against the input.  One character
                  transform per quadratic part scores every linear part,
                  in blocks of about `core.SIZE_CAP` values; ties within
                  1e-12 go to the lexicographically first candidate.

Every stage records its measurements; any measured quantity falling below
its configured floor halts the run with diagnostics rather than continuing
on meaningless data (category "precondition"), and a failed exhaustive
verification halts it in the "verification" category.  The work budget
`size_cap` is checked once, by `PipelineConfig.validate` before the run;
no kernel refuses on size after that.  Each recorded or halted stage logs
one INFO line on the "ulab" logger.  Reports are deterministic for a fixed
configuration, excluding wall-clock fields.

The running stage.  Stages are recorded in `STAGES` order, so the stage
running at any moment is `STAGES[len(recorded)]`, and no stage code names
itself.  Recording a stage names it by that rule and times it from the end
of the previous stage (the gate from the start of the run), so the stage
seconds are back to back; a halt is charged to the running stage in the
same way.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arrange import PartialMap, densify, row_freiman_filter
from .bilinear import bogolyubov_bilinear, bohr_decompose
from .core import (
    GroupFn,
    GroupParams,
    _add_table,
    _is_prime,
    correlation,
    gf_rowreduce,
    inv_mod,
)
from .galg import bihom_defect, line_triple_conv
from .gowers import derivative2_peaks, norm_from_power, uk_norm
from .trilinear import (
    TrilinearForm,
    kappa_from_sigma,
    quad_phase_search,
    quad_search_size,
    symmetry_pipeline,
    tri_correlation,
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
    "affine_in_each_variable",
    "extract_affine_parts",
]

REPORT_SCHEMA = "ulab.pipeline-report/2"
STAGES = (
    "gate", "peaks", "densify", "defect", "cover", "cells",
    "rounding", "extend", "symmetry", "cubic", "quadratic",
)
_log = logging.getLogger("ulab")
# the symmetry record's perm_ranks keys, one shared string per permutation
_PERM_KEYS = {perm: "".join(map(str, perm)) for perm in itertools.permutations(range(3))}

# reference constants from the quantitative analysis, echoed in reports so a
# desk-scale run can be compared against the regime the bounds target
REFERENCE_ETA = 1.0 / 1_728_000
STABILITY_LOSS_FACTOR = 27_000


# ============================================================
# configuration
# ============================================================


# the annotation of each config field, read by `PipelineConfig.validate`;
# bools are refused everywhere, and an integer field takes no float, even an
# integral one such as 1e7
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}
_FIELD_NAMES = {"int": "an integer", "float": "a real number", "str": "a string"}


@lru_cache(maxsize=None)
def _field_kinds(cls) -> tuple[tuple[str, str, bool], ...]:
    """(name, kind, optional) of each field of a config class, read once per
    class: kind is the annotation's first word, and optional whether it
    admits None."""
    return tuple((f.name, f.type.split()[0], f.type.endswith("| None")) for f in fields(cls))


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
    # the one work budget: validate refuses max(N^3, the quadratic search's
    # p^{n(n+1)/2} N) above it, and the cells stage its codomain p^k
    size_cap: int = 1_000_000
    max_maps: int = 48
    candidate_cap: int = 4096
    # floors / ceilings on measured quantities
    density_floor: float = 0.05
    defect_ceiling: float = 0.9
    stability_floor: float = 0.25
    fit_floor: float = 0.6
    alpha_floor: float = 0.02
    residual_tol: float = 1e-9
    # optional file endpoints (recorded, not interpreted, by the pipeline)
    input_path: str | None = None
    output_path: str | None = None

    def validate(self) -> None:
        for name, kind, optional in _field_kinds(type(self)):
            v = getattr(self, name)
            if v is None and optional:
                continue
            if isinstance(v, bool) or not isinstance(v, _FIELD_TYPES[kind]):
                raise ValueError("%s must be %s, got %r" % (name, _FIELD_NAMES[kind], v))
        if self.seed < 0:
            raise ValueError("seed must be non-negative, got %d" % self.seed)
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("densify_samples", "size_cap", "max_maps", "candidate_cap"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        # p^{3n} >= 2^{3n(bits(p) - 1)}: refuse an oversized p or n before
        # the trial-division primality test and without forming the power
        if self.p >= 2 and 3 * self.n * (self.p.bit_length() - 1) >= self.size_cap.bit_length():
            raise ValueError(
                "p^{3n} for p = %d, n = %d exceeds the size budget %d; the pipeline "
                "loops over triples and refuses to start" % (self.p, self.n, self.size_cap)
            )
        if not _is_prime(self.p):
            raise ValueError("p = %r is not prime" % (self.p,))
        if self.p < 5:
            raise ValueError("cubic extraction needs p >= 5, got p = %d" % self.p)
        for name in ("u4_threshold", "c1", "eta", "zeta"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError("%s must lie in (0, 1], got %r" % (name, v))
        for name in ("density_floor", "defect_ceiling", "stability_floor", "fit_floor", "alpha_floor"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError("%s must lie in [0, 1], got %r" % (name, v))
        if self.t is not None and self.t < 1:
            raise ValueError("t must be positive when given")
        if not self.residual_tol >= 0:
            raise ValueError("residual_tol must be non-negative")
        N = self.p**self.n
        if N**3 > self.size_cap:
            raise ValueError(
                "p^{3n} = %d exceeds the size budget %d; the pipeline loops "
                "over triples and refuses to start" % (N**3, self.size_cap)
            )
        search = quad_search_size(self.p, self.n)
        if search > self.size_cap:
            raise ValueError(
                "the quadratic search's p^{n(n+1)/2} N = %d values exceed the size "
                "budget %d; the pipeline refuses to start" % (search, self.size_cap)
            )

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        if not isinstance(obj, dict):
            raise ValueError("the config must be a JSON object, got %s" % type(obj).__name__)
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


@dataclass(slots=True)
class StageRecord:
    name: str
    seconds: float
    data: dict


class PipelineHalt(Exception):
    """A measured quantity fell below its configured floor (category
    "precondition") or an exhaustive verification failed (category
    "verification").  The halt belongs to the running stage, so it names
    none."""

    def __init__(self, category: str, reason: str, data: dict | None = None):
        super().__init__("%s halt: %s" % (category, reason))
        self.category = category
        self.reason = reason
        self.data = data or {}


@dataclass(slots=True)
class PipelineReport:
    schema: str
    config: PipelineConfig
    stages: list
    halted: bool
    halt_stage: str | None
    halt_category: str | None
    halt_reason: str | None
    result: dict | None

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "config": _json_safe(self.config.to_dict()),
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

    Both come from one `gowers.derivative2_peaks` pass, which transforms
    one spectrum per symmetry orbit of (a, b).  The norm is the mean of its
    power array, as in `uk_norm(f, 4)`, so it equals `uk_norm(f, 4).value`
    bit for bit.  The peak of a spectrum is the lowest r whose magnitude is
    within `gowers.PEAK_TIE_TOL` of the maximum.  The pipeline's gate
    makes this one call, so the gate's seconds include the whole pass.
    """
    params = f.params
    power, peak, mag = derivative2_peaks(f)
    dom = mag >= c1
    kept_peaks = mag[dom]
    stats = {
        "density": float(dom.mean()),
        "kept": int(dom.sum()),
        "min_kept_peak": float(kept_peaks.min()) if kept_peaks.size else None,
        "mean_kept_peak": float(np.mean(kept_peaks)) if kept_peaks.size else None,
    }
    u4 = norm_from_power(float(power.mean()), 4).value
    return PartialMap(params, params, dom, np.where(dom, peak, 0)), stats, u4


def _vote_histogram(phi: PartialMap) -> np.ndarray:
    """(N, N, q) integer vote histogram at every (a, b): N^2 `line_triple_conv`
    of the row graphs plus the column graphs, at most 2 N^2, so rounding is exact."""
    params, vp = phi.params, phi.value_params
    graph = phi.domain[:, :, None] & (phi.values[:, :, None] == np.arange(vp.size))
    theta = line_triple_conv(graph, params, vp)
    theta += line_triple_conv(graph.transpose(1, 0, 2), params, vp).transpose(1, 0, 2)
    return np.rint(theta * params.size**2).astype(np.int64)


def consensus_rounding(phi: PartialMap) -> tuple[PartialMap, dict]:
    """Replace each value by the winner of its row and column line votes.

    Rows and columns of a bi-affine map are affine, so for domain points
    b1, b2, b3 of a common row with b1 + b2 - b3 = b, V[b1] + V[b2] - V[b3]
    votes for the value at b; columns vote the same way.  The histograms of
    every row and column are counted at once by `galg.line_triple_conv`.
    The winner is the most-voted value, the lowest one on ties, and its share
    of the votes is the rounding stability at that point.  Every domain
    point is voted on: the triple (b, b, b) votes for it on its row and on
    its column, so its histogram holds at least 2 votes.
    """
    params, vp = phi.params, phi.value_params
    dom, vmap = phi.domain, phi.values
    hist = _vote_histogram(phi)
    rounded = np.where(dom, hist.argmax(axis=2), 0)  # first max: lowest value wins ties
    stability = hist.max(axis=2)[dom] / hist.sum(axis=2)[dom]
    stats = {
        "stability_mean": float(stability.mean()) if dom.any() else 0.0,
        "stability_min": float(stability.min()) if dom.any() else 0.0,
        "changed": int(np.sum(dom & (rounded != vmap))),
        "voted": int(dom.sum()),
    }
    return PartialMap(params, vp, dom, rounded.astype(np.int64)), stats


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

    One elimination pass: the first non-zero residual in scan order is kept,
    its pivot normalised and its pivot column eliminated from the residuals
    after it; a residual is zero exactly when its row lies in the span of
    the rows kept before it.  Rows are reduced in blocks of doubling size,
    each first by the pivots so far, and the scan stops at d = rows.shape[1]
    kept rows, which span every row.
    """
    m, d = rows.shape
    order = (start + np.arange(m)) % m
    keep: list[int] = []
    pivots: list[tuple[int, np.ndarray]] = []
    lo, size = 0, 4 * d
    while lo < m and len(keep) < d:
        idx = order[lo : lo + size]
        resid = rows[idx] % p
        for c, pivot in pivots:
            resid = (resid - resid[:, c : c + 1] * pivot) % p
        lo, size = lo + size, 2 * size
        while len(keep) < d:
            live = np.flatnonzero(resid.any(axis=1))
            if live.size == 0:
                break
            i = int(live[0])
            c = int(np.flatnonzero(resid[i])[0])
            pivots.append((c, resid[i] * inv_mod(int(resid[i, c]), p) % p))
            keep.append(int(idx[i]))
            idx, resid = idx[i + 1 :], resid[i + 1 :]
            resid = (resid - resid[:, c : c + 1] * pivots[-1][1]) % p
    return keep


def _fit_design(phi: PartialMap) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(p, n, rows, targets) of the fit: the design rows (a_i b_j, a, b, 1)
    of the domain's points in scan order, in digits, and the digits of their
    values."""
    params, vp = phi.params, phi.value_params
    if vp.p != params.p:
        raise ValueError("bi-affine fitting needs matching characteristics")
    p, n = params.p, params.n
    xs, ys = np.nonzero(phi.domain)
    m = len(xs)
    if m < 1:
        raise ValueError("cannot fit an empty map")
    da = params.digits(xs.astype(np.int64))
    db = params.digits(ys.astype(np.int64))
    ab = (da[:, :, None] * db[:, None, :]).reshape(m, n * n)
    rows = np.concatenate([ab, da, db, np.ones((m, 1), dtype=np.int64)], axis=1) % p
    return p, n, rows, vp.digits(phi.values[xs, ys])


def _fit_offset(design: tuple, start: int, offset: int) -> BiAffineFit:
    """The fit on the independent design rows scanned from `start`: one
    `_first_independent_rows` pass, one row reduction of [rows | target
    digits] for every output digit, and the agreement on the whole domain."""
    p, n, rows, targets = design
    d, vn = rows.shape[1], targets.shape[1]
    keep = _first_independent_rows(p, rows, start)
    red, pivots = gf_rowreduce(p, np.concatenate([rows[keep], targets[keep]], axis=1))
    # the kept rows are independent, so every pivot is a model column
    sol = np.zeros((vn, d), dtype=np.int64)
    sol[:, pivots] = red[:, d:].T
    T = sol[:, : n * n].reshape(vn, n, n)
    s = sol[:, n * n : n * n + n]
    t = sol[:, n * n + n : n * n + 2 * n]
    e = sol[:, -1]
    pred = rows @ sol.T % p  # the model's columns are the design's
    agreement = float(np.mean(np.all(pred == targets, axis=1)))
    return BiAffineFit(T, s, t, e, agreement, offset)


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
    majority structure.  The scan stops at the first offset whose fit
    explains every point: a later one can only replace it by beating
    agreement 1.0, which no fit does.

    Offset 0 alone decides whether any model explains every point: its kept
    rows span every design row, and a model explaining every point predicts
    the targets on them, as the offset-0 solution does, so by linearity the
    two predict alike everywhere.  So `fit_biaffine(phi, 1)`, the rounding
    stage's solve, is exact exactly when the full fit is, and is it then.
    """
    design = _fit_design(phi)
    m = len(design[2])  # the design rows
    best: BiAffineFit | None = None
    for j in range(max(1, offsets)):
        cand = _fit_offset(design, (j * m) // max(1, offsets), j)
        if best is None or cand.agreement > best.agreement + 1e-12:
            best = cand
        if best.agreement == 1.0:
            break
    assert best is not None
    return best


def _round_cell(phi: PartialMap) -> tuple[PartialMap, dict, BiAffineFit | None]:
    """The rounding stage: (rounded map, stats, fit).  A map the offset-0 fit
    explains is kept unvoted with that fit; any other is voted, fit None."""
    fit = fit_biaffine(phi, offsets=1)
    if fit.agreement == 1.0:
        stats = {"stability_mean": 1.0, "stability_min": 1.0, "changed": 0, "voted": int(phi.domain.sum())}
        return phi, stats, fit
    return *consensus_rounding(phi), None


def affine_in_each_variable(params: GroupParams, table: np.ndarray) -> bool:
    """Whether the (N, N, digits) table is affine in each variable: every
    difference along either variable is constant in that variable, so all
    quadruple identities hold in each argument.

    Only the n basis shifts e_j are checked in each variable, which is
    enough: if f(x, y + e_j) - f(x, y) = c_j(x) for every y, then
    f(x, y) = f(x, 0) + sum_j y_j c_j(x) is affine in y, and likewise in x.
    The densify stage calls it once on the peak map's value digits."""
    p = params.p
    add = _add_table(p, params.n)
    for h in p ** np.arange(params.n):
        dif = (table[:, add[:, h], :] - table) % p
        if not np.all(dif == dif[:, :1, :]):
            return False
        dif = (table[add[:, h], :, :] - table) % p
        if not np.all(dif == dif[:1, :, :]):
            return False
    return True


def extract_affine_parts(fit: BiAffineFit) -> tuple[tuple, tuple]:
    """The fitted model's affine parts as the symmetry stage's (matrix, shift)
    maps: rho = (s, e) in a and sigma = (t, 0) in b, so that
    a.T.b + rho(a) + sigma(b) is the fit itself."""
    return (fit.s, fit.e), (fit.t, np.zeros_like(fit.e))


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
        config=cfg,
        stages=stages,
        halted=False,
        halt_stage=None,
        halt_category=None,
        halt_reason=None,
        result=None,
    )

    last_end = time.perf_counter()

    def close(data: dict) -> tuple[str, float]:
        """Record the running stage, timed from the end of the last one."""
        nonlocal last_end
        now = time.perf_counter()
        name, seconds = STAGES[len(stages)], now - last_end
        stages.append(StageRecord(name, seconds, data))
        last_end = now
        return name, seconds

    def record(data: dict) -> None:
        _log.info("stage %s done in %.3fs", *close(data))

    try:
        _pipeline_stages(f, cfg, record)
    except PipelineHalt as err:
        # without its traceback: the traceback's frames hold the run's arrays
        # and, through `halt`, a reference cycle only the collector would free
        halt = err.with_traceback(None)
    else:
        report.result = stages[-1].data["result"]
        return report
    name, seconds = close(halt.data)
    _log.info("stage %s halted (%s) in %.3fs: %s", name, halt.category, seconds, halt.reason)
    report.halted = True
    report.halt_stage = name
    report.halt_category = halt.category
    report.halt_reason = halt.reason
    return report


def _require(ok: bool, reason: str, data: dict | None = None, category: str = "precondition") -> None:
    """Halt the running stage with `reason` and `data` unless `ok`."""
    if not ok:
        raise PipelineHalt(category, reason, data)


def _pipeline_stages(f: GroupFn, cfg: PipelineConfig, record) -> None:
    params = f.params
    _require(
        (params.p, params.n) == (cfg.p, cfg.n),
        "input lives on F_%d^%d but the config says F_%d^%d" % (params.p, params.n, cfg.p, cfg.n),
    )
    sup = float(np.abs(f.values).max(initial=0.0))
    _require(sup <= 1 + 1e-9, "input is not bounded: sup norm %.6f > 1" % sup, {"sup": sup})

    # -------- gate (and the peaks' pass over the same spectra) --------
    phi, peak_stats, u4 = derivative_peak_map(f, cfg.c1)
    gate_data = {"u4": u4, "threshold": cfg.u4_threshold, "sup": sup}
    _require(
        u4 >= cfg.u4_threshold,
        "fourth uniformity norm %.6f is below the threshold %.6f" % (u4, cfg.u4_threshold),
        gate_data,
    )
    record(gate_data)

    # -------- peaks --------
    peak_stats["c1"] = cfg.c1
    _require(
        peak_stats["density"] >= cfg.density_floor,
        "peak-map density %.4f is below the floor %.4f" % (peak_stats["density"], cfg.density_floor),
        peak_stats,
    )
    record(peak_stats)

    # -------- densify --------
    # a map on all of G^2 that is affine in each variable respects every
    # arrangement: the row filter keeps all of it, and every restriction of
    # it, phi2 included, has defect exactly 0
    exact = bool(phi.domain.all()) and affine_in_each_variable(params, phi.value_params.digits(phi.values))
    filtered = phi if exact else row_freiman_filter(phi)
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
    _require(
        dens_data["density"] >= cfg.density_floor,
        "densified map density %.4f is below the floor %.4f" % (dens_data["density"], cfg.density_floor),
        dens_data,
    )
    record(dens_data)

    # -------- defect --------
    defect = 0.0 if exact else float(bihom_defect(phi2.to_dist_fn(), phi2.indicator()))
    defect_data = {"defect": defect, "ceiling": cfg.defect_ceiling}
    _require(
        defect <= cfg.defect_ceiling,
        "bi-homomorphism defect %.4f exceeds the ceiling %.4f" % (defect, cfg.defect_ceiling),
        defect_data,
    )
    record(defect_data)

    # -------- cover --------
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
    _require(
        not brep.budget_exhausted, "bilinear Bogolyubov cover exhausted its map budget", cover_data
    )
    record(cover_data)

    # -------- cells --------
    # the cell code packs N^2 p^k cells into int64, so that bounds p^k too
    pk = params.p**beta.k
    budget = min(cfg.size_cap, (2**63 - 1) // params.size**2)
    _require(
        pk <= budget,
        "cover codomain F_%d^%d is too large to decompose within the size "
        "budget %d; raise zeta or the budget" % (params.p, beta.k, budget),
        cover_data,
    )
    t = cfg.t if cfg.t is not None else max(3 * beta.k + 2, 7)
    dec = bohr_decompose(beta, t)
    code = dec.cell_index()
    occupied, counts = np.unique(code[phi2.domain], return_counts=True)
    best = int(np.argmax(counts))
    best_code, best_count = int(occupied[best]), int(counts[best])
    v, w = divmod(best_code // pk, params.size)
    z = best_code % pk
    cell_mask = code == best_code
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
        "cells_checked": np.unique(code).size,
        "occupied_cells": occupied.size,
        "cell": [v, w, z],
        "cell_points": best_count,
        "cell_size": cell_size,
        "cell_fill": best_count / cell_size if cell_size else 0.0,
    }
    min_fit_points = params.n * params.n + 2 * params.n + 1
    _require(
        best_count >= min_fit_points,
        "best cell carries %d points, fewer than the %d needed to fit" % (best_count, min_fit_points),
        cell_data,
    )
    record(cell_data)

    # -------- rounding --------
    rounded, round_stats, fit = _round_cell(cell_phi)
    round_stats["reference_stability_bound"] = max(0.0, 1.0 - STABILITY_LOSS_FACTOR * cfg.eta)
    _require(
        round_stats["stability_mean"] >= cfg.stability_floor,
        "mean vote stability %.4f is below the floor %.4f"
        % (round_stats["stability_mean"], cfg.stability_floor),
        round_stats,
    )
    record(round_stats)

    # -------- extend --------
    if fit is None:
        fit = fit_biaffine(rounded)
    # lists, not views that would keep the fit's solve buffer alive in the report
    extend_data = {
        "agreement": fit.agreement,
        "offset": fit.offset,
        "s": fit.s.tolist(),
        "t": fit.t.tolist(),
        "e": fit.e.tolist(),
    }
    _require(
        fit.agreement >= cfg.fit_floor,
        "bi-affine fit explains only %.4f of the rounded map, below the floor %.4f"
        % (fit.agreement, cfg.fit_floor),
        extend_data,
    )
    rho, sig = extract_affine_parts(fit)
    record(extend_data)

    # -------- symmetry --------
    tau = TrilinearForm.from_component_mats(params, fit.T)
    try:
        sigma, srep = symmetry_pipeline(f, tau, rho, sig)
    except RuntimeError as err:
        raise PipelineHalt("verification", str(err))
    sym_data = {
        "alpha": srep.alpha,
        "residual_rank": srep.residual_rank,
        "bound": srep.bound,
        "asserted": srep.asserted,
        "perm_ranks": {_PERM_KEYS[perm]: r for perm, r in srep.perm_ranks},
    }
    _require(
        srep.alpha >= cfg.alpha_floor,
        "trilinear correlation %.6f is below the floor %.6f" % (srep.alpha, cfg.alpha_floor),
        sym_data,
    )
    _require(
        srep.residual_rank <= cfg.residual_tol,
        "asymmetric residual has rank %.6f; descending to a subspace where it "
        "vanishes is out of scope at this size" % srep.residual_rank,
        sym_data,
    )
    record(sym_data)

    # -------- cubic --------
    p = params.p
    kappa0, cstar = kappa_from_sigma(sigma)
    scale = (-pow(cstar, p - 2, p)) % p
    kappa = kappa0.scale(scale)
    g = GroupFn(params, f.values * np.exp(-2j * np.pi * kappa.phase_table() / p))
    u3 = uk_norm(g, 3).value
    # the box correlation of g against the fitted maps' phases is
    # |tri_correlation(f, h, sigma)|; the symmetry stage measured it for
    # tau, which is sigma whenever the residual is zero
    if np.array_equal(sigma.coeffs, tau.coeffs):
        alpha_box = srep.alpha
    else:
        alpha_box = abs(tri_correlation(f, srep.phase, sigma))
    cubic_data = {
        "cstar": cstar,
        "scale": scale,
        "kappa_terms": kappa.terms,
        "alpha_box": alpha_box,
        "u3_norm": u3,
    }
    _require(
        u3 >= srep.alpha - 1e-9,
        "third uniformity norm %.6f fell below the certified correlation %.6f" % (u3, srep.alpha),
        cubic_data,
        "verification",
    )
    record(cubic_data)

    # -------- quadratic --------
    quad, quad_corr = quad_phase_search(g)
    phase = kappa + quad
    final_corr = abs(correlation(f, phase))
    record(
        {
            "quad_terms": quad.terms,
            "quad_correlation": quad_corr,
            "result": {
                "phase_terms": phase.terms,
                "correlation": final_corr,
                "u4": u4,
            },
        }
    )

