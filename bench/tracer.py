"""Per-layer tracing for the benchmark, done from outside the package.

The tracer replaces the public functions listed in ``TARGETS`` with timing
wrappers in every ``ulab.*`` module namespace that holds them (``from .galg
import bihom_defect`` copies the binding, so patching only the defining
module would miss most calls), records one span per call in memory, and puts
every original binding back on exit.  Work counts are read from the wrapped
calls' arguments and return values; nothing inside ``ulab`` changes.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TARGETS = {
    "core": ["dft"],
    "gowers": ["uk_norm", "derivative2"],
    "grid": ["arr_functional", "mixed_self"],
    "galg": ["bihom_defect", "mixed_conv_dist", "grid_inner_dist"],
    "arrange": ["row_freiman_filter", "densify", "respect_stats"],
    "bilinear": ["bogolyubov_bilinear", "bohr_decompose"],
    "trilinear": ["symmetry_pipeline", "kappa_from_sigma", "u3_lower", "quad_phase_search"],
    "cli": [
        "run_inverse_pipeline",
        "derivative_peak_map",
        "consensus_rounding",
        "fit_biaffine",
        "affine_in_each_variable",
        "extract_affine_parts",
    ],
}
ROOT = "cli.run_inverse_pipeline"
STAGES = [
    "gate", "peaks", "densify", "defect", "cover", "cells",
    "rounding", "extend", "backfit", "symmetry", "cubic", "quadratic",
]


def _bihom_points(args, result):
    return {"galg.bihom_defect.points": len(args["phi"].table)}


def _respect_samples(args, result):
    # only Monte-Carlo mode draws samples; exact mode ignores the argument
    return {"arrange.respect_stats.samples": args["samples"] if args["mode"] == "mc" else 0}


def _densify_attempts(args, result):
    # An attempt whose Monte-Carlo sample found no arrangement at all records
    # a criterion of exactly 0.0, and densify ranks it as unmeasured, so only
    # a positive criterion counts as accepted.
    attempts = result[1].attempts
    nonempty = [a for a in attempts if a["criterion"] is not None]
    return {
        "arrange.densify.attempts": len(attempts),
        "arrange.densify.nonempty": len(nonempty),
        "arrange.densify.accepted": sum(a["criterion"] > 0 for a in nonempty),
    }


def _kappa_points(args, result):
    return {"trilinear.kappa_from_sigma.points": args["sigma"].params.size ** 4}


def _quad_candidates(args, result):
    p, n = args["g"].params.p, args["g"].params.n
    return {"trilinear.quad_phase_search.candidates": p ** (n * (n + 1) // 2 + n + 1)}


def _halt_stage(args, result):
    if not result.halted:
        return {}
    return {"halt.%s" % result.halt_stage: 1}


# name -> (counter, read before the call).  Argument-based counts are taken
# before the call, so a call that raises (kappa_from_sigma on F_7^2) counts;
# result-based ones run only after a call returns.
COUNTERS = {
    "galg.bihom_defect": (_bihom_points, True),
    "arrange.respect_stats": (_respect_samples, True),
    "arrange.densify": (_densify_attempts, False),
    "trilinear.kappa_from_sigma": (_kappa_points, True),
    "trilinear.quad_phase_search": (_quad_candidates, True),
    "cli.run_inverse_pipeline": (_halt_stage, False),
}


class Tracer:
    """Context manager that traces every call to the ``TARGETS``.

    ``spans`` holds one ``[name, parent, start, end, raised, run]`` list per
    call, where ``parent`` is the index of the enclosing traced span (-1 at a
    root) and ``run`` is the value of ``self.run`` when the call started, so
    spans of one pipeline run share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -------- install / restore --------

    def __enter__(self) -> "Tracer":
        originals = {}
        for mod, names in TARGETS.items():
            module = importlib.import_module("ulab." + mod)
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap("%s.%s" % (mod, name), fn))
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "ulab" and not modname.startswith("ulab."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        self._saved.append((module, attr, value))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            bound = None
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter[1]:
                    self.counts.update(counter[0](bound.arguments, None))
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, self.run]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None and not counter[1]:
                self.counts.update(counter[0](bound.arguments, result))
            return result

        return wrapper

    # -------- summaries --------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its traced children."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """calls / s / self_s per target, work counts, halts and raises."""
        out: dict[str, float] = {}
        calls: Counter = Counter()
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        raised: Counter = Counter()
        for (name, _, start, end, err, _), s in zip(self.spans, self.self_times()):
            calls[name] += 1
            incl[name] += end - start
            own[name] += s
            raised[name.split(".")[0]] += err
        for mod, names in TARGETS.items():
            for fn in names:
                key = "%s.%s" % (mod, fn)
                out[key + ".calls"] = calls[key]
                out[key + ".s"] = incl[key]
                out[key + ".self_s"] = own[key]
        c = self.counts
        out["galg.bihom_defect.points"] = c["galg.bihom_defect.points"]
        out["arrange.respect_stats.samples"] = c["arrange.respect_stats.samples"]
        out["arrange.densify.attempts"] = c["arrange.densify.attempts"]
        nonempty = c["arrange.densify.nonempty"]
        out["arrange.densify.accept_ratio"] = (
            c["arrange.densify.accepted"] / nonempty if nonempty else 0.0
        )
        out["trilinear.kappa_from_sigma.points"] = c["trilinear.kappa_from_sigma.points"]
        out["trilinear.quad_phase_search.candidates"] = c["trilinear.quad_phase_search.candidates"]
        for stage in STAGES:
            out["halt." + stage] = c["halt." + stage]
        for mod in TARGETS:
            out[mod + ".raised"] = raised[mod]
        return out

    def dump(self, path, runs: list[str]) -> None:
        """Write the spans as gzipped JSON: a name table, the label of each
        run id, and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], parent, round(start, 7), round(end, 7), int(err), run]
            for n, parent, start, end, err, run in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["name", "parent", "start", "end", "raised", "run"],
                 "names": names, "runs": runs, "spans": rows},
                fh, separators=(",", ":"),
            )
