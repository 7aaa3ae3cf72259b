"""Benchmark of the cubic-phase recovery pipeline, ``ulab.cli.run_inverse_pipeline``.

Run from the repository root:

    python3 bench/run.py --workload exact_cubic --seed 1 --seconds 30 --trace 0

The workload's input list (see ``workloads.py``) is generated from ``--seed``
and fed through the pipeline in a closed loop: one process, one input at a
time, BLAS/OpenMP threads pinned to 1.  Whole passes over the list repeat
while the next one still fits in ``--seconds`` (at least one pass).

Every run checks its outputs: each finished run's correlation is recomputed
with plain numpy from the returned phase terms, inputs marked
``must_recover`` must return their planted phase, and each input's report
bytes must be identical on every pass (and, with ``--trace 1``, identical
traced and untraced).  A failed check prints ``"correct": false`` and exits 1.

``--trace 0`` reports the end-to-end metrics:

    wall_s          median seconds for one pass over the whole input list
    run_s_p50       median seconds of one pipeline run, over every run made
    setup_s         import + input generation + one tiny F_5 run, median of
                    this process and four fresh interpreters
    peak_rss_mb     peak resident memory of this process
    reported_frac   share of runs that returned a report instead of raising
    sound_frac      share of runs that returned the planted phase or halted,
                    i.e. neither raised nor returned a wrong phase

``--trace 1`` alternates untraced and traced passes and reports, per traced
pass, the per-layer numbers of ``tracer.py`` (median over traced passes),
outcome counts, and the tracing overhead.  The spans of the last traced pass
go to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (runs that raised) and ``metrics``.
"""

import os
import time

_T0 = time.perf_counter()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = BENCH / "out"
WORKLOADS = ("exact_cubic", "corrupt_cubic", "noise_screen")
SETUP_SAMPLES = 5
CORR_TOL = 1e-9


# ============================================================
# set-up
# ============================================================


def setup(workload: str, seed: int):
    """Import the package, build the inputs and run the warm-up input once;
    returns the cases and the seconds since interpreter start-up ended."""
    import numpy  # noqa: F401

    import ulab
    import workloads
    from ulab import cli

    if Path(ulab.__file__).resolve().parent != SRC / "ulab":
        raise SystemExit("bench: imported ulab from %s, not %s" % (ulab.__file__, SRC))
    cases = workloads.make_cases(workload, seed)
    warm = workloads.warmup_case(seed)
    report = cli.run_inverse_pipeline(warm.f, warm.cfg)
    if report.halted or _terms(report.result["phase_terms"]) != dict(warm.planted.terms):
        raise SystemExit("bench: the warm-up input did not return its planted phase")
    return cases, time.perf_counter() - _T0


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=REPO, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ============================================================
# one pass over the inputs
# ============================================================


@dataclass
class Outcome:
    label: str
    seconds: float
    kind: str  # recovered | wrong | halted | raised
    digest: str
    report: object  # PipelineReport, or None when the run raised
    error: str | None


def _terms(pairs) -> dict:
    return {tuple(mono): coef for mono, coef in pairs}


def run_case(case) -> Outcome:
    from ulab import cli

    t0 = time.perf_counter()
    try:
        # looked up on the module so a tracer's wrapper is the one called
        report = cli.run_inverse_pipeline(case.f, case.cfg)
    except Exception as err:  # counted as a failed run, never hidden
        seconds = time.perf_counter() - t0
        text = "%s: %s" % (type(err).__name__, err)
        return Outcome(case.label, seconds, "raised",
                       hashlib.sha256(("raised " + text).encode()).hexdigest(), None, text)
    seconds = time.perf_counter() - t0
    if report.halted:
        kind = "halted"
    elif case.planted is not None and _terms(report.result["phase_terms"]) == dict(case.planted.terms):
        kind = "recovered"
    else:
        kind = "wrong"
    return Outcome(case.label, seconds, kind,
                   hashlib.sha256(report.canonical_bytes()).hexdigest(), report, None)


def run_pass(cases, tracer=None) -> tuple[float, list[Outcome]]:
    t0 = time.perf_counter()
    outcomes = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.run = i
        outcomes.append(run_case(case))
    return time.perf_counter() - t0, outcomes


# ============================================================
# output checks
# ============================================================


def oracle_correlation(f, phase_terms) -> float:
    """|E_x f(x) omega^{-phase(x)}| with digits x_j = (x // p^j) mod p."""
    import numpy as np

    p, n = f.params.p, f.params.n
    idx = np.arange(p**n, dtype=np.int64)
    digits = [(idx // p**j) % p for j in range(n)]
    phase = np.zeros(p**n, dtype=np.int64)
    for mono, coef in phase_terms:
        term = np.full(p**n, coef % p, dtype=np.int64)
        for v in mono:
            term = term * digits[v] % p
        phase = (phase + term) % p
    return float(abs(np.mean(f.values * np.exp(-2j * np.pi * phase / p))))


def check_pass(cases, outcomes, reference) -> list[str]:
    """Problems with one pass: oracle mismatches, missing recoveries, and
    reports that differ from the first untraced pass."""
    problems = []
    for case, out, ref in zip(cases, outcomes, reference):
        if out.digest != ref.digest:
            problems.append("%s: report differs from the first untraced pass" % case.label)
        if out.report is not None and not out.report.halted:
            res = out.report.result
            want = oracle_correlation(case.f, res["phase_terms"])
            if abs(want - res["correlation"]) > CORR_TOL:
                problems.append("%s: correlation %r, oracle %r" % (case.label, res["correlation"], want))
        if case.must_recover and out.kind != "recovered":
            problems.append("%s: planted phase not returned (%s)" % (case.label, out.error or out.kind))
    return problems


# ============================================================
# measuring
# ============================================================


def measure(seconds: float, unit):
    """Repeat ``unit`` while the next repetition still fits in ``seconds``."""
    t0 = time.perf_counter()
    results = []
    while True:
        u0 = time.perf_counter()
        results.append(unit())
        took = time.perf_counter() - u0
        if time.perf_counter() - t0 + took > seconds:
            return results


def end_to_end(passes, setup_s: float) -> dict:
    runs = [o for _, outs in passes for o in outs]
    kinds = [o.kind for o in runs]
    return {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "run_s_p50": (statistics.median(o.seconds for o in runs), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "reported_frac": (1 - kinds.count("raised") / len(kinds), "fraction"),
        "sound_frac": ((kinds.count("recovered") + kinds.count("halted")) / len(kinds), "fraction"),
    }


def per_layer(traced, untraced_walls) -> dict:
    layer = [t.metrics() for _, _, t in traced]
    out = {k: (statistics.median(m[k] for m in layer), _layer_unit(k)) for k in layer[0]}
    outs = traced[-1][1]
    for kind in ("recovered", "wrong", "raised"):
        out["outcome." + kind] = (sum(o.kind == kind for o in outs), "count")
    wall_t = statistics.median(w for w, _, _ in traced)
    wall_u = statistics.median(untraced_walls)
    out["trace.overhead"] = ((wall_t - wall_u) / wall_u, "ratio")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("accept_ratio"):
        return "ratio"
    return "count"


def stage_lines(cases, traced) -> list[str]:
    """Per input: outcome, the dominant layer by self time, and the halting
    stage's seconds as the report records them and as the wrappers saw them
    (the run's traced time minus the report's other stages)."""
    _, outs, tr = traced[-1]
    own = tr.self_times()
    by_run: dict[int, dict[str, float]] = {}
    root: dict[int, float] = {}
    for (name, parent, start, end, _, run), s in zip(tr.spans, own):
        mods = by_run.setdefault(run, {})
        mod = name.split(".")[0]
        mods[mod] = mods.get(mod, 0.0) + s
        if name == tracer.ROOT:
            root[run] = root.get(run, 0.0) + end - start
    lines = []
    for i, (case, out) in enumerate(zip(cases, outs)):
        mods = by_run.get(i, {})
        total = sum(mods.values()) or 1.0
        top = max(mods, key=mods.get) if mods else "-"
        line = "layers %-16s %-9s top %s %.0f%% of %.3fs" % (
            case.label, out.kind, top, 100 * mods.get(top, 0.0) / total, root.get(i, 0.0))
        rep = out.report
        if rep is not None and rep.halted:
            others = sum(s.seconds for s in rep.stages[:-1])
            line += "; halted at %s: report %.3fs, wrappers %.3fs" % (
                rep.halt_stage, rep.stages[-1].seconds, root.get(i, 0.0) - others)
        lines.append(line)
    return lines


# ============================================================
# entry point
# ============================================================


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone and print it (used for the setup_s samples)")
    args = ap.parse_args(argv)

    if not (SRC / "ulab" / "__init__.py").is_file():
        print("bench: no ulab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cases, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    samples = [own_setup] + [
        setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    setup_s = statistics.median(samples)
    env = environment()
    print("env", json.dumps(env, sort_keys=True))
    print("setup_s samples", " ".join("%.4f" % s for s in samples))

    if args.trace:
        def unit():
            plain = run_pass(cases)
            with tracer.Tracer() as tr:
                wall, outs = run_pass(cases, tr)
            return plain, (wall, outs, tr)

        pairs = measure(args.seconds, unit)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
    else:
        plain = measure(args.seconds, lambda: run_pass(cases))
        traced = []
    # every pass, traced ones included, must reproduce the first one's reports
    passes = plain + [(w, outs) for w, outs, _ in traced]
    reference = plain[0][1]
    problems = []
    for _, outs in passes:
        problems += check_pass(cases, outs, reference)
    problems = sorted(set(problems))

    runs = [o for _, outs in passes for o in outs]
    for w, _ in plain:
        print("pass %.4fs" % w)
    for i, (case, out) in enumerate(zip(cases, reference)):
        times = [outs[i].seconds for _, outs in plain]
        halt = " at %s" % out.report.halt_stage if out.kind == "halted" else ""
        print("input %-16s %-9s %s median %.4fs%s%s" % (
            case.label, out.kind, out.digest, statistics.median(times), halt,
            " (%s)" % out.error if out.error else ""))
    if traced:
        print("\n".join(stage_lines(cases, traced)))
        OUT.mkdir(exist_ok=True)
        traced[-1][2].dump(OUT / ("spans-%s-seed%d.json.gz" % (args.workload, args.seed)),
                           [c.label for c in cases])
        metrics = per_layer(traced, [w for w, _ in plain])
    else:
        metrics = end_to_end(plain, setup_s)
    print("runs %d in %d passes of %d inputs" % (len(runs), len(passes), len(cases)))
    for name, (value, unit_name) in metrics.items():
        print("metric %-44s %.6g %s" % (name, value, unit_name))
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_samples": samples, "pass_walls": [w for w, _ in passes],
        "digests": {o.label: o.digest for o in reference}, "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(o.kind == "raised" for o in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
