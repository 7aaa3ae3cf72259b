"""Self-tests for the benchmark's tracer.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from ulab import cli  # noqa: E402

MODULES = ["ulab"] + ["ulab." + m for m in tracer.TARGETS]


def _bindings() -> dict:
    return {
        (name, attr): value
        for name in MODULES
        for attr, value in vars(importlib.import_module(name)).items()
        if callable(value)
    }


def _traced_run(case):
    with tracer.Tracer() as tr:
        tr.run = 0
        report = cli.run_inverse_pipeline(case.f, case.cfg)
    return tr, report


def test_trace_wraps_copied_bindings_and_restores_every_one():
    before = _bindings()
    case = workloads.warmup_case(3)
    with tracer.Tracer():
        # the copies made by `from .core import dft` etc. are wrapped too
        assert cli.dft is not before[("ulab.cli", "dft")]
        assert cli.derivative2 is not before[("ulab.cli", "derivative2")]
        assert importlib.import_module("ulab.core").dft is not before[("ulab.core", "dft")]
        cli.run_inverse_pipeline(case.f, case.cfg)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_bindings_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_sum_to_the_root_time():
    tr, report = _traced_run(workloads.warmup_case(3))
    assert not report.halted
    m = tr.metrics()
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    root = m[tracer.ROOT + ".s"]
    assert root > 0
    assert total_self == pytest.approx(root, rel=1e-9, abs=1e-9)
    assert m[tracer.ROOT + ".calls"] == 1
    assert all(span[5] == 0 for span in tr.spans)


def test_tracing_leaves_the_report_unchanged():
    case = workloads.warmup_case(5)
    plain = cli.run_inverse_pipeline(case.f, case.cfg)
    _, traced = _traced_run(case)
    assert traced.canonical_bytes() == plain.canonical_bytes()


def test_work_counts_and_halts_come_from_the_calls():
    case = workloads.warmup_case(3)
    tr, _ = _traced_run(case)
    m = tr.metrics()
    assert m["trilinear.kappa_from_sigma.points"] == 5**4
    assert m["trilinear.quad_phase_search.candidates"] == 5**3
    assert m["arrange.respect_stats.samples"] == case.cfg.densify_samples * m["arrange.respect_stats.calls"]
    assert m["arrange.densify.attempts"] >= 1
    assert sum(m["halt." + s] for s in tracer.STAGES) == 0
    noise = workloads.make_cases("noise_screen", 1)[0]
    tr, report = _traced_run(noise)
    assert report.halted and tr.metrics()["halt." + report.halt_stage] == 1
