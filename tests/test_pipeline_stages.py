"""The running-stage rule of `ulab.pipeline`: stages are recorded in `STAGES`
order, so the running stage is `STAGES[len(recorded)]`.

A fake clock stands in for `time` inside `ulab.pipeline` and keeps every
value it hands out, so the tests see each clock read the pipeline makes:
the stage seconds must be the gaps between consecutive reads (back to back,
the gate from the start of the run), and a halt raised inside any stage,
by a floor or by a failed verification, must name the stage that was
running; a halt in extend's refit of a voted map names extend too.  A
run must also finish with `u3_lower` and `affine_in_each_variable`
raising wherever the package binds them: no stage calls either.
"""

import dataclasses
import sys

import pytest

import ulab.pipeline
from ulab.core import GroupParams, PolyPhase, poly_phase_fn
from ulab.pipeline import STAGES, PipelineConfig, PipelineHalt, run_inverse_pipeline

# the first pipeline function each stage calls on the exact cubic line,
# except peaks, which reads the gate's pass and calls nothing; rounding's
# offset-0 fit explains that line's cell, so extend only splits it
STAGE_KERNELS = {
    "gate": "derivative_peak_map",
    "densify": "row_freiman_filter",
    "defect": "bihom_defect",
    "cover": "bogolyubov_bilinear",
    "cells": "bohr_decompose",
    "rounding": "fit_biaffine",
    "extend": "extract_affine_parts",
    "symmetry": "symmetry_pipeline",
    "cubic": "kappa_from_sigma",
    "quadratic": "quad_phase_search",
}


class FakeClock:
    """perf_counter returns 1, 2, 4, 8, ...: every gap between two reads is
    distinct and exact."""

    def __init__(self) -> None:
        self.reads: list[float] = []

    def perf_counter(self) -> float:
        self.reads.append(float(2 ** len(self.reads)))
        return self.reads[-1]


@pytest.fixture()
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(ulab.pipeline, "time", fake)
    return fake


def _cubic_line():
    params = GroupParams(5, 1)
    f = poly_phase_fn(PolyPhase.from_coeffs(params, {(0, 0, 0): 1, (0, 0): 2, (0,): 1}))
    return f, PipelineConfig(p=5, n=1)


def _assert_back_to_back(report, clock: FakeClock) -> None:
    # one read at the start of the run and one per recorded or halted stage
    assert len(clock.reads) == len(report.stages) + 1
    gaps = [b - a for a, b in zip(clock.reads, clock.reads[1:])]
    assert [s.seconds for s in report.stages] == gaps


def test_every_stage_names_itself_by_the_rule_and_is_timed_back_to_back(clock):
    report = run_inverse_pipeline(*_cubic_line())
    assert not report.halted
    assert [s.name for s in report.stages] == list(STAGES)
    _assert_back_to_back(report, clock)


def test_each_stage_has_a_kernel_to_fail_except_peaks():
    assert set(STAGE_KERNELS) | {"peaks"} == set(STAGES)


def _fail(error):
    def kernel(*args, **kwargs):
        raise error

    return kernel


@pytest.mark.parametrize(
    "stage, error, category",
    [
        (stage, PipelineHalt("precondition", "%s halted" % kernel), "precondition")
        for stage, kernel in STAGE_KERNELS.items()
    ]
    + [("symmetry", RuntimeError("symmetrized coefficients are not symmetric"), "verification")],
    ids=list(STAGE_KERNELS) + ["symmetry-verification"],
)
def test_a_halt_inside_a_stage_names_that_stage(clock, monkeypatch, stage, error, category):
    monkeypatch.setattr(ulab.pipeline, STAGE_KERNELS[stage], _fail(error))
    report = run_inverse_pipeline(*_cubic_line())
    assert report.halted
    reason = error.reason if isinstance(error, PipelineHalt) else str(error)
    assert (report.halt_stage, report.halt_category, report.halt_reason) == (stage, category, reason)
    assert [s.name for s in report.stages] == list(STAGES[: STAGES.index(stage) + 1])
    assert report.stages[-1].data == {}
    _assert_back_to_back(report, clock)


def test_a_halt_in_extends_refit_names_extend(clock, monkeypatch):
    # rounding's fit is made to fall short, so the stage votes, and the
    # halt comes from extend's fit of the rounded map
    fit, votes = ulab.pipeline.fit_biaffine, ulab.pipeline.consensus_rounding
    fits = []

    def short_then_halt(phi, offsets=7):
        fits.append(offsets)
        if len(fits) > 1:
            raise PipelineHalt("precondition", "refit halted")
        return dataclasses.replace(fit(phi, offsets), agreement=0.5)

    voted = []
    monkeypatch.setattr(ulab.pipeline, "fit_biaffine", short_then_halt)
    monkeypatch.setattr(ulab.pipeline, "consensus_rounding", lambda phi: voted.append(phi) or votes(phi))
    report = run_inverse_pipeline(*_cubic_line())
    halt = (report.halt_stage, report.halt_category, report.halt_reason)
    assert halt == ("extend", "precondition", "refit halted")
    assert fits == [1, 7] and len(voted) == 1
    assert [s.name for s in report.stages] == list(STAGES[: STAGES.index("extend") + 1])
    assert report.stages[-2].data["stability_mean"] == 1.0
    _assert_back_to_back(report, clock)


def test_a_floor_halt_at_peaks_names_peaks(clock, monkeypatch):
    peak_map = ulab.pipeline.derivative_peak_map

    def empty_peaks(f, c1):
        phi, stats, u4 = peak_map(f, c1)
        return phi, dict(stats, density=0.0), u4

    monkeypatch.setattr(ulab.pipeline, "derivative_peak_map", empty_peaks)
    report = run_inverse_pipeline(*_cubic_line())
    assert (report.halt_stage, report.halt_category) == ("peaks", "precondition")
    assert report.halt_reason == "peak-map density 0.0000 is below the floor 0.0500"
    assert report.stages[-1].data["density"] == 0.0
    assert [s.name for s in report.stages] == ["gate", "peaks"]
    _assert_back_to_back(report, clock)


def test_no_stage_calls_the_dropped_checks(monkeypatch):
    # the cubic stage reads the norm from uk_norm and the correlation from
    # the symmetry stage, and the extend stage's model is bi-affine by its
    # form; every package binding of the two old checks raises here
    for module in [m for name, m in sys.modules.items() if name.startswith("ulab")]:
        for name in ("u3_lower", "affine_in_each_variable"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _fail(AssertionError("a stage called %s" % name)))
    report = run_inverse_pipeline(*_cubic_line())
    assert not report.halted
    assert [s.name for s in report.stages] == list(STAGES)
