"""The running-stage rule of `ulab.pipeline`: stages are recorded in `STAGES`
order, so the running stage is `STAGES[len(recorded)]`.

A fake clock stands in for `time` inside `ulab.pipeline` and keeps every
value it hands out, so the tests see each clock read the pipeline makes:
the stage seconds must be the gaps between consecutive reads (back to back,
the gate from the start of the run), and a halt raised inside any stage,
by a floor or by a failed verification, must name the stage that was
running; a halt in extend's refit of a voted map names extend too.  A
run must also finish with `u3_lower` raising wherever the package binds
it: no stage calls it.

The densify stage certifies a peak map on all of G^2 that is affine in
each variable, and such a map skips the row filter and the defect's pass:
the exact cubic line does, and the same line with one peak value moved or
one point dropped does not.
"""

import dataclasses
import sys

import numpy as np
import pytest

import cli_oracle
import ulab.pipeline
from ulab.arrange import PartialMap
from ulab.core import GroupFn, GroupParams, PolyPhase, poly_phase_fn
from ulab.galg import bihom_defect
from ulab.pipeline import (
    STAGES,
    BiAffineFit,
    PipelineConfig,
    PipelineHalt,
    affine_in_each_variable,
    run_inverse_pipeline,
)

# the first pipeline function each stage calls on the exact cubic line,
# except peaks, which reads the gate's pass and calls nothing; densify
# certifies that line's peak map, so its defect is 0 with no call, and the
# defect's kernel is the one it calls on the flipped line; rounding's
# offset-0 fit explains the line's cell, so extend only splits it
STAGE_KERNELS = {
    "gate": "derivative_peak_map",
    "densify": "affine_in_each_variable",
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


def _flipped_line():
    # the cubic line with f(0) negated: its peak map is full but not affine
    # in each variable, and the run reaches the defect stage
    f, cfg = _cubic_line()
    values = f.values.copy()
    values[0] *= -1
    return GroupFn(f.params, values), cfg


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
    report = run_inverse_pipeline(*(_flipped_line() if stage == "defect" else _cubic_line()))
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
    # the symmetry stage; every package binding of the old check raises here
    for module in [m for name, m in sys.modules.items() if name.startswith("ulab")]:
        if hasattr(module, "u3_lower"):
            monkeypatch.setattr(module, "u3_lower", _fail(AssertionError("a stage called u3_lower")))
    report = run_inverse_pipeline(*_cubic_line())
    assert not report.halted
    assert [s.name for s in report.stages] == list(STAGES)


def _counted(monkeypatch, name: str) -> list:
    """Record each call of the pipeline's binding of `name`, then make it."""
    calls, fn = [], getattr(ulab.pipeline, name)
    monkeypatch.setattr(ulab.pipeline, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def test_the_exact_line_skips_the_row_filter_and_the_defect_pass(monkeypatch):
    certified = _counted(monkeypatch, "affine_in_each_variable")
    for name in ("row_freiman_filter", "bihom_defect"):
        monkeypatch.setattr(ulab.pipeline, name, _fail(AssertionError("a stage called %s" % name)))
    report = run_inverse_pipeline(*_cubic_line())
    assert not report.halted
    assert [s.name for s in report.stages] == list(STAGES)
    assert len(certified) == 1
    data = {s.name: s.data for s in report.stages}
    assert data["densify"]["row_filter_kept"] == 1.0
    assert data["defect"] == {"defect": 0.0, "ceiling": PipelineConfig().defect_ceiling}


def _changed_peaks(change):
    """derivative_peak_map with `change(domain, values)` applied to its map."""
    peak_map = ulab.pipeline.derivative_peak_map

    def changed(f, c1):
        phi, stats, u4 = peak_map(f, c1)
        domain, values = phi.domain.copy(), phi.values.copy()
        change(domain, values)
        return PartialMap(phi.params, phi.value_params, domain, values), stats, u4

    return changed


def _move_one_value(domain, values):
    values[2, 3] = (values[2, 3] + 1) % 5


def _drop_a_zero(domain, values):
    # a point whose value is 0, the value stored off the domain, so the
    # value table is still affine in each variable and only the domain
    # keeps the map from certifying
    x, y = np.argwhere(domain & (values == 0))[0]
    domain[x, y] = False


@pytest.mark.parametrize("change", [_move_one_value, _drop_a_zero], ids=["moved-value", "dropped-point"])
def test_a_map_that_does_not_certify_runs_the_filter_and_the_defect(monkeypatch, change):
    monkeypatch.setattr(ulab.pipeline, "derivative_peak_map", _changed_peaks(change))
    filtered = _counted(monkeypatch, "row_freiman_filter")
    defects = _counted(monkeypatch, "bihom_defect")
    report = run_inverse_pipeline(*_cubic_line())
    assert STAGES.index(report.stages[-1].name) > STAGES.index("defect")
    assert (len(filtered), len(defects)) == (1, 1)


@pytest.mark.parametrize("group", [(5, 1, 1), (7, 1, 1), (5, 1, 2), (3, 2, 1), (5, 2, 2), (7, 2, 1)])
def test_a_certified_maps_old_path_defect_is_zero(group):
    # what the defect stage records as 0.0 on a certified map: bihom_defect
    # of any restriction of it, the densified map included, is 0 up to rounding
    p, n, m = group
    params, vp = GroupParams(p, n), GroupParams(p, m)
    rng = np.random.default_rng(sum(group))
    N = params.size
    for density in (1.0, 0.6, 0.25):
        fit = BiAffineFit(*(rng.integers(0, p, shape) for shape in ((m, n, n), (m, n), (m, n), m)), 1.0, 0)
        table = cli_oracle.biaffine_value_table(params, fit)
        assert affine_in_each_variable(params, table)
        values = vp.index(table.reshape(-1, m)).reshape(N, N).astype(np.int64)
        mask = rng.random((N, N)) < density
        mask[0, 0] = True
        phi2 = PartialMap(params, vp, mask, np.where(mask, values, 0))
        assert abs(bihom_defect(phi2.to_dist_fn(), phi2.indicator())) <= 1e-14
