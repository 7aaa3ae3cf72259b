"""Tests for the command-line layer: configuration validation, the cubic
phase recovery pipeline with its halt paths, the invariant verification
suite, and the subcommands."""

import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_oracle
import ulab.pipeline
import ulab.trilinear
from ulab.arrange import PartialMap, partial_map_to_json
from ulab.bilinear import BiAffineMap, biaffine_to_json
from ulab.cli import main
from ulab.core import (
    BudgetError,
    GroupFn,
    GroupParams,
    PolyPhase,
    dft,
    group_fn_to_json,
    poly_phase_fn,
)
from ulab.gowers import derivative2, uk_norm
from ulab.pipeline import (
    PEAK_TIE_TOL,
    REPORT_SCHEMA,
    PipelineConfig,
    affine_in_each_variable,
    biaffine_value_table,
    consensus_rounding,
    derivative_peak_map,
    exhaustive_affine_fit,
    extract_affine_parts,
    fit_biaffine,
    run_inverse_pipeline,
)
from ulab.trilinear import TrilinearForm, trilinear_to_json
from ulab.verify import verify_suite

P5 = GroupParams(5, 1)
P52 = GroupParams(5, 2)

STAGE_NAMES = [
    "gate",
    "peaks",
    "densify",
    "defect",
    "cover",
    "cells",
    "rounding",
    "extend",
    "backfit",
    "symmetry",
    "cubic",
    "quadratic",
]


def _cubic_line() -> tuple[PolyPhase, GroupFn]:
    q = PolyPhase.from_coeffs(P5, {(0, 0, 0): 1, (0, 0): 2, (0,): 1})
    return q, poly_phase_fn(q)


def _cubic_plane() -> tuple[PolyPhase, GroupFn]:
    q = PolyPhase.from_coeffs(P52, {(0, 0, 0): 1, (1, 1, 1): 2, (0, 1): 1, (0,): 3})
    return q, poly_phase_fn(q)


def _corrupted_plane() -> tuple[PolyPhase, GroupFn]:
    q, f = _cubic_plane()
    rng = np.random.default_rng(1234)
    mask = rng.random(25) < 0.1
    vals = f.values.copy()
    vals[mask] = np.exp(2j * np.pi * rng.random(int(mask.sum())))
    return q, GroupFn(P52, vals)


def _terms_dict(pairs) -> dict:
    return {tuple(mono): coef for mono, coef in pairs}


# ============================================================
# configuration
# ============================================================


def test_config_defaults_validate():
    PipelineConfig().validate()
    PipelineConfig(p=5, n=2).validate()


def test_config_rejects_nonprime():
    with pytest.raises(ValueError):
        PipelineConfig(p=4).validate()


def test_config_rejects_small_characteristic():
    with pytest.raises(ValueError):
        PipelineConfig(p=3).validate()


def test_config_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        PipelineConfig(u4_threshold=0.0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(eta=1.5).validate()
    with pytest.raises(ValueError):
        PipelineConfig(density_floor=-0.1).validate()
    with pytest.raises(ValueError):
        PipelineConfig(t=0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(densify_samples=0).validate()
    with pytest.raises(ValueError):
        PipelineConfig(residual_tol=-1.0).validate()


def test_config_enforces_size_budget_before_running():
    cfg = PipelineConfig(p=5, n=3)  # 125^3 = 1.95e6 triples exceed the default cap
    with pytest.raises(ValueError, match=r"p\^\{3n\} = 1953125"):
        cfg.validate()
    # 49^3 = 117,649 triples fit, though 49^4 = 5.8e6 would not
    PipelineConfig(p=7, n=2).validate()
    # a budget of exactly p^{3n} is enough, however large p or n is
    for p, n in [(5, 4), (31, 2), (2**31 - 1, 1)]:
        PipelineConfig(p=p, n=n, size_cap=p ** (3 * n)).validate()


def test_config_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        PipelineConfig.from_json({"p": 5, "n": 1, "bogus": 3})


def test_config_json_roundtrip():
    cfg = PipelineConfig(p=5, n=2, zeta=0.4, seed=9)
    back = PipelineConfig.from_json(cfg.to_dict())
    assert back == cfg


# ============================================================
# stage helpers
# ============================================================


def test_peak_map_of_exact_cubic_is_total_and_bilinear():
    _, f = _cubic_plane()
    phi, stats, _ = derivative_peak_map(f, 0.35)
    assert stats["density"] == 1.0
    assert stats["min_kept_peak"] > 1 - 1e-9
    fit = fit_biaffine(phi)
    assert fit.agreement == 1.0
    assert not fit.s.any() and not fit.t.any() and not fit.e.any()


def test_peak_map_of_noise_is_sparse_at_high_floor():
    rng = np.random.default_rng(77)
    f = GroupFn(P52, np.exp(2j * np.pi * rng.random(25)))
    _, stats, _ = derivative_peak_map(f, 0.99)
    assert stats["density"] < 0.3


def _peak_map_oracle(f: GroupFn, c1: float):
    """The peak map one (a, b) pair at a time, under the same tie rule:
    domain, values and the kept peak magnitudes in row-major order."""
    N = f.params.size
    dom = np.zeros((N, N), dtype=bool)
    vals = np.zeros((N, N), dtype=np.int64)
    kept = []
    for a in range(N):
        for b in range(N):
            spec = np.abs(dft(derivative2(f, a, b)).values)
            r = int(np.nonzero(spec >= spec.max() - PEAK_TIE_TOL)[0][0])
            if spec[r] >= c1:
                dom[a, b], vals[a, b] = True, r
                kept.append(spec[r])
    return dom, vals, kept


def _assert_peak_map_matches_oracle(f: GroupFn, c1: float = 0.35) -> None:
    phi, stats, u4 = derivative_peak_map(f, c1)
    dom, vals, kept = _peak_map_oracle(f, c1)
    assert np.array_equal(phi.domain, dom)
    assert np.array_equal(phi.values, vals)
    assert stats["kept"] == len(kept) and stats["density"] == dom.mean()
    if kept:
        assert abs(stats["min_kept_peak"] - min(kept)) < 1e-12
        assert abs(stats["mean_kept_peak"] - np.mean(kept)) < 1e-12
    # same accumulation order and realness guard as the gate's old route
    assert u4 == uk_norm(f, 4).value
    if f.params.size <= 32:
        assert abs(u4 - uk_norm(f, 4, "direct").value) < 1e-12


@st.composite
def _bounded_inputs(draw) -> GroupFn:
    """Random unit-modulus noise, a planted cubic, or a planted cubic with a
    share of its points replaced by random unit values, on F_p^n with
    p in {5, 7} and n in {1, 2}."""
    params = GroupParams(draw(st.sampled_from([5, 7])), draw(st.sampled_from([1, 2])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "cubic", "corrupted"]))
    N, n = params.size, params.n
    if kind == "noise":
        return GroupFn(params, np.exp(2j * np.pi * rng.random(N)))
    monos = [(i,) for i in range(n)]
    monos += [(i, j) for i in range(n) for j in range(i, n)]
    monos += [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
    coeffs = {m: int(rng.integers(params.p)) for m in monos}
    coeffs[(0, 0, 0)] = int(rng.integers(1, params.p))
    f = poly_phase_fn(PolyPhase.from_coeffs(params, coeffs))
    if kind == "cubic":
        return f
    share = draw(st.sampled_from([0.1, 0.2, 0.3]))
    hit = rng.choice(N, size=max(1, int(share * N)), replace=False)
    vals = f.values.copy()
    vals[hit] = np.exp(2j * np.pi * rng.random(len(hit)))
    return GroupFn(params, vals)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_bounded_inputs())
def test_peak_map_and_u4_match_the_per_pair_oracle(f):
    _assert_peak_map_matches_oracle(f)


def test_peak_map_ties_on_the_corrupted_plane():
    _, f = _corrupted_plane()
    # the fixture has exact ties, so the lowest-r rule is exercised
    ties = 0
    for a in range(25):
        for b in range(25):
            spec = np.abs(dft(derivative2(f, a, b)).values)
            ties += int((spec >= spec.max() - PEAK_TIE_TOL).sum() > 1)
    assert ties > 0
    _assert_peak_map_matches_oracle(f)


def test_consensus_rounding_repairs_planted_errors():
    pts = {(a, b): (2 * a * b + 3 * b + 1) % 5 for a in range(5) for b in range(5)}
    truth = PartialMap.from_points(P5, P5, pts)
    vals = truth.values.copy()
    vals[1, 2] = (vals[1, 2] + 1) % 5
    vals[3, 0] = (vals[3, 0] + 2) % 5
    vals[4, 4] = (vals[4, 4] + 3) % 5
    broken = PartialMap(P5, P5, truth.domain, vals)
    rounded, stats = consensus_rounding(broken)
    assert np.array_equal(rounded.values, truth.values)
    assert stats["changed"] == 3
    assert stats["stability_min"] < 1.0


def test_consensus_rounding_fixes_nothing_on_exact_map():
    pts = {(a, b): (a * b) % 5 for a in range(5) for b in range(5)}
    phi = PartialMap.from_points(P5, P5, pts)
    rounded, stats = consensus_rounding(phi)
    assert np.array_equal(rounded.values, phi.values)
    assert stats["changed"] == 0
    assert stats["stability_mean"] == 1.0


def _planted_biaffine_table(rng) -> np.ndarray:
    T = rng.integers(0, 5, size=(2, 2, 2))
    s = rng.integers(0, 5, size=(2, 2))
    t = rng.integers(0, 5, size=(2, 2))
    e = rng.integers(0, 5, size=2)
    dig = P52.digits(np.arange(25, dtype=np.int64))
    return (
        np.einsum("ai,cij,bj->abc", dig, T, dig)
        + (dig @ s.T)[:, None, :]
        + (dig @ t.T)[None, :, :]
        + e[None, None, :]
    ) % 5


def _table_to_partial_map(table: np.ndarray, mask: np.ndarray) -> PartialMap:
    idx = P52.index(table.reshape(-1, 2)).reshape(25, 25).astype(np.int64)
    return PartialMap(P52, P52, mask, np.where(mask, idx, 0))


def test_fit_biaffine_recovers_planted_model():
    rng = np.random.default_rng(42)
    table = _planted_biaffine_table(rng)
    mask = rng.random((25, 25)) < 0.6
    phi = _table_to_partial_map(table, mask)
    fit = fit_biaffine(phi)
    assert fit.agreement == 1.0
    assert np.array_equal(biaffine_value_table(P52, fit), table)


def test_fit_biaffine_consensus_survives_corruption():
    rng = np.random.default_rng(7)
    table = _planted_biaffine_table(rng)
    mask = rng.random((25, 25)) < 0.6
    idx = P52.index(table.reshape(-1, 2)).reshape(25, 25).astype(np.int64)
    bad = mask & (rng.random((25, 25)) < 0.15)
    idx = np.where(bad, (idx + 1 + rng.integers(0, 24, size=(25, 25))) % 25, idx)
    phi = PartialMap(P52, P52, mask, np.where(mask, idx, 0))
    fit = fit_biaffine(phi, offsets=25)
    assert fit.agreement >= 0.8
    assert np.array_equal(biaffine_value_table(P52, fit), table)


def test_fit_biaffine_rejects_empty_map():
    phi = PartialMap(P5, P5, np.zeros((5, 5), dtype=bool), np.zeros((5, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        fit_biaffine(phi)


def test_affine_in_each_variable_detects_a_break():
    rng = np.random.default_rng(3)
    table = _planted_biaffine_table(rng)
    assert affine_in_each_variable(P52, table)
    broken = table.copy()
    broken[4, 7, 1] = (broken[4, 7, 1] + 1) % 5
    assert not affine_in_each_variable(P52, broken)


def test_exhaustive_affine_fit_exact_and_noisy():
    rng = np.random.default_rng(11)
    M = rng.integers(0, 5, size=(2, 2))
    u = rng.integers(0, 5, size=2)
    dig = P52.digits(np.arange(25, dtype=np.int64))
    data = (dig @ M.T + u[None, :]) % 5
    gotM, gotu, agree = exhaustive_affine_fit(P52, np.arange(25), data)
    assert np.array_equal(gotM, M % 5) and np.array_equal(gotu, u % 5)
    assert agree == 1.0
    noisy = data.copy()
    noisy[[3, 8, 14, 20], 0] = (noisy[[3, 8, 14, 20], 0] + 2) % 5
    gotM, gotu, agree = exhaustive_affine_fit(P52, np.arange(25), noisy)
    assert np.array_equal(gotM, M % 5) and np.array_equal(gotu, u % 5)
    assert abs(agree - 21 / 25) < 1e-12


def test_extract_affine_parts_explains_full_model():
    rng = np.random.default_rng(19)
    table = _planted_biaffine_table(rng)
    mask = np.ones((25, 25), dtype=bool)
    phi = _table_to_partial_map(table, mask)
    fit = fit_biaffine(phi)
    parts = extract_affine_parts(phi, fit)
    assert parts["back_agreement"] == 1.0
    assert parts["theta_agreement"] == 1.0
    assert parts["lambda_agreement"] == 1.0


# ============================================================
# the pipeline end to end
# ============================================================


def test_pipeline_recovers_exact_cubic_on_a_line():
    q, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=1))
    assert not report.halted
    assert [s.name for s in report.stages] == STAGE_NAMES
    assert report.result["correlation"] >= 0.999
    assert _terms_dict(report.result["phase_terms"]) == {
        (0,): 1,
        (0, 0): 2,
        (0, 0, 0): 1,
    }


def test_pipeline_recovers_exact_cubic_on_a_plane():
    q, f = _cubic_plane()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    assert not report.halted
    assert report.result["correlation"] >= 0.999
    assert _terms_dict(report.result["phase_terms"]) == dict(q.terms)


def test_pipeline_survives_corrupted_cubic():
    q, f = _corrupted_plane()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    assert not report.halted
    # the run repairs peaks by rounding and still lands on the planted cubic
    assert _terms_dict(report.result["phase_terms"]) == dict(q.terms)
    assert 0.5 <= report.result["correlation"] <= 0.99
    rounding = next(s for s in report.stages if s.name == "rounding")
    assert rounding.data["changed"] > 0
    extend = next(s for s in report.stages if s.name == "extend")
    assert extend.data["agreement"] == 1.0
    # and the planted cubic is the best phase there is, uniquely
    best, best_corr, runner_up = cli_oracle.best_cubic_phase(f)
    assert dict(best.terms) == dict(q.terms) and runner_up < best_corr - 1e-9
    assert abs(report.result["correlation"] - best_corr) < 1e-12


def test_pipeline_gate_halts_below_threshold():
    rng = np.random.default_rng(77)
    f = GroupFn(P52, np.exp(2j * np.pi * rng.random(25)))
    cfg = PipelineConfig(p=5, n=2, u4_threshold=0.95)
    report = run_inverse_pipeline(f, cfg)
    assert report.halted
    assert report.halt_stage == "gate"
    assert report.halt_category == "precondition"
    # the gate reads the norm off the peaks' pass, and halts before peaks
    assert [s.name for s in report.stages] == ["gate"]
    assert report.stages[-1].data["u4"] == uk_norm(f, 4).value < 0.95
    # the halting stage is timed too, and timing stays out of the canonical bytes
    assert report.stages[-1].seconds > 0
    assert report.canonical_bytes() == run_inverse_pipeline(f, cfg).canonical_bytes()


def test_pipeline_rejects_unbounded_input():
    f = GroupFn(P52, 2.0 * np.ones(25, dtype=np.complex128))
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    assert report.halted and report.halt_stage == "gate"
    assert "bounded" in report.halt_reason


def test_pipeline_rejects_mismatched_params():
    _, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    assert report.halted and report.halt_category == "precondition"


def test_pipeline_budget_checked_before_allocation():
    with pytest.raises(ValueError):
        run_inverse_pipeline(
            GroupFn(GroupParams(5, 3), np.ones(125, dtype=np.complex128)),
            PipelineConfig(p=5, n=3),
        )


def test_pipeline_budget_halts_at_the_running_stage(monkeypatch):
    # the symmetry correlation runs over p^{3n} = 125 triples, past a cap of 100
    monkeypatch.setattr(ulab.trilinear, "SIZE_CAP", 100)
    _, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=1))
    assert report.halted
    assert (report.halt_category, report.halt_stage) == ("budget", "symmetry")
    assert "125" in report.halt_reason
    assert [s.name for s in report.stages] == STAGE_NAMES[:10]
    assert report.stages[-1].seconds > 0


def test_pipeline_budget_halts_at_the_last_stage(monkeypatch):
    def refuse(g):
        raise BudgetError("quadratic search refused")

    monkeypatch.setattr(ulab.pipeline, "quad_phase_search", refuse)
    _, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=1))
    assert report.halted
    assert (report.halt_category, report.halt_stage) == ("budget", "quadratic")
    assert report.halt_reason == "quadratic search refused"
    assert [s.name for s in report.stages] == STAGE_NAMES
    assert report.stages[-1].seconds > 0


def test_pipeline_recovers_exact_cubic_on_f7_squared():
    # p^{4n} = 5.8e6 points (x, a, b, c): the cubic's certificate must not enumerate them
    q = PolyPhase.from_coeffs(
        GroupParams(7, 2),
        {(0, 0, 0): 3, (0, 0, 1): 5, (0, 1, 1): 2, (1, 1, 1): 1, (0, 1): 4, (1, 1): 6, (1,): 2},
    )
    report = run_inverse_pipeline(poly_phase_fn(q), PipelineConfig(p=7, n=2))
    assert not report.halted
    assert [s.name for s in report.stages] == STAGE_NAMES
    assert _terms_dict(report.result["phase_terms"]) == dict(q.terms)
    assert report.result["correlation"] >= 0.999


def test_pipeline_logs_one_info_line_per_stage(caplog, capsys):
    _, f = _cubic_line()
    cfg = PipelineConfig(p=5, n=1)
    quiet = run_inverse_pipeline(f, cfg)
    assert capsys.readouterr() == ("", "")
    with caplog.at_level(logging.INFO, logger="ulab"):
        report = run_inverse_pipeline(f, cfg)
        noise = GroupFn(P52, np.exp(2j * np.pi * np.random.default_rng(77).random(25)))
        halted = run_inverse_pipeline(noise, PipelineConfig(p=5, n=2, u4_threshold=0.95))
    lines = [r.getMessage() for r in caplog.records if r.name == "ulab"]
    assert [line.split()[1] for line in lines] == STAGE_NAMES + ["gate"]
    assert halted.halt_stage == "gate" and "halted (precondition)" in lines[-1]
    assert report.canonical_bytes() == quiet.canonical_bytes()


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_bounded_inputs(), st.integers(0, 3), st.sampled_from([500, 2000]))
def test_pipeline_never_raises_on_bounded_input(f, seed, samples):
    # densify's Monte Carlo sets the time of a run (about 3 s at the default
    # 20,000 samples when every attempt fails), so the test draws fewer
    cfg = PipelineConfig(p=f.params.p, n=f.params.n, seed=seed, densify_samples=samples)
    report = run_inverse_pipeline(f, cfg)
    if report.halted:
        assert report.halt_category in {"precondition", "verification", "budget"}
        assert report.halt_stage in STAGE_NAMES
        assert report.stages[-1].name == report.halt_stage
    else:
        assert [s.name for s in report.stages] == STAGE_NAMES
        assert report.result is not None
    assert report.canonical_bytes() == run_inverse_pipeline(f, cfg).canonical_bytes()


def test_pipeline_reports_are_deterministic():
    _, f = _corrupted_plane()
    r1 = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    r2 = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    assert r1.canonical_bytes() == r2.canonical_bytes()
    # the full report is JSON-serializable and carries the schema tag
    blob = json.dumps(r1.to_dict())
    assert REPORT_SCHEMA in blob


def test_report_canonical_form_drops_wall_clock():
    _, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=1))
    full = report.to_dict()
    canon = report.canonical_dict()
    assert all("seconds" in s for s in full["stages"])
    assert all("seconds" not in s for s in canon["stages"])


# ============================================================
# verification suite
# ============================================================


def test_verify_suite_is_green():
    results = verify_suite(seed=0)
    assert len(results) == 18
    assert all(r.ok for r in results)
    assert {r.module for r in results} == {
        "core",
        "gowers",
        "galg",
        "grid",
        "arrange",
        "bilinear",
        "trilinear",
    }


def test_verify_suite_fault_injection_fails_parseval_only():
    results = verify_suite(seed=0, inject_fault="dft")
    bad = [(r.module, r.name) for r in results if not r.ok]
    assert bad == [("core", "parseval")]


def test_verify_suite_only_filter():
    results = verify_suite(seed=0, only="galg")
    assert [r.name for r in results] == ["cauchy_schwarz", "triangle", "split", "cancellation"]
    with pytest.raises(ValueError):
        verify_suite(seed=0, only="nonexistent")


# ============================================================
# command line
# ============================================================


@pytest.fixture()
def files(tmp_path):
    _, f1 = _cubic_line()
    paths = {"f1": tmp_path / "f1.json"}
    paths["f1"].write_text(json.dumps(group_fn_to_json(f1)))
    pts = {(a, b): (2 * a * b) % 5 for a in range(5) for b in range(5)}
    paths["phi"] = tmp_path / "phi.json"
    paths["phi"].write_text(json.dumps(partial_map_to_json(PartialMap.from_points(P5, P5, pts))))
    beta = BiAffineMap.bilinear(P5, np.ones((1, 1, 1), dtype=np.int64))
    paths["beta"] = tmp_path / "beta.json"
    paths["beta"].write_text(json.dumps(biaffine_to_json(beta)))
    tau = TrilinearForm.diagonal(P5)
    paths["tau"] = tmp_path / "tau.json"
    paths["tau"].write_text(json.dumps(trilinear_to_json(tau)))
    paths["dir"] = tmp_path
    return paths


def test_cmd_norms(files, capsys):
    assert main(["norms", "--input", str(files["f1"]), "--k", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 4 and abs(out["value"] - 1.0) < 1e-9


def test_cmd_arrange_exact_and_sampled(files, capsys):
    assert main(["arrange", "--phi", str(files["phi"]), "--order", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["respected_fraction"] == 1.0
    assert main(
        ["arrange", "--phi", str(files["phi"]), "--order", "2", "--samples", "500", "--seed", "7"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "mc" and out["order"] == 2


def test_cmd_bohr(files, capsys):
    assert main(["bohr", "--beta", str(files["beta"]), "--t", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cells_checked"] > 0


def test_cmd_bog2(files, capsys):
    assert main(["bog2", "--input", str(files["f1"]), "--zeta", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["error"] <= 0.5 + 1e-9


def test_cmd_trirank(files, capsys):
    assert main(["trirank", "--form", str(files["tau"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_symmetric"] is True
    assert out["perm_difference_ranks"]["021"] == 0.0


def test_cmd_symmetrize(files, capsys):
    q, f = _cubic_line()
    fpath = files["dir"] / "fsym.json"
    fpath.write_text(json.dumps(group_fn_to_json(f)))
    tau = TrilinearForm(P5, np.full((1, 1, 1), 6 % 5, dtype=np.int64))
    tpath = files["dir"] / "tau6.json"
    tpath.write_text(json.dumps(trilinear_to_json(tau)))
    assert main(["symmetrize", "--input", str(fpath), "--tau", str(tpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["alpha"] - 1.0) < 1e-9 and out["asserted"] is True


def test_cmd_quadsearch(files, capsys):
    q = PolyPhase.from_coeffs(P5, {(0, 0): 3, (0,): 2})
    fpath = files["dir"] / "fquad.json"
    fpath.write_text(json.dumps(group_fn_to_json(poly_phase_fn(q))))
    assert main(["quadsearch", "--input", str(fpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["correlation"] - 1.0) < 1e-9
    assert {tuple(m): c for m, c in out["terms"]} == dict(q.terms)


def test_cmd_pipeline_writes_report(files, capsys):
    out_path = files["dir"] / "report.json"
    code = main(["pipeline", "--input", str(files["f1"]), "--out", str(out_path)])
    assert code == 0
    assert "correlation" in capsys.readouterr().out
    rep = json.loads(out_path.read_text())
    assert rep["schema"] == REPORT_SCHEMA
    assert not rep["halted"]
    assert rep["result"]["correlation"] >= 0.999


def test_cmd_pipeline_gate_exit_code(files, tmp_path, capsys):
    rng = np.random.default_rng(77)
    f = GroupFn(P52, np.exp(2j * np.pi * rng.random(25)))
    fpath = tmp_path / "frand.json"
    fpath.write_text(json.dumps(group_fn_to_json(f)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u4_threshold": 0.95}))
    code = main(["pipeline", "--input", str(fpath), "--config", str(cfg)])
    assert code == 2
    assert "below the threshold" in capsys.readouterr().err


def test_cmd_pipeline_bad_config_exit_code(files, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 4}))
    assert main(["pipeline", "--input", str(files["f1"]), "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": "5"}, "p must be an integer, got '5'"),
        ({"eta": "x"}, "eta must be a real number"),
        ({"t": "3"}, "t must be an integer"),
        ({"max_maps": "4"}, "max_maps must be an integer"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"zeta": None}, "zeta must be a real number, got None"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"densify_samples": 2.5}, "densify_samples must be an integer"),
        ({"n": 1.5}, "n must be an integer, got 1.5"),
        ({"size_cap": 1e7}, "size_cap must be an integer, got 10000000.0"),
        ({"p": True}, "p must be an integer, got True"),
        ({"u4_threshold": False}, "u4_threshold must be a real number"),
        ({"seed": -1}, "seed must be non-negative"),
        # refused before p^n is formed or p = 2^61 - 1 is trial-divided
        ({"n": 10**9}, "p^{3n} for p = 5, n = 1000000000 exceeds the size budget"),
        ({"p": 2**61 - 1}, "p^{3n} for p = 2305843009213693951, n = 1 exceeds"),
        ([5, 1], "must be a JSON object, got list"),
        ("p=5", "must be a JSON object, got str"),
    ],
)
def test_cmd_pipeline_malformed_config_exits_2_with_one_line(files, tmp_path, capsys, payload, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(payload))
    assert main(["pipeline", "--input", str(files["f1"]), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and message in err


def test_cmd_pipeline_missing_file_exit_code(tmp_path, capsys):
    assert main(["pipeline", "--input", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (["norms", "--k", "2", "--input"], {"p": 5, "n": 2}, "'values' or 'phases'"),
        (["arrange", "--phi"], {"p": 5, "n": 1, "points": [{"x": 9, "y": 0, "v": 1}]}, "point x"),
        (["trirank", "--form"], {"p": 5, "n": 1, "coeffs": [[3, 0, 0, 1]]}, "trilinear index"),
    ],
    ids=["norms-no-values", "arrange-x-out-of-range", "trirank-index-out-of-range"],
)
def test_cmd_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_cmd_verify_exit_codes(capsys):
    assert main(["verify", "--only", "gowers"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert main(["verify", "--only", "core", "--inject-fault", "dft"]) == 3
    out = capsys.readouterr().out
    assert "FAIL core.parseval" in out
