"""Tests for the command-line layer: configuration validation, the cubic
phase recovery pipeline with its halt paths, the invariant verification
suite, and the subcommands."""

import gc
import json
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bilinear_oracle
import cli_oracle
import ulab.cli
import ulab.pipeline
from ulab.arrange import PartialMap, partial_map_to_json
from ulab.bilinear import BiAffineMap, biaffine_to_json, bohr_decompose
from ulab.cli import main
from ulab.core import (
    GroupFn,
    GroupParams,
    PolyPhase,
    dft,
    group_fn_to_json,
    poly_phase_fn,
)
from ulab.gowers import PEAK_TIE_TOL, derivative2, uk_norm
from ulab.pipeline import (
    REPORT_SCHEMA,
    BiAffineFit,
    PipelineConfig,
    affine_in_each_variable,
    consensus_rounding,
    derivative_peak_map,
    extract_affine_parts,
    fit_biaffine,
    run_inverse_pipeline,
)
from ulab.trilinear import TrilinearForm, kappa_from_sigma, symmetrize, trilinear_to_json
from ulab.verify import verify_suite

P5 = GroupParams(5, 1)
P52 = GroupParams(5, 2)
P53 = GroupParams(5, 3)

STAGE_NAMES = [
    "gate",
    "peaks",
    "densify",
    "defect",
    "cover",
    "cells",
    "rounding",
    "extend",
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


def test_config_reads_its_field_types_once(monkeypatch):
    # validate reads the fields' (name, type) pairs once per class, so a
    # run allocates no field tuple
    PipelineConfig().validate()
    calls = []
    monkeypatch.setattr(ulab.pipeline, "fields", lambda *a: calls.append(a))
    PipelineConfig(p=7, n=2).validate()
    with pytest.raises(ValueError, match="^seed must be an integer"):
        PipelineConfig(seed=1.0).validate()
    assert calls == []


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
    # p^{3n} is enough where the quadratic search's p^{n(n+1)/2} N is no larger
    for p, n in [(31, 2), (2**31 - 1, 1)]:
        PipelineConfig(p=p, n=n, size_cap=p ** (3 * n)).validate()
    # on F_5^4 the search scores 5^10 quadratic parts times 5^4 = 5^14 values
    with pytest.raises(ValueError, match=r"quadratic search's .* = 6103515625 values"):
        PipelineConfig(p=5, n=4, size_cap=5**12).validate()
    PipelineConfig(p=5, n=4, size_cap=5**14).validate()


def test_config_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        PipelineConfig.from_json({"p": 5, "n": 1, "bogus": 3})
    # the backfit stage's floor went with the stage
    with pytest.raises(ValueError, match=r"^unknown config fields: back_floor$"):
        PipelineConfig.from_json({"back_floor": 0.6})


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
    # the gate and uk_norm read the same power array through the same guard
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
    assert np.array_equal(cli_oracle.biaffine_value_table(P52, fit), table)


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
    assert np.array_equal(cli_oracle.biaffine_value_table(P52, fit), table)


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


def _affinity_cases(params: GroupParams, vn: int, rng) -> list[tuple[str, np.ndarray]]:
    """Digit tables on G^2: a random bi-affine one, the same with one entry
    moved, and tables that are a random function of one variable only."""
    p, n, N = params.p, params.n, params.size
    fit = BiAffineFit(*(rng.integers(0, p, shape) for shape in ((vn, n, n), (vn, n), (vn, n), vn)), 1.0, 0)
    table = cli_oracle.biaffine_value_table(params, fit)
    broken = table.copy()
    x, y, c = rng.integers(N), rng.integers(N), rng.integers(vn)
    broken[x, y, c] = (broken[x, y, c] + rng.integers(1, p)) % p
    line = rng.integers(0, p, (N, vn))
    return [
        ("biaffine", table),
        ("one moved entry", broken),
        ("function of y", np.broadcast_to(line[None, :, :], (N, N, vn))),
        ("function of x", np.broadcast_to(line[:, None, :], (N, N, vn))),
    ]


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3) if p**n <= 125])
def test_basis_shifts_decide_affinity_as_every_shift_does(p, n):
    # f(x, y + e_j) - f(x, y) constant in y for every basis vector e_j makes
    # f affine in y, so the n basis shifts decide what all N shifts do
    params = GroupParams(p, n)
    rng = np.random.default_rng(100 * p + n)
    verdicts = Counter()
    for vn in (1, 2):
        for _ in range(3):
            for kind, table in _affinity_cases(params, vn, rng):
                want = cli_oracle.affine_in_each_variable(params, table)
                assert affine_in_each_variable(params, table) == want, kind
                assert want or kind != "biaffine"
                verdicts[kind, want] += 1
    if params.size > 2:
        # every function on F_2 is affine, so only larger groups must break
        assert verdicts["one moved entry", False] == 6
        assert verdicts["function of y", False] > 0 and verdicts["function of x", False] > 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([(5, 1, 1), (5, 1, 2), (3, 2, 1), (5, 2, 2), (7, 1, 1)]),
    st.integers(0, 2**32 - 1),
)
def test_fitted_models_are_biaffine_by_their_form(groups, seed):
    # why the extend stage checks no table: whatever data it is fitted to,
    # the model a.T.b + s.a + t.b + e tabulates to a bi-affine table
    p, n, vn = groups
    params, vp = GroupParams(p, n), GroupParams(p, vn)
    rng = np.random.default_rng(seed)
    N = params.size
    mask = rng.random((N, N)) < rng.random()
    mask[rng.integers(N), rng.integers(N)] = True
    phi = PartialMap(params, vp, mask, np.where(mask, rng.integers(0, vp.size, (N, N)), 0))
    fit = fit_biaffine(phi, offsets=int(rng.integers(1, 8)))
    assert affine_in_each_variable(params, cli_oracle.biaffine_value_table(params, fit))


def test_extract_affine_parts_explains_full_model():
    # on a full planted map the old backfit's reference column, vote and
    # exhaustive fits find the fit's own affine parts
    rng = np.random.default_rng(19)
    table = _planted_biaffine_table(rng)
    mask = np.ones((25, 25), dtype=bool)
    phi = _table_to_partial_map(table, mask)
    fit = fit_biaffine(phi)
    (Ms, us), (Mt, ut) = extract_affine_parts(fit)
    old = cli_oracle.extract_affine_parts(phi, fit)
    assert old["back_agreement"] == 1.0
    assert np.array_equal(old["theta"][0], Ms) and np.array_equal(old["lambda"][0], Mt)
    assert np.array_equal((old["theta"][1] + old["lambda"][1]) % 5, (us + ut) % 5)


# a + 2b on 11 points of F_5 x F_5; column 3, the first in scan order, holds
# only row 0's point, so the old backfit knew theta on one row and lambda on
# one column
SPARSE_POINTS = [(0, 3), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4), (3, 0), (3, 2), (4, 1), (4, 2), (4, 4)]


def _sparse_line_map() -> PartialMap:
    dom = np.zeros((5, 5), dtype=bool)
    dom[tuple(np.array(SPARSE_POINTS).T)] = True
    a, b = np.indices((5, 5))
    return PartialMap(P5, P5, dom, np.where(dom, (a + 2 * b) % 5, 0))


def test_fit_split_explains_a_sparse_map_the_old_backfit_missed():
    phi = _sparse_line_map()
    fit = fit_biaffine(phi)
    assert fit.agreement == 1.0
    (Ms, us), (Mt, ut) = extract_affine_parts(fit)
    xs, ys = np.nonzero(phi.domain)
    model = (fit.T[0, 0, 0] * xs * ys + Ms[0, 0] * xs + Mt[0, 0] * ys + us[0] + ut[0]) % 5
    assert np.array_equal(model, phi.values[xs, ys])
    assert abs(cli_oracle.extract_affine_parts(phi, fit)["back_agreement"] - 3 / 11) < 1e-12


def test_pipeline_carries_the_fits_affine_parts_past_extend(monkeypatch):
    # every fit of the run is made on the sparse map; rounding's offset-0
    # solve explains it, so that solve is extend's fit.  The old backfit
    # halted this run at 0.2727 of the map explained
    monkeypatch.setattr(
        ulab.pipeline, "fit_biaffine", lambda phi, offsets=7: fit_biaffine(_sparse_line_map(), offsets)
    )
    _, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=1))
    names = [s.name for s in report.stages]
    assert "symmetry" in names
    extend = report.to_dict()["stages"][names.index("extend")]["data"]
    assert (extend["agreement"], extend["s"], extend["t"], extend["e"]) == (1.0, [[1]], [[2]], [0])


def _count_fits_and_votes(monkeypatch) -> tuple[Counter, list]:
    """Count the calls of the fit's and the vote's kernels in the pipeline,
    and keep each map `consensus_rounding` returns."""
    calls, rounded = Counter(), []
    for name in ("_fit_design", "_fit_offset", "_vote_histogram", "consensus_rounding"):

        def counted(*args, _fn=getattr(ulab.pipeline, name), _name=name):
            calls[_name] += 1
            out = _fn(*args)
            if _name == "consensus_rounding":
                rounded.append(out[0])
            return out

        monkeypatch.setattr(ulab.pipeline, name, counted)
    return calls, rounded


@pytest.mark.parametrize("case", [_cubic_line, _cubic_plane], ids=["line", "plane"])
def test_an_exact_run_fits_once_and_never_votes(monkeypatch, case):
    # rounding's offset-0 solve explains the cell, so it is extend's fit
    calls, _ = _count_fits_and_votes(monkeypatch)
    _, f = case()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=f.params.n))
    assert not report.halted
    assert calls == {"_fit_design": 1, "_fit_offset": 1}
    data = {s.name: s.data for s in report.stages}
    assert data["rounding"]["voted"] == data["cells"]["cell_points"]
    assert data["extend"]["offset"] == 0


def test_a_voted_run_fits_the_rounded_map(monkeypatch):
    # this cell is not bi-affine, so rounding votes and extend refits
    calls, rounded = _count_fits_and_votes(monkeypatch)
    _, f = _corrupted_plane()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=2))
    assert not report.halted
    assert calls["_vote_histogram"] == calls["consensus_rounding"] == 1
    assert calls["_fit_design"] == 2
    extend = next(s for s in report.stages if s.name == "extend").data
    want = fit_biaffine(rounded[0])
    assert (extend["agreement"], extend["offset"]) == (want.agreement, want.offset)
    for name in ("s", "t", "e"):
        assert np.array_equal(extend[name], getattr(want, name))


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


def _two_form_cover() -> BiAffineMap:
    """A cover map of F_5^2 with 525 cells of at most 5 points, so the best
    cell is a tie (the stage then halts, too small to fit)."""
    T = np.array([[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
    return BiAffineMap(P52, T, np.array([[1, 0], [0, 2]]), np.array([[0, 3], [1, 0]]), np.array([0, 4]))


@pytest.mark.parametrize(
    "case, cover_map",
    [
        (_cubic_line, None),
        (_corrupted_plane, None),
        (_cubic_plane, _two_form_cover),
        (_corrupted_plane, _two_form_cover),
    ],
    ids=["F_5", "F_5^2 corrupted", "F_5^2 two-form cover", "F_5^2 corrupted two-form cover"],
)
def test_cells_stage_picks_the_counter_cell(monkeypatch, case, cover_map):
    # the stage's one count of packed cell codes against a Counter over the
    # densified domain's (x0 label, y0 label, beta value) triples, with the
    # pipeline's own cover (one cell) and a cover of many tied cells
    seen = {}
    densify, decompose = ulab.pipeline.densify, ulab.pipeline.bohr_decompose
    cover = ulab.pipeline.bogolyubov_bilinear

    def keep_densified(*args, **kwargs):
        seen["phi"], rep = densify(*args, **kwargs)
        return seen["phi"], rep

    def keep_decomposition(*args):
        seen["dec"] = decompose(*args)
        return seen["dec"]

    def fixed_cover(f, zeta, **kwargs):
        return cover_map(), cover(f, zeta, **kwargs)[1]

    monkeypatch.setattr(ulab.pipeline, "densify", keep_densified)
    monkeypatch.setattr(ulab.pipeline, "bohr_decompose", keep_decomposition)
    if cover_map is not None:
        monkeypatch.setattr(ulab.pipeline, "bogolyubov_bilinear", fixed_cover)
    _, f = case()
    report = run_inverse_pipeline(f, PipelineConfig(p=f.params.p, n=f.params.n))
    cells = next(s for s in report.stages if s.name == "cells").data
    occupied, cell, points = cli_oracle.best_cell(seen["dec"], seen["phi"].domain)
    assert (cells["occupied_cells"], cells["cell"], cells["cell_points"]) == (occupied, list(cell), points)
    assert cells["cells_checked"] == bilinear_oracle.verify_cells(seen["dec"])


def test_cells_stage_halts_before_cell_codes_overflow(monkeypatch):
    # F_5 with 26 forms: 5^26 fits the budget, but N^2 5^26 = 5^28 cell codes
    # do not fit int64, so the stage halts before it decomposes anything
    cover = ulab.pipeline.bogolyubov_bilinear

    def wide_cover(f, zeta, **kwargs):
        return BiAffineMap.zero(f.params, 26), cover(f, zeta, **kwargs)[1]

    monkeypatch.setattr(ulab.pipeline, "bogolyubov_bilinear", wide_cover)
    _, f = _cubic_line()
    report = run_inverse_pipeline(f, PipelineConfig(p=5, n=1, size_cap=10**19))
    assert (report.halt_stage, report.halt_category) == ("cells", "precondition")
    assert report.halt_reason == (
        "cover codomain F_5^26 is too large to decompose within the size budget %d; "
        "raise zeta or the budget" % ((2**63 - 1) // 25)
    )


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


def test_a_halted_run_leaves_no_reference_cycle():
    # a cycle through the halt's traceback would keep the run's frames, and
    # their (N, N) arrays, alive until the garbage collector next runs
    rng = np.random.default_rng(77)
    f = GroupFn(P52, np.exp(2j * np.pi * rng.random(25)))
    cfg = PipelineConfig(p=5, n=2, u4_threshold=0.95)
    gc.collect()
    gc.disable()
    try:
        report = run_inverse_pipeline(f, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert report.halted and report.halt_stage == "gate"


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


def test_pipeline_recovers_exact_cubic_on_f11_squared_once_admitted():
    # validate admits F_11^2 at size_cap = 11^6 = N^3, which covers the
    # search's 11^3 * 121 values; no kernel may refuse the run after that
    q = PolyPhase.from_coeffs(
        GroupParams(11, 2),
        {(0, 0, 0): 7, (0, 0, 1): 2, (0, 1, 1): 9, (1, 1, 1): 4, (0, 0): 3, (1, 1): 10, (0,): 5},
    )
    report = run_inverse_pipeline(poly_phase_fn(q), PipelineConfig(p=11, n=2, size_cap=11**6))
    assert not report.halted, report.halt_reason
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
        assert report.halt_category in {"precondition", "verification"}
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


def test_cmd_norms_unknown_method_exits_2_with_one_line(files, capsys):
    assert main(["norms", "--input", str(files["f1"]), "--k", "2", "--method", "fourier"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown method 'fourier'\n"


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
    dec = bohr_decompose(BiAffineMap.bilinear(P5, np.ones((1, 1, 1), dtype=np.int64)), 2)
    assert out["cells_checked"] == bilinear_oracle.verify_cells(dec) > 0


@pytest.mark.parametrize("t", ["0", "-1"])
def test_cmd_bohr_rejects_a_threshold_below_one(files, capsys, t):
    assert main(["bohr", "--beta", str(files["beta"]), "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "t must be at least 1" in captured.err


def test_cmd_bohr_refuses_too_many_combinations_in_one_line(tmp_path, capsys):
    # k = 9 forms over F_5: the scan would rank 5^9 combinations, over the cap
    path = tmp_path / "beta9.json"
    path.write_text(json.dumps(biaffine_to_json(BiAffineMap.bilinear(P5, np.ones((9, 1, 1), dtype=np.int64)))))
    assert main(["bohr", "--beta", str(path), "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: p^k for p = 5, k = 9 (the combinations of 9 matrices) exceeds the size cap 1000000\n"
    )


def test_cmd_bog2(files, capsys):
    assert main(["bog2", "--input", str(files["f1"]), "--zeta", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["error"] <= 0.5 + 1e-9


def test_cmd_trirank(files, capsys):
    assert main(["trirank", "--form", str(files["tau"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_symmetric"] is True
    assert out["perm_difference_ranks"]["021"] == 0.0


@pytest.mark.parametrize("p, n", [(5, 1), (5, 2), (7, 2), (5, 3)])
def test_cmd_trirank_ranks_the_forms_as_the_per_form_calls_do(tmp_path, capsys, p, n):
    # the command ranks the form, its six permutation differences and the
    # residual in one batched call; its output must be the per-form calls'
    params = GroupParams(p, n)
    rng = np.random.default_rng(31 * p + n)
    path = tmp_path / "tau.json"
    for coeffs in (
        rng.integers(0, p, (n, n, n)),
        np.where(rng.random((n, n, n)) < 0.3, rng.integers(0, p, (n, n, n)), 0),
        TrilinearForm.diagonal(params).coeffs,
    ):
        tau = TrilinearForm(params, coeffs)
        path.write_text(json.dumps(trilinear_to_json(tau)))
        assert main(["trirank", "--form", str(path)]) == 0
        want = json.dumps(ulab.pipeline._json_safe(cli_oracle.trirank(tau)), indent=2, sort_keys=True)
        assert capsys.readouterr().out == want + "\n"


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


def test_cmd_symmetrize_on_f5_cubed(files, capsys):
    # a planted cubic on F_5^3 against its third difference, 6 sigma
    sigma = TrilinearForm(P53, np.random.default_rng(5).integers(0, 5, size=(3, 3, 3)))
    sigma, _ = symmetrize(sigma)
    kappa, _ = kappa_from_sigma(sigma)
    fpath = files["dir"] / "f53.json"
    fpath.write_text(json.dumps(group_fn_to_json(poly_phase_fn(kappa))))
    tpath = files["dir"] / "tau53.json"
    tpath.write_text(json.dumps(trilinear_to_json(TrilinearForm(P53, 6 * sigma.coeffs))))
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


def test_cmd_quadsearch_refuses_more_values_than_the_default_budget(files, capsys):
    # F_5^3: 5^6 quadratic parts times 125 = 1,953,125 values; F_11^2: 161,051
    q = PolyPhase.from_coeffs(GroupParams(11, 2), {(0, 1): 7, (1, 1): 2, (0,): 9})
    for name, f in [("f53", GroupFn(P53, np.ones(125, dtype=complex))), ("f112", poly_phase_fn(q))]:
        (files["dir"] / name).write_text(json.dumps(group_fn_to_json(f)))
    assert main(["quadsearch", "--input", str(files["dir"] / "f53")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the quadratic search scores 1953125 values, over the size budget 1000000\n"
    assert main(["quadsearch", "--input", str(files["dir"] / "f112")]) == 0
    out = json.loads(capsys.readouterr().out)
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


def test_cmd_pipeline_missing_report_directory_exits_before_running(files, capsys, monkeypatch):
    def sentinel(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(ulab.cli, "run_inverse_pipeline", sentinel)
    out_path = files["dir"] / "absent" / "r.json"
    assert main(["pipeline", "--input", str(files["f1"]), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "absent" in err
    assert not out_path.parent.exists()


@pytest.mark.parametrize("command", ["norms", "pipeline"])
def test_cmd_directory_path_exits_2_with_one_line(files, capsys, monkeypatch, command):
    def sentinel(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(ulab.cli, "run_inverse_pipeline", sentinel)
    argv = {
        "norms": ["norms", "--input", str(files["dir"]), "--k", "2"],
        "pipeline": ["pipeline", "--input", str(files["f1"]), "--out", str(files["dir"])],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(files["dir"]) in captured.err


def test_cmd_bog2_rejects_a_nan_target(files, capsys):
    assert main(["bog2", "--input", str(files["f1"]), "--zeta", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "target must be positive" in captured.err


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
        # the backfit stage's floor, removed with the stage
        ({"back_floor": 0.6}, "unknown config fields: back_floor"),
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
