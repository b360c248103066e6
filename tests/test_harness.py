import json
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlslab import harness
from nlslab.core import (
    PERIODIC,
    ConfigurationError,
    GridState,
    NumericalFailureError,
    RunRecord,
    StepRow,
    make_grid,
)
from nlslab.harness import (
    ExperimentConfig,
    FitError,
    config_echo,
    emit,
    fit_growth_exponent,
    parse_config,
    parse_method,
    run_scenario,
    write_scenario,
)
from nlslab.oracles import soliton_problem
from nlslab.spectral import spectral_operator
from nlslab.splitting import integrate_splitting, scheme


def test_parse_method_labels_round_trip():
    for label in (
        "SP-S2",
        "SP-AK4",
        "SP-ImEx3",
        "SP-ImEx3(R)",
        "SP-ImEx4(R)(EC)",
        "FEM-ImEx4",
        "FEM-ImEx3(MR)(EC)",
        "FEM-ImEx4(MR)(EC)",
    ):
        assert parse_method(label).label == label


def test_parse_method_defaults_to_spectral():
    assert parse_method("ImEx3(R)").label == "SP-ImEx3(R)"
    assert parse_method("S2").label == "SP-S2"


def test_parse_method_rejects_incompatible_combinations():
    with pytest.raises(ConfigurationError, match="energy-conserving"):
        parse_method("SP-ImEx4(MR)")
    with pytest.raises(ConfigurationError, match="spectral"):
        parse_method("FEM-S2")
    with pytest.raises(ConfigurationError, match="modifiers"):
        parse_method("SP-AK4(R)")
    with pytest.raises(ConfigurationError):
        parse_method("SP-RK4")


def test_parse_config_example_document():
    cfg = parse_config("scenario=convergence, method=SP-ImEx3(R), nsolitons=2, m=1120, T=1")
    assert cfg.scenario == "convergence"
    assert cfg.methods[0].label == "SP-ImEx3(R)"
    assert (cfg.n_solitons, cfg.m, cfg.T) == (2, 1120, 1.0)


def test_parse_config_multiline_with_comments_and_fractions():
    text = """
    # soliton invariants run, with a comma inside this comment
    scenario = invariant_table
    methods = SP-ImEx3(R) SP-ImEx4(R)
    dt = 1/100
    T = 5
    out = table.csv
    """
    cfg = parse_config(text)
    assert [m.label for m in cfg.methods] == ["SP-ImEx3(R)", "SP-ImEx4(R)"]
    assert cfg.dt == pytest.approx(0.01)


def test_parse_config_rejects_unknown_and_empty():
    with pytest.raises(ConfigurationError, match="frobnicate"):
        parse_config("scenario=convergence\nfrobnicate=1")
    with pytest.raises(ConfigurationError):
        parse_config("   # nothing here\n")
    with pytest.raises(ConfigurationError, match="scenario"):
        parse_config("m=100")
    with pytest.raises(ConfigurationError, match="energy-conserving"):
        parse_config("scenario=convergence, method=SP-ImEx4(MR)")


def test_fit_growth_exponent_power_laws():
    ts = np.linspace(2.5, 14.0, 40)
    quadratic = [(t, 0.37 * t**2) for t in ts]
    assert fit_growth_exponent(quadratic, (2, 15)) == pytest.approx(2.0, abs=1e-12)
    linear = [(t, 1.3 * t) for t in ts]
    assert fit_growth_exponent(linear, (2, 15)) == pytest.approx(1.0, abs=1e-12)


def test_fit_growth_exponent_with_noise():
    rng = np.random.default_rng(123)
    ts = np.linspace(2.2, 14.8, 60)
    series = [(t, 0.05 * t * (1 + 0.1 * rng.standard_normal())) for t in ts]
    assert fit_growth_exponent(series, (2, 15)) == pytest.approx(1.0, abs=0.15)


def test_fit_growth_exponent_needs_samples():
    with pytest.raises(FitError):
        fit_growth_exponent([(3.0, 1.0)] * 5, (2, 15))
    with pytest.raises(FitError):
        fit_growth_exponent([(t, 1.0) for t in np.linspace(20, 30, 20)], (2, 15))


def test_tail_slope_fits_the_last_four_points_of_the_decreasing_tail():
    dts = [2.0**-k for k in range(1, 10)]
    # the first two errors end in a rise and the third is above 1.0, so the
    # tail restarts twice; its first point is off the dt^2 line, and only
    # the last four points are fitted
    errors = [1e-3, 2e-3, 1.5, 0.5] + [0.3 * dt**2 for dt in dts[4:]]
    errors[4] *= 10.0
    assert harness._tail_slope(dts, errors) == pytest.approx(2.0, abs=1e-12)
    # shuffled input is sorted by decreasing dt first
    assert harness._tail_slope(dts[::-1], errors[::-1]) == pytest.approx(2.0, abs=1e-12)
    # a tail ending in a rise or a non-finite error has fewer than two points
    assert math.isnan(harness._tail_slope(dts[:3], [1e-2, 1e-3, 1e-2]))
    assert math.isnan(harness._tail_slope(dts[:2], [1e-2, float("nan")]))


@pytest.mark.parametrize("scenario", harness.SCENARIOS)
def test_an_unset_method_list_runs_the_scenario_defaults(scenario):
    methods = harness._default_methods(ExperimentConfig(scenario))
    assert [m.label for m in methods] == list(harness._DEFAULT_METHODS[scenario])
    chosen = (parse_method("SP-S2"),)
    assert harness._default_methods(ExperimentConfig(scenario, methods=chosen)) == chosen


def test_growth_default_dt():
    imex4, imex3 = parse_method("FEM-ImEx4"), parse_method("SP-ImEx3")
    cfg = ExperimentConfig("error_growth")
    assert harness._growth_default_dt(cfg, imex4) == 0.05
    assert harness._growth_default_dt(cfg, imex3) == 0.01
    one = ExperimentConfig("error_growth", n_solitons=1)
    assert harness._growth_default_dt(one, imex4) == 0.01
    assert harness._growth_default_dt(replace(cfg, dt=0.002), imex4) == 0.002


@pytest.mark.parametrize("n, m", [(2, 1120), (3, 2240)])
def test_soliton_grid_defaults(n, m):
    cfg = ExperimentConfig("convergence", n_solitons=n)
    grid = harness._grid_for(cfg, soliton_problem(n))
    assert (grid.m, grid.bc, grid.nodes[0]) == (m, PERIODIC, -35.0)


def test_json_output_carries_the_extra_tables(tmp_path):
    cfg = ExperimentConfig("semiclassical", fmt="json", out=str(tmp_path / "s.json"))
    result = harness.ScenarioResult(["method", "t"], [["SP-S2", 0.5]])
    density = (["method", "t", "x", "density"], [["SP-S2", 0.5, -8.0, 0.25]])
    result.extra_tables["density"] = density
    assert write_scenario(cfg, result) == [tmp_path / "s.json"]
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["rows"] == [["SP-S2", 0.5]]
    assert payload["tables"] == {"density": {"columns": density[0], "rows": density[1]}}


def test_emit_step_schema_and_json_round_trip(tmp_path):
    steps = [
        StepRow(0.01, 0.01, 0.25, 1e-9, -2e-9, 3e-16, "accepted"),
        StepRow(0.01, 0.02, 1.75, 0.0, 0.0, None, "eps-rejected"),
    ]
    record = RunRecord(steps, final_t=0.01, max_mass_drift=3.0e-16)
    json_path = tmp_path / "run.json"
    assert emit(record, json_path, echo={"scenario": "demo"}) == json_path
    payload = json.loads(json_path.read_text())
    assert payload["summary"]["final_t"] == record.final_t
    assert payload["summary"]["max_mass_drift"] == record.max_mass_drift
    counts = ("accepted", "eps_rejections", "conservation_rejections")
    assert [payload["summary"][key] for key in counts] == [1, 1, 0]
    columns = ["t", "dt", "eps", "Gamma", "gamma2", "residual", "disposition"]
    assert payload["step_columns"] == columns
    assert payload["steps"][0][3:5] == [1e-9, -2e-9]
    assert payload["steps"][1][6] == "eps-rejected"
    assert payload["config"]["scenario"] == "demo"


def _strip_runtime(text: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    if "runtime" not in header:
        return text
    drop = header.index("runtime")
    kept = []
    for line in lines:
        parts = line.split(",")
        kept.append(",".join(p for i, p in enumerate(parts) if i != drop))
    return "\n".join(kept)


def test_scenario_output_is_deterministic(tmp_path):
    text = (
        "scenario=convergence, methods=SP-S2 SP-ImEx3, nsolitons=1, m=128, "
        "T=0.2, dts=1/10 1/20, format=csv"
    )
    outputs = []
    for tag in ("a", "b"):
        cfg = parse_config(text + f", out={tmp_path}/run_{tag}.csv")
        write_scenario(cfg, run_scenario(cfg))
        outputs.append(_strip_runtime((tmp_path / f"run_{tag}.csv").read_text()))
    assert outputs[0] == outputs[1]


def test_convergence_scenario_rows_and_slope(tmp_path):
    cfg = parse_config(
        f"scenario=convergence, method=SP-AK4, nsolitons=1, m=448, T=0.5, "
        f"dts=1/20 1/40 1/80, out={tmp_path}/conv.csv"
    )
    result = run_scenario(cfg)
    assert result.columns == ["method", "dt", "error", "slope", "diagnosis"]
    assert len(result.rows) == 3
    slopes = {row[3] for row in result.rows}
    assert len(slopes) == 1
    assert abs(slopes.pop() - 4.0) < 0.6
    paths = write_scenario(cfg, result)
    assert (tmp_path / "conv.csv").exists()
    assert any("conv_runs" in str(p) for p in paths)


def test_single_dt_single_method_yields_one_row(tmp_path):
    cfg = parse_config(
        f"scenario=convergence, method=SP-S2, nsolitons=1, m=128, T=0.2, "
        f"dts=1/20, out={tmp_path}/one.csv"
    )
    result = run_scenario(cfg)
    assert len(result.rows) == 1


def test_work_precision_runtime_positive(tmp_path):
    cfg = parse_config(
        f"scenario=work_precision, method=SP-S2, nsolitons=1, m=128, T=0.3, "
        f"dts=1/20 1/40, out={tmp_path}/wp.csv"
    )
    result = run_scenario(cfg)
    runtimes = [row[3] for row in result.rows]
    assert all(r > 0 for r in runtimes)


def test_cli_work_precision_honours_dt(tmp_path):
    from nlslab.cli import main

    out = tmp_path / "wp.json"
    argv = ["work-precision", "--method", "SP-S2", "--m", "128", "--T", "0.2",
            "--dt", "1/20", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row[:2] for row in rows] == [["SP-S2", 0.05]]


def test_convergence_scores_semiclassical_configs_against_the_fine_reference(tmp_path):
    cfg = parse_config(
        "scenario=convergence, method=SP-S2, eps=0.2, dx=1/16, T=0.1, "
        f"dts=1/20 1/40, out={tmp_path}/semi_conv.csv"
    )
    rows = run_scenario(cfg).rows
    errors = [row[2] for row in rows]
    assert [row[1] for row in rows] == [1 / 20, 1 / 40]
    assert errors[1] < errors[0] < 0.1
    assert math.isfinite(rows[0][3]) and rows[0][3] > 1.5


def test_dt_sweep_runs_an_explicit_zero_dt(tmp_path):
    # dt=0 is a (bad) value, not "unset": one failed row, not the default sweep
    cfg = parse_config(
        "scenario=work_precision, method=SP-S2, nsolitons=1, m=128, T=0.2, dt=0, "
        f"out={tmp_path}/wp.csv"
    )
    rows = [_shape(row) for row in run_scenario(cfg).rows]
    assert rows == [["SP-S2", 0.0, _NAN, _NAN, "dt must be positive, got 0.0"]]


def test_error_growth_refuses_semiclassical_configs(tmp_path):
    # there is no exact solution for Gaussian data to score against
    cfg = parse_config(
        "scenario=error_growth, method=SP-ImEx4, eps=0.2, dx=1/16, dt=1/50, T=0.1, "
        f"out={tmp_path}/g.csv"
    )
    with pytest.raises(ConfigurationError, match="exact soliton"):
        run_scenario(cfg)


@pytest.mark.parametrize(
    "samples,kept",
    [(5, [0.02, 0.04, 0.06]), (4, [0.02, 0.04, 0.06]), (6, [0.01 * k for k in range(1, 7)])],
)
def test_error_growth_samples_the_last_accepted_step(tmp_path, samples, kept):
    # Six accepted steps.  Past the limit the stride doubles to 2, so every
    # second step is kept, and the newest (the sixth) is one of them.
    cfg = parse_config(
        f"scenario=error_growth, nsolitons=2, m=1120, T=0.06, dt=0.01, samples={samples}, "
        f"methods=SP-ImEx4, out={tmp_path}/g.csv"
    )
    result = run_scenario(cfg)
    record = result.records["SP-ImEx4"]
    assert [row[1] for row in result.rows] == pytest.approx(kept, abs=1e-12)
    assert result.rows[-1][1] == record.final_t
    assert result.rows[-1][2] == record.final_error


def test_error_growth_of_a_run_without_steps_scores_its_initial_state(tmp_path):
    # T=0 takes no step: the method keeps one row, at t=0, not none
    cfg = parse_config(
        "scenario=error_growth, nsolitons=2, m=256, T=0, dt=0.01, methods=SP-ImEx4, "
        f"out={tmp_path}/g.csv"
    )
    result = run_scenario(cfg)
    [(method, t, err, exponent, diagnosis)] = result.rows
    assert (method, t, diagnosis) == ("SP-ImEx4", 0.0, "") and math.isnan(exponent)
    assert err == result.records["SP-ImEx4"].final_error and err < 1e-12


def test_error_sampler_keeps_the_newest_row_at_every_thinning():
    for limit in range(1, 12):
        sampler = harness.ErrorSampler(lambda s: s.t, limit)
        for k in range(1, 200):
            state = GridState(make_grid(0, 1, 4), np.zeros(4), t=float(k))
            sampler(state)
            rows = sampler.rows_to(state)
            assert rows[-1] == (k, k) and len(rows) <= limit
            # the rows before the newest are every stride-th step
            on_stride = [float(j) for j in range(sampler.stride, k, sampler.stride)]
            assert [t for t, _ in rows[:-1]] == on_stride


def test_error_sampler_scores_only_the_rows_it_keeps():
    # 2,000 steps into 400 rows keep 250; error_of runs on the 850 states
    # that were on the stride when they arrived, plus an off-stride final
    # state once rows_to scores it, never twice on one state.
    grid = make_grid(0, 1, 4)
    for steps, calls in ((2000, 850), (2001, 851), (134, 134)):
        scored = []
        sampler = harness.ErrorSampler(lambda s: scored.append(s.t) or -s.t, 400)
        for k in range(1, steps + 1):
            state = GridState(grid, np.zeros(4), t=float(k))
            sampler(state)
        rows = sampler.rows_to(state)
        assert len(scored) == len(set(scored)) == calls
        assert rows[-1] == (steps, -steps) and all(e == -t for t, e in rows)


def test_error_sampler_rows_are_uniform_in_time():
    # 2,000 evenly spaced steps on [0, 20] into 400 samples: every window
    # holds within 2x of its share of the kept rows.
    sampler = harness.ErrorSampler(lambda s: 0.0, 400)
    grid = make_grid(0, 1, 4)
    for k in range(1, 2001):
        state = GridState(grid, np.zeros(4), t=k * 0.01)
        sampler(state)
    t = np.array([t for t, _ in sampler.rows_to(state)])
    edges = np.array([0.0, 2.0, 5.0, 10.0, 15.0, 20.0])
    counts = np.array([np.sum((a < t) & (t <= b)) for a, b in zip(edges, edges[1:])])
    uniform = len(t) * np.diff(edges) / 20.0
    assert counts.sum() == len(t) and t[-1] == 20.0
    assert np.all(counts <= 2.0 * uniform) and np.all(counts >= uniform / 2.0), counts


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_refused_at_parse_time(samples):
    with pytest.raises(ConfigurationError, match="samples"):
        parse_config(f"scenario=error_growth, samples={samples}")


def test_a_config_built_in_code_refuses_samples_below_one():
    # with a cap below one the sampler's thinning loop would never end
    with pytest.raises(ConfigurationError, match="samples"):
        replace(ExperimentConfig(scenario="error_growth"), samples=0)


def test_runtime_scales_with_step_count():
    # timing sanity: twice the steps costs about twice the time
    grid = make_grid(-8, 8, 512)
    op = spectral_operator(grid, 1.0)
    s0 = GridState(grid, np.exp(-grid.nodes**2) + 0j)
    sch = scheme("S2")

    def wall(steps):
        _, record = integrate_splitting(s0, sch, op, 1.0, 1.0 / steps, 1.0)
        return record.runtime_seconds

    wall(200)  # warm the caches before timing
    # each round times both sides back to back and the score is the median
    # of the three rounds' ratios, so that no single fast or slow host
    # reading of a sub-second run decides it
    rounds = [(wall(2000), wall(4000)) for _ in range(3)]
    ratio = statistics.median(long / short for short, long in rounds)
    assert 1.0 <= ratio <= 3.0, rounds


def test_semiclassical_density_at_t_zero(tmp_path):
    cfg = parse_config(
        f"scenario=semiclassical, method=SP-S2, eps=0.2, dx=1/16, dt=1/50, "
        f"t_out=0 0.1, dx_ref=1/64, dt_ref=1/400, out={tmp_path}/semi.csv"
    )
    result = run_scenario(cfg)
    cols, rows = result.extra_tables["density"]
    grid = make_grid(-8, 8, 256)
    u0 = np.exp(-grid.nodes**2)
    at_zero = [r for r in rows if r[1] == 0.0]
    assert len(at_zero) == 256
    for row, expected in zip(at_zero, u0**2):
        assert row[3] == expected  # exactly |initial data|^2
    err_rows = [r for r in result.rows if r[1] == 0.0]
    assert err_rows[0][2] <= 1e-12


def test_semiclassical_reference_starts_from_the_runs_phase(tmp_path):
    # the fine reference samples the same varying-phase data as the runs, so
    # a run compared at t=0 is compared with itself
    cfg = parse_config(
        "scenario=semiclassical, method=SP-S2, eps=0.2, dx=1/16, dt=1/50, "
        "phase=varying_phase, t_out=0 0.1, dx_ref=1/64, dt_ref=1/400, "
        f"out={tmp_path}/vary.csv"
    )
    rows = run_scenario(cfg).rows
    assert [row[1] for row in rows] == [0.0, 0.1]
    assert rows[0][2] <= 1e-12
    assert rows[1][2] < 1e-3


def test_semiclassical_reference_follows_the_run_grid(tmp_path):
    # the reference defaults to dx/2 of the run grid, however it is given
    base = "scenario=semiclassical, method=SP-AK4, eps=0.2, dt=1/50, t_out=0.04, dt_ref=1/400"
    by_m = run_scenario(parse_config(f"{base}, m=1024, out={tmp_path}/m.csv")).rows
    by_dx = run_scenario(parse_config(f"{base}, dx=1/64, out={tmp_path}/dx.csv")).rows
    assert [row[:3] for row in by_m] == [row[:3] for row in by_dx]
    assert by_m[0][4] == ""
    # a grid finer than the old fixed 1/256 reference still nests in its own
    fine = parse_config(f"{base}, m=8192, t_out=0.02, dt_ref=1/200, out={tmp_path}/f.csv")
    rows = run_scenario(fine).rows
    assert [(row[1], row[4]) for row in rows] == [(0.02, "")]


def test_semiclassical_adaptive_method_reports_t_zero(tmp_path):
    # a zero-length adaptive run returns its start state, as fixed-step runs do
    cfg = parse_config(
        "scenario=semiclassical, method=SP-ImEx4(R)(EC), eps=0.2, dx=1/16, dt=1/50, "
        f"t_out=0 0.1, dx_ref=1/64, dt_ref=1/400, out={tmp_path}/ec.csv"
    )
    rows = run_scenario(cfg).rows
    assert [(row[1], row[4]) for row in rows] == [(0.0, ""), (0.1, "")]
    assert rows[0][2] <= 1e-12


_SMALL = "methods=SP-S2 SP-ImEx3, nsolitons=1, m=448, T=0.1"
_SWEEP = _SMALL + ", dts=1/10 1/20 1/40 1/80"
_NAN = "nan"


def _shape(row):
    return [_NAN if isinstance(v, float) and math.isnan(v) else v for v in row]


def _fail_run_method(monkeypatch, should_fail):
    """Make harness.run_method raise on the calls that ``should_fail(label, T,
    call number)`` picks; returns the (label, T) of every call."""
    original = harness.run_method
    calls = []

    def failing(method, problem, grid, s0, dt, T, *args, **kwargs):
        calls.append((method.label, T))
        if should_fail(method.label, T, len(calls)):
            raise NumericalFailureError("forced failure")
        return original(method, problem, grid, s0, dt, T, *args, **kwargs)

    monkeypatch.setattr(harness, "run_method", failing)
    return calls


@pytest.mark.parametrize(
    "scenario, config, failed_row, other_methods",
    [
        ("convergence", _SWEEP, ["SP-S2", 0.1, _NAN, "slope"], {"SP-S2", "SP-ImEx3"}),
        ("work_precision", _SWEEP, ["SP-S2", 0.1, _NAN, _NAN], {"SP-S2", "SP-ImEx3"}),
        ("invariant_table", _SMALL + ", dt=1/20", ["SP-S2", _NAN, _NAN, _NAN], {"SP-ImEx3"}),
        ("error_growth", _SMALL + ", dt=1/20", ["SP-S2", _NAN, _NAN, _NAN], {"SP-ImEx3"}),
    ],
    ids=["convergence", "work_precision", "invariant_table", "error_growth"],
)
def test_failed_run_leaves_a_failed_row(
    monkeypatch, tmp_path, scenario, config, failed_row, other_methods
):
    calls = _fail_run_method(monkeypatch, lambda label, T, n: n == 1)
    cfg = parse_config(f"scenario={scenario}, {config}, out={tmp_path}/f.csv")
    result = run_scenario(cfg)
    rows = [_shape(row) for row in result.rows]
    if failed_row[3] == "slope":
        # the method's slope is fitted on its other rows and shared by all
        slope = rows[1][3]
        assert isinstance(slope, float) and 1.5 < slope < 2.5
        failed_row = failed_row[:3] + [slope]
    assert rows[0] == failed_row + ["forced failure"]
    assert {row[0] for row in rows[1:]} == other_methods
    assert all(row[4] == "" for row in rows[1:])
    assert len(result.records) == len(calls) - 1


def test_semiclassical_failure_keeps_the_earlier_output_times(monkeypatch, tmp_path):
    _fail_run_method(monkeypatch, lambda label, T, n: (label, T) == ("SP-S2", 0.1))
    cfg = parse_config(
        "scenario=semiclassical, methods=SP-S2 SP-AK4, eps=0.2, dx=1/16, dt=1/50, "
        f"t_out=0.05 0.1, dx_ref=1/64, dt_ref=1/400, out={tmp_path}/semi.csv"
    )
    result = run_scenario(cfg)
    rows = [_shape(row) for row in result.rows]
    assert [row[:2] for row in rows] == [
        ["SP-S2", 0.05], ["SP-S2", _NAN], ["SP-AK4", 0.05], ["SP-AK4", 0.1]
    ]
    assert rows[1] == ["SP-S2", _NAN, _NAN, _NAN, "forced failure"]
    assert all(row[4] == "" and row[2] < 1e-2 for row in rows if row is not rows[1])
    _, density = result.extra_tables["density"]
    assert sorted({(row[0], row[1]) for row in density}) == [
        ("SP-AK4", 0.05), ("SP-AK4", 0.1), ("SP-S2", 0.05)
    ]
    assert len(density) == 3 * 256
    assert sorted(result.records) == ["SP-AK4_t=0.05", "SP-AK4_t=0.1", "SP-S2_t=0.05"]


def test_config_echo_lists_methods():
    cfg = parse_config("scenario=convergence, methods=SP-S2 SP-AK4")
    echo = config_echo(cfg)
    assert echo["methods"] == ["SP-S2", "SP-AK4"]
    assert echo["scenario"] == "convergence"


@st.composite
def _numbers(draw):
    """(text, value) of a number as a config document writes it: a float
    literal or a ``p/q`` fraction."""
    if draw(st.booleans()):
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        return repr(x), x
    p, q = draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**6))
    return f"{p}/{q}", p / q


@st.composite
def _method_labels(draw):
    """(text, spec) of a valid method label, its modifiers in any order."""
    base = draw(st.sampled_from(["S2", "AK4", "ImEx3", "ImEx4"]))
    if base in ("S2", "AK4"):
        prefix, mods = draw(st.sampled_from(["", "SP-"])), []
    else:
        prefix = draw(st.sampled_from(["", "SP-", "FEM-"]))
        relax = ["", "R", "MR"] if prefix == "FEM-" else ["", "R"]
        mods = [m for m in (draw(st.sampled_from(relax)), draw(st.sampled_from(["", "EC"]))) if m]
        mods = draw(st.permutations(mods))
    text = prefix + base + "".join(f"({m})" for m in mods)
    return text, parse_method(text)


@st.composite
def _lists(draw, items):
    """(text, tuple) of a list, separated by whitespace or ``;``."""
    pairs = draw(st.lists(items, min_size=1, max_size=4))
    separator = draw(st.sampled_from([" ", "  ", "; ", ";"]))
    return separator.join(text for text, _ in pairs), tuple(value for _, value in pairs)


def _as_is(values):
    return values.map(lambda v: (str(v), v))


# (text, parsed value) strategies, one per config key
_KEY_VALUES = {
    "scenario": _as_is(st.sampled_from(harness.SCENARIOS)),
    "method": _method_labels().map(lambda tv: (tv[0], (tv[1],))),
    "methods": _lists(_method_labels()),
    "nsolitons": _as_is(st.integers(1, 3)),
    "eps": _numbers(),
    "phase": _as_is(st.sampled_from(["constant_phase", "varying_phase"])),
    "m": _as_is(st.integers(4, 10**5)),
    "dx": _numbers(),
    "dt": _numbers(),
    "dts": _lists(_numbers()),
    "T": _numbers(),
    "tol": _numbers(),
    "t_out": _lists(_numbers()),
    "out": _as_is(st.text("abcxyz0123456789_-./", min_size=1)),
    "format": _as_is(st.sampled_from(["csv", "json"])),
    "fit_t_min": _numbers(),
    "fit_t_max": _numbers(),
    "samples": _as_is(st.integers(1, 10**4)),
    "dt_min": _numbers(),
    "dx_ref": _numbers(),
    "dt_ref": _numbers(),
}


def test_every_config_key_has_a_value_strategy():
    assert set(_KEY_VALUES) == set(harness._KEY_PARSERS)


@given(st.data())
def test_config_document_round_trips_through_the_echo(data):
    # a document of valid values parses to the config those values make; a
    # later key overrides an earlier one of the same attribute (method and
    # methods)
    keys = data.draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), unique=True))
    keys = ["scenario", *data.draw(st.permutations([k for k in keys if k != "scenario"]))]
    values, lines = {}, []
    for key in keys:
        text, value = data.draw(_KEY_VALUES[key], label=key)
        values[harness._KEY_PARSERS[key][0]] = value
        lines.append(f"{key} = {text}")
    separator = data.draw(st.sampled_from(["\n", ", ", "  # comment\n"]))
    document = separator.join(lines)
    assert config_echo(parse_config(document)) == config_echo(ExperimentConfig(**values))


def test_cli_runs_scenario_and_writes_json(tmp_path):
    from nlslab.cli import main

    out = tmp_path / "conv.json"
    rc = main(
        [
            "convergence",
            "--method",
            "SP-S2",
            "--m",
            "128",
            "--T",
            "0.2",
            "--dt",
            "1/20",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][:3] == ["method", "dt", "error"]
    assert payload["config"]["methods"] == ["SP-S2"]
    assert len(payload["rows"]) == 1


def test_cli_rejects_bad_method(tmp_path, capsys):
    from nlslab.cli import main

    rc = main(["convergence", "--method", "SP-ImEx4(MR)", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "energy-conserving" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--T", "1/0"), ("--dt", "abc"), ("--T", ""), ("--T", "nan"), ("--T", "inf")],
)
def test_cli_rejects_bad_number_override(tmp_path, capsys, flag, value):
    from nlslab.cli import main

    rc = main(["invariants", flag, value, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"bad value for {flag[2:]!r}" in capsys.readouterr().err


def _numeric_keys():
    """The config keys whose value is a number or a list of numbers."""
    keys = []
    for key in harness._KEY_PARSERS:
        try:
            _, value = harness.parse_value(key, "1")
        except ConfigurationError:
            continue
        if all(isinstance(v, (int, float)) for v in np.atleast_1d(value).tolist()):
            keys.append(key)
    return keys


@pytest.mark.parametrize("key", _numeric_keys())
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_every_numeric_key_refuses_a_value_that_is_not_finite(key, text):
    with pytest.raises(ConfigurationError, match=re.escape(f"bad value for {key!r}: {text!r}")):
        harness.parse_value(key, text)


@pytest.mark.parametrize(
    "command, document, flags, message",
    [
        ("invariants", "scenario=invariant_table, dx=0", [], "dx must be positive, got 0.0"),
        ("invariants", "scenario=invariant_table, dx=nan", [], "bad value for 'dx': 'nan'"),
        (
            "semiclassical",
            "scenario=semiclassical, method=SP-S2, eps=0.2, dx=1/16, t_out=0.02, dx_ref=0",
            [],
            "dx must be positive, got 0",
        ),
        (
            "semiclassical",
            "scenario=semiclassical, method=SP-S2, eps=0.2, dx=1/16, t_out=0.02",
            ["--T", "1"],
            "it takes no 'T' key",
        ),
    ],
    ids=["dx-zero", "dx-nan", "dx_ref-zero", "semiclassical-T"],
)
def test_cli_refuses_values_no_run_can_use(tmp_path, capsys, command, document, flags, message):
    # each exits 2 with one error line and writes nothing, not a traceback
    # or a table of a run that ignored the value
    from nlslab.cli import main

    config = tmp_path / "run.cfg"
    config.write_text(document)
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(config), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--m", "abc", "bad value for 'm': 'abc'"),
        ("--m", "1.5", "bad value for 'm': '1.5'"),
        ("--format", "xml", "unknown format 'xml'"),
        ("--format", "", "unknown format ''"),
    ],
    ids=["m-text", "m-fraction", "format-xml", "format-empty"],
)
def test_cli_checks_an_override_as_a_document_checks_its_key(
    tmp_path, capsys, flag, value, message
):
    from nlslab.cli import main

    rc = main(["invariants", flag, value, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    with pytest.raises(ConfigurationError) as info:
        parse_config(f"scenario=invariant_table, {flag[2:]}={value}")
    assert message in str(info.value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("scenario", "bogus", "unknown scenario 'bogus'; known: ("),
        ("format", "xml", "unknown format 'xml'"),
        ("phase", "bogus", "unknown phase kind 'bogus'"),
    ],
    ids=["scenario", "format", "phase"],
)
def test_choice_keys_are_checked_by_their_parsers(key, value, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        harness.parse_value(key, value)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_config(f"scenario=convergence, {key}={value}")


def test_cli_echoes_an_output_path_as_given(tmp_path, monkeypatch):
    from nlslab.cli import main

    monkeypatch.chdir(tmp_path)
    argv = ["convergence", "--method", "SP-S2", "--m", "128", "--T", "0.1", "--dt", "1/20"]
    assert main(argv + ["--format", "json", "--out", "./run.json"]) == 0
    echo = json.loads((tmp_path / "run.json").read_text())["config"]
    assert (echo["out"], echo["m"], echo["dt"], echo["dts"]) == ("./run.json", 128, 0.05, [])


def test_cli_rejects_zero_grid_override(tmp_path, capsys):
    from nlslab.cli import main

    argv = ["invariants", "--method", "SP-S2", "--T", "0.01", "--m", "0"]
    rc = main(argv + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "at least 4 points" in capsys.readouterr().err


def test_cli_refuses_a_config_of_another_scenario(tmp_path, capsys):
    # the subcommand names the scenario: a config that sets another one is
    # refused, not run as the subcommand's scenario
    from nlslab.cli import main

    config = Path(__file__).resolve().parents[1] / "configs" / "soliton_invariants.cfg"
    out = tmp_path / "x.csv"
    argv = ["convergence", "--config", str(config), "--method", "SP-S2", "--T", "0.02"]
    rc = main(argv + ["--m", "256", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'invariant_table'" in err and "'convergence'" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
def test_cli_reports_an_unreadable_config(tmp_path, capsys, name):
    # an unreadable config is a bad input like any other: exit code 2 and
    # one error line, not a traceback
    from nlslab.cli import main

    config = tmp_path / name
    rc = main(["invariants", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {config}: ")


def test_cli_imports_no_scipy():
    code = (
        "import sys, nlslab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def _cli_within_a_minute(cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    # a run that never ends fails the test by the timeout, not by hanging it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "nlslab.cli", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )


def test_cli_refuses_a_fixed_step_below_the_landing_tolerance(tmp_path):
    # about 1e298 steps: refused before the first, with nothing written
    argv = ["convergence", "--method", "SP-S2", "--m", "64", "--dt", "1e-300", "--T", "0.01"]
    proc = _cli_within_a_minute(tmp_path, argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: fixed step dt=1e-300 is below the landing tolerance 1e-12 of T=0.01"
    ]
    assert proc.stdout == "" and list(tmp_path.iterdir()) == []


def test_a_reference_step_below_the_landing_tolerance_fails_the_scored_runs(tmp_path):
    # the reference integrates on demand, inside each run: its refusal is
    # each run's failed row, not a reference that never finishes
    (tmp_path / "c.cfg").write_text(
        "scenario=convergence, method=SP-S2, eps=0.2, dx=1/16, T=0.1, dts=1/20 1/40, "
        "dt_ref=1e-300, out=c.csv"
    )
    proc = _cli_within_a_minute(tmp_path, ["convergence", "--config", "c.cfg"])
    assert proc.returncode == 0
    message = "fixed step dt=1e-300 is below the landing tolerance 1e-12 of T=0.1"
    rows = (tmp_path / "c.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [message, message]


def test_semiclassical_desk_scale_default(tmp_path):
    base = (
        "scenario=semiclassical, method=SP-S2, eps=0.05, dx=1/16, dt=1/50, "
        f"out={tmp_path}/d.csv"
    )
    result = run_scenario(parse_config(base))
    assert [row[1] for row in result.rows] == [0.4]
    result = run_scenario(parse_config(base + ", t_out=0.8"))
    assert [row[1] for row in result.rows] == [0.8]
