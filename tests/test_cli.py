import csv
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from smrates import (
    BackwardState,
    ConfigError,
    ExperimentConfig,
    RngStream,
    SolverConfig,
    TimeGrid,
    backward_transition_probabilities,
    estimate_rate_moments,
    estimate_zcb_moment,
    evaluate_product_moment,
    transition_probabilities,
)
from smrates.cli import _surfaces, main
from smrates.moment_engine import _PANEL, LatticeWorkspace, build_rate_grid, covariance_surface

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TESTBED = CONFIG_DIR / "testbed_weibull_vasicek.json"
SINGLE = CONFIG_DIR / "single_regime_vasicek.json"
CIR_CONFIG = CONFIG_DIR / "single_regime_cir.json"


def load_config(path):
    return json.loads(Path(path).read_text())


def dump(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in fh if not r.startswith("#")]
    return list(csv.DictReader(rows))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = ExperimentConfig.from_file(TESTBED)
    assert cfg.kernel.m == 2
    assert cfg.model.n_states == 2
    assert len(cfg.config_hash()) == 16
    assert cfg.with_seed(1).seed == 1


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kernel": [,]}')
    rc = main(["phi", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_corrupted_kernel_exit_2(tmp_path, capsys):
    data = load_config(TESTBED)
    data["kernel"]["P"] = [[0.0, 0.9], [1.0, 0.0]]   # row sums 0.9
    rc = main(["phi", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "row" in capsys.readouterr().err


def test_missing_field_paths(tmp_path):
    data = load_config(TESTBED)
    del data["model"]["kind"]
    with pytest.raises(ConfigError, match="model.kind"):
        ExperimentConfig.from_dict(data)
    data = load_config(TESTBED)
    data["validate"]["maturities"] = [99.0]
    with pytest.raises(ConfigError, match="horizon"):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("command, block, key, value", [
    ("moments", "moments", "lags", [1.5]),              # beyond the horizon
    ("validate", "validate", "lags", [0.123]),          # not a multiple of the step
    ("simulate", "simulate", "targets", [{"quantity": "rate_moments", "s": 0.5,
                                          "lag": 0.123, "reps": 1000}]),
    ("validate", "validate", "occupancy_times", [0.33]),
])
def test_off_grid_times_exit_2(tmp_path, capsys, command, block, key, value):
    data = load_config(SINGLE)
    data["solver"]["step"] = 0.05
    data["solver"]["horizon"] = 1.0
    data[block][key] = value
    rc = main([command, "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"field {block}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["maturities", "occupancy_times"])
def test_validate_default_times_beyond_horizon_exit_2(tmp_path, capsys, monkeypatch, missing):
    # the default [1.0] is refused before any Monte Carlo runs
    data = load_config(SINGLE)
    data["solver"]["step"] = 0.05
    data["solver"]["horizon"] = 0.5
    data["validate"]["maturities"] = [0.5]
    data["validate"]["occupancy_times"] = [0.5]
    del data["validate"][missing]

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the config check")

    monkeypatch.setattr("smrates.cli.estimate_state_occupancy", no_monte_carlo)
    rc = main(["validate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"field validate.{missing}" in capsys.readouterr().err


def test_validate_defaults_do_not_bind_other_commands():
    # a horizon below the validate default parses; only validate refuses it
    data = load_config(SINGLE)
    data["solver"]["step"] = 0.05
    data["solver"]["horizon"] = 0.5
    del data["validate"]
    cfg = ExperimentConfig.from_dict(data)
    with pytest.raises(ConfigError, match="field validate.maturities"):
        cfg.validate_times()


def _zcb_target(**fields):
    return [{"quantity": "zcb_moment", "s": 1.0, **fields}]


@pytest.mark.parametrize("block, key, value, field", [
    ("simulate", "start_state", 1, "simulate.start_state"),      # one state only
    ("validate", "start_state", -1, "validate.start_state"),
    ("simulate", "age", -0.1, "simulate.age"),
    ("validate", "ages", [0.0, -0.5], "validate.ages"),
    ("simulate", "step", 0.0, "simulate.step"),
    ("simulate", "horizon", -1.0, "simulate.horizon"),
    ("simulate", "paths", -2, "simulate.paths"),
    ("moments", "orders", [1, 0], "moments.orders"),
    ("validate", "orders", [2.5], "validate.orders"),
    ("simulate", "targets", _zcb_target(reps=99), "simulate.targets[].reps"),
    ("validate", "reps_occupancy", 99, "validate.reps_occupancy"),
    ("validate", "reps_zcb", 10, "validate.reps_zcb"),
    ("validate", "reps_rate", 0, "validate.reps_rate"),
    ("simulate", "targets", _zcb_target(order=0), "simulate.targets[].order"),
    ("simulate", "targets", _zcb_target(order=1.5), "simulate.targets[].order"),
    ("simulate", "age", 40.0, "simulate.age"),               # H(40) rounds to 1
    ("validate", "ages", [0.5, 40.0], "validate.ages"),
    ("validate", "z_threshold", -1.0, "validate.z_threshold"),   # used to fail every check
])
def test_command_fields_exit_2_at_parse_time(tmp_path, capsys, block, key, value,
                                                field):
    data = load_config(SINGLE)
    data[block][key] = value
    with pytest.raises(ConfigError, match=re.escape(f"field {field}:")):
        ExperimentConfig.from_dict(data)
    rc = main([block, "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"field {field}:" in capsys.readouterr().err


def _set(path, value):
    """A config edit: path is a list of keys into the shipped config."""
    def edit(data):
        *parents, key = path
        for name in parents:
            data = data[name]
        data[key] = value
    return edit


@pytest.mark.parametrize("command, edit, field", [
    ("simulate", _set(["simulate", "targets"], [5]), "simulate.targets[0]"),
    ("moments", _set(["moments", "orders"], 2), "moments.orders"),
    ("moments", _set(["moments", "lags"], 0.5), "moments.lags"),
    ("moments", _set(["moments"], [1]), "moments"),
    ("phi", _set(["phi", "age"], "x"), "phi.age"),
    ("validate", _set(["validate", "ages"], ["a"]), "validate.ages[0]"),
    ("phi", _set(["kernel", "sojourns"], []), "kernel.sojourns"),
    ("phi", _set(["kernel", "states"], 2), "kernel.states"),
    ("validate", _set(["validate", "z_threshold"], "x"), "validate.z_threshold"),
    ("simulate", _set(["simulate", "r0"], "x"), "simulate.r0"),
    ("simulate", _set(["seed"], True), "seed"),
    pytest.param("moments", lambda data: data.update(solvr=data.pop("solver")), "top level",
                 id="unknown-top-level"),
    pytest.param("phi", _set(["phi", "ages"], [0.5]), "phi", id="unknown-phi"),
    pytest.param("moments", _set(["moments", "maturities"], [1.0]), "moments",
                 id="unknown-moments"),
    pytest.param("validate", _set(["validate", "reps_zbc"], 1000), "validate",
                 id="unknown-validate"),
    pytest.param("simulate", _set(["simulate", "targets", 0, "rep"], 100),
                 "simulate.targets[0]", id="unknown-target"),
    pytest.param("phi", _set(["phi", "age"], np.nan), "phi.age", id="nan-phi-age"),
    pytest.param("simulate", _set(["simulate", "age"], np.nan), "simulate.age",
                 id="nan-simulate-age"),
    pytest.param("validate", _set(["validate", "ages"], [np.nan]), "validate.ages",
                 id="nan-validate-ages"),
    pytest.param("simulate", _set(["simulate", "r0"], np.nan), "simulate.r0",
                 id="nan-simulate-r0"),
    pytest.param("validate", _set(["validate", "r0"], np.nan), "validate.r0",
                 id="nan-validate-r0"),
    pytest.param("simulate", _set(["simulate", "step"], np.inf), "simulate.step",
                 id="inf-simulate-step"),
    pytest.param("simulate", _set(["simulate", "horizon"], np.inf), "simulate.horizon",
                 id="inf-simulate-horizon"),
    pytest.param("validate", _set(["validate", "z_threshold"], np.inf), "validate.z_threshold",
                 id="inf-z-threshold"),
    pytest.param("phi", _set(["solver", "horizon"], np.inf), "solver", id="inf-solver-horizon"),
    pytest.param("phi", _set(["solver", "mc_step"], np.inf), "solver", id="inf-solver-mc-step"),
    pytest.param("phi", _set(["solver", "reference_rate"], np.nan), "solver",
                 id="nan-solver-reference-rate"),
    pytest.param("phi", _set(["solver", "grid_pad"], np.inf), "solver", id="inf-solver-grid-pad"),
    pytest.param("phi", lambda data: data["solver"].update(rate_lo=-np.inf, rate_hi=np.inf),
                 "solver", id="inf-solver-rate-bounds"),
    pytest.param("phi", _set(["kernel", "sojourns", 0, 0, "rate"], np.nan),
                 "kernel.sojourns[0][0]", id="nan-sojourn-rate"),
    pytest.param("phi", _set(["kernel", "sojourns", 0, 0],
                             {"family": "uniform", "lo": 0.5, "hi": np.inf}),
                 "kernel.sojourns[0][0]", id="inf-sojourn-bound"),
    pytest.param("moments", _set(["model", "params", 0, "sigma"], np.nan), "model.params",
                 id="nan-vasicek-sigma"),
    pytest.param("moments", _set(["model", "params", 0, "a"], np.inf), "model.params",
                 id="inf-vasicek-a"),
    pytest.param("moments", _set(["model"], {"kind": "cir", "params": [
        {"a": 0.04, "b": -np.inf, "sigma": 0.1}]}), "model.params", id="inf-cir-b"),
    pytest.param("moments", _set(["model"], {"kind": "hull_white", "params": [
        {"alpha": {"ts": [0.0, 1.0], "vs": [0.05, np.nan]}, "beta": 1.0, "sigma": 0.02}]}),
                 "model.params[0].alpha", id="nan-hull-white-table"),
    pytest.param("moments", _set(["model"], {"kind": "hull_white", "params": [
        {"alpha": 0.05, "beta": 1.0, "sigma": np.inf}]}),
                 "model.params[0].sigma", id="inf-hull-white-constant"),
    pytest.param("moments", _set(["moments", "lags"], ["0.5"]), "moments.lags",
                 id="string-moments-lag"),
    pytest.param("moments", _set(["moments", "lags"], [True]), "moments.lags",
                 id="bool-moments-lag"),
    pytest.param("simulate", _set(["simulate", "targets"], [
        {"quantity": "rate_moments", "s": 0.5, "lag": True, "reps": 1000}]),
                 "simulate.targets[].lag", id="bool-target-lag"),
    pytest.param("validate", _set(["validate", "lags"], [True]), "validate.lags",
                 id="bool-validate-lag"),
    pytest.param("validate", _set(["validate", "occupancy_times"], [True]),
                 "validate.occupancy_times", id="bool-occupancy-time"),
    pytest.param("phi", _set(["solver", "horizon"], True), "solver.horizon",
                 id="bool-solver-horizon"),
    pytest.param("phi", _set(["solver", "step"], "0.05"), "solver.step",
                 id="string-solver-step"),
    pytest.param("phi", _set(["solver", "rate_lo"], False), "solver.rate_lo",
                 id="bool-solver-rate-lo"),
    pytest.param("moments", _set(["model", "params", 0, "sigma"], True),
                 "model.params[0].sigma", id="bool-vasicek-sigma"),
    pytest.param("moments", _set(["model", "params", 0, "sigma"], "0.01"),
                 "model.params[0].sigma", id="string-vasicek-sigma"),
    pytest.param("moments", _set(["model"], {"kind": "cir", "params": [
        {"a": 0.04, "b": True, "sigma": 0.1}]}), "model.params[0].b", id="bool-cir-b"),
    pytest.param("moments", _set(["model"], {"kind": "hull_white", "params": [
        {"alpha": True, "beta": 1.0, "sigma": 0.02}]}),
                 "model.params[0].alpha", id="bool-hull-white-table"),
    pytest.param("moments", _set(["model"], {"kind": "hull_white", "params": [
        {"alpha": {"ts": [0.0, 1.0], "vs": [0.05, True]}, "beta": 1.0, "sigma": 0.02}]}),
                 "model.params[0].alpha.vs[1]", id="bool-hull-white-knot-value"),
    pytest.param("phi", _set(["kernel", "sojourns", 0, 0],
                             {"family": "weibull", "shape": True, "scale": 1.0}),
                 "kernel.sojourns[0][0].shape", id="bool-weibull-shape"),
    pytest.param("phi", _set(["kernel", "P", 0, 0], True), "kernel.P[0][0]",
                 id="bool-kernel-p"),
    pytest.param("phi", _set(["model"], 5), "model", id="model-not-object"),
    pytest.param("phi", _set(["solver"], [{"step": 0.05}]), "solver", id="solver-not-object"),
])
def test_malformed_field_shapes_exit_2(tmp_path, capsys, command, edit, field):
    # each of these used to end in a traceback (exit 1), or, for a
    # boolean seed, to run as seed 1; an unknown key (the five "unknown-"
    # cases, a misspelt "solvr" among them) used to be ignored; a NaN or
    # infinite number (JSON's NaN and Infinity) used to run, writing NaN
    # rows or passing every check, or to end in a traceback; a non-finite
    # sojourn or model parameter used to write NaN phi rows (exit 0) or to
    # fail in the solve (exit 3); a boolean or string lag, occupancy time,
    # solver, model or kernel number used to run as 1.0 or as the number
    # it spells, or to be refused with numpy's message
    data = load_config(SINGLE)
    edit(data)
    with pytest.raises(ConfigError, match=re.escape(f"field {field}:")):
        ExperimentConfig.from_dict(data)
    rc = main([command, "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"field {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"ages": []},
    {"maturities": [], "occupancy_times": []},
    {"orders": [], "lags": [], "occupancy_times": []},
])
def test_validate_with_nothing_to_check_exit_2(tmp_path, capsys, monkeypatch, fields):
    # each used to print "0/0 checks pass (PASS)" and exit 0
    data = load_config(SINGLE)
    data["validate"].update(fields)

    def no_work(*args, **kwargs):
        raise AssertionError("validate worked before the refusal")

    for name in ("transition_probabilities", "estimate_state_occupancy", "estimate_moments"):
        monkeypatch.setattr(f"smrates.cli.{name}", no_work)
    rc = main(["validate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "field validate: no check to run" in capsys.readouterr().err


def _refused_before_simulating(tmp_path, capsys, monkeypatch, data, message):
    # refused before any path or Monte Carlo runs; the other commands
    # still parse the config
    ExperimentConfig.from_dict(data)

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("simulation ran before the config check")

    monkeypatch.setattr("smrates.cli.simulate_path", no_monte_carlo)
    monkeypatch.setattr("smrates.cli.estimate_moments", no_monte_carlo)
    rc = main(["simulate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("targets, field", [
    (_zcb_target(s=2.5), "simulate.targets[0].s"),
    (_zcb_target() + [{"quantity": "sharpe_ratio", "s": 1.0}],
     "simulate.targets[1].quantity"),
])
def test_simulate_targets_exit_2_before_simulating(tmp_path, capsys, monkeypatch,
                                                   targets, field):
    data = load_config(SINGLE)
    data["simulate"]["targets"] = targets
    _refused_before_simulating(tmp_path, capsys, monkeypatch, data, f"field {field}:")


@pytest.mark.parametrize("config, fields, message", [
    (CIR_CONFIG, {"antithetic": True, "reps": 1000},
     "antithetic variates need a Gaussian transition law"),
    (SINGLE, {"antithetic": True, "reps": 1001}, "antithetic pairs need an even reps, got 1001"),
    (SINGLE, {"antithetic": "no"}, "'no' must be a JSON boolean"),
    (SINGLE, {"quantity": "rate_moments", "lag": 0.0, "antithetic": True},
     "only a zcb_moment target draws antithetic pairs"),
])
def test_simulate_antithetic_options_exit_2_before_simulating(tmp_path, capsys, monkeypatch,
                                                              config, fields, message):
    # these used to end in a traceback (exit 1), to run antithetic on the
    # string "no", or to run a rate_moments target without the pairs
    data = load_config(config)
    data["simulate"]["targets"] = _zcb_target(**fields)
    _refused_before_simulating(tmp_path, capsys, monkeypatch, data,
                               f"field simulate.targets[0].antithetic: {message}")


@pytest.mark.parametrize("key, value", [
    ("rate_nodes", 21.5), ("quad_order", 12.5), ("quad_order", True), ("rate_nodes", "81"),
])
def test_solver_integer_fields_exit_2(tmp_path, capsys, key, value):
    # a float node count or rule order used to reach numpy and end in a
    # TypeError traceback
    data = load_config(SINGLE)
    data["solver"][key] = value
    message = f"field solver: {key} must be an integer"
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(data)
    rc = main(["moments", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fields, message, config", [
    pytest.param({"rate_lo": 0.0}, "rate_lo and rate_hi must be given together", SINGLE,
                 id="lo_only"),
    pytest.param({"rate_hi": 0.1}, "rate_lo and rate_hi must be given together", SINGLE,
                 id="hi_only"),
    pytest.param({"rate_lo": 0.05, "rate_hi": 0.05}, "rate_hi 0.05 must exceed rate_lo 0.05",
                 SINGLE, id="empty"),
    pytest.param({"rate_lo": 0.1, "rate_hi": 0.0}, "rate_hi 0.0 must exceed rate_lo 0.1",
                 SINGLE, id="inverted"),
    pytest.param({"rate_lo": 0.04, "rate_hi": 0.1},
                 "reference_rate 0.03 must lie in [rate_lo, rate_hi]", SINGLE,
                 id="reference_outside"),
    pytest.param({"grid_pad": 0.0}, "grid_pad must be positive", SINGLE, id="pad_zero"),
    pytest.param({"grid_pad": -8.0}, "grid_pad must be positive", SINGLE, id="pad_negative"),
    pytest.param({"coverage_tol": -1.0}, "coverage_tol must be nonnegative", SINGLE,
                 id="tol_negative"),
    pytest.param({"step": 0.05, "rate_lo": -0.5, "rate_hi": -0.1, "reference_rate": -0.3},
                 "rate_hi -0.1 must be positive for a CIR model", CIR_CONFIG,
                 id="cir_bounds_negative"),
    pytest.param({"step": 0.05, "reference_rate": -0.3},
                 "reference_rate -0.3 must be nonnegative for a CIR model", CIR_CONFIG,
                 id="cir_reference_negative"),
])
def test_solver_lattice_fields_exit_2(tmp_path, capsys, fields, message, config):
    # a lone bound used to be ignored, an empty or inverted range to end
    # in a traceback (exit 1), and the rest to reach the march and exit 3;
    # a CIR lattice below the origin ended in exit 3, or in exit 0 with
    # sqrt warnings off a lattice clipped to start above the reference
    data = load_config(config)
    data["solver"].update(fields)
    message = f"field solver: {message}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(data)
    rc = main(["moments", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_numeric_failure_exit_3(tmp_path, capsys):
    data = load_config(SINGLE)
    data["solver"]["rate_lo"] = 0.029
    data["solver"]["rate_hi"] = 0.031
    data["solver"]["rate_nodes"] = 11
    rc = main(["moments", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "lattice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# phi command
# ---------------------------------------------------------------------------

def test_cmd_phi_output(tmp_path):
    rc = main(["phi", "--config", str(TESTBED), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "phi.csv")
    first = [r for r in rows if float(r["t"]) == 0.0]
    # identity at t = 0
    for r in first:
        expected = 1.0 if r["from"] == r["to"] else 0.0
        assert float(r["phi"]) == expected
        assert float(r["phi_aged"]) == expected
    for r in rows:
        assert abs(float(r["row_sum"]) - 1.0) < 1e-6
        assert abs(float(r["row_sum_aged"]) - 1.0) < 1e-6


def test_cmd_phi_age_zero_columns_match(tmp_path):
    data = load_config(TESTBED)
    data["phi"]["age"] = 0.0
    data["solver"]["horizon"] = 1.0
    rc = main(["phi", "--config", str(dump(tmp_path, data)), "--out", str(tmp_path)])
    assert rc == 0
    for r in read_csv(tmp_path / "phi.csv"):
        assert float(r["phi"]) == pytest.approx(float(r["phi_aged"]), abs=1e-10)


def test_cmd_phi_non_finite_table_exit_3(tmp_path, capsys):
    # Weibull shape 0.001 overflows gamma(1 + 1/k) in the truncated mean, so
    # every weight is NaN; the row-sum guard must refuse the table, not
    # write it
    data = load_config(TESTBED)
    for row in data["kernel"]["sojourns"]:
        for law in row:
            if law is not None:
                law["shape"] = 0.001
    data["solver"]["horizon"] = 1.0
    with np.errstate(invalid="ignore"):
        rc = main(["phi", "--config", str(dump(tmp_path, data)), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "nan" in capsys.readouterr().err
    assert not (tmp_path / "o" / "phi.csv").exists()


# ---------------------------------------------------------------------------
# moments command
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moments_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("moments")
    cfg = json.loads(TESTBED.read_text())
    cfg["solver"]["step"] = 0.01
    cfg["solver"]["horizon"] = 1.5
    p = out / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["moments", "--config", str(p), "--out", str(out)])
    assert rc == 0
    return out


def test_cmd_moments_files(moments_out):
    names = {f.name for f in moments_out.iterdir()}
    assert {"zcb_moment_n1.csv", "zcb_moment_n2.csv", "rate_mean.csv",
            "product_moment_h0p5.csv", "covariance_h0p5.csv",
            "zcb_moment_jensen.csv"} <= names


def test_cmd_moments_headers_and_values(moments_out):
    text = (moments_out / "zcb_moment_n1.csv").read_text()
    assert text.startswith("# config_sha256=")
    assert "step=" in text.splitlines()[1]
    rows = read_csv(moments_out / "zcb_moment_n1.csv")
    at_zero = [r for r in rows if float(r["s"]) == 0.0]
    assert at_zero and all(float(r["value"]) == 1.0 for r in at_zero)


def test_cmd_moments_jensen_column(moments_out):
    rows = read_csv(moments_out / "zcb_moment_jensen.csv")
    assert min(float(r["value"]) for r in rows) >= -1e-8


def test_cmd_moments_lag_equal_to_horizon(tmp_path):
    # the covariance at lag = horizon keeps the single maturity s = 0;
    # with no validate block, validate's default maturity 1.0 beyond the
    # horizon does not stop moments
    data = load_config(SINGLE)
    data["solver"]["horizon"] = 0.5
    del data["validate"]
    data["moments"]["lags"] = [0.0, 0.5]
    rc = main(["moments", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    path = tmp_path / "o" / "covariance_h0p5.csv"
    assert "step=0.002 " in path.read_text().splitlines()[1]
    rows = read_csv(path)
    assert {r["s"] for r in rows} == {"0.0"}
    keys = [(r["state"], r["x"]) for r in rows]
    assert len(keys) == len(set(keys)) == data["solver"]["rate_nodes"]


def test_cmd_moments_csv_and_json_carry_the_same_strings(tmp_path):
    data = load_config(TESTBED)
    data["solver"]["step"] = 0.05
    data["moments"] = {"orders": [2, 1], "lags": [0.5, 0.0]}
    path = dump(tmp_path, data)
    out = tmp_path / "o"
    assert main(["moments", "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 9
    tables = json.loads((out / "surfaces.json").read_text(),
                        parse_float=str)["surfaces"]
    assert [(t["quantity"], t.get("order"), t.get("lag")) for t in tables] == [
        ("zcb_moment", 2, None), ("zcb_moment", 1, None), ("rate_mean", None, None),
        ("product_moment", None, "0.5"), ("product_moment", None, "0.0")]

    cfg = ExperimentConfig.from_file(path)
    zcb, rate, products = _surfaces(cfg, cfg.moments["orders"], cfg.moments["lags"],
                                    rate_mean=True)
    names = cfg.kernel.states

    def csv_values(name, shape):
        rows = read_csv(out / name)
        values = np.array([float(r["value"]) for r in rows]).reshape(shape)
        return rows, values

    def same_bits(a, b):
        return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64))

    for table, name, surf in zip(tables, [
            "zcb_moment_n2.csv", "zcb_moment_n1.csv", "rate_mean.csv",
            "product_moment_h0p5.csv", "product_moment_h0p0.csv"],
            [zcb[2], zcb[1], rate, products[0.5], products[0.0]]):
        rows, values = csv_values(name, surf.values.shape)
        from_csv = {(r["quantity"], r["state"], r["s"], r["x"]): r["value"] for r in rows}
        from_json = {(table["quantity"], names[i], s, x): table["values"][i][k][p]
                     for i in range(len(names))
                     for k, s in enumerate(table["s_nodes"])
                     for p, x in enumerate(table["x_nodes"])}
        assert len(from_csv) == len(rows) and from_csv == from_json
        assert same_bits(values, surf.values)
        assert same_bits(np.array(table["values"], dtype=float), surf.values)
    for lag, tag in ((0.5, "0p5"), (0.0, "0p0")):
        cov = covariance_surface(products[lag], rate)
        assert same_bits(csv_values(f"covariance_h{tag}.csv", cov.values.shape)[1],
                         cov.values)
    gap = zcb[2].values - zcb[1].values ** 2
    assert same_bits(csv_values("zcb_moment_jensen.csv", gap.shape)[1], gap)


def test_moment_surfaces_hold_one_transfer_stack(monkeypatch):
    # each stack is built once and freed when the workspace moves to the
    # next tilt; the rate mean and the products march their coefficients
    # and read none, so no plain (tilt-0) stack is built and the rate
    # solve frees the last discount order's; no aged evaluation builds one
    data = load_config(TESTBED)
    data["solver"]["step"] = 0.05
    data["moments"] = {"orders": [1, 2], "lags": [0.0, 0.5]}
    cfg = ExperimentConfig.from_dict(data)
    built = []
    build = LatticeWorkspace._build

    def recorded_build(ws, tilt):
        stack = build(ws, tilt)
        built.append((tilt, weakref.ref(stack)))
        return stack

    monkeypatch.setattr(LatticeWorkspace, "_build", recorded_build)
    zcb, rate, products = _surfaces(cfg, cfg.moments["orders"], cfg.moments["lags"],
                                    rate_mean=True)
    ws = rate.workspace
    assert [tilt for tilt, _ in built] == [1, 2]
    assert [ref() is None for _, ref in built] == [True, True]
    assert ws._held is None
    evaluate_product_moment(products[0.5], rate, cfg.kernel, cfg.model, 0, 0.3, 0.03, 1.0)
    assert len(built) == 2


def test_cmd_simulate_builds_each_stack_once(tmp_path, monkeypatch):
    # targets that alternate discount and rate quantities build each
    # discount stack once, and the rate quantities build none
    data = load_config(SINGLE)
    data["solver"].update(step=0.05, horizon=1.0, rate_nodes=21)
    data["simulate"].update(paths=0, targets=[
        {"quantity": "rate_moments", "s": 0.5, "lag": 0.0, "reps": 100},
        {"quantity": "zcb_moment", "order": 2, "s": 0.5, "reps": 100},
        {"quantity": "rate_moments", "s": 0.5, "lag": 0.5, "reps": 100},
        {"quantity": "zcb_moment", "order": 1, "s": 0.5, "reps": 100},
    ])
    tilts = []
    build = LatticeWorkspace._build
    monkeypatch.setattr(LatticeWorkspace, "_build",
                        lambda ws, tilt: tilts.append(tilt) or build(ws, tilt))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(dump(tmp_path, data)), "--out", str(out)]) == 0
    assert tilts == [1, 2]
    reports = json.loads((out / "estimates.json").read_text())["reports"]
    assert [r["target"]["quantity"] for r in reports] == [
        "rate_mean", "product_moment", "zcb_moment", "rate_mean", "product_moment",
        "zcb_moment"]


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def test_cmd_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(SINGLE), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(SINGLE), "--out", str(out2)]) == 0
    for f in sorted(out1.iterdir()):
        assert (out2 / f.name).read_bytes() == f.read_bytes()
    reports = json.loads((out1 / "estimates.json").read_text())["reports"]
    assert reports and all(r["within_3se"] for r in reports)


def test_cmd_simulate_horizon_zero(tmp_path):
    data = load_config(SINGLE)
    data["simulate"]["horizon"] = 0.0
    data["simulate"]["targets"] = []
    rc = main(["simulate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = [ln for ln in (tmp_path / "path_000.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines == ["t,state,r,I"]


def test_cmd_simulate_seed_override_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(SINGLE), "--out", str(out1), "--seed", "1"])
    main(["simulate", "--config", str(SINGLE), "--out", str(out2), "--seed", "2"])
    assert (out1 / "path_000.csv").read_text() != (out2 / "path_000.csv").read_text()


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------

def test_cmd_validate_single_regime(tmp_path):
    rc = main(["validate", "--config", str(SINGLE), "--out", str(tmp_path)])
    verdict = json.loads((tmp_path / "validation.json").read_text())
    assert rc == 0
    assert verdict["all_pass"] is True
    for c in verdict["checks"]:
        assert set(c) == {"check", "analytic", "estimate", "std_error", "z", "pass"}


def test_cmd_validate_draws_one_batch_per_age(tmp_path, monkeypatch):
    # every Monte Carlo check of an age reads one shared batch: the zcb
    # checks its first reps_zcb paths, the rate checks its first reps_rate;
    # with no lag there is no rate check, so the batch has reps_zcb paths
    import smrates.monte_carlo as mc

    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    data["validate"].update(reps_occupancy=1000, reps_zcb=300, reps_rate=500)
    val = data["validate"]
    batches = []
    real = mc.simulate_batch

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        batches.append((args, kwargs, out))
        return out

    monkeypatch.setattr(mc, "simulate_batch", counted)
    for lags in (val["lags"], []):
        val["lags"] = lags
        out = tmp_path / f"lags{len(lags)}"
        batches.clear()
        rc = main(["validate", "--config", str(dump(tmp_path, data)), "--out", str(out)])
        assert rc in (0, 4)
        assert len(batches) == len(val["ages"])
        checks = {c["check"]: c for c in json.loads((out / "validation.json").read_text())
                  ["checks"]}
        if not lags:
            assert not [name for name in checks if name.startswith(("rate", "product"))]

        def expect(name, samples):
            assert checks[name]["estimate"] == float(samples.mean())
            assert checks[name]["std_error"] == float(samples.std(ddof=1)
                                                      / np.sqrt(samples.size))

        first_stream = len(val["ages"]) * len(val["occupancy_times"])
        for a, (age, (args, kwargs, (rates, integ))) in enumerate(zip(val["ages"], batches)):
            start, snaps, rng, n_paths = args[2], list(args[4]), args[6], args[7]
            assert (start.age, rng.seed, rng.stream, n_paths) == (
                age, data["seed"], first_stream + a, 500 if lags else 300)
            assert not kwargs.get("antithetic", False)
            row = {t: k for k, t in enumerate(snaps)}
            for s in val["maturities"]:
                for n in val["orders"]:
                    expect(f"zcb_moment[n={n},age={age},s={s}]",
                           np.exp(-n * integ[row[s], :300]))
                for lag in lags:
                    r_s = rates[row[s], :500]
                    expect(f"rate_mean[age={age},s={s},lag={lag}]", r_s)
                    expect(f"product_moment[age={age},s={s},lag={lag}]",
                           r_s * rates[row[s + lag], :500])


def test_neighbouring_seeds_share_no_stream(tmp_path, monkeypatch):
    # validate and simulate draw every stream of a run from its own seed:
    # runs at seeds S and S + 1 share no (seed, stream) pair, and no run
    # draws one stream twice
    import smrates.monte_carlo as mc

    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    data["validate"].update(reps_occupancy=1000, reps_zcb=300, reps_rate=500)
    for tgt in data["simulate"]["targets"]:
        tgt["reps"] = 200
    cfg = dump(tmp_path, data)
    drawn = []
    real = mc.RngStream.generator

    def recorded(self):
        drawn[-1].append((self.seed, self.stream))
        return real(self)

    monkeypatch.setattr(mc.RngStream, "generator", recorded)
    for command in ("validate", "simulate"):
        runs = []
        for seed in (17, 18):
            drawn.append([])
            main([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}{seed}"),
                  "--seed", str(seed)])
            runs.append(drawn[-1])
            assert len(set(drawn[-1])) == len(drawn[-1]) > 1
        assert not set(runs[0]) & set(runs[1]), command


def test_cmd_validate_without_maturities_runs_occupancy_only(tmp_path):
    data = load_config(SINGLE)
    data["validate"]["maturities"] = []
    rc = main(["validate", "--config", str(dump(tmp_path, data)), "--out", str(tmp_path)])
    checks = json.loads((tmp_path / "validation.json").read_text())["checks"]
    assert rc == 0
    assert checks and all(c["check"].startswith("occupancy[") for c in checks)


def _record_solves(monkeypatch) -> list:
    """(surface, march steps) of every solve the CLI makes, in order."""
    import smrates.cli as cli

    calls = []

    def counted(real, name):
        def solve(*args, **kwargs):
            surface = real(*args, **kwargs)
            calls.append((name, surface.s_nodes.size - 1))
            return surface
        return solve

    for name, attr in (("zcb", "solve_zcb_moment"), ("rate_mean", "solve_rate_mean"),
                       ("product", "solve_product_moment")):
        monkeypatch.setattr(cli, attr, counted(getattr(cli, attr), name))
    return calls


def _solve_full_horizon(monkeypatch):
    """Make the CLI solve every surface it may read over the whole horizon."""
    monkeypatch.setattr("smrates.cli._surfaces", lambda cfg, orders, lags, rate_mean, until:
                        _surfaces(cfg, orders, lags, rate_mean=True))


@pytest.mark.parametrize("edit, solved", [
    ({"lags": []}, ["zcb", "zcb"]),
    ({"maturities": []}, []),
    # a lag past every maturity: the march reaches the lag's rate rows
    ({"maturities": [0.25], "lags": [0.0, 0.8]},
     ["zcb", "zcb", "rate_mean", "product", "product"]),
])
def test_cmd_validate_solves_only_what_its_checks_read(tmp_path, monkeypatch, edit, solved):
    # validate solves only the surfaces its checks read, each marched to
    # the panel of the last node they read, and its verdict keeps the
    # bytes of a run that solves every surface over the whole horizon
    import smrates.cli as cli

    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    data["validate"].update(reps_occupancy=1000, reps_zcb=300, reps_rate=500, **edit)
    cfg = dump(tmp_path, data)
    calls = _record_solves(monkeypatch)
    evaluations = []
    for attr in ("evaluate_zcb_moment", "evaluate_rate_mean", "evaluate_product_moment"):
        monkeypatch.setattr(cli, attr, lambda *args, real=getattr(cli, attr), attr=attr:
                            evaluations.append(attr) or real(*args))
    lean = tmp_path / "lean"
    rc = main(["validate", "--config", str(cfg), "--out", str(lean)])
    assert rc in (0, 4)
    assert [name for name, _ in calls] == solved
    val = data["validate"]
    # one aged evaluation per (age, maturity) and order or lag, and one
    # of the rate mean per (age, maturity) that every lag's check reads
    per_point = len(val["orders"]) + (len(val["lags"]) + 1 if val["lags"] else 0)
    assert len(evaluations) == len(val["ages"]) * len(val["maturities"]) * per_point
    if solved:
        last = round(max(val["maturities"] + val["lags"]) / 0.02)
        assert {steps for _, steps in calls} == {-(-last // _PANEL) * _PANEL}
    _solve_full_horizon(monkeypatch)
    full = tmp_path / "full"
    assert main(["validate", "--config", str(cfg), "--out", str(full)]) == rc
    assert (lean / "validation.json").read_bytes() == (full / "validation.json").read_bytes()


def test_cmd_validate_marches_phi_to_its_last_occupancy_time(tmp_path, monkeypatch):
    # validate marches phi and every age's aged pass to the last
    # occupancy time alone, and not at all without one; each occupancy
    # value lies within 1e-15 of the full-horizon table's.  Past the zcb
    # march the transfer build makes rules for the core rates alone
    import smrates.cli as cli
    import smrates.moment_engine as engine

    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    data["validate"].update(occupancy_times=[0.5, 1.0], maturities=[0.25], lags=[],
                            reps_occupancy=1000, reps_zcb=300)
    cfg_path = dump(tmp_path, data)
    marched = []
    monkeypatch.setattr(cli, "transition_probabilities", lambda kernel, grid, real=(
        cli.transition_probabilities): marched.append(grid.n_steps) or real(kernel, grid))
    rules = []
    monkeypatch.setattr(engine, "_law_nodes_weights", lambda model, i, r0, t, *args, real=(
        engine._law_nodes_weights), **kw: rules.append((np.array(r0), np.array(t)))
        or real(model, i, r0, t, *args, **kw))
    assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) in (0, 4)
    assert marched == [round(1.0 / 0.02)]

    cfg = ExperimentConfig.from_dict(data)
    grid = TimeGrid(0.02, data["solver"]["horizon"])
    phi = transition_probabilities(cfg.kernel, grid)
    checks = json.loads((tmp_path / "o" / "validation.json").read_text())["checks"]
    occupancy = [c for c in checks if c["check"].startswith("occupancy")]
    assert len(occupancy) == 2 * 2 * 2   # ages x times x states
    for check in occupancy:
        age, t, to = re.fullmatch(r"occupancy\[age=(.*),t=(.*),to=(.*)\]", check["check"]).groups()
        aged = backward_transition_probabilities(cfg.kernel, float(age), grid, phi)
        full = aged[grid.index_of(float(t)), 0, cfg.kernel.states.index(to)]
        assert abs(check["analytic"] - full) <= 1e-15, check["check"]

    ws = LatticeWorkspace(cfg.kernel, cfg.model, cfg.solver)
    assert 0 < ws._core.sum() < ws.x_nodes.size
    march_end = _PANEL * 0.02   # the panel of the last maturity, 0.25
    builds = [(r0, t) for r0, t in rules if t.ndim == 2]
    assert builds and any(t.min() > march_end for _, t in builds)
    for r0, t in builds:
        rows = ws.x_nodes[ws._core] if t.min() > march_end else ws.x_nodes
        assert np.array_equal(r0, rows)

    data["validate"]["occupancy_times"] = []
    marched.clear()
    assert main(["validate", "--config", str(dump(tmp_path, data)),
                 "--out", str(tmp_path / "none")]) in (0, 4)
    assert marched == []


def test_cmd_simulate_marches_only_to_its_last_node(tmp_path, monkeypatch):
    # simulate solves the surfaces its targets read, each marched to the
    # panel of max(s, lag), and its estimates keep the bytes of a run
    # that solves every surface over the whole horizon
    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    data["simulate"].update(paths=0, targets=[
        {"quantity": "zcb_moment", "order": 2, "s": 0.3, "reps": 200},
        # a lag past every maturity: the march reaches the lag's rate rows
        {"quantity": "rate_moments", "s": 0.25, "lag": 0.5, "reps": 200},
    ])
    cfg = dump(tmp_path, data)
    calls = _record_solves(monkeypatch)
    lean = tmp_path / "lean"
    assert main(["simulate", "--config", str(cfg), "--out", str(lean)]) == 0
    last = round(0.5 / 0.02)
    assert calls == [(name, -(-last // _PANEL) * _PANEL)
                     for name in ("zcb", "rate_mean", "product")]
    assert calls[0][1] < round(data["solver"]["horizon"] / 0.02)
    _solve_full_horizon(monkeypatch)
    full = tmp_path / "full"
    assert main(["simulate", "--config", str(cfg), "--out", str(full)]) == 0
    assert (lean / "estimates.json").read_bytes() == (full / "estimates.json").read_bytes()


def test_simulate_reports_are_the_one_target_estimators(tmp_path):
    # target j's reports are the library's one-target estimator run on
    # the stream after the paths' streams, RngStream(seed, paths + j)
    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    sim = data["simulate"]
    sim["paths"] = 1
    for tgt in sim["targets"]:
        tgt["reps"] = 2000
    sim["targets"].append({"quantity": "zcb_moment", "order": 1, "s": 1.5, "reps": 1000,
                           "antithetic": True})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(dump(tmp_path, data)), "--out", str(out)]) == 0
    reports = json.loads((out / "estimates.json").read_text())["reports"]
    cfg = ExperimentConfig.from_dict(data)
    start = BackwardState(sim["start_state"], sim["age"])
    expected = []
    for j, tgt in enumerate(sim["targets"]):
        rng = RngStream(cfg.seed, sim["paths"] + j)
        if tgt["quantity"] == "zcb_moment":
            expected.append(estimate_zcb_moment(
                cfg.kernel, cfg.model, start, sim["r0"], tgt["order"], tgt["s"], tgt["reps"],
                rng, step=sim["step"], antithetic=tgt.get("antithetic", False)))
        else:
            expected.extend(estimate_rate_moments(
                cfg.kernel, cfg.model, start, sim["r0"], tgt["s"], tgt["lag"], tgt["reps"],
                rng, step=sim["step"]))
    assert len(reports) == len(expected) == 5
    for report, rep in zip(reports, expected):
        assert {key: report[key] for key in rep.to_dict()} == rep.to_dict()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_off_lattice_r0_exit_3_before_monte_carlo(tmp_path, capsys, monkeypatch, command):
    # an r0 off the rate lattice used to be refused at the first aged
    # evaluation, after every Monte Carlo batch and solve had run
    import smrates.cli as cli

    data = load_config(TESTBED)
    data["solver"].update(step=0.02, rate_nodes=21)
    data["validate"].update(reps_occupancy=1000)
    data[command]["r0"] = 0.5
    cfg = ExperimentConfig.from_dict(data)
    x_nodes = build_rate_grid(cfg.model, cfg.solver)
    message = (f"rate 0.5 lies outside the lattice [{x_nodes[0]:.6g}, {x_nodes[-1]:.6g}]; "
               "extrapolation is refused")

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the r0 check")

    for attr in ("estimate_state_occupancy", "estimate_moments", "simulate_path"):
        monkeypatch.setattr(cli, attr, no_monte_carlo)
    rc = main([command, "--config", str(dump(tmp_path, data)), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == f"numerical error: {message}\n"
    # with no maturity or no target no surface is read, and r0 is not checked
    monkeypatch.undo()
    data["validate"]["maturities"] = []
    data["simulate"]["targets"] = []
    rc = main([command, "--config", str(dump(tmp_path, data)), "--out", str(tmp_path / "p")])
    assert rc == 0


def test_lattice_refusal_is_the_same_for_every_command(tmp_path, capsys):
    # validate and simulate march only to the last node they read, yet
    # check lattice coverage over the whole horizon: a law that escapes
    # only at later elapsed times is refused by all three commands alike
    data = load_config(SINGLE)
    data["model"]["params"] = [{"a": 0.5, "b": 0.03, "sigma": 0.02}]
    data["solver"].update(step=0.01, horizon=2.0, rate_nodes=41, rate_lo=-0.05, rate_hi=0.11)
    data["moments"] = {"orders": [1], "lags": [0.0]}
    data["validate"].update(maturities=[0.05], orders=[1], lags=[0.0], reps_occupancy=1000,
                            reps_zcb=200, reps_rate=200)
    data["simulate"].update(paths=0, targets=[
        {"quantity": "zcb_moment", "order": 1, "s": 0.05, "reps": 200}])
    cfg = dump(tmp_path, data)
    errors = []
    for command in ("moments", "validate", "simulate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert "escapes the rate lattice" in errors[0]
    # the refused elapsed time lies past the shorter marches' last node
    march_end = _PANEL * 0.01
    assert float(re.search(r"elapsed ([0-9.]+)", errors[0]).group(1)) > march_end


def test_cmd_validate_zero_threshold_fails(tmp_path):
    data = load_config(SINGLE)
    data["validate"]["z_threshold"] = 0.0
    rc = main(["validate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path)])
    assert rc == 4
    verdict = json.loads((tmp_path / "validation.json").read_text())
    # every stochastic check must fail; the single-state occupancy check
    # is exact (zero standard error) and survives any threshold
    assert not any(c["pass"] for c in verdict["checks"] if c["std_error"] > 0)


def test_cmd_moments_single_regime_matches_closed_form(tmp_path):
    data = load_config(SINGLE)
    data["solver"]["step"] = 0.004
    data["moments"] = {"orders": [1], "lags": [0.0]}
    rc = main(["moments", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "zcb_moment_n1.csv")
    xs = sorted({float(r["x"]) for r in rows})
    x0 = min(xs, key=lambda v: abs(v - 0.03))
    a, b, sig = 1.0, 0.05, 0.02
    for r in rows:
        if float(r["x"]) != x0:
            continue
        s = float(r["s"])
        mean_i = b * s + (x0 - b) / a * (1 - np.exp(-a * s))
        e = np.exp(-a * s)
        var_i = sig**2 * s / a**2 - sig**2 / a**3 * (1 - e) \
            - sig**2 / (2 * a**3) * (1 - e) ** 2
        closed = np.exp(-mean_i + 0.5 * var_i)
        assert float(r["value"]) == pytest.approx(closed, abs=1e-4)


def test_cmd_simulate_testbed_agreement_flags(tmp_path):
    rc = main(["simulate", "--config", str(TESTBED), "--out", str(tmp_path)])
    assert rc == 0
    reports = json.loads((tmp_path / "estimates.json").read_text())["reports"]
    assert len(reports) == 4  # two zcb targets + mean and product of one joint target
    assert all(r["within_3se"] for r in reports)


def test_parse_cir_and_hull_white_models():
    cir_cfg = load_config(CIR_CONFIG)
    parsed = ExperimentConfig.from_dict(cir_cfg)
    assert parsed.model.kind == "cir"
    hw_raw = load_config(SINGLE)
    hw_raw["model"] = {
        "kind": "hull_white",
        "params": [{
            "alpha": {"ts": [0.0, 1.0], "vs": [0.05, 0.03]},
            "beta": 1.0,
            "sigma": {"ts": [0.0, 2.0], "vs": [0.02, 0.01]},
        }],
    }
    parsed = ExperimentConfig.from_dict(hw_raw)
    assert parsed.model.kind == "hull_white"
    assert parsed.model.params[0].beta(0.7) == 1.0
    hw_raw["model"]["params"][0]["beta"] = {"ts": [0.5], "vs": [1.0]}
    with pytest.raises(ConfigError, match="beta"):
        ExperimentConfig.from_dict(hw_raw)


def test_cmd_validate_cir_kind(tmp_path):
    data = load_config(CIR_CONFIG)
    data["solver"]["step"] = 0.005
    data["solver"]["horizon"] = 1.0
    data["validate"]["reps_zcb"] = 10000
    data["validate"]["reps_rate"] = 20000
    data["validate"]["reps_occupancy"] = 20000
    rc = main(["validate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path)])
    assert rc == 0


def test_unknown_simulate_target_exit_2(tmp_path, capsys):
    data = load_config(SINGLE)
    data["simulate"]["targets"] = [{"quantity": "sharpe_ratio", "s": 1.0}]
    rc = main(["simulate", "--config", str(dump(tmp_path, data)),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "sharpe_ratio" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism across BLAS thread counts
# ---------------------------------------------------------------------------

def _moments_files(cfg_path, out, threads):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "smrates.cli", "moments", "--config",
                    str(cfg_path), "--out", str(out)], env=env, check=True,
                   capture_output=True)
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def _numbers(name, blob):
    """Every number a moments file holds, in file order."""
    if name.endswith(".json"):
        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    yield from walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    yield from walk(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                yield float(node)
        return np.array(list(walk(json.loads(blob))))
    rows = [r for r in blob.decode().splitlines() if not r.startswith("#")]
    return np.array([float(r[key]) for r in csv.DictReader(rows)
                     for key in ("s", "x", "value")])


def test_moments_thread_count_determinism(tmp_path):
    # 81 rate nodes: large enough that OpenBLAS splits the march's
    # products over two threads and sums them in another order
    data = load_config(TESTBED)
    del data["simulate"], data["validate"]
    data["solver"].update(step=0.01, horizon=1.0, rate_nodes=81)
    cfg_path = dump(tmp_path, data)
    one = _moments_files(cfg_path, tmp_path / "one", 1)
    again = _moments_files(cfg_path, tmp_path / "again", 1)
    two = _moments_files(cfg_path, tmp_path / "two", 2)
    assert one == again
    assert set(two) == set(one)
    for name, blob in one.items():
        ref, alt = _numbers(name, blob), _numbers(name, two[name])
        assert ref.shape == alt.shape
        # relative to the value, or to 1 for the differences (covariance,
        # Jensen gap) of O(1) moments
        assert np.all(np.abs(alt - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0)), name


def test_thread_count_lattice_spans_panels():
    # the determinism check above marches horizon / step = 1.0 / 0.01
    # steps: several panels of the march, the last one ragged, so both
    # the far-history products and the partial panel run under 1 and 2
    # BLAS threads
    k_steps = SolverConfig(step=0.01, horizon=1.0).time_grid().n_steps
    assert k_steps >= 3 * _PANEL
    assert k_steps % _PANEL != 0


# ---------------------------------------------------------------------------
# import footprint
# ---------------------------------------------------------------------------

_FOOTPRINT = """
import json
import sys

import smrates
import smrates.cli
from smrates import (CIRParams, RegimeRateModel, SemiMarkovKernel, SojournDistribution,
                     SolverConfig, solve_zcb_moment)


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


testbed, single, out = sys.argv[1:]
runs = (("moments", testbed), ("simulate", testbed), ("moments", single))
for k, (command, config) in enumerate(runs):
    assert smrates.cli.main([command, "--config", config, "--out", f"{out}/{k}"]) == 0
gaussian = scipy_modules()
kern = SemiMarkovKernel([[1.0]], [[SojournDistribution.exponential(1.0)]])
cir = RegimeRateModel.cir([CIRParams(0.04, 1.0, 0.1)])
solve_zcb_moment(1, kern, cir, SolverConfig(step=0.05, horizon=1.0, rate_nodes=31))
assert smrates.cli.main(["phi", "--config", testbed, "--out", f"{out}/phi"]) == 0
print(json.dumps([gaussian, scipy_modules()]))
"""


def test_scipy_loads_only_where_a_law_needs_it(tmp_path):
    # scipy.special costs about 0.3 s and 20 MiB at start-up (scipy.stats
    # more): Gaussian moments and simulate runs, whose sojourn laws are
    # closed forms, never load scipy; CIR rules and the Weibull partial
    # means of phi load scipy.special alone
    testbed = load_config(TESTBED)
    testbed["solver"].update(step=0.05, rate_nodes=31)
    for target in testbed["simulate"]["targets"]:
        target["reps"] = 1000
    single = load_config(SINGLE)
    single["solver"].update(step=0.05, horizon=1.0, rate_nodes=31)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(dump(tmp_path, testbed)),
                           str(dump(tmp_path, single, "single.json")), str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    gaussian, after_cir = json.loads(proc.stdout)
    assert gaussian == []
    assert "scipy.special" in after_cir
    assert not [name for name in after_cir if name.startswith("scipy.stats")]
    assert len(list((tmp_path / "0").iterdir())) == 9
