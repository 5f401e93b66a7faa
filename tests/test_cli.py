import json
import subprocess
import sys

import numpy as np
import pytest

from gdiffusion import config, experiments, generator, pde, scenario
from gdiffusion.cli import main
from gdiffusion.config import load_config
from gdiffusion.errors import (ConfigError, DimensionMismatchError, EvaluationError, GridError,
                               NonFiniteError, StabilityError)
from gdiffusion.experiments import dispatch
from gdiffusion.scenario import noise_block
from gdiffusion.sde import MinGapObserver, euler_march


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def comparison_config(tmp_path, delta=0.1, **extra):
    cfg = {
        "seed": 20240601,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {
            "n": 2, "d": 1,
            "b": {"family": "offdiag-monotone"},
            "sigma": {"family": "per-coordinate",
                      "entries": [["expr:0.8 + 0.2*tanh(x_1)", "expr:0.8 + 0.2*tanh(x_1)"]]},
            "label": "offdiag-monotone",
        },
        "coefficients_bar": {
            "n": 2, "d": 1,
            "b": [f"expr:x_2 + {delta}", f"expr:x_1 + {delta}"],
            "sigma": {"family": "per-coordinate",
                      "entries": [["expr:0.8 + 0.2*tanh(x_1)", "expr:0.8 + 0.2*tanh(x_1)"]]},
            "label": "offdiag-monotone-shifted",
        },
        "x0": [-0.1, -0.1],
        "y0": [0.0, 0.0],
        "domain": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "n_samples": 96, "n_refine": 6,
                   "seed": 7},
        "scenario": {"T": 1.0, "n_steps": 100, "n_paths": 60,
                     "controls": {"constants": True, "random_switching": 6, "seed": 3}},
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_comparison_ok(tmp_path, capsys):
    code, report = run_cli(["verify-comparison", "--config",
                            comparison_config(tmp_path)], capsys)
    assert code == 0
    assert report["status"] == "ok"
    assert report["results"]["min_gap"] >= -1e-8
    assert report["results"]["checks"]["B1"]["verdict"] == "satisfied-on-domain"


def test_verify_comparison_hypothesis_violated(tmp_path, capsys):
    code, report = run_cli(["verify-comparison", "--config",
                            comparison_config(tmp_path, delta=-0.1)], capsys)
    assert code == 3
    assert report["status"] == "hypothesis-violated"
    assert report["results"]["violated"] == ["B1"]
    w = report["results"]["checks"]["B1"]["witness"]
    assert w["residual"] == pytest.approx(0.1, abs=1e-6)


def test_verify_comparison_counterexample_mode(tmp_path, capsys):
    path = comparison_config(tmp_path, x0=[0.5, 0.5], y0=[0.0, 0.0])
    with pytest.warns(UserWarning, match="counterexample"):
        code, report = run_cli(["verify-comparison", "--config", path], capsys)
    assert code == 0
    assert report["results"]["counterexample_mode"] is True
    assert report["results"]["min_gap"] < 0  # started unordered


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"theta": {"interval": [0.25, 1.0]}}))
    code, report = run_cli(["verify-comparison", "--config", str(path)], capsys)
    assert code == 2
    assert report["status"] == "config-error"
    assert "coefficients" in report["results"]["error"]


def test_counterexample_remark_defaults(capsys):
    code, report = run_cli(["counterexample-remark"], capsys)
    assert code == 0
    res = report["results"]
    assert res["gap_at_horizon"] == 0.25
    assert res["gap_is_linear_in_t"] is True
    assert res["b1_check"]["verdict"] == "violated"


def test_counterexample_remark_horizon_two(capsys):
    code, report = run_cli(["counterexample-remark",
                            "--set", "theta.interval=[0.25, 1.0]",
                            "--set", "scenario.T=2.0"], capsys)
    assert code == 0
    assert report["results"]["gap_at_horizon"] == pytest.approx(0.75, abs=1e-12)


def test_counterexample_remark_rejects_degenerate(capsys):
    code, report = run_cli(["counterexample-remark",
                            "--set", "theta.interval=[1.0, 1.0]"], capsys)
    assert code == 2
    assert "degenerate" in report["results"]["error"]


def monotone_config(tmp_path, functions=None):
    cfg = {
        "seed": 5,
        "theta": {"generators": [[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]},
        "coefficients": {
            "n": 2, "d": 2,
            "b": {"family": "arctan-coupling"},
            "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]},
            "label": "arctan-coupling",
        },
        "domain": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "n_samples": 48, "n_refine": 4,
                   "seed": 11},
        "grid": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "counts": [61, 61],
                 "T": 0.25, "n_levels": 160},
        "functions": functions or [
            {"expr": "tanh(x_1 + x_2)", "monotone": True, "name": "tanh-sum"},
            {"expr": "0.4*x_1 + 0.6*x_2", "monotone": True, "name": "affine"},
        ],
    }
    path = tmp_path / "monotone.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_monotone_ok(tmp_path, capsys):
    code, report = run_cli(["verify-monotone", "--config", monotone_config(tmp_path)],
                           capsys)
    assert code == 0
    for entry in report["results"]["functions"]:
        assert entry["nondecreasing"] is True
        assert entry["min_forward_difference"] >= -1e-8


def test_verify_monotone_negative_control_reported(tmp_path, capsys):
    functions = [{"expr": "x_1^2", "monotone": False, "name": "square-x1"}]
    code, report = run_cli(["verify-monotone", "--config",
                            monotone_config(tmp_path, functions)], capsys)
    assert code == 0  # negative controls are allowed to fail
    entry = report["results"]["functions"][0]
    assert entry["negative_control"] is True
    assert entry["nondecreasing"] is False


def test_verify_monotone_hypothesis_violated(tmp_path, capsys):
    cfg = json.loads(open(monotone_config(tmp_path)).read())
    cfg["coefficients"]["b"] = ["expr:-x_2", "expr:0"]
    path = tmp_path / "viol.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["verify-monotone", "--config", str(path)], capsys)
    assert code == 3
    assert "C2" in report["results"]["violated"]


def order_config(tmp_path, shift=-0.5):
    cfg = {
        "seed": 6,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 1, "d": 1,
                         "sigma": {"family": "constant", "matrix": [[1.0]]},
                         "label": "unit"},
        "coefficients_bar": {"n": 1, "d": 1,
                             "b": [f"expr:{shift}" if shift >= 0 else f"expr:0 - {-shift}"],
                             "sigma": {"family": "constant", "matrix": [[1.0]]},
                             "label": "shifted"},
        "domain": {"box": [[-2.0, 2.0]], "n_samples": 64, "n_refine": 4, "seed": 13},
        "grid": {"bounds": [[-6.0, 6.0]], "counts": [241], "T": 0.5, "n_levels": 406},
        "functions": [{"expr": "tanh(x_1)", "monotone": True, "name": "tanh"}],
        "monotone_side": "bar",
    }
    path = tmp_path / "order.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_order_ok(tmp_path, capsys):
    code, report = run_cli(["verify-order", "--config", order_config(tmp_path)], capsys)
    assert code == 0
    res = report["results"]
    assert res["uniform_pd_beta"] == pytest.approx(1.0)
    assert res["nondegeneracy_bound"] == pytest.approx(0.125)
    entry = res["functions"][0]
    assert entry["dominates"] is True and entry["mode"] == "nodewise-reduction"


def test_verify_order_monotone_side(tmp_path):
    with open(order_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["monotone_side"] = "x"
    report, code = dispatch("verify-order", cfg)
    assert code == 0
    cfg["monotone_side"] = "Bar"
    report, code = dispatch("verify-order", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith("monotone_side:")


def test_verify_order_reversed_pair_violates_d5(tmp_path, capsys):
    code, report = run_cli(["verify-order", "--config", order_config(tmp_path, shift=0.5)],
                           capsys)
    assert code == 3
    assert "D5" in report["results"]["violated"]
    assert report["results"]["checks"]["D5"]["witness"]["K"]


@pytest.mark.parametrize("change, side_condition", [
    ({"coefficients_bar.sigma.matrix": [[0.0]]}, "uniform-positive-definiteness"),
    ({"theta.interval": [0.0, 1.0]}, "nondegeneracy"),
], ids=["zero-sigma-on-the-monotone-side", "theta-reaches-zero"])
def test_verify_order_lists_a_failed_side_condition_after_the_checks(tmp_path, change,
                                                                     side_condition):
    with open(order_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key, value in change.items():
        set_dotted(cfg, key, value)
    report, code = dispatch("verify-order", cfg)
    assert code == 3
    assert report["status"] == "hypothesis-violated"
    checks = report["results"]["checks"]
    assert list(checks) == ["C1", "C2", "D1", "D5"]
    violated_checks = [name for name, rep in checks.items() if rep["verdict"] == "violated"]
    assert report["results"]["violated"] == violated_checks + [side_condition]


def test_check_subcommand_exit_codes(tmp_path, capsys):
    cfg = {
        "seed": 1,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 2, "d": 1, "b": {"family": "offdiag-monotone"}},
        "domain": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "n_samples": 48, "n_refine": 4,
                   "seed": 2},
    }
    path = tmp_path / "check.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["check", "--config", str(path), "--condition", "C2"], capsys)
    assert code == 0
    assert report["results"]["checks"]["C2"]["verdict"] == "satisfied-on-domain"

    cfg["coefficients"]["b"] = ["expr:-x_2", "expr:0"]
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["check", "--config", str(path), "--condition", "C2"], capsys)
    assert code == 1
    assert report["results"]["checks"]["C2"]["verdict"] == "violated"

    code, _ = run_cli(["check", "--config", str(path), "--condition", "Z9"], capsys)
    assert code == 2


@pytest.mark.parametrize("override", [{"t_grid": []}, {"t_grid": [0.0, float("inf")]},
                                      {"n_refine": -1}, {"t_grid": ["soon"]}, {"t_grid": 0.5},
                                      {"n_samples": "many"}, {"seed": "x"},
                                      {"box": [["a", 1.0], [-1.0, 1.0]]}])
def test_check_rejects_invalid_search_domain(override):
    cfg = {
        "seed": 1,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 2, "d": 1, "b": {"family": "offdiag-monotone"}},
        "condition": "C2",
        "domain": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "n_samples": 8, **override},
    }
    report, code = dispatch("check", cfg)
    assert code == 2
    assert report["status"] == "config-error"


@pytest.mark.parametrize("override", [{"T": "soon"}, {"n_levels": "many"}, {"counts": ["x"]}])
def test_solve_pde_rejects_non_numeric_grid(override):
    cfg = {
        "seed": 4,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 1, "d": 1,
                         "sigma": {"family": "constant", "matrix": [[1.0]]}},
        "grid": {"bounds": [[-4.0, 4.0]], "counts": [41], "T": 0.25, "n_levels": 100,
                 **override},
        "functions": [{"expr": "x_1", "name": "id"}],
    }
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"grid.{next(iter(override))}:")


def check_config(**extra):
    return {"seed": 1, "theta": {"interval": [0.25, 1.0]},
            "coefficients": {"n": 2, "d": 1, "b": {"family": "offdiag-monotone"}},
            "domain": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "n_samples": 8}, **extra}


# JSON text (json.load reads NaN and Infinity) -> (experiment, key the error names)
NON_FINITE_BOXES = {
    "box-nan": ('{"condition": "B1", "domain": {"box": [[NaN, 2], [-2, 2]], "n_samples": 8}}',
                "check", "domain.box"),
    "box-minus-infinity": ('{"condition": "B2", "domain": {"box": [[-Infinity, 2], [-2, 2]], '
                           '"n_samples": 8}}', "check", "domain.box"),
    "bounds-nan": ('{"grid": {"bounds": [[NaN, 4.0]], "counts": [41], "T": 0.25, '
                   '"n_levels": 100}}', "solve-pde", "grid.bounds"),
}


@pytest.mark.parametrize("case", NON_FINITE_BOXES)
def test_non_finite_box_is_a_config_error_naming_the_key(tmp_path, capsys, case):
    text, experiment, key = NON_FINITE_BOXES[case]
    cfg = check_config() if experiment == "check" else pde_config()
    cfg.update(json.loads(text))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli([experiment, "--config", str(path)], capsys)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"{key}:")


# grid keys replacing pde_config's -> the whole refusal, which begins with its key
GRID_REFUSALS = {
    "not-rows": ({"bounds": [[-4.0, 4.0, 5.0]]}, "grid.bounds: expected rows of [lo, hi]"),
    "lo-not-below-hi": ({"bounds": [[4.0, -4.0]]},
                        "grid.bounds: expected rows with lo < hi, got [[4.0, -4.0]]"),
    "three-dimensions": ({"bounds": [[-1.0, 1.0]] * 3, "counts": [5, 5, 5]},
                         "grid.bounds: only 1 or 2 spatial dimensions are supported, got 3"),
    "counts-of-two-axes": ({"counts": [41, 41]},
                           "grid.counts: node counts must match the dimension and be at least 3"),
    "two-nodes": ({"counts": [2]},
                  "grid.counts: node counts must match the dimension and be at least 3"),
    "T-zero": ({"T": 0.0}, "grid.T: dt and horizon must be positive"),
    # two faults: the box rule names lo < hi before the dimension and the counts
    "lo-not-below-hi-in-three-dimensions": (
        {"bounds": [[1.0, -1.0]] * 3, "counts": [5, 5, 5]},
        "grid.bounds: expected rows with lo < hi, got [[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]]"),
    "lo-not-below-hi-with-two-nodes": (
        {"bounds": [[4.0, -4.0]], "counts": [2]},
        "grid.bounds: expected rows with lo < hi, got [[4.0, -4.0]]"),
}


@pytest.mark.parametrize("case", GRID_REFUSALS)
def test_every_grid_refusal_begins_with_its_key(case):
    keys, error = GRID_REFUSALS[case]
    cfg = pde_config()
    cfg["grid"].update(keys)
    report, code = dispatch("solve-pde", cfg)
    assert (report["status"], code, report["results"]["error"]) == ("config-error", 2, error)


# domain keys replacing check_config's -> the refusal, the box fault named first
TWO_FAULT_DOMAINS = {
    "lo-not-below-hi-and-no-times": (
        {"box": [[2.0, -2.0], [-2.0, 2.0]], "t_grid": []},
        "domain.box: expected rows with lo < hi, got [[2.0, -2.0], [-2.0, 2.0]]"),
    "one-row-with-nan": ({"box": [[float("nan"), 2.0]], "n_samples": 0},
                         "domain.box: expected 2 rows of [lo, hi]"),
    "nan-and-lo-not-below-hi": ({"box": [[float("nan"), 2.0], [2.0, -2.0]]},
                                "domain.box: expected finite rows, got [[nan, 2.0], [2.0, -2.0]]"),
}


@pytest.mark.parametrize("case", TWO_FAULT_DOMAINS)
def test_a_domain_with_two_faults_names_the_box_first(case):
    keys, error = TWO_FAULT_DOMAINS[case]
    cfg = check_config(condition="B2")
    cfg["domain"].update(keys)
    report, code = dispatch("check", cfg)
    assert (report["status"], code, report["results"]["error"]) == ("config-error", 2, error)


# JSON text merged into pde_config -> (experiment, status, exit code, start of the error)
NON_FINITE_TIMES = {
    "grid-T-nan": ('{"grid": {"bounds": [[-4.0, 4.0]], "counts": [41], "T": NaN, '
                   '"n_levels": 100}}', "solve-pde", "config-error", 2, "grid.T:"),
    "grid-T-infinity": ('{"grid": {"bounds": [[-4.0, 4.0]], "counts": [41], "T": Infinity, '
                        '"n_levels": 100}}', "feynman-crosscheck", "config-error", 2, "grid.T:"),
    "query-t-nan": ('{"query": {"t": NaN, "x": [0.0]}}', "solve-pde", "config-error", 2,
                    "time nan is not a level"),
    "query-t-infinity": ('{"query": {"t": Infinity, "x": [0.0]}}', "solve-pde", "config-error",
                         2, "time inf is not a level"),
    "t-list-nan": ('{"t_list": [0.2, NaN]}', "generator", "numerical-error", 5,
                   "t_list must contain finite times"),
}


@pytest.mark.parametrize("case", NON_FINITE_TIMES)
def test_non_finite_time_is_refused_with_a_report(tmp_path, capsys, case):
    text, experiment, status, exit_code, error = NON_FINITE_TIMES[case]
    cfg = pde_config()
    cfg.update(json.loads(text))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli([experiment, "--config", str(path)], capsys)
    assert (code, report["status"]) == (exit_code, status)
    assert report["results"]["error"].startswith(error)


@pytest.mark.parametrize("key, value", [("conditions", 5), ("conditions", "B2"),
                                        ("conditions", ["B2", 5]), ("condition", 5)],
                         ids=["conditions-int", "conditions-text", "conditions-holds-int",
                              "condition-int"])
def test_conditions_must_be_a_list_of_names(key, value):
    report, code = dispatch("check", check_config(**{key: value}))
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"{key}:")


@pytest.mark.parametrize("extra", [{"conditions": []}, {"conditions": [], "condition": "B2"}],
                         ids=["alone", "beside-condition"])
def test_an_empty_conditions_list_is_a_config_error(extra):
    report, code = dispatch("check", check_config(**extra))
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"] == \
        "conditions: expected a list of condition names, got []"


def test_simulate_zero_coefficients_constant_csv(tmp_path, capsys):
    cfg = {
        "seed": 4,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 2, "d": 1, "label": "zero"},
        "x0": [1.5, -2.0],
        "scenario": {"T": 1.0, "n_steps": 16},
        "output": {"dir": str(tmp_path), "csv": "path.csv"},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["simulate", "--config", str(path)], capsys)
    assert code == 0
    lines = (tmp_path / "path.csv").read_text().strip().splitlines()
    assert lines[0] == "t,X_1,X_2"
    assert len(lines) == 18
    for line in lines[1:]:
        _, x1, x2 = line.split(",")
        assert float(x1) == 1.5 and float(x2) == -2.0


def simulate_config():
    return {
        "seed": 9,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}},
        "x0": [0.0],
        "scenario": {"T": 1.0, "n_steps": 8, "path_index": 2,
                     "control": {"policy": "constant", "index": 1}},
    }


def test_simulate_path_index_selects_the_noise_stream():
    cfg = simulate_config()
    report, code = dispatch("simulate", cfg)
    assert code == 0
    # unit diffusion under the unit-volatility constant control: X_T = W_T of path 2
    (terminal,) = report["results"]["terminal_state"]
    assert terminal == pytest.approx(float(np.sum(noise_block(9, 1.0, 8, 1, 3)[:, 2])), abs=1e-12)
    assert terminal != pytest.approx(float(np.sum(noise_block(9, 1.0, 8, 1, 1)[:, 0])), abs=1e-6)
    cfg["scenario"]["path_index"] = -1
    report, code = dispatch("simulate", cfg)
    assert code == 2 and report["status"] == "config-error"


@pytest.mark.parametrize("shape", [{"n_paths": 0}, {"n_paths": -3}, {"T": -1.0}, {"T": 0.0}],
                         ids=["n_paths=0", "n_paths=-3", "T=-1", "T=0"])
def test_verify_comparison_rejects_invalid_scenario_shape(tmp_path, shape):
    with open(comparison_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["scenario"].update(shape)
    report, code = dispatch("verify-comparison", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    (key,) = shape
    assert report["results"]["error"].startswith(f"scenario.{key}: expected a positive ")


UNREADABLE = [
    ("simulate", "seed", -1),
    ("simulate", "scenario.path_index", "two"),
    ("simulate", "scenario.T", "x"),
    ("simulate", "scenario.n_steps", "many"),
    ("simulate", "scenario.control.index", "a"),
    ("verify-comparison", "scenario.controls.random_switching", "lots"),
    ("verify-comparison", "scenario.controls.seed", -2),
    ("verify-comparison", "x0", ["a"]),
    ("verify-comparison", "y0", ["a"]),
    ("verify-comparison", "tolerances.pathwise", "tight"),
    ("simulate", "x0", ["a"]),
    ("simulate", "scenario.control.period", "x"),
    ("simulate", "scenario.control.schedule", ["a"]),
    ("simulate", "theta.interval", ["a", 1]),
    ("simulate", "theta.generators", [[["a"]]]),
    ("simulate", "theta.generators", 5),
    ("feynman-crosscheck", "query.t", "soon"),
    ("feynman-crosscheck", "query.x", ["a"]),
    ("feynman-crosscheck", "tolerances.crosscheck", "loose"),
    ("generator", "query.x", ["a"]),
    ("generator", "t_list", ["a"]),
    ("solve-pde", "query.t", "soon"),
    ("solve-pde", "query.x", ["a"]),
    ("solve-pde", "output.csv_stride", "x"),
    ("solve-pde", "output.csv_stride", 0),
    ("solve-pde", "output.csv_stride", -5),
    ("simulate", "scenario.control.period", 0),
    ("simulate", "scenario.control.period", -3),
    ("simulate", "scenario.control", "x"),
    ("solve-pde", "output", 5),
    ("verify-comparison", "output", 5),
    ("verify-comparison", "tolerances", 5),
    ("verify-comparison", "scenario.controls", 5),
    ("feynman-crosscheck", "tolerances", 5),
    ("counterexample-remark", "scenario", 5),
    # an integer key refuses fractions, booleans and numeric text
    ("verify-comparison", "scenario.n_paths", 200.9),
    ("simulate", "scenario.n_steps", True),
    ("simulate", "scenario.n_steps", "8"),
    ("simulate", "scenario.path_index", 2.5),
    ("verify-comparison", "scenario.controls.random_switching", 6.5),
    ("simulate", "scenario.control.index", 0.5),
    ("simulate", "scenario.control.period", 2.5),
    ("simulate", "scenario.control.lo", 0.5),
    ("simulate", "scenario.control.hi", True),
    ("solve-pde", "grid.counts", [41.9]),
    ("solve-pde", "grid.n_levels", 2500.5),
    ("verify-comparison", "domain.n_samples", 96.5),
    ("verify-comparison", "domain.n_refine", True),
    ("solve-pde", "output.csv_stride", 2.5),
    # a number is never a boolean
    ("simulate", "scenario.T", True),
    ("solve-pde", "query.t", True),
    ("solve-pde", "query.x", [True]),
    ("verify-comparison", "x0", [-0.1, True]),
    ("verify-comparison", "y0", [True, 0.0]),
    ("generator", "t_list", [0.2, True]),
    ("verify-comparison", "tolerances.pathwise", True),
    ("feynman-crosscheck", "tolerances.crosscheck", True),
    ("simulate", "theta.interval", [True, 1.0]),
    ("simulate", "theta.generators", [[[True]]]),
    ("solve-pde", "grid.bounds", [[-4.0, True]]),
    ("solve-pde", "grid.T", True),
    ("verify-comparison", "domain.box", [[-2.0, 2.0], [-2.0, True]]),
    # nor is a seed
    ("simulate", "seed", True),
    ("verify-comparison", "domain.seed", True),
    ("verify-comparison", "scenario.controls.seed", True),
    # values that read as integers or numbers, refused by the run they reach
    ("simulate", "scenario.control.index", 7),
    ("simulate", "scenario.control.index", -1),
    ("simulate", "scenario.control.lo", 5),
    ("simulate", "scenario.control.hi", 5),
    ("simulate", "scenario.control.schedule", [0, 1]),
    ("simulate", "scenario.control.schedule", [0, 1, 0, 1, 0, 1, 0, 2]),
    ("simulate", "scenario.control.schedule", [0, 1, 0, 1, 0, 1, 0, -1]),
    ("simulate", "scenario.n_steps", 0),
    ("simulate", "scenario.T", 0.0),
    ("simulate", "scenario.path_index", -1),
    ("verify-comparison", "scenario.n_paths", 0),
    ("verify-comparison", "scenario.n_steps", -4),
    ("feynman-crosscheck", "scenario.n_paths", 0),
    ("feynman-crosscheck", "scenario.n_paths", 1),
    ("feynman-crosscheck", "scenario.T", 0.5),
    ("counterexample-remark", "scenario.n_steps", 0),
    ("verify-comparison", "domain.t_grid", []),
    ("verify-comparison", "domain.n_refine", -1),
    ("feynman-crosscheck", "scenario.controls.random_switching", -5),
    ("verify-comparison", "domain.n_samples", 0),
    ("verify-comparison", "domain.box", [[-2.0, 2.0], [2.0, -2.0]]),
]

# keys set before the unreadable one, so that the run reaches it
UNREADABLE_SETUP = {
    "scenario.control.period": {"scenario.control.policy": "bang-bang-cycle"},
    "scenario.control.lo": {"scenario.control.policy": "bang-bang-cycle"},
    "scenario.control.hi": {"scenario.control.policy": "bang-bang-cycle"},
    "scenario.control.schedule": {"scenario.control.policy": "explicit"},
    "theta.generators": {"theta": {}},
}


def pde_config():
    """One small config that generator, solve-pde, feynman-crosscheck and
    counterexample-remark all run."""
    return {
        "seed": 4,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 1, "d": 1,
                         "sigma": {"family": "constant", "matrix": [[1.0]]}},
        "grid": {"bounds": [[-4.0, 4.0]], "counts": [41], "T": 0.25, "n_levels": 100},
        "functions": [{"expr": "x_1^2", "name": "square"}],
        "query": {"t": 0.25, "x": [0.0]},
        "t_list": [0.2, 0.1],
        "scenario": {"T": 0.25, "n_steps": 8, "n_paths": 16},
    }


def set_dotted(cfg, key, value):
    *parents, last = key.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value


@pytest.mark.parametrize("experiment, key, value", UNREADABLE,
                         ids=[f"{e}-{k}={v}" for e, k, v in UNREADABLE])
def test_unreadable_run_values_are_config_errors(tmp_path, experiment, key, value):
    if experiment == "simulate":
        cfg = simulate_config()
    elif experiment == "verify-comparison":
        with open(comparison_config(tmp_path), encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        cfg = pde_config()
    for setup_key, setup_value in UNREADABLE_SETUP.get(key, {}).items():
        set_dotted(cfg, setup_key, setup_value)
    set_dotted(cfg, key, value)
    report, code = dispatch(experiment, cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"{key}:")


@pytest.mark.parametrize("experiment, key, value", [
    ("verify-comparison", "scenario.controls.constants", "false"),
    ("verify-comparison", "scenario.controls.bang_bang", "no"),
    ("solve-pde", "functions[0].monotone", "false"),
])
def test_a_flag_is_json_true_or_false(tmp_path, experiment, key, value):
    # these were read by truthiness, so "false" added the constant controls
    # and declared the function monotone
    if experiment == "verify-comparison":
        with open(comparison_config(tmp_path), encoding="utf-8") as fh:
            cfg = json.load(fh)
        set_dotted(cfg, key, value)
    else:
        cfg = pde_config()
        cfg["functions"][0]["monotone"] = value
    report, code = dispatch(experiment, cfg)
    assert code == 2
    assert report["results"]["error"] == f"{key}: expected true or false, got {value!r}"


@pytest.mark.parametrize("key", ["query.x", "scenario.n_steps", "grid.bounds", "grid.T"])
def test_a_missing_nested_key_names_its_dotted_path(key):
    cfg = pde_config()
    section, name = key.split(".")
    del cfg[section][name]
    report, code = dispatch("feynman-crosscheck", cfg)
    assert code == 2
    assert report["results"]["error"] == f"{key}: missing required key {name!r}"


@pytest.mark.parametrize("key, value, error", [
    ("scenario.n_paths", 1, "scenario.n_paths: expected at least 2 paths for a standard error, "
                            "got 1"),
    ("scenario.T", 0.5, "scenario.T: expected query.t (0.25), got 0.5"),
    ("scenario.controls.random_switching", "lots", None),
    ("tolerances.crosscheck", "loose", "tolerances.crosscheck: cannot read 'loose' "
                                       "(could not convert string to float: 'loose')"),
], ids=["n_paths=1", "T!=query.t", "controls", "tolerance"])
def test_feynman_crosscheck_reads_the_scenario_before_solving(monkeypatch, key, value, error):
    def solve(*args):
        raise AssertionError("the PDE was solved before the scenario was read")

    monkeypatch.setattr(experiments, "solve", solve)
    cfg = pde_config()
    set_dotted(cfg, key, value)
    report, code = dispatch("feynman-crosscheck", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"{key}:")
    assert error is None or report["results"]["error"] == error


@pytest.mark.parametrize("key, value, error", [
    ("output.csv_stride", 0, "output.csv_stride: expected a positive integer, got 0"),
    ("output.csv_stride", -5, "output.csv_stride: expected a positive integer, got -5"),
    ("query.t", "soon", None),
    ("query.x", ["a"], None),
    ("grid.n_levels", 0, "grid.n_levels: expected a positive integer, got 0"),
], ids=["stride=0", "stride=-5", "query.t", "query.x", "n_levels=0"])
def test_solve_pde_reads_every_key_before_solving(monkeypatch, key, value, error):
    def solve(*args):
        raise AssertionError("the PDE was solved before every key was read")

    monkeypatch.setattr(experiments, "solve", solve)
    cfg = pde_config()
    set_dotted(cfg, key, value)
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"{key}:")
    assert error is None or report["results"]["error"] == error


# experiment -> settings merged into pde_config, whose levels are multiples of 0.0025
OFF_LEVEL_TIMES = {
    "crosscheck": ("feynman-crosscheck", {"query.t": 0.1234, "scenario.T": 0.1234}, 0.1234),
    "crosscheck-nan": ("feynman-crosscheck", {"query.t": float("nan")}, float("nan")),
    "solve-pde": ("solve-pde", {"query.t": 0.12345}, 0.12345),
    "generator": ("generator", {"t_list": [0.2, 0.1234]}, 0.1234),
}


@pytest.mark.parametrize("case", OFF_LEVEL_TIMES)
def test_an_off_level_time_is_refused_before_the_solve(monkeypatch, case):
    def solve(*args):
        raise AssertionError("the PDE was solved before the query time was checked")

    monkeypatch.setattr(experiments, "solve", solve)
    monkeypatch.setattr(generator, "solve", solve)
    experiment, settings, t = OFF_LEVEL_TIMES[case]
    cfg = pde_config()
    for key, value in settings.items():
        set_dotted(cfg, key, value)
    report, code = dispatch(experiment, cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"].startswith(f"time {t} is not a level of the solve")


@pytest.mark.parametrize("experiment, make_config, kernel", [
    ("solve-pde", pde_config, "solve"),
    ("simulate", simulate_config, "euler_march"),
    ("generator", pde_config, "generator_limit_check"),
])
def test_an_output_dir_that_names_a_file_is_refused_before_the_run(
        tmp_path, monkeypatch, experiment, make_config, kernel):
    def run(*args, **kwargs):
        raise AssertionError("the run started before its output path was resolved")

    monkeypatch.setattr(experiments, kernel, run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = make_config()
    cfg["output"] = {"dir": str(blocker), "csv": "out.csv"}
    report, code = dispatch(experiment, cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"].startswith(
        f"output.dir: cannot create the directory of {str(blocker / 'out.csv')!r} (")


@pytest.mark.parametrize("output, error", [
    ({"csv": 5}, "output.csv: expected a path name, got 5"),
    ({"dir": 5, "csv": "u.csv"}, "output.dir: expected a path name, got 5"),
    ({"dump": ["a"]}, "output.dump: expected a path name, got ['a']"),
    ({"report": 5}, "output.report: expected a path name, got 5"),
    ({"dir": "<file>", "report": "report.json"}, "output.dir: cannot create the directory"),
    ({"csv": "<dir>"}, "output.csv: expected a file name, got the directory"),
    # only an absent or null name means no export; a falsy one is refused, not skipped
    ({"csv": 0}, "output.csv: expected a path name, got 0"),
    ({"dump": False}, "output.dump: expected a path name, got False"),
    ({"csv": ""}, "output.csv: expected a path name, got ''"),
    ({"csv": "u.csv", "dump": []}, "output.dump: expected a path name, got []"),
    ({"report": ""}, "output.report: expected a path name, got ''"),
], ids=["csv", "dir", "dump", "report", "report-under-a-file", "csv-names-a-directory",
        "csv-zero", "dump-false", "csv-empty", "dump-empty-list", "report-empty"])
def test_every_output_path_is_a_config_error_before_the_solve(tmp_path, monkeypatch, output,
                                                               error):
    def solve(*args):
        raise AssertionError("the PDE was solved before the output paths were resolved")

    monkeypatch.setattr(experiments, "solve", solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = pde_config()
    places = {"<file>": str(blocker), "<dir>": str(tmp_path)}
    cfg["output"] = {key: places.get(str(value), value) for key, value in output.items()}
    report, code = dispatch("solve-pde", cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"].startswith(error)


def test_a_null_export_name_means_no_export(tmp_path):
    cfg = pde_config()
    cfg["output"] = {"dir": str(tmp_path), "csv": None, "dump": None}
    report, code = dispatch("solve-pde", cfg)
    assert (report["status"], code) == ("ok", 0)
    assert (report["results"]["csv"], report["results"]["dump"]) == (None, None)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("expr", [5, None, ["x_1"]])
def test_non_string_function_expression_is_a_config_error(expr):
    cfg = pde_config()
    cfg["functions"] = [{"expr": expr, "name": "f"}]
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith("functions[0].expr:")


def test_function_that_reads_t_is_a_config_error():
    # a test function is f(x); it used to be evaluated silently at t = 0
    cfg = pde_config()
    cfg["functions"] = [{"expr": "x_1^2", "name": "g"}, {"expr": "t*x_1", "name": "f"}]
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith("functions[1].expr:")


DEEP_TEXTS = {
    "parentheses-300": "(" * 300 + "x_1" + ")" * 300,
    "minus-1200": "-" * 1200 + "x_1",
    "minus-3000": "-" * 3000 + "x_1",
    "sum-1200": " + ".join(["x_1"] * 1200),
    "power-1200": "^".join(["1"] * 1200),
}


@pytest.mark.parametrize("case", DEEP_TEXTS)
def test_a_deeply_nested_expression_is_a_config_error_naming_it(case):
    cfg = simulate_config()
    cfg["coefficients"]["b"] = ["expr:" + DEEP_TEXTS[case]]
    report, code = dispatch("simulate", cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert repr(DEEP_TEXTS[case]) in report["results"]["error"]


def test_a_250_term_sum_parses_and_evaluates():
    # a flat sum is a chain of calls, each its own statement, not a nesting
    cfg, scaled = simulate_config(), simulate_config()
    cfg["coefficients"]["b"] = ["expr:" + " + ".join(["x_1"] * 250)]
    scaled["coefficients"]["b"] = ["expr:250 * x_1"]
    (report, code), (expected, _) = dispatch("simulate", cfg), dispatch("simulate", scaled)
    assert (report["status"], code) == ("ok", 0)
    assert report["results"]["terminal_state"] == pytest.approx(
        expected["results"]["terminal_state"], rel=1e-12)


@pytest.mark.parametrize("experiment, key", [
    ("feynman-crosscheck", "theta.lo"),
    ("check", "domain.n_sample"),
    ("solve-pde", "grid.n_level"),
    ("feynman-crosscheck", "scenario.controls.random_swiching"),
    ("counterexample-remark", "scenario.n_step"),
    ("simulate", "scenario.control.indx"),
    ("feynman-crosscheck", "query.y"),
    ("feynman-crosscheck", "tolerances.crosschek"),
    ("solve-pde", "output.csv_strid"),
    ("solve-pde", "functions.0.monotne"),
    ("verify-comparison", "pair_family.scale"),
], ids=["theta", "domain", "grid", "scenario.controls", "scenario", "scenario.control",
        "query", "tolerances", "output", "functions[0]", "pair_family"])
def test_an_unknown_key_of_a_section_is_a_config_error(monkeypatch, experiment, key):
    # each section is read whole by its readers, so a key none of them reads is misspelt
    def fail(*args):
        raise AssertionError("a solve or march ran before the config was read")

    monkeypatch.setattr(experiments, "solve", fail)
    monkeypatch.setattr(experiments, "euler_march", fail)
    monkeypatch.setattr(experiments, "estimate_sublinear_expectation", fail)
    cfg = {"check": check_config(condition="B2"),
           "simulate": simulate_config()}.get(experiment) or pde_config()
    if key.startswith("functions."):
        cfg["functions"][0]["monotne"] = True
        key = "functions[0].monotne"
    else:
        set_dotted(cfg, key, 0)
    report, code = dispatch(experiment, cfg)
    assert (report["status"], code) == ("config-error", 2)
    section = key.rpartition(".")[0]
    assert report["results"]["error"].startswith(f"{key}: unknown key; {section} holds ")


@pytest.mark.parametrize("experiment, section, error", [
    ("solve-pde", "query", "query.x: missing required key 'x'"),
    ("generator", "grid", "grid.bounds: missing required key 'bounds'"),
], ids=["solve-pde-query", "generator-grid"])
def test_an_empty_section_is_read_not_taken_as_absent(monkeypatch, experiment, section, error):
    # null stays absent; {} is a section whose required keys are missing
    def fail(*args, **kwargs):
        raise AssertionError("the run went ahead without the section")

    monkeypatch.setattr(experiments, "solve", fail)
    monkeypatch.setattr(experiments, "generator_limit_check", fail)
    cfg = pde_config()
    cfg[section] = {}
    report, code = dispatch(experiment, cfg)
    assert (report["status"], code, report["results"]["error"]) == ("config-error", 2, error)


@pytest.mark.parametrize("experiment", ["solve-pde", "feynman-crosscheck", "generator"])
def test_an_experiment_of_one_function_refuses_a_second(monkeypatch, experiment):
    # each of these reads one function; a second one used to be parsed and then ignored
    def fail(*args, **kwargs):
        raise AssertionError("the run went ahead with the first function only")

    monkeypatch.setattr(experiments, "solve", fail)
    monkeypatch.setattr(experiments, "generator_limit_check", fail)
    cfg = pde_config()
    cfg["functions"].append({"expr": "x_1", "name": "linear"})
    report, code = dispatch(experiment, cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"] == ("functions: expected one function, got 2; only "
                                          "verify-monotone and verify-order read a list")


@pytest.mark.parametrize("part, error", [
    ({"b": {"family": "offdiag-monotone", "scal": 5}},
     "b.scal: unknown key; b holds family, scale"),
    ({"b": {"family": "arctan-coupling", "sacle": 5}},
     "b.sacle: unknown key; b holds family, scale"),
    ({"b": {"family": "constant-drift", "C": 2}}, "b.C: unknown key; b holds family, c"),
    ({"b": {"family": "linear-drift", "A": [[1.0]], "B": 1}},
     "b.B: unknown key; b holds family, A"),
    ({"b": {"family": "zero", "scale": 2}}, "b.scale: unknown key; b holds family"),
    ({"sigma": {"family": "diag-sigma", "value": [3.0]}},
     "sigma.value: unknown key; sigma holds family, values"),
    ({"sigma": {"family": "per-coordinate", "entries": [[1.0]], "entry": 2}},
     "sigma.entry: unknown key; sigma holds family, entries"),
    ({"sigma": {"family": "constant", "matrix": [[1.0]], "scale": 3}},
     "sigma.scale: unknown key; sigma holds family, matrix"),
    ({"h": {"family": "constant", "tabel": [[[1.0]]]}},
     "h.tabel: unknown key; h holds family, table"),
], ids=["offdiag-monotone", "arctan-coupling", "constant-drift", "linear-drift", "b-zero",
        "diag-sigma", "per-coordinate", "sigma-constant", "h-constant"])
def test_a_family_mapping_refuses_a_key_its_family_does_not_read(part, error):
    # each key used to be ignored: the family ran with its default (scale 1, sigma 1, c 0)
    cfg = pde_config()
    cfg["coefficients"] = {"n": 1, "d": 1, "sigma": [[1.0]], **part}
    report, code = dispatch("solve-pde", cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"] == f"coefficients: {error}"


@pytest.mark.parametrize("experiment, section", [
    ("solve-pde", "coefficients"), ("verify-order", "coefficients_bar")])
@pytest.mark.parametrize("part, error", [
    ({"n": 1, "d": 2, "h": [[[0.0], [1.0]], [[0.0], [0.0]]]},
     "h[0][1] != h[1][0] on sampled points but h_symmetric is declared"),
    ({"n": 0, "d": 1}, "invalid dimensions n=0, d=1"),
], ids=["asymmetric-h", "n-zero"])
def test_every_refusal_of_a_coefficient_section_names_the_section(experiment, section, part,
                                                                 error):
    cfg = {**pde_config(), "domain": {"box": [[-2.0, 2.0]], "n_samples": 8}}
    cfg[section] = part
    if section == "coefficients_bar":
        cfg["coefficients"] = pde_config()["coefficients"]
    report, code = dispatch(experiment, cfg)
    assert (report["status"], code) == ("config-error", 2)
    assert report["results"]["error"] == f"{section}: {error}"


# case -> (key the error must name, coefficient section replacing pde_config's)
MALFORMED_COEFFICIENTS = {
    "n-text": ("n", {"n": "two", "d": 1}),
    "n-fraction": ("n", {"n": 1.7, "d": 1}),
    "lipschitz-text": ("lipschitz", {"n": 1, "d": 1, "lipschitz": "abc"}),
    "scale-text": ("b.scale", {"n": 1, "d": 1,
                               "b": {"family": "offdiag-monotone", "scale": "x"}}),
    "c-text": ("b.c", {"n": 1, "d": 1, "b": {"family": "constant-drift", "c": "abc"}}),
    "A-missing": ("b.A", {"n": 1, "d": 1, "b": {"family": "linear-drift"}}),
    "entry-true": ("b[0]", {"n": 1, "d": 1, "b": [True]}),
    "entries-missing": ("sigma.entries", {"n": 1, "d": 1,
                                          "sigma": {"family": "per-coordinate"}}),
    "matrix-missing": ("sigma.matrix", {"n": 1, "d": 1, "sigma": {"family": "constant"}}),
    "column-number": ("sigma[0]", {"n": 1, "d": 1, "sigma": [3.0]}),
    "table-missing": ("h.table", {"n": 1, "d": 1, "h": {"family": "constant"}}),
    "cell-number": ("h[0][0]", {"n": 1, "d": 1, "h": [[3.0]]}),
    "h_symmetric-text": ("h_symmetric", {"n": 1, "d": 1, "h_symmetric": "false"}),
    "lipschitz-true": ("lipschitz", {"n": 1, "d": 1, "lipschitz": True}),
    "offdiag-scale-true": ("b.scale", {"n": 1, "d": 1,
                                       "b": {"family": "offdiag-monotone", "scale": True}}),
    "arctan-scale-true": ("b.scale", {"n": 1, "d": 1,
                                      "b": {"family": "arctan-coupling", "scale": True}}),
    "c-true": ("b.c", {"n": 1, "d": 1, "b": {"family": "constant-drift", "c": True}}),
    "c-holds-true": ("b.c", {"n": 2, "d": 1, "b": {"family": "constant-drift",
                                                   "c": [0.5, True]}}),
    "c-length": ("b.c", {"n": 1, "d": 1, "b": {"family": "constant-drift", "c": [1.0, 2.0]}}),
    "A-holds-true": ("b.A", {"n": 1, "d": 1, "b": {"family": "linear-drift", "A": [[True]]}}),
    "b-family": ("b.family", {"n": 1, "d": 1, "b": {"family": "x"}}),
    "sigma-family": ("sigma.family", {"n": 1, "d": 1, "sigma": {"family": "x"}}),
    "h-family": ("h.family", {"n": 1, "d": 1, "h": {"family": "x"}}),
    "diag-sigma-wide": ("sigma.family", {"n": 1, "d": 2, "sigma": {"family": "diag-sigma"}}),
    "b-number": ("b", {"n": 1, "d": 1, "b": 5}),
    "sigma-number": ("sigma", {"n": 1, "d": 1, "sigma": 5}),
    "h-number": ("h", {"n": 1, "d": 1, "h": 5}),
    # a drift family is named under b; read at the top level it would run with zero drift
    "top-level-family": ("family", {"n": 1, "d": 1, "family": "constant-drift", "c": [0.5]}),
    # an unknown key is refused rather than read as nothing
    "misspelt-sigma": ("sigm", {"n": 1, "d": 1, "sigm": [[1.0]]}),
    "top-level-c": ("c", {"n": 1, "d": 1, "c": [0.5]}),
}


@pytest.mark.parametrize("case", MALFORMED_COEFFICIENTS)
def test_malformed_coefficient_section_is_a_config_error_naming_the_key(case):
    key, section = MALFORMED_COEFFICIENTS[case]
    cfg = pde_config()
    cfg["coefficients"] = {**section, "sigma": section.get("sigma", [[1.0]])}
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"coefficients: {key}:")


def test_time_dependent_drift_is_read_at_every_level():
    # b = 2t: explicit Euler gives the left Riemann sum 1 - dt of the exact
    # u(1, 0) = 1, and the drift sweep counts the largest |b| over the levels
    cfg = pde_config()
    cfg["theta"] = {"interval": [1.0, 1.0]}
    cfg["coefficients"] = {"n": 1, "d": 1, "b": ["expr:2*t"], "sigma": [[1.0]]}
    cfg["grid"] = {"bounds": [[-8.0, 8.0]], "counts": [321], "T": 1.0, "n_levels": 500}
    cfg["functions"] = [{"expr": "x_1", "name": "identity"}]
    cfg["query"] = {"t": 1.0, "x": [0.0]}
    report, code = dispatch("solve-pde", cfg)
    assert code == 0
    assert report["results"]["query"]["value"] == pytest.approx(0.998, abs=1e-12)
    assert report["results"]["trust_bounds"] == [[pytest.approx(-3.004, abs=1e-12),
                                                  pytest.approx(3.004, abs=1e-12)]]


def test_time_dependent_sigma_is_refused_at_the_level_it_breaks_the_bound():
    # sigma = 1 + 5t on dx = 0.1 with dt = 0.008: the bound dx^2 / sigma^2
    # holds up to level 2 (sigma = 1.08) and fails at level 3 (sigma = 1.12)
    cfg = pde_config()
    cfg["theta"] = {"interval": [1.0, 1.0]}
    cfg["coefficients"] = {"n": 1, "d": 1, "sigma": [["expr:1 + 5*t"]]}
    cfg["grid"] = {"bounds": [[-2.0, 2.0]], "counts": [41], "T": 0.08, "n_levels": 10}
    cfg["query"] = {"t": 0.08, "x": [0.0]}
    report, code = dispatch("solve-pde", cfg)
    assert code == 5
    assert report["status"] == "numerical-error"
    assert "stability bound" in report["results"]["error"]
    assert "at level 3 (t=0.024)" in report["results"]["error"]


def test_a_solve_larger_than_physical_memory_is_a_config_error(tmp_path):
    # 10**12 + 1 levels of 41 nodes would store 369 TB; the dump keeps every level
    cfg = pde_config()
    cfg["grid"]["n_levels"] = 10 ** 12
    cfg["output"] = {"dir": str(tmp_path), "dump": "u.bin"}
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(
        "the solve would store 369000000000369 bytes (1000000000001 levels of 41 nodes")


@pytest.mark.parametrize("experiment, nbytes, held", [
    # one chunk of 100 steps x 60 paths x 1 dimension of noise, and the gap
    # minima and their levels of 8 controls x 60 paths x 2 components
    ("verify-comparison", 63_360, "one chunk of noise (100 steps, 60 paths, d = 1) and the "
                                  "minimum gaps of 8 controls x 60 paths x 2 components"),
    # 66 controls x 16 paths of values and 8 steps x 16 paths of noise
    ("feynman-crosscheck", 9472, "the values of 66 controls x 16 paths and one chunk of noise"),
], ids=["verify-comparison", "feynman-crosscheck"])
def test_a_monte_carlo_run_larger_than_physical_memory_is_refused_before_any_draw(
        tmp_path, monkeypatch, experiment, nbytes, held):
    if experiment == "verify-comparison":
        with open(comparison_config(tmp_path), encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        cfg = pde_config()
    monkeypatch.setattr(pde, "_physical_bytes", lambda: nbytes)
    report, code = dispatch(experiment, json.loads(json.dumps(cfg)))
    assert code == 0, report["results"]

    def draw(*args, **kwargs):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(pde, "_physical_bytes", lambda: nbytes - 1)
    monkeypatch.setattr(experiments, "noise_block", draw)
    monkeypatch.setattr(scenario, "noise_block", draw)
    report, code = dispatch(experiment, cfg)
    assert (code, report["status"]) == (2, "config-error")
    assert report["results"]["error"] == (
        f"scenario.n_paths: {held} would take {nbytes} bytes, more than the {nbytes - 1} "
        "bytes of physical memory; use fewer paths or steps")


@pytest.mark.parametrize("experiment", ["feynman-crosscheck", "generator"])
def test_a_solve_that_keeps_one_level_runs_where_every_level_would_not_fit(monkeypatch,
                                                                          experiment):
    # 101 levels of 41 nodes store 41 * 9 * 101 = 37 269 bytes; one kept level and
    # the two spares store 41 * 9 + 41 * 17 = 1066 bytes, and crosscheck's Monte
    # Carlo values (66 controls x 16 paths) and noise (8 steps x 16 paths) 9472
    monkeypatch.setattr(pde, "_physical_bytes", lambda: 10_000)
    cfg = pde_config()
    cfg["t_list"] = [0.25]
    report, code = dispatch(experiment, cfg)
    assert code == 0, report["results"]
    coeffs, _ = config.coefficients_from_config(cfg)
    with pytest.raises(GridError, match=r"^the solve would store 37269 bytes \(101 levels"):
        pde.solve(coeffs, config.theta_from_config(cfg), experiments._one_function(cfg, 1),
                  config.grid_from_config(cfg))


@pytest.mark.parametrize("error, status, code", [
    (ConfigError, "config-error", 2),
    (EvaluationError, "evaluation-error", 2),
    (NonFiniteError, "numerical-error", 5),
    (StabilityError, "numerical-error", 5),
    (GridError, "config-error", 2),
    (DimensionMismatchError, "config-error", 2),
])
def test_dispatch_maps_each_error_kind_to_its_status_and_exit_code(tmp_path, monkeypatch,
                                                                    error, status, code):
    def runner(cfg):
        raise error(f"raised {error.__name__}")

    monkeypatch.setitem(experiments.EXPERIMENTS, "raise", runner)
    cfg = {"output": {"dir": str(tmp_path), "report": "report.json"}}
    report, exit_code = dispatch("raise", cfg)
    assert (report["status"], report["exit_code"], exit_code) == (status, code, code)
    assert report["results"] == {"error": f"raised {error.__name__}"}
    assert json.loads((tmp_path / "report.json").read_text()) == report


def test_report_is_written_where_the_output_section_names(tmp_path):
    cfg = pde_config()
    cfg["output"] = {"dir": str(tmp_path), "report": "report.json"}
    report, code = dispatch("solve-pde", cfg)
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text()) == report
    cfg["output"] = [str(tmp_path), "report.json"]
    report, code = dispatch("solve-pde", cfg)
    assert code == 2
    assert report["results"]["error"] == "output: expected an object, got list"


def test_out_dir_needs_an_object_output_section(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**pde_config(), "output": 5}))
    assert main(["solve-pde", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "output: expected an object" in capsys.readouterr().err


def test_explicit_control_without_schedule_is_a_config_error():
    cfg = simulate_config()
    cfg["scenario"]["control"] = {"policy": "explicit"}
    report, code = dispatch("simulate", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert "'schedule'" in report["results"]["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_comparison_blow_up_names_the_first_failing_march(tmp_path):
    # x' = x^3 from 1.2 blows up at a step that depends on the control, so the
    # controls marched together fail first somewhere else than control 0 does
    with open(comparison_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key in ("coefficients", "coefficients_bar"):
        cfg[key]["b"] = ["expr:x_1^3", "expr:x_2^3"]
    cfg["x0"] = cfg["y0"] = [1.2, 1.0]
    report, code = dispatch("verify-comparison", cfg)
    assert code == 5 and report["status"] == "numerical-error"

    theta = config.theta_from_config(cfg)
    coeffs_x, coeffs_y = config.coefficients_from_config(cfg)
    n_steps, n_paths = cfg["scenario"]["n_steps"], cfg["scenario"]["n_paths"]
    dw = noise_block(cfg["seed"], 1.0, n_steps, 1, n_paths)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    errors = []
    for control in config.controls_from_config(cfg["scenario"]["controls"], theta, n_steps,
                                               cfg["seed"]):
        for coeffs, start in ((coeffs_x, cfg["x0"]), (coeffs_y, cfg["y0"])):
            with pytest.raises(NonFiniteError) as err:
                euler_march(coeffs, start, times, dw, control, theta)
            errors.append(str(err.value))
    assert report["results"]["error"] == errors[0]
    steps = [int(e.split()[4]) for e in errors]  # "non-finite state at step <m> ..."
    assert min(steps) < steps[0]  # another control fails at an earlier step


def test_verify_comparison_report_does_not_depend_on_the_batch_size(tmp_path, monkeypatch):
    # 8 controls of 60 paths in 2-D, marched 1, 7 (not a divisor) or 8 at a time
    with open(comparison_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    march = experiments.euler_march
    reports, batches = [], []

    def recording_march(coeffs, x0, times, dw, controls, theta, observe=None):
        batches[-1].append(len(controls))
        return march(coeffs, x0, times, dw, controls, theta, observe)

    monkeypatch.setattr(experiments, "euler_march", recording_march)
    for k in (1, 7, 8):
        monkeypatch.setattr(scenario, "STEP_BYTES", k * 60 * 4 * 8)
        batches.append([])
        report, code = dispatch("verify-comparison", json.loads(json.dumps(cfg)))
        assert code == 0
        del report["timestamp"]
        reports.append(experiments.report_json(report))
    assert batches == [[1] * 8, [7, 1], [8]]
    assert reports[0] == reports[1] == reports[2]


def whole_block_comparison(cfg):
    """verify-comparison's earlier loop, kept as its oracle: the whole noise
    block, then batches of controls of at most 160 000 B per step's states
    (K, n_paths, n), and after a NonFiniteError each control and system of
    the batch alone on the whole block.  Returns (min gap, witness)."""
    theta = config.theta_from_config(cfg)
    coeffs_x, coeffs_y = config.coefficients_from_config(cfg)
    x0, y0 = np.array(cfg["x0"], dtype=float), np.array(cfg["y0"], dtype=float)
    scen = cfg["scenario"]
    horizon, n_steps, n_paths = scen["T"], scen["n_steps"], scen["n_paths"]
    controls = config.controls_from_config(scen["controls"], theta, n_steps, cfg["seed"])
    dw = scenario.noise_block(cfg["seed"], horizon, n_steps, theta.dim, n_paths)
    times = np.linspace(0.0, horizon, n_steps + 1)
    k = max(1, min(len(controls), 160_000 // (8 * n_paths * coeffs_x.n)))
    min_gap, witness = np.inf, {}
    for first in range(0, len(controls), k):
        batch = controls[first:first + k]
        gaps = MinGapObserver()
        try:
            euler_march((coeffs_x, coeffs_y), (x0, y0), times, dw, batch, theta, observe=gaps)
        except NonFiniteError:
            for control in batch:
                for coeffs, start in ((coeffs_x, x0), (coeffs_y, y0)):
                    euler_march(coeffs, start, times, dw, control, theta)
            raise
        local, (j, path, comp, t_at) = gaps.result(times)
        if local < min_gap:
            min_gap = local
            witness = {"control": controls[first + j].label, "control_index": first + j,
                       "path_index": path, "component": comp, "t": t_at}
    return min_gap, witness


def edited_noise(monkeypatch, edits, scale=1.0):
    """Patch scenario.noise_block: every draw times scale, and the increments
    (n_steps, d) of each global path in edits replaced by edits[path]."""
    real = scenario.noise_block

    def draw(seed, T, n_steps, d, n_paths, first=0):
        dw = real(seed, T, n_steps, d, n_paths, first=first) * scale
        for path, column in edits.items():
            if first <= path < first + n_paths:
                dw[:, path - first] = column
        return dw

    monkeypatch.setattr(scenario, "noise_block", draw)


def swap_config(b, sigma, x0, y0, n_steps=20):
    """n = 1, d = 2, Theta = {I, the swap}: a control picks which noise
    component drives the single diffusion column, 40 controls of 1100 paths,
    so 512-path chunks."""
    section = {"n": 1, "d": 2, "sigma": [[sigma], [0.0]]}
    return {"seed": 5, "theta": {"generators": [[[1.0, 0.0], [0.0, 1.0]],
                                                [[0.0, 1.0], [1.0, 0.0]]]},
            "coefficients": {**section, "b": [b[0]]},
            "coefficients_bar": {**section, "b": [b[1]]},
            "x0": [x0], "y0": [y0],
            "domain": {"box": [[-2.0, 2.0]], "n_samples": 32, "n_refine": 4, "seed": 7},
            "scenario": {"T": 1.0, "n_steps": n_steps, "n_paths": 1100,
                         "controls": {"random_switching": 38, "seed": 3}}}


def test_chunked_verify_comparison_has_the_bits_of_the_whole_block_loop(tmp_path):
    # 20 controls of 1100 paths in 2-D: chunks of 512, 512 and 76 paths
    with open(comparison_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["scenario"].update(n_paths=1100, n_steps=40)
    cfg["scenario"]["controls"]["random_switching"] = 18
    assert scenario.lockstep_shape(20, 1100, 4) == (512, 19)
    report, code = dispatch("verify-comparison", json.loads(json.dumps(cfg)))
    assert code == 0, report["results"]
    min_gap, witness = whole_block_comparison(cfg)
    assert (report["results"]["min_gap"], report["results"]["witness"]) == (min_gap, witness)


def test_a_tie_across_chunks_goes_to_the_earlier_control(monkeypatch):
    # constant[0] on path 600 (chunk 1) and constant[1] on path 3 (chunk 0)
    # see the same dB: the kicks of -1 on noise component 1 and 2.  Every
    # kick lowers the gap, so these two tie at the minimum, and every other
    # path, its noise scaled by 1/8, stays above it.
    kick = np.zeros((20, 2))
    edited_noise(monkeypatch, {600: kick + [-1.0, 0.0], 3: kick + [0.0, -1.0]}, scale=0.125)
    cfg = swap_config(("expr:0", "expr:0.1"), "expr:1 + 0.5*x_1", -0.1, 0.0)
    report, code = dispatch("verify-comparison", json.loads(json.dumps(cfg)))
    assert code == 0, report["results"]
    min_gap, witness = whole_block_comparison(cfg)
    assert (report["results"]["min_gap"], report["results"]["witness"]) == (min_gap, witness)
    assert (witness["control_index"], witness["path_index"]) == (0, 600)

    theta = config.theta_from_config(cfg)
    coeffs_x, coeffs_y = config.coefficients_from_config(cfg)
    times = np.linspace(0.0, 1.0, 21)
    gaps = []
    for index, path in ((0, 600), (1, 3)):
        observer = MinGapObserver()
        euler_march((coeffs_x, coeffs_y), ([-0.1], [0.0]), times,
                    scenario.noise_block(5, 1.0, 20, 2, 1, first=path),
                    scenario.VolatilityControl.constant(index, 20), theta, observe=observer)
        gaps.append(observer.result(times)[0])
    assert gaps == [min_gap, min_gap]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kicks", [{700: 2}, {100: 5, 1050: 2}],
                         ids=["only-in-chunk-1", "earlier-in-chunk-2-than-in-chunk-0"])
def test_a_blow_up_in_any_chunk_raises_the_whole_block_text(monkeypatch, kicks):
    # x' = x^3 from 0.1 with the noise scaled by 1/8 blows up only where a
    # kick of +3 on noise component 1 lands, at the step given
    edits = {}
    for path, step in kicks.items():
        edits[path] = np.zeros((20, 2))
        edits[path][step, 0] = 3.0
    edited_noise(monkeypatch, edits, scale=0.125)
    cfg = swap_config(("expr:x_1^3", "expr:x_1^3"), 1.0, 0.1, 0.1)
    report, code = dispatch("verify-comparison", json.loads(json.dumps(cfg)))
    assert (code, report["status"]) == (5, "numerical-error")
    with pytest.raises(NonFiniteError) as err:
        whole_block_comparison(cfg)
    assert report["results"]["error"] == str(err.value)
    path = int(str(err.value).split("batch index (")[1].split(",")[0])
    assert path == max(kicks)  # the chunk 2 kick fails at an earlier step


def test_verify_comparison_checks_the_scenario_before_searching(tmp_path, monkeypatch):
    def search(*args):
        raise AssertionError("a hypothesis search ran before the scenario was read")

    monkeypatch.setattr(experiments, "run_check", search)
    with open(comparison_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["scenario"]["n_paths"] = 0
    report, code = dispatch("verify-comparison", cfg)
    assert code == 2
    assert report["status"] == "config-error"


@pytest.mark.parametrize("key", ["x0", "y0"])
def test_verify_comparison_rejects_a_start_of_the_wrong_length(tmp_path, monkeypatch, key):
    def search(*args):
        raise AssertionError("a hypothesis search ran before the starts were checked")

    monkeypatch.setattr(experiments, "run_check", search)
    with open(comparison_config(tmp_path), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg[key] = [0.0, 0.0, 0.0]
    report, code = dispatch("verify-comparison", cfg)
    assert code == 2
    assert report["status"] == "config-error"
    assert report["results"]["error"].startswith(f"{key}: expected 2 numbers")


def test_solve_pde_exports_and_query(tmp_path, capsys):
    cfg = {
        "seed": 4,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 1, "d": 1,
                         "sigma": {"family": "constant", "matrix": [[1.0]]}},
        "grid": {"bounds": [[-4.0, 4.0]], "counts": [161], "T": 0.25, "n_levels": 800},
        "functions": [{"expr": "x_1^2", "name": "square"}],
        "query": {"t": 0.25, "x": [0.0]},
        "output": {"dir": str(tmp_path), "csv": "u.csv", "dump": "u.bin"},
    }
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["solve-pde", "--config", str(path)], capsys)
    assert code == 0
    assert report["results"]["query"]["value"] == pytest.approx(0.25, abs=2e-3)
    lines = (tmp_path / "u.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x_1,u"
    assert len(lines) == 1 + 161 * 101  # the default stride 8 keeps levels 0, 8, ..., 800
    assert tuple(map(float, lines[1].split(","))) == (0.0, -4.0, 16.0)
    from gdiffusion.pde import read_grid_dump

    dump = read_grid_dump(str(tmp_path / "u.bin"))
    assert dump["u"].shape == (801, 161)


def test_generator_limit_cli(tmp_path, capsys):
    cfg = {
        "seed": 4,
        "theta": {"interval": [0.25, 1.0]},
        "coefficients": {"n": 1, "d": 1,
                         "sigma": {"family": "constant", "matrix": [[1.0]]}},
        "functions": [{"expr": "x_1^2", "name": "square"}],
        "query": {"x": [0.0]},
        "t_list": [0.2, 0.1, 0.05],
        "output": {"dir": str(tmp_path), "csv": "limit.csv"},
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["generator", "--config", str(path)], capsys)
    assert code == 0
    assert report["results"]["final_residual"] <= 5e-2
    lines = (tmp_path / "limit.csv").read_text().strip().splitlines()
    assert lines[0] == "t,quotient,generator_value,residual"
    assert len(lines) == 4


def test_reports_embed_config_and_roundtrip(tmp_path, capsys):
    path = comparison_config(tmp_path)
    code, report = run_cli(["verify-comparison", "--config", path], capsys)
    assert code == 0
    # the embedded config re-runs to the same result
    report2, code2 = dispatch("verify-comparison", json.loads(json.dumps(report["config"])))
    assert code2 == 0
    assert report2["results"] == report["results"]


def test_report_determinism_excluding_timestamp(tmp_path, capsys):
    path = comparison_config(tmp_path)
    _, r1 = run_cli(["verify-comparison", "--config", path], capsys)
    _, r2 = run_cli(["verify-comparison", "--config", path], capsys)
    for r in (r1, r2):
        r.pop("timestamp")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_seed_precedence(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1}))
    assert load_config(str(path))["seed"] == 1
    monkeypatch.setenv("GDIFFUSION_SEED", "2")
    assert load_config(str(path))["seed"] == 2
    assert load_config(str(path), seed_flag=3)["seed"] == 3
    monkeypatch.setenv("GDIFFUSION_SEED", "not-an-int")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_set_overrides_nested_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"T": 1.0}}))
    cfg = load_config(str(path), overrides=["scenario.n_steps=50", "note=hello"])
    assert cfg["scenario"]["n_steps"] == 50
    assert cfg["note"] == "hello"
    with pytest.raises(ConfigError):
        load_config(str(path), overrides=["oops"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gdiffusion.cli", "counterexample-remark", "--seed", "9"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["gap_at_horizon"] == 0.25


def test_check_remark_pair_reports_b1_violated(tmp_path, capsys):
    cfg = {
        "seed": 3,
        "theta": {"interval": [0.5, 1.0]},
        "pair_family": {"family": "remark-counterexample"},
        "domain": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "n_samples": 64, "n_refine": 4,
                   "seed": 2},
        "conditions": ["B1"],
    }
    path = tmp_path / "remark-check.json"
    path.write_text(json.dumps(cfg))
    code, report = run_cli(["check", "--config", str(path)], capsys)
    assert code == 1
    rep = report["results"]["checks"]["B1"]
    assert rep["verdict"] == "violated"
    assert rep["max_violation"] == pytest.approx(0.25, abs=1e-9)
