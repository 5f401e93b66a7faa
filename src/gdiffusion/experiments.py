"""Named, reproducible experiments wiring all modules together.

Each ``run_*`` takes a resolved config dict and returns (report, exit_code).
Exit codes: 0 ok, 2 config error, 3 hypothesis violated, 4 assertion failed,
5 numerical error.  Reports embed the exact config used, and identical
configs (same seed) produce byte-identical reports apart from the timestamp
field.
"""

from __future__ import annotations

import datetime
import json
import os
import warnings

import numpy as np

from . import config as cfgmod
from .coefficients import remark_counterexample_pair
from .conditions import run_check
from .errors import (ConfigError, EvaluationError, GDiffusionError,
                     NonFiniteError, StabilityError)
from .gfunction import nondegeneracy_bound
from .generator import generator_limit_check, limit_table_csv
from .pde import (
    dominance_check,
    export_grid_dump,
    export_solution_csv,
    monotonicity_check,
    semigroup_value,
    solve,
)
from .scenario import VolatilityControl, apply_control, estimate_sublinear_expectation, noise_block
from .sde import (MinGapObserver, SDETerminalFunctional, euler_march, frame_eigenvalues,
                  lipschitz_audit)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_ASSERTION = 4
EXIT_NUMERICAL = 5

# bytes of dB per chunk of controls that verify-comparison marches together
_CHUNK_BYTES = 5 * 2**19


def _report(experiment: str, cfg: dict, results: dict, status: str, exit_code: int) -> dict:
    return {
        "experiment": experiment,
        "status": status,
        "exit_code": exit_code,
        "config": cfg,
        "results": results,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _output_path(cfg: dict, key: str) -> str | None:
    output = cfgmod.get_section(cfg, "output")
    name = output.get(key)
    if not name:
        return None
    path = os.path.join(output.get("dir", "."), name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _seed(cfg: dict) -> int:
    return cfgmod.seed_from_config(cfgmod.require(cfg, "seed"), "seed")


def _read(section: dict, key: str, convert, where: str, *default):
    """section[key] (required unless a default is given) through convert;
    a value it cannot read is a ConfigError naming ``where.key``."""
    value = section.get(key, *default) if default else cfgmod.require(section, key)
    return cfgmod._convert(value, convert, f"{where}.{key}")


def _floats(section: dict, key: str, where: str | None = None) -> np.ndarray:
    """section[key], a required list of numbers, as a float array; a value it
    cannot read is a ConfigError naming the dotted key."""
    name = f"{where}.{key}" if where else key
    return cfgmod._convert(cfgmod.require(section, key, list), cfgmod._float_array, name)


def run_verify_comparison(cfg: dict) -> tuple[dict, int]:
    """Scenario, hypothesis checks, then the coupled pathwise ordering over an ensemble."""
    seed = _seed(cfg)
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs_x, coeffs_y = cfgmod.coefficients_from_config(cfg)
    if coeffs_y is None:
        raise ConfigError("verify-comparison needs coefficients_bar or a pair family")
    x0 = _floats(cfg, "x0")
    y0 = _floats(cfg, "y0")
    for key, start in (("x0", x0), ("y0", y0)):
        if start.shape != (coeffs_x.n,):
            raise ConfigError(f"{key}: expected {coeffs_x.n} numbers, got shape {start.shape}")
    dom = cfgmod.domain_from_config(cfgmod.require(cfg, "domain", dict), coeffs_x.n, seed)
    scen = cfgmod.require(cfg, "scenario", dict)
    horizon = _read(scen, "T", float, "scenario")
    n_steps = _read(scen, "n_steps", int, "scenario")
    n_paths = _read(scen, "n_paths", int, "scenario")
    # an invalid scenario is a config error before any search runs
    controls = cfgmod.controls_from_config(
        cfgmod.get_section(scen, "controls", "scenario.controls"), theta, n_steps, seed)
    dw = noise_block(seed, horizon, n_steps, theta.dim, n_paths)
    tol_path = _read(cfgmod.get_section(cfg, "tolerances"), "pathwise", float, "tolerances",
                     1e-8 * (1.0 + float(np.linalg.norm(y0))))

    counterexample_mode = bool(np.any(x0 > y0))
    if counterexample_mode:
        warnings.warn("x0 <= y0 fails; running in counterexample mode", stacklevel=2)

    rep_b1 = run_check("B1", coeffs_x, coeffs_y, theta, dom)
    rep_b2 = run_check("B2", coeffs_x, coeffs_y, theta, dom)
    checks = {"B1": rep_b1.to_dict(), "B2": rep_b2.to_dict()}
    results = {"checks": checks, "counterexample_mode": counterexample_mode}
    if coeffs_x.lipschitz > 0:  # declared constant: spot-audited, warning only
        results["lipschitz_audit"] = {
            "declared": coeffs_x.lipschitz,
            "worst_sampled_quotient": lipschitz_audit(coeffs_x, dom.box, seed=seed),
        }
    if rep_b1.verdict == "violated" or rep_b2.verdict == "violated":
        results["violated"] = [name for name, rep in (("B1", rep_b1), ("B2", rep_b2))
                               if rep.verdict == "violated"]
        return (_report("verify-comparison", cfg, results, "hypothesis-violated",
                        EXIT_HYPOTHESIS), EXIT_HYPOTHESIS)

    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps

    # X and Y step in lockstep on chunks of controls stacked on a batch axis
    chunk = max(1, min(len(controls), _CHUNK_BYTES // dw.nbytes))
    db = np.empty((n_steps, chunk) + dw.shape[1:])
    dqv = np.empty((n_steps, chunk, 1, theta.dim, theta.dim))
    min_gap = np.inf
    witness = {}
    for first in range(0, len(controls), chunk):
        k = min(chunk, len(controls) - first)
        for j in range(k):
            db[:, j], dqv[:, j, 0] = apply_control(dw, controls[first + j], theta, dt)
        gaps = MinGapObserver()
        try:
            euler_march((coeffs_x, coeffs_y), (x0, y0), times, db[:, :k], dqv[:, :k],
                        observe=gaps)
        except NonFiniteError:
            # raise what marching each control and system alone, in order, raises
            for j in range(k):
                for coeffs, start in ((coeffs_x, x0), (coeffs_y, y0)):
                    euler_march(coeffs, start, times, db[:, j], dqv[:, j, 0])
            raise
        local, (j, path, comp, t_at) = gaps.result(times)
        if local < min_gap:
            min_gap = local
            witness = {"control": controls[first + j].label, "control_index": first + j,
                       "path_index": path, "component": comp, "t": t_at}
    results["ensemble"] = {"n_controls": len(controls), "n_paths": n_paths,
                           "n_steps": n_steps, "T": horizon}
    results["min_gap"] = min_gap
    results["witness"] = witness
    results["tol_path"] = tol_path
    if not counterexample_mode and min_gap < -tol_path:
        return (_report("verify-comparison", cfg, results, "assertion-failed",
                        EXIT_ASSERTION), EXIT_ASSERTION)
    return (_report("verify-comparison", cfg, results, "ok", EXIT_OK), EXIT_OK)


def run_counterexample_remark(cfg: dict) -> tuple[dict, int]:
    """Reversed-inequality pair: ordering fails under the lowest volatility.

    Builds dX_2 = mid dt against dY_2 = d<B>_t with mid strictly between the
    variance endpoints, runs the constant lowest-volatility scenario, and
    reports the deterministic positive gap X_2 - Y_2 = (mid - lower) t
    together with the violated ordering hypothesis.
    """
    seed = _seed(cfg)
    theta_cfg = cfg.get("theta", {"interval": [0.5, 1.0]})
    theta = cfgmod.theta_from_config(theta_cfg)
    if theta.dim != 1:
        raise ConfigError("counterexample-remark expects a one-dimensional theta")
    lower, upper = theta.sigma_lower_sq, theta.sigma_upper_sq
    if not lower < upper:
        raise ConfigError(
            "degenerate theta (lower == upper): no counterexample exists there")
    coeffs_x, coeffs_y = remark_counterexample_pair(lower, upper)
    scen = cfgmod.get_section(cfg, "scenario")
    horizon = _read(scen, "T", float, "scenario", 1.0)
    n_steps = _read(scen, "n_steps", int, "scenario", 256)

    dw = noise_block(seed, horizon, n_steps, 1, 1)
    low_index = int(np.argmin(np.linalg.eigvalsh(theta.covariances).min(axis=-1)))
    control = VolatilityControl.constant(low_index, n_steps)
    times = np.linspace(0.0, horizon, n_steps + 1)
    db, dqv = apply_control(dw, control, theta, horizon / n_steps)
    xs = euler_march(coeffs_x, np.zeros(2), times, db, dqv)[0]
    ys = euler_march(coeffs_y, np.zeros(2), times, db, dqv)[0]
    gap_path = xs[:, 1] - ys[:, 1]
    expected_rate = 0.5 * (upper + lower) - lower
    gap_at_horizon = float(gap_path[-1])

    dom = cfgmod.domain_from_config(
        cfg.get("domain", {"box": [[-1.0, 1.0], [-1.0, 1.0]]}), 2, seed)
    rep_b1 = run_check("B1", coeffs_x, coeffs_y, theta, dom)

    results = {
        "sigma_lower_sq": lower,
        "sigma_upper_sq": upper,
        "drift_level": 0.5 * (upper + lower),
        "control": control.label,
        "gap_at_horizon": gap_at_horizon,
        "expected_gap": expected_rate * horizon,
        "gap_is_linear_in_t": bool(np.allclose(
            gap_path, expected_rate * times, atol=1e-10 * (1 + horizon))),
        "b1_check": rep_b1.to_dict(),
    }
    ok = (abs(gap_at_horizon - expected_rate * horizon) <= 1e-12 * (1.0 + horizon)
          and gap_at_horizon > 0 and rep_b1.verdict == "violated")
    status = "ok" if ok else "assertion-failed"
    code = EXIT_OK if ok else EXIT_ASSERTION
    return _report("counterexample-remark", cfg, results, status, code), code


def run_verify_monotone(cfg: dict) -> tuple[dict, int]:
    """C1 + C2, then monotonicity of the semigroup on grid solutions."""
    seed = _seed(cfg)
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    dom = cfgmod.domain_from_config(cfgmod.require(cfg, "domain", dict), coeffs.n, seed)
    grid = cfgmod.grid_from_config(cfgmod.require(cfg, "grid", dict))
    functions = cfgmod.functions_from_config(cfgmod.require(cfg, "functions", list),
                                             coeffs.n)

    rep_c1 = run_check("C1", coeffs, None, theta, dom)
    rep_c2 = run_check("C2", coeffs, None, theta, dom)
    checks = {"C1": rep_c1.to_dict(), "C2": rep_c2.to_dict()}
    results = {"checks": checks}
    if rep_c1.verdict == "violated" or rep_c2.verdict == "violated":
        results["violated"] = [n for n, r in (("C1", rep_c1), ("C2", rep_c2))
                               if r.verdict == "violated"]
        return (_report("verify-monotone", cfg, results, "hypothesis-violated",
                        EXIT_HYPOTHESIS), EXIT_HYPOTHESIS)

    per_function = []
    failed = False
    for f in functions:
        sol = solve(coeffs, theta, f, grid)
        rep = monotonicity_check(sol)
        per_function.append({
            "name": f.name,
            "declared_monotone": f.monotone,
            "negative_control": not f.monotone,
            "nondecreasing": rep.nondecreasing,
            "min_forward_difference": rep.min_forward_difference,
            "witness": rep.witness,
            "tolerance": rep.tolerance,
        })
        if f.monotone and not rep.nondecreasing:
            failed = True
    results["functions"] = per_function
    status = "assertion-failed" if failed else "ok"
    code = EXIT_ASSERTION if failed else EXIT_OK
    return _report("verify-monotone", cfg, results, status, code), code


def run_verify_order(cfg: dict) -> tuple[dict, int]:
    """D1 + D5 plus side conditions, then semigroup dominance on the grid."""
    seed = _seed(cfg)
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs_x, coeffs_y = cfgmod.coefficients_from_config(cfg)
    if coeffs_y is None:
        raise ConfigError("verify-order needs coefficients_bar")
    dom = cfgmod.domain_from_config(cfgmod.require(cfg, "domain", dict), coeffs_x.n, seed)
    grid = cfgmod.grid_from_config(cfgmod.require(cfg, "grid", dict))
    functions = cfgmod.functions_from_config(cfgmod.require(cfg, "functions", list),
                                             coeffs_x.n)
    monotone_side = cfg.get("monotone_side", "bar")
    if monotone_side not in ("bar", "x"):
        raise ConfigError(f"monotone_side: expected 'bar' or 'x', got {monotone_side!r}")
    side = coeffs_y if monotone_side == "bar" else coeffs_x

    # uniform positive definiteness of the state covariance frame
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xBD))))
    results: dict = {}
    probe = dom.box[:, 0] + (dom.box[:, 1] - dom.box[:, 0]) \
        * rng.uniform(size=(256, coeffs_x.n))
    beta = float(np.min(frame_eigenvalues(side.sigma_matrix(0.0, probe))))
    h3 = nondegeneracy_bound(theta)
    results["uniform_pd_beta"] = beta
    results["nondegeneracy_bound"] = h3

    checks = {}
    for name, rep in (
        ("C1", run_check("C1", side, None, theta, dom)),
        ("C2", run_check("C2", side, None, theta, dom)),
        ("D1", run_check("D1", coeffs_x, coeffs_y, theta, dom)),
        ("D5", run_check("D5", coeffs_x, coeffs_y, theta, dom)),
    ):
        checks[name] = rep.to_dict()
    results["checks"] = checks
    violated = [name for name, rep in checks.items() if rep["verdict"] == "violated"]
    if beta <= 1e-10:
        violated.append("uniform-positive-definiteness")
    if h3 <= 0.0:
        violated.append("nondegeneracy")
    if violated:
        results["violated"] = violated
        return (_report("verify-order", cfg, results, "hypothesis-violated",
                        EXIT_HYPOTHESIS), EXIT_HYPOTHESIS)

    per_function = []
    failed = False
    for f in functions:
        sol_upper = solve(coeffs_x, theta, f, grid)
        sol_lower = solve(coeffs_y, theta, f, grid)
        rep = dominance_check(sol_upper, sol_lower)
        per_function.append({
            "name": f.name,
            "declared_monotone": f.monotone,
            "dominates": rep.dominates,
            "min_gap": rep.min_gap,
            "witness": rep.witness,
            "mode": rep.mode,
            "tolerance": rep.tolerance,
        })
        if f.monotone and not rep.dominates:
            failed = True
    results["functions"] = per_function
    status = "assertion-failed" if failed else "ok"
    code = EXIT_ASSERTION if failed else EXIT_OK
    return _report("verify-order", cfg, results, status, code), code


def run_generator_limit(cfg: dict) -> tuple[dict, int]:
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    functions = cfgmod.functions_from_config(cfgmod.require(cfg, "functions", list),
                                             coeffs.n)
    x = _floats(cfgmod.require(cfg, "query", dict), "x", "query")
    t_list = _floats(cfg, "t_list").tolist()
    grid = cfgmod.grid_from_config(cfg["grid"]) if cfg.get("grid") else None

    f = functions[0]
    rows = generator_limit_check(coeffs, theta, f, x, t_list, grid=grid)
    csv_path = _output_path(cfg, "csv")
    if csv_path:
        limit_table_csv(rows, csv_path)
    table = [{"t": r.t, "quotient": r.quotient, "generator_value": r.generator_value,
              "residual": r.residual} for r in sorted(rows, key=lambda r: -r.t)]
    residuals = [r["residual"] for r in table]
    results = {
        "function": f.name,
        "x": x.tolist(),
        "table": table,
        "final_residual": residuals[-1],
        "residual_nonincreasing": all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:])),
        "csv": csv_path,
    }
    return _report("generator-limit", cfg, results, "ok", EXIT_OK), EXIT_OK


def run_feynman_crosscheck(cfg: dict) -> tuple[dict, int]:
    """Two independent routes to E_t f(x): PDE grid value vs Monte Carlo sup."""
    seed = _seed(cfg)
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    grid = cfgmod.grid_from_config(cfgmod.require(cfg, "grid", dict))
    functions = cfgmod.functions_from_config(cfgmod.require(cfg, "functions", list),
                                             coeffs.n)
    query = cfgmod.require(cfg, "query", dict)
    t_query = _read(query, "t", float, "query")
    x_query = _floats(query, "x", "query")
    scen = cfgmod.require(cfg, "scenario", dict)
    horizon = _read(scen, "T", float, "scenario", t_query)
    if abs(horizon - t_query) > 1e-12:
        raise ConfigError("scenario.T must equal query.t for the cross-check")
    n_steps = _read(scen, "n_steps", int, "scenario")
    n_paths = _read(scen, "n_paths", int, "scenario")

    f = functions[0]
    sol = solve(coeffs, theta, f, grid)
    pde_value = semigroup_value(sol, t_query, x_query)

    controls = cfgmod.controls_from_config(
        cfgmod.get_section(scen, "controls", "scenario.controls"), theta, n_steps, seed)
    functional = SDETerminalFunctional(coeffs, f, x_query)
    mc_value, mc_se, best = estimate_sublinear_expectation(
        functional, theta, controls, n_paths, seed, horizon, n_steps)

    tolerance = _read(cfgmod.get_section(cfg, "tolerances"), "crosscheck", float, "tolerances",
                      max(2e-2, 3.0 * mc_se))
    gap = pde_value - mc_value
    ok = abs(gap) <= tolerance and gap >= -3.0 * mc_se
    results = {
        "function": f.name,
        "query": {"t": t_query, "x": x_query.tolist()},
        "pde_value": pde_value,
        "mc_value": mc_value,
        "mc_std_error": mc_se,
        "mc_best_control": best.label,
        "n_controls": len(controls),
        "difference": gap,
        "tolerance": tolerance,
        "pde_dominates_mc": bool(gap >= -3.0 * mc_se),
    }
    status = "ok" if ok else "assertion-failed"
    code = EXIT_OK if ok else EXIT_ASSERTION
    return _report("feynman-crosscheck", cfg, results, status, code), code


def run_checks(cfg: dict) -> tuple[dict, int]:
    """Run named condition checks; exit 0 satisfied, 1 violated, 2 error."""
    seed = _seed(cfg)
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs_x, coeffs_y = cfgmod.coefficients_from_config(cfg)
    names = cfg.get("conditions") or ([cfg["condition"]] if cfg.get("condition") else None)
    if not names:
        raise ConfigError("check: provide 'condition' or 'conditions'")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        key, kind = (("conditions", "a list of condition names") if cfg.get("conditions")
                     else ("condition", "a condition name"))
        raise ConfigError(f"{key}: expected {kind}, got {cfg[key]!r}")
    dom = cfgmod.domain_from_config(cfgmod.require(cfg, "domain", dict), coeffs_x.n, seed)
    reports = {name: run_check(name, coeffs_x, coeffs_y, theta, dom).to_dict() for name in names}
    violated = any(rep["verdict"] == "violated" for rep in reports.values())
    code, status = (1, "violated") if violated else (0, "ok")
    return _report("check", cfg, {"checks": reports}, status, code), code


def run_solve(cfg: dict) -> tuple[dict, int]:
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    grid = cfgmod.grid_from_config(cfgmod.require(cfg, "grid", dict))
    functions = cfgmod.functions_from_config(cfgmod.require(cfg, "functions", list),
                                             coeffs.n)
    f = functions[0]
    sol = solve(coeffs, theta, f, grid)
    csv_path = _output_path(cfg, "csv")
    stride = _read(cfgmod.get_section(cfg, "output"), "csv_stride", int, "output",
                   max(1, grid.n_levels // 100))
    if csv_path:
        export_solution_csv(sol, csv_path, level_stride=stride)
    dump_path = _output_path(cfg, "dump")
    if dump_path:
        export_grid_dump(sol, dump_path)
    results = {
        "function": f.name,
        "trust_bounds": sol.trust_bounds.tolist(),
        "scheme": sol.scheme,
        "csv": csv_path,
        "dump": dump_path,
    }
    if cfg.get("query"):
        query = cfgmod.require(cfg, "query", dict)
        t_query = _read(query, "t", float, "query", grid.horizon)
        x_query = _floats(query, "x", "query")
        results["query"] = {"t": t_query, "x": x_query.tolist(),
                            "value": semigroup_value(sol, t_query, x_query)}
    return _report("solve-pde", cfg, results, "ok", EXIT_OK), EXIT_OK


def run_simulate(cfg: dict) -> tuple[dict, int]:
    """Integrate one system on one scenario and export the path as CSV."""
    seed = _seed(cfg)
    theta = cfgmod.theta_from_config(cfgmod.require(cfg, "theta", dict))
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    scen = cfgmod.require(cfg, "scenario", dict)
    horizon = _read(scen, "T", float, "scenario")
    n_steps = _read(scen, "n_steps", int, "scenario")
    x0 = _floats(cfg, "x0")
    where = "scenario.control"
    control_cfg = cfgmod.get_section(scen, "control", where, {"policy": "constant", "index": 0})
    policy = control_cfg.get("policy", "constant")
    if policy == "constant":
        control = VolatilityControl.constant(_read(control_cfg, "index", int, where, 0), n_steps)
    elif policy == "random-switching":
        switch_seed = cfgmod.seed_from_config(control_cfg.get("seed", seed), f"{where}.seed")
        control = VolatilityControl.random_switching(theta.n_generators, n_steps, switch_seed)
    elif policy == "bang-bang-cycle":
        period = _read(control_cfg, "period", int, where, n_steps)
        if period < 1:
            raise ConfigError(f"{where}.period: expected a positive integer, got {period}")
        control = VolatilityControl.bang_bang_cycle(
            _read(control_cfg, "lo", int, where, 0),
            _read(control_cfg, "hi", int, where, theta.n_generators - 1), n_steps, period)
    elif policy == "explicit":
        control = VolatilityControl(_read(control_cfg, "schedule",
                                          lambda v: np.asarray(v, dtype=np.int64), where))
    else:
        raise ConfigError(f"scenario.control.policy: unknown policy {policy!r}")

    dw = noise_block(seed, horizon, n_steps, theta.dim, 1,
                     first=_read(scen, "path_index", int, "scenario", 0))
    db, dqv = apply_control(dw, control, theta, horizon / n_steps)
    times = np.linspace(0.0, horizon, n_steps + 1)
    states = euler_march(coeffs, x0, times, db, dqv)[0]
    csv_path = _output_path(cfg, "csv")
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(f"X_{i + 1}" for i in range(coeffs.n)) + "\n")
            for t, state in zip(times, states):
                fh.write(",".join(repr(float(v)) for v in (t, *state)) + "\n")
    results = {
        "control": control.label,
        "terminal_state": states[-1].tolist(),
        "csv": csv_path,
    }
    return _report("simulate", cfg, results, "ok", EXIT_OK), EXIT_OK


EXPERIMENTS = {
    "simulate": run_simulate,
    "check": run_checks,
    "generator": run_generator_limit,
    "solve-pde": run_solve,
    "verify-comparison": run_verify_comparison,
    "counterexample-remark": run_counterexample_remark,
    "verify-monotone": run_verify_monotone,
    "verify-order": run_verify_order,
    "feynman-crosscheck": run_feynman_crosscheck,
}


def dispatch(name: str, cfg: dict) -> tuple[dict, int]:
    """Run one experiment, mapping raised errors to reports and exit codes."""
    runner = EXPERIMENTS[name]
    path = None
    try:
        path = _output_path(cfg, "report")
        report, code = runner(cfg)
    except ConfigError as exc:
        report = _report(name, cfg, {"error": str(exc)}, "config-error", EXIT_CONFIG)
        code = EXIT_CONFIG
    except EvaluationError as exc:
        report = _report(name, cfg, {"error": str(exc)}, "evaluation-error", EXIT_CONFIG)
        code = EXIT_CONFIG
    except (NonFiniteError, StabilityError) as exc:
        report = _report(name, cfg, {"error": str(exc)}, "numerical-error", EXIT_NUMERICAL)
        code = EXIT_NUMERICAL
    except GDiffusionError as exc:
        report = _report(name, cfg, {"error": str(exc)}, "config-error", EXIT_CONFIG)
        code = EXIT_CONFIG
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    return report, code
