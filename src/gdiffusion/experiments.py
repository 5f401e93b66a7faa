"""Named, reproducible experiments wiring all modules together.

Each ``run_*`` takes a resolved config dict and returns (report, exit_code).
Exit codes: 0 ok, 2 config error, 3 hypothesis violated, 4 assertion failed,
5 numerical error.  Reports embed the exact config used, and identical
configs (same seed) produce byte-identical reports apart from the timestamp
field.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import warnings

import numpy as np

from . import config as cfgmod
from . import pde
from .coefficients import remark_counterexample_pair
from .conditions import run_check
from .errors import (ConfigError, EvaluationError, GDiffusionError,
                     NonFiniteError, StabilityError, read, read_section)
from .gfunction import nondegeneracy_bound
from .generator import generator_limit_check
from .pde import dominance_check, export_grid_dump, monotonicity_check, semigroup_value, solve
from .scenario import (VolatilityControl, estimate_sublinear_expectation, lockstep_shape,
                       march_chunks, noise_block)
from .sde import (MinGapObserver, SDETerminalFunctional, euler_march, frame_eigenvalues,
                  lipschitz_audit)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_ASSERTION = 4
EXIT_NUMERICAL = 5

# the keys of the sections that the experiments read, each the union over them
_SCENARIO_KEYS = ("T", "n_steps", "n_paths", "controls", "control", "path_index")
_CONTROL_KEYS = ("policy", "index", "seed", "period", "lo", "hi", "schedule")
_QUERY_KEYS = ("t", "x")
_TOLERANCE_KEYS = ("pathwise", "crosscheck")
_OUTPUT_KEYS = ("dir", "report", "csv", "dump", "csv_stride")


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


def _verdict(experiment: str, cfg: dict, results: dict, ok: bool) -> tuple[dict, int]:
    """The report of a run that reached its conclusion: ok, or the assertion failed."""
    status, code = ("ok", EXIT_OK) if ok else ("assertion-failed", EXIT_ASSERTION)
    return _report(experiment, cfg, results, status, code), code


def _hypotheses(experiment: str, cfg: dict, results: dict, reports: dict,
                side_conditions: list) -> tuple[dict, int] | None:
    """Record ``reports`` (check name -> CheckReport, in check order) under
    ``results["checks"]``.  When a check or a side condition is violated, list
    them, checks first, under ``results["violated"]`` and return the
    hypothesis-violated report; otherwise None."""
    results["checks"] = {name: rep.to_dict() for name, rep in reports.items()}
    violated = [name for name, rep in reports.items() if rep.verdict == "violated"]
    violated += side_conditions
    if not violated:
        return None
    results["violated"] = violated
    return (_report(experiment, cfg, results, "hypothesis-violated", EXIT_HYPOTHESIS),
            EXIT_HYPOTHESIS)


def _per_function(experiment: str, cfg: dict, results: dict, functions, check, checks,
                  dom, grid) -> tuple[dict, int]:
    """One row per test function from ``check(f) -> (holds, row keys)``; the
    run fails when a function declared monotone does not hold.  Before it
    fails, ``checks(region)``, the run's hypothesis checks, run again on
    grid.bounds, where the solve read the coefficients: a check violated
    there makes the run hypothesis-violated, naming where its witness lies."""
    rows = []
    failed = False
    for f in functions:
        holds, row = check(f)
        rows.append({"name": f.name, "declared_monotone": f.monotone, **row})
        failed = failed or (f.monotone and not holds)
    results["functions"] = rows
    if failed:
        on_grid = checks(dataclasses.replace(dom, box=grid.bounds))
        violated = {name: rep for name, rep in on_grid.items() if rep.verdict == "violated"}
        if violated:
            results["violated"] = list(violated)
            results["violated_on_grid"] = {name: {**rep.to_dict(), "note": (
                f"{name} is violated on grid.bounds, where the solve reads the coefficients; "
                f"its witness lies {'outside' if _outside(rep.witness, dom.box) else 'inside'} "
                "domain.box")} for name, rep in violated.items()}
            return (_report(experiment, cfg, results, "hypothesis-violated", EXIT_HYPOTHESIS),
                    EXIT_HYPOTHESIS)
    return _verdict(experiment, cfg, results, not failed)


def _outside(witness: dict, box: np.ndarray) -> bool:
    """Whether a point of a check's witness lies outside box."""
    points = [np.asarray(witness[key]) for key in ("x", "y", "x_prime") if key in witness]
    return any(np.any((p < box[:, 0]) | (p > box[:, 1])) for p in points)


def _one_function(cfg: dict, dim: int):
    """The one test function of an experiment that reads only one."""
    functions = cfgmod.functions_from_config(cfg, dim)
    if len(functions) > 1:
        raise ConfigError(f"functions: expected one function, got {len(functions)}; only "
                          "verify-monotone and verify-order read a list")
    return functions[0]


def _write_csv(path: str, header: list, rows) -> None:
    """The one CSV format of the exports: a header line, then each row's
    numbers as ``repr(float)`` joined by commas."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _output_path(cfg: dict, key: str) -> str | None:
    """``output.dir``/``output.<key>`` with its directory created; None when the
    key is absent or null.  Any other name that is not a non-empty string is
    refused, so that no export is skipped silently."""
    output = read_section(cfg, "output", _OUTPUT_KEYS, {})
    name, directory = output.get(key), output.get("dir", ".")
    if name is None:
        return None
    for part, value, ok in ((key, name, isinstance(name, str) and name != ""),
                            ("dir", directory, isinstance(directory, str))):
        if not ok:
            raise ConfigError(f"output.{part}: expected a path name, got {value!r}")
    path = os.path.join(directory, name)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.{'dir' if 'dir' in output else key}: cannot create the "
                          f"directory of {path!r} ({exc})") from None
    if os.path.isdir(path):
        raise ConfigError(f"output.{key}: expected a file name, got the directory {path!r}")
    return path


def _refuse_beyond_memory(nbytes: int, what: str) -> None:
    """A ConfigError naming scenario.n_paths when nbytes exceed physical memory."""
    physical = pde._physical_bytes()
    if nbytes > physical:
        raise ConfigError(f"scenario.n_paths: {what} would take {nbytes} bytes, more than the "
                          f"{physical} bytes of physical memory; use fewer paths or steps")


def run_verify_comparison(cfg: dict) -> tuple[dict, int]:
    """Scenario, hypothesis checks, then the coupled pathwise ordering over an ensemble."""
    seed = read(cfg, "seed", "seed")
    theta = cfgmod.theta_from_config(cfg)
    coeffs_x, coeffs_y = cfgmod.coefficients_from_config(cfg)
    if coeffs_y is None:
        raise ConfigError("verify-comparison needs coefficients_bar or a pair family")
    x0, y0 = read(cfg, "x0", "numbers"), read(cfg, "y0", "numbers")
    for key, start in (("x0", x0), ("y0", y0)):
        if start.shape != (coeffs_x.n,):
            raise ConfigError(f"{key}: expected {coeffs_x.n} numbers, got shape {start.shape}")
    dom = cfgmod.domain_from_config(cfg, coeffs_x.n, seed)
    scen = read_section(cfg, "scenario", _SCENARIO_KEYS)
    horizon = read(scen, "scenario.T", "positive")
    n_steps = read(scen, "scenario.n_steps", "count")
    n_paths = read(scen, "scenario.n_paths", "count")
    # an invalid scenario is a config error before any search runs
    controls = cfgmod.controls_from_config(
        read(scen, "scenario.controls", "object", {}), theta, n_steps, seed)
    n = coeffs_x.n
    chunk, batch = lockstep_shape(len(controls), n_paths, 2 * n)
    _refuse_beyond_memory(8 * chunk * (n_steps * theta.dim + 2 * batch * n),
                          f"one chunk of noise ({n_steps} steps, {chunk} paths, d = {theta.dim}) "
                          f"and the minimum gaps of {batch} controls x {chunk} paths x {n} "
                          "components")
    tol_path = read(read_section(cfg, "tolerances", _TOLERANCE_KEYS, {}), "tolerances.pathwise",
                    "number", 1e-8 * (1.0 + float(np.linalg.norm(y0))))

    counterexample_mode = bool(np.any(x0 > y0))
    if counterexample_mode:
        warnings.warn("x0 <= y0 fails; running in counterexample mode", stacklevel=2)

    reports = {name: run_check(name, coeffs_x, coeffs_y, theta, dom) for name in ("B1", "B2")}
    results = {"counterexample_mode": counterexample_mode}
    if coeffs_x.lipschitz > 0:  # declared constant: spot-audited, warning only
        results["lipschitz_audit"] = {
            "declared": coeffs_x.lipschitz,
            "worst_sampled_quotient": lipschitz_audit(coeffs_x, dom.box, seed=seed),
        }
    if violated := _hypotheses("verify-comparison", cfg, results, reports, []):
        return violated

    def march(times, dw, batch, s=None):
        """X and Y in lockstep, reduced to their first minimum gap; or system s
        alone, storing no states."""
        if s is not None:
            return euler_march((coeffs_x, coeffs_y)[s], (x0, y0)[s], times, dw, batch[0], theta,
                               observe=lambda m, x: None)
        gaps = MinGapObserver()
        euler_march((coeffs_x, coeffs_y), (x0, y0), times, dw, batch, theta, observe=gaps)
        return gaps.result(times)

    found = []  # (gap, control, global path, component, t) of each batch's first witness

    def merge(ctrl, paths, result):
        # of equal gaps the lowest control, then path, comes first in the
        # (control, path, level, component) scan order
        gap, (j, path, comp, t_at) = result
        found.append((gap, ctrl.start + j, paths.start + path, comp, t_at))

    march_chunks(controls, n_paths, march, merge, width=2 * n,
                 noise=(seed, horizon, n_steps, theta.dim), systems=2)
    min_gap, j, path, comp, t_at = min(found)
    results.update(ensemble={"n_controls": len(controls), "n_paths": n_paths,
                             "n_steps": n_steps, "T": horizon},
                   min_gap=min_gap, tol_path=tol_path,
                   witness={"control": controls[j].label, "control_index": j,
                            "path_index": path, "component": comp, "t": t_at})
    return _verdict("verify-comparison", cfg, results,
                    counterexample_mode or not min_gap < -tol_path)


def run_counterexample_remark(cfg: dict) -> tuple[dict, int]:
    """Reversed-inequality pair: ordering fails under the lowest volatility.

    Builds dX_2 = mid dt against dY_2 = d<B>_t with mid strictly between the
    variance endpoints, runs the constant lowest-volatility scenario, and
    reports the deterministic positive gap X_2 - Y_2 = (mid - lower) t
    together with the violated ordering hypothesis.
    """
    seed = read(cfg, "seed", "seed")
    # the remark's default theta and domain stand unless the config sets its own
    theta = cfgmod.theta_from_config({"theta": {"interval": [0.5, 1.0]}, **cfg})
    if theta.dim != 1:
        raise ConfigError("counterexample-remark expects a one-dimensional theta")
    lower, upper = theta.sigma_lower_sq, theta.sigma_upper_sq
    if not lower < upper:
        raise ConfigError(
            "degenerate theta (lower == upper): no counterexample exists there")
    coeffs_x, coeffs_y = remark_counterexample_pair(lower, upper)
    scen = read_section(cfg, "scenario", _SCENARIO_KEYS, {})
    horizon = read(scen, "scenario.T", "positive", 1.0)
    n_steps = read(scen, "scenario.n_steps", "count", 256)

    dw = noise_block(seed, horizon, n_steps, 1, 1)
    low_index = int(np.argmin(np.linalg.eigvalsh(theta.covariances).min(axis=-1)))
    control = VolatilityControl.constant(low_index, n_steps)
    times = np.linspace(0.0, horizon, n_steps + 1)
    xs, ys = euler_march((coeffs_x, coeffs_y), (np.zeros(2),) * 2, times, dw, control, theta)[:, 0]
    gap_path = xs[:, 1] - ys[:, 1]
    expected_rate = 0.5 * (upper + lower) - lower
    gap_at_horizon = float(gap_path[-1])

    dom = cfgmod.domain_from_config(
        {"domain": {"box": [[-1.0, 1.0], [-1.0, 1.0]]}, **cfg}, 2, seed)
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
    return _verdict("counterexample-remark", cfg, results, ok)


def run_verify_monotone(cfg: dict) -> tuple[dict, int]:
    """C1 + C2, then monotonicity of the semigroup on grid solutions."""
    seed = read(cfg, "seed", "seed")
    theta = cfgmod.theta_from_config(cfg)
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    dom = cfgmod.domain_from_config(cfg, coeffs.n, seed)
    grid = cfgmod.grid_from_config(cfg)
    functions = cfgmod.functions_from_config(cfg, coeffs.n)

    def checks(region):
        return {name: run_check(name, coeffs, None, theta, region) for name in ("C1", "C2")}

    results: dict = {}
    if violated := _hypotheses("verify-monotone", cfg, results, checks(dom), []):
        return violated

    def check(f):
        rep = monotonicity_check(solve(coeffs, theta, f, grid))
        return rep.nondecreasing, {
            "negative_control": not f.monotone,
            "nondecreasing": rep.nondecreasing,
            "min_forward_difference": rep.min_forward_difference,
            "witness": rep.witness,
            "tolerance": rep.tolerance,
        }

    return _per_function("verify-monotone", cfg, results, functions, check, checks, dom, grid)


def run_verify_order(cfg: dict) -> tuple[dict, int]:
    """D1 + D5 plus side conditions, then semigroup dominance on the grid."""
    seed = read(cfg, "seed", "seed")
    theta = cfgmod.theta_from_config(cfg)
    coeffs_x, coeffs_y = cfgmod.coefficients_from_config(cfg)
    if coeffs_y is None:
        raise ConfigError("verify-order needs coefficients_bar")
    dom = cfgmod.domain_from_config(cfg, coeffs_x.n, seed)
    grid = cfgmod.grid_from_config(cfg)
    functions = cfgmod.functions_from_config(cfg, coeffs_x.n)
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

    def checks(region):
        reports = {name: run_check(name, side, None, theta, region) for name in ("C1", "C2")}
        reports.update((name, run_check(name, coeffs_x, coeffs_y, theta, region))
                       for name in ("D1", "D5"))
        return reports

    side_conditions = [name for name, failed in (("uniform-positive-definiteness", beta <= 1e-10),
                                                 ("nondegeneracy", h3 <= 0.0)) if failed]
    if violated := _hypotheses("verify-order", cfg, results, checks(dom), side_conditions):
        return violated

    def check(f):
        rep = dominance_check(solve(coeffs_x, theta, f, grid), solve(coeffs_y, theta, f, grid))
        return rep.dominates, {
            "dominates": rep.dominates,
            "min_gap": rep.min_gap,
            "witness": rep.witness,
            "mode": rep.mode,
            "tolerance": rep.tolerance,
        }

    return _per_function("verify-order", cfg, results, functions, check, checks, dom, grid)


def run_generator_limit(cfg: dict) -> tuple[dict, int]:
    theta = cfgmod.theta_from_config(cfg)
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    f = _one_function(cfg, coeffs.n)
    x = read(read_section(cfg, "query", _QUERY_KEYS), "query.x", "numbers")
    t_list = read(cfg, "t_list", "numbers").tolist()
    grid = None if read(cfg, "grid", "object", None) is None else cfgmod.grid_from_config(cfg)
    csv_path = _output_path(cfg, "csv")

    rows = generator_limit_check(coeffs, theta, f, x, t_list, grid=grid)
    if csv_path:
        _write_csv(csv_path, ["t", "quotient", "generator_value", "residual"],
                   ((r.t, r.quotient, r.generator_value, r.residual) for r in rows))
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
    seed = read(cfg, "seed", "seed")
    theta = cfgmod.theta_from_config(cfg)
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    grid = cfgmod.grid_from_config(cfg)
    f = _one_function(cfg, coeffs.n)
    query = read_section(cfg, "query", _QUERY_KEYS)
    t_query = read(query, "query.t", "number")
    x_query = read(query, "query.x", "numbers")
    scen = read_section(cfg, "scenario", _SCENARIO_KEYS)
    horizon = read(scen, "scenario.T", "positive", t_query)
    if abs(horizon - t_query) > 1e-12:
        raise ConfigError(f"scenario.T: expected query.t ({t_query!r}), got {horizon!r}")
    n_steps = read(scen, "scenario.n_steps", "count")
    n_paths = read(scen, "scenario.n_paths", "count")
    if n_paths < 2:
        raise ConfigError(f"scenario.n_paths: expected at least 2 paths for a standard error, "
                          f"got {n_paths}")
    controls = cfgmod.controls_from_config(
        read(scen, "scenario.controls", "object", {}), theta, n_steps, seed)
    chunk, _ = lockstep_shape(len(controls), n_paths, theta.dim)
    _refuse_beyond_memory(8 * (len(controls) * n_paths + n_steps * chunk * theta.dim),
                          f"the values of {len(controls)} controls x {n_paths} paths "
                          "and one chunk of noise")
    # the default tolerance depends on the Monte Carlo standard error
    tolerances = read_section(cfg, "tolerances", _TOLERANCE_KEYS, {})
    tolerance = (read(tolerances, "tolerances.crosscheck", "number")
                 if "crosscheck" in tolerances else None)

    sol = solve(coeffs, theta, f, grid, keep={grid.level(t_query)})
    pde_value = semigroup_value(sol, t_query, x_query)

    functional = SDETerminalFunctional(coeffs, f, x_query, theta)
    mc_value, mc_se, best = estimate_sublinear_expectation(
        functional, theta, controls, n_paths, seed, horizon, n_steps)

    if tolerance is None:
        tolerance = max(2e-2, 3.0 * mc_se)
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
    return _verdict("feynman-crosscheck", cfg, results, ok)


def run_checks(cfg: dict) -> tuple[dict, int]:
    """Run named condition checks; exit 0 satisfied, 1 violated, 2 error."""
    seed = read(cfg, "seed", "seed")
    theta = cfgmod.theta_from_config(cfg)
    coeffs_x, coeffs_y = cfgmod.coefficients_from_config(cfg)
    # a key that is null is absent; an empty list is refused, not read as absent
    key = "conditions" if cfg.get("conditions") is not None else "condition"
    if cfg.get(key) is None:
        raise ConfigError("check: provide 'condition' or 'conditions'")
    names = cfg[key] if key == "conditions" else [cfg[key]]
    if not (isinstance(names, list) and names and all(isinstance(name, str) for name in names)):
        kind = "a list of condition names" if key == "conditions" else "a condition name"
        raise ConfigError(f"{key}: expected {kind}, got {cfg[key]!r}")
    dom = cfgmod.domain_from_config(cfg, coeffs_x.n, seed)
    reports = {name: run_check(name, coeffs_x, coeffs_y, theta, dom).to_dict() for name in names}
    violated = any(rep["verdict"] == "violated" for rep in reports.values())
    code, status = (1, "violated") if violated else (0, "ok")
    return _report("check", cfg, {"checks": reports}, status, code), code


def run_solve(cfg: dict) -> tuple[dict, int]:
    theta = cfgmod.theta_from_config(cfg)
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    grid = cfgmod.grid_from_config(cfg)
    f = _one_function(cfg, coeffs.n)
    stride = read(read_section(cfg, "output", _OUTPUT_KEYS, {}), "output.csv_stride", "count",
                  max(1, grid.n_levels // 100))
    query = read_section(cfg, "query", _QUERY_KEYS, None)
    if query is not None:
        t_query = read(query, "query.t", "number", grid.horizon)
        x_query = read(query, "query.x", "numbers")
    csv_path = _output_path(cfg, "csv")
    dump_path = _output_path(cfg, "dump")
    # the levels that the exports and the query read: every level for a dump
    csv_levels = range(0, grid.n_levels + 1, stride) if csv_path else range(0)
    query_levels = [] if query is None else [grid.level(t_query)]
    sol = solve(coeffs, theta, f, grid, keep=None if dump_path else {*csv_levels, *query_levels})
    if csv_path:
        nodes = grid.nodes().reshape(-1, grid.n)
        _write_csv(csv_path, ["t", *(f"x_{i + 1}" for i in range(grid.n)), "u"],
                   ((level * grid.dt, *node, value) for level in csv_levels
                    for node, value in zip(nodes, sol.level_values(level).reshape(-1))))
    if dump_path:
        export_grid_dump(sol, dump_path)
    results = {
        "function": f.name,
        "trust_bounds": sol.trust_bounds.tolist(),
        "scheme": sol.scheme,
        "csv": csv_path,
        "dump": dump_path,
    }
    if query is not None:
        results["query"] = {"t": t_query, "x": x_query.tolist(),
                            "value": semigroup_value(sol, t_query, x_query)}
    return _report("solve-pde", cfg, results, "ok", EXIT_OK), EXIT_OK


def run_simulate(cfg: dict) -> tuple[dict, int]:
    """Integrate one system on one scenario and export the path as CSV."""
    seed = read(cfg, "seed", "seed")
    theta = cfgmod.theta_from_config(cfg)
    coeffs, _ = cfgmod.coefficients_from_config(cfg)
    scen = read_section(cfg, "scenario", _SCENARIO_KEYS)
    horizon = read(scen, "scenario.T", "positive")
    n_steps = read(scen, "scenario.n_steps", "count")
    x0 = read(cfg, "x0", "numbers")
    where = "scenario.control"
    control_cfg = read_section(scen, where, _CONTROL_KEYS, {"policy": "constant", "index": 0})

    def generator(key: str, default: int) -> int:
        index = read(control_cfg, f"{where}.{key}", "integer", default)
        if not 0 <= index < theta.n_generators:
            raise ConfigError(f"{where}.{key}: expected a generator index in "
                              f"0..{theta.n_generators - 1}, got {index}")
        return index

    policy = control_cfg.get("policy", "constant")
    if policy == "constant":
        control = VolatilityControl.constant(generator("index", 0), n_steps)
    elif policy == "random-switching":
        switch_seed = read(control_cfg, f"{where}.seed", "seed", seed)
        control = VolatilityControl.random_switching(theta.n_generators, n_steps, switch_seed)
    elif policy == "bang-bang-cycle":
        period = read(control_cfg, f"{where}.period", "count", n_steps)
        control = VolatilityControl.bang_bang_cycle(
            generator("lo", 0), generator("hi", theta.n_generators - 1), n_steps, period)
    elif policy == "explicit":
        schedule = read(control_cfg, f"{where}.schedule", "integers")
        if len(schedule) != n_steps or not all(0 <= i < theta.n_generators for i in schedule):
            raise ConfigError(f"{where}.schedule: expected {n_steps} generator indices in "
                              f"0..{theta.n_generators - 1}, got {schedule}")
        control = VolatilityControl(schedule)
    else:
        raise ConfigError(f"scenario.control.policy: unknown policy {policy!r}")

    path_index = read(scen, "scenario.path_index", "integer", 0)
    if path_index < 0:
        raise ConfigError(
            f"scenario.path_index: expected a non-negative integer, got {path_index}")
    csv_path = _output_path(cfg, "csv")
    dw = noise_block(seed, horizon, n_steps, theta.dim, 1, first=path_index)
    times = np.linspace(0.0, horizon, n_steps + 1)
    states = euler_march(coeffs, x0, times, dw, control, theta)[0]
    if csv_path:
        _write_csv(csv_path, ["t", *(f"X_{i + 1}" for i in range(coeffs.n))],
                   ((t, *state) for t, state in zip(times, states)))
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


# raised error -> (status, exit code); the first row that matches wins
_ERRORS = (
    (EvaluationError, "evaluation-error", EXIT_CONFIG),
    ((NonFiniteError, StabilityError), "numerical-error", EXIT_NUMERICAL),
    (GDiffusionError, "config-error", EXIT_CONFIG),
)


def dispatch(name: str, cfg: dict) -> tuple[dict, int]:
    """Run one experiment, mapping raised errors to reports and exit codes."""
    runner = EXPERIMENTS[name]
    path = None
    try:
        path = _output_path(cfg, "report")
        report, code = runner(cfg)
    except GDiffusionError as exc:
        status, code = next((status, code) for kind, status, code in _ERRORS
                            if isinstance(exc, kind))
        report = _report(name, cfg, {"error": str(exc)}, status, code)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    return report, code
