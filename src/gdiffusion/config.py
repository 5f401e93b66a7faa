"""Experiment configuration: one JSON document per run, flat sections.

Sections (all optional unless an experiment requires them):

    seed            integer default seed
    theta           {"interval": [lo_sq, hi_sq]} or {"generators": [...]}
    coefficients    coefficient section (see gdiffusion.coefficients)
    coefficients_bar  second system for pairwise experiments
    pair_family     {"family": "remark-counterexample"} builds both systems
    x0, y0          initial states
    scenario        {"T", "n_steps", "n_paths", "controls": {...}}
    domain          {"box", "t_grid", "n_samples", "n_refine", "seed"}
    grid            {"bounds", "counts", "T", "n_levels"}
    functions       [{"expr", "monotone", "name"}, ...]
    query           {"t", "x"}
    t_list          times for the generator limit table
    condition(s)    names for the check subcommand
    monotone_side   "bar" (default) or "x": the system whose C1/C2 hypotheses
                    verify-order checks; any other value is a config error
    tolerances      {"pathwise", "crosscheck"}
    output          {"dir", "report", "csv", "dump", "csv_stride"}

Validation reports the first offending key by dotted path.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .coefficients import build_coefficients, remark_counterexample_pair
from .conditions import SearchDomain
from .errors import ConfigError
from .expressions import parse_expression
from .functions import TestFunction
from .gfunction import CovarianceSet
from .pde import Grid
from .scenario import VolatilityControl
from .sde import CoefficientSet

SEED_ENV_VAR = "GDIFFUSION_SEED"


def load_config(path: str | None, overrides: list[str] | None = None,
                seed_flag: int | None = None) -> dict:
    """Read the document, apply --set overrides, and resolve the seed.

    Seed precedence: --seed flag, then the environment default, then the
    config value, then 0.
    """
    if path is None:
        cfg = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_dotted(cfg, key.strip(), value)
    if seed_flag is not None:
        cfg["seed"] = int(seed_flag)
    elif SEED_ENV_VAR in os.environ:
        try:
            cfg["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    elif "seed" not in cfg:
        cfg["seed"] = 0
    return cfg


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-object value")
    node[parts[-1]] = value


def require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {getattr(kind, '__name__', kind)}, "
                          f"got {type(value).__name__}")
    return value


def get_section(parent: dict, key: str, where: str | None = None,
                default: dict | None = None) -> dict:
    """parent[key], an object; ``default`` (or {}) when it is absent or null.
    Any other value is a ConfigError naming ``where`` (default: key)."""
    value = parent.get(key)
    if value is None:
        return {} if default is None else default
    if not isinstance(value, dict):
        raise ConfigError(f"{where or key}: expected an object, got {type(value).__name__}")
    return value


_float_array = functools.partial(np.asarray, dtype=float)


def _convert(value, convert, key: str):
    """convert(value), or a ConfigError naming the dotted key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} ({exc})") from exc


def seed_from_config(value, key: str) -> int:
    """A seed as numpy's SeedSequence takes it: a non-negative integer."""
    seed = _convert(value, int, key)
    if seed != value or seed < 0:
        raise ConfigError(f"{key}: expected a non-negative integer seed, got {value!r}")
    return seed


def theta_from_config(section) -> CovarianceSet:
    if not isinstance(section, dict):
        raise ConfigError("theta: expected an object")
    if "interval" in section:
        interval = section["interval"]
        if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
            raise ConfigError("theta.interval: expected [lo_sq, hi_sq]")
        lo, hi = _convert(interval, lambda v: [float(c) for c in v], "theta.interval")
        return CovarianceSet.from_interval(lo, hi)
    if "generators" in section:
        gens = _convert(section["generators"], lambda v: tuple(map(_float_array, v)),
                        "theta.generators")
        return CovarianceSet(generators=gens)
    raise ConfigError("theta: expected 'interval' or 'generators'")


def coefficients_from_config(cfg: dict) -> tuple[CoefficientSet, CoefficientSet | None]:
    """The system (and optionally the barred system) named by the config."""
    pair = cfg.get("pair_family")
    if pair is not None:
        family = pair.get("family") if isinstance(pair, dict) else None
        if family == "remark-counterexample":
            theta = theta_from_config(require(cfg, "theta", dict))
            return remark_counterexample_pair(theta.sigma_lower_sq, theta.sigma_upper_sq)
        raise ConfigError(f"pair_family: unknown family {family!r}")
    try:
        main = build_coefficients(require(cfg, "coefficients", dict))
    except ConfigError as exc:
        raise ConfigError(f"coefficients: {exc}") from exc
    bar = None
    if cfg.get("coefficients_bar") is not None:
        try:
            bar = build_coefficients(cfg["coefficients_bar"])
        except ConfigError as exc:
            raise ConfigError(f"coefficients_bar: {exc}") from exc
    return main, bar


def domain_from_config(section, n: int, default_seed: int) -> SearchDomain:
    if not isinstance(section, dict):
        raise ConfigError("domain: expected an object")
    box = _convert(require(section, "box", list), _float_array, "domain.box")
    if box.shape != (n, 2):
        raise ConfigError(f"domain.box: expected {n} rows of [lo, hi]")
    return SearchDomain(
        box=box,
        t_grid=_convert(section.get("t_grid", [0.0]), lambda v: tuple(map(float, v)),
                        "domain.t_grid"),
        n_samples=_convert(section.get("n_samples", 512), int, "domain.n_samples"),
        n_refine=_convert(section.get("n_refine", 8), int, "domain.n_refine"),
        seed=seed_from_config(section.get("seed", default_seed), "domain.seed"),
    )


def grid_from_config(section) -> Grid:
    if not isinstance(section, dict):
        raise ConfigError("grid: expected an object")
    bounds = _convert(require(section, "bounds", list), _float_array, "grid.bounds")
    counts = _convert(require(section, "counts", list), lambda v: [int(c) for c in v],
                      "grid.counts")
    horizon = _convert(require(section, "T"), float, "grid.T")
    n_levels = _convert(require(section, "n_levels"), int, "grid.n_levels")
    return Grid.regular(bounds, counts, horizon, n_levels)


def functions_from_config(section, dim: int) -> list[TestFunction]:
    if not isinstance(section, list) or not section:
        raise ConfigError("functions: expected a nonempty list")
    out = []
    for idx, item in enumerate(section):
        if not isinstance(item, dict) or "expr" not in item:
            raise ConfigError(f"functions[{idx}]: expected an object with 'expr'")
        text = item["expr"]
        if not isinstance(text, str):
            raise ConfigError(f"functions[{idx}].expr: expected a string, "
                              f"got {type(text).__name__}")
        text = text[5:] if text.startswith("expr:") else text
        expr = parse_expression(text, dim)
        name = item.get("name", f"f{idx}")
        out.append(TestFunction(
            f=lambda x, expr=expr: expr(0.0, x),
            dim=dim,
            monotone=bool(item.get("monotone", False)),
            name=name,
        ))
    return out


def controls_from_config(section, theta: CovarianceSet, n_steps: int,
                         default_seed: int) -> list[VolatilityControl]:
    controls: list[VolatilityControl] = []
    if section.get("constants", True):
        controls.extend(VolatilityControl.constant(m, n_steps)
                        for m in range(theta.n_generators))
    k = _convert(section.get("random_switching", 64), int, "scenario.controls.random_switching")
    seed = seed_from_config(section.get("seed", default_seed), "scenario.controls.seed")
    for j in range(k):
        controls.append(VolatilityControl.random_switching(
            theta.n_generators, n_steps, seed * 1000003 + j))
    if section.get("bang_bang", False) and theta.n_generators >= 2:
        controls.append(VolatilityControl.bang_bang_cycle(0, theta.n_generators - 1, n_steps))
    if not controls:
        raise ConfigError("scenario.controls: the control family is empty")
    return controls
