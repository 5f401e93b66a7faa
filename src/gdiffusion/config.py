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

Every value is read by ``gdiffusion.errors.read``, under one set of rules:
an integer must be integral (a fraction, a boolean or a text is refused), a
number is never a boolean, a flag is JSON true or false, and a value that
is missing or cannot be read is a ConfigError that names its dotted key
(``grid.T: missing required key 'T'``).  So is a key that a section, a
coefficient section or a family mapping does not hold, so that a misspelt
key cannot run as its default.  A section given as {} is present and read.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .coefficients import build_coefficients, remark_counterexample_pair
from .conditions import SearchDomain
from .errors import (ConfigError, GDiffusionError, check_box, read, read_section,
                     refuse_unknown_keys)
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


def theta_from_config(cfg: dict) -> CovarianceSet:
    section = read_section(cfg, "theta", ("interval", "generators"))
    if "interval" in section:
        interval = read(section, "theta.interval", "numbers")
        if interval.shape != (2,):
            raise ConfigError("theta.interval: expected [lo_sq, hi_sq]")
        return CovarianceSet.from_interval(*interval.tolist())
    if "generators" in section:
        return CovarianceSet(generators=read(section, "theta.generators", "numbers"))
    raise ConfigError("theta: expected 'interval' or 'generators'")


def coefficients_from_config(cfg: dict) -> tuple[CoefficientSet, CoefficientSet | None]:
    """The system (and optionally the barred system) named by the config."""
    pair = read_section(cfg, "pair_family", ("family",), None)
    if pair is not None:
        if pair.get("family") == "remark-counterexample":
            theta = theta_from_config(cfg)
            return remark_counterexample_pair(theta.sigma_lower_sq, theta.sigma_upper_sq)
        raise ConfigError(f"pair_family: unknown family {pair.get('family')!r}")

    def build(key: str, section: dict) -> CoefficientSet:
        try:
            return build_coefficients(section)
        except GDiffusionError as exc:  # named by its section, of its own kind
            raise type(exc)(f"{key}: {exc}") from exc

    coeffs = build("coefficients", read(cfg, "coefficients", "object"))
    bar = read(cfg, "coefficients_bar", "object", None)
    return coeffs, None if bar is None else build("coefficients_bar", bar)


def domain_from_config(cfg: dict, n: int, default_seed: int) -> SearchDomain:
    section = read_section(cfg, "domain", ("box", "t_grid", "n_samples", "n_refine", "seed"))
    box = check_box(read(section, "domain.box", "numbers"), "domain.box", n=n)
    t_grid = read(section, "domain.t_grid", "numbers", [0.0])
    if t_grid.ndim != 1:
        raise ConfigError(f"domain.t_grid: expected a list of times, got {t_grid.tolist()}")
    if not t_grid.size or not np.all(np.isfinite(t_grid)):
        raise ConfigError(f"domain.t_grid: expected at least one finite time, got {t_grid.tolist()}")
    n_refine = read(section, "domain.n_refine", "integer", 8)
    if n_refine < 0:
        raise ConfigError(f"domain.n_refine: expected a non-negative integer, got {n_refine}")
    return SearchDomain(
        box=box,
        t_grid=tuple(t_grid.tolist()),
        n_samples=read(section, "domain.n_samples", "count", 512),
        n_refine=n_refine,
        seed=read(section, "domain.seed", "seed", default_seed),
    )


def grid_from_config(cfg: dict) -> Grid:
    section = read_section(cfg, "grid", ("bounds", "counts", "T", "n_levels"))
    return Grid(read(section, "grid.bounds", "numbers"), read(section, "grid.counts", "integers"),
                read(section, "grid.T", "number"), read(section, "grid.n_levels", "count"))


def functions_from_config(cfg: dict, dim: int) -> list[TestFunction]:
    section = read(cfg, "functions", "list")
    if not section:
        raise ConfigError("functions: expected a nonempty list")
    out = []
    for idx, item in enumerate(section):
        if not isinstance(item, dict) or "expr" not in item:
            raise ConfigError(f"functions[{idx}]: expected an object with 'expr'")
        refuse_unknown_keys(item, f"functions[{idx}].", ("expr", "name", "monotone"),
                            f"functions[{idx}]")
        text = item["expr"]
        if not isinstance(text, str):
            raise ConfigError(f"functions[{idx}].expr: expected a string, "
                              f"got {type(text).__name__}")
        expr = parse_expression(text.removeprefix("expr:"), dim)
        if expr.reads_t:
            raise ConfigError(f"functions[{idx}].expr: a test function is a function of x "
                              "alone, but reads t")
        name = item.get("name", f"f{idx}")
        out.append(TestFunction(
            f=lambda x, expr=expr: expr(0.0, x),
            dim=dim,
            monotone=read(item, f"functions[{idx}].monotone", "flag", False),
            name=name,
        ))
    return out


def controls_from_config(section, theta: CovarianceSet, n_steps: int,
                         default_seed: int) -> list[VolatilityControl]:
    refuse_unknown_keys(section, "scenario.controls.",
                        ("constants", "random_switching", "seed", "bang_bang"), "scenario.controls")
    controls: list[VolatilityControl] = []
    if read(section, "scenario.controls.constants", "flag", True):
        controls.extend(VolatilityControl.constant(m, n_steps)
                        for m in range(theta.n_generators))
    k = read(section, "scenario.controls.random_switching", "integer", 64)
    if k < 0:
        raise ConfigError(f"scenario.controls.random_switching: expected a non-negative integer, "
                          f"got {k}")
    seed = read(section, "scenario.controls.seed", "seed", default_seed)
    for j in range(k):
        controls.append(VolatilityControl.random_switching(
            theta.n_generators, n_steps, seed * 1000003 + j))
    if read(section, "scenario.controls.bang_bang", "flag", False) and theta.n_generators >= 2:
        controls.append(VolatilityControl.bang_bang_cycle(0, theta.n_generators - 1, n_steps))
    if not controls:
        raise ConfigError("scenario.controls: the control family is empty")
    return controls
