"""Spans at the package's module boundaries, recorded from outside the package.

``install(tracer)`` wraps the public functions of each measured module and
binds each wrapper wherever the package calls it: the package imports by
name, so ``experiments.euler_march`` and ``sde.euler_march`` are separate
bindings of one function and both are replaced.  Nothing under ``src/`` is
edited; the wrappers live only in the traced process.

Coarse calls (dispatch, checks, marches, noise blocks, PDE solves) are kept as
individual spans: name, start, end, parent span id and run id.  The per-point
hot calls (``gfunction.eval_G``, ``sde.coeff_eval``, ``expressions`` and
``conditions.residual``) would be millions of spans, so they are kept as
per-(name, parent) aggregates instead.  Self time is a call's duration minus
the time its wrapped children cover; it is exact for both kinds.

``generator`` is not wrapped: no workload calls it, and its heavy work goes
through ``pde.solve`` and ``sde.euler_march``.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import gdiffusion
from gdiffusion import conditions, experiments, generator, gfunction, pde, scenario, sde
from gdiffusion.expressions import Expression
from gdiffusion.sde import CoefficientSet

AGGREGATED = ("gfunction.eval_G", "sde.coeff_eval", "expressions", "conditions.residual")

# Every module that may hold a binding of a wrapped function.
_MODULES = (gdiffusion, conditions, experiments, generator, gfunction, pde, scenario, sde)


class Tracer:
    """Stack-based span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)  # outermost calls of a name only
        self.counts = defaultdict(int)         # computed from argument/result shapes
        self.spans = []
        self.aggregates = {}                   # (name, parent name) -> [calls, total_s, self_s]
        self._stack = []                       # frames [name, child_s, span id]

    def wrap(self, name: str, func, on_result=None):
        stack = self._stack
        aggregated = name in AGGREGATED

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None if aggregated else len(self.spans)]
            if not aggregated:
                self.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(frame, parent, start, end)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _record(self, frame, parent, start: float, end: float) -> None:
        name, child_s, span_id = frame
        duration = end - start
        own = duration - child_s
        if parent is not None:
            parent[1] += duration
        self.calls[name] += 1
        self.self_s[name] += own
        if all(f[0] != name for f in self._stack):
            self.inclusive_s[name] += duration
        parent_name = parent[0] if parent is not None else None
        if span_id is None:
            agg = self.aggregates.setdefault((name, parent_name), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        else:
            self.spans[span_id] = {"id": span_id, "name": name, "start": start, "end": end,
                                   "parent": parent[2] if parent is not None else None,
                                   "run": self.run_id}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [{"name": n, "parent": p, "calls": v[0], "total_s": v[1],
                            "self_s": v[2], "run": self.run_id}
                           for (n, p), v in sorted(self.aggregates.items(), key=str)],
        }


def _count_draws(counts, block) -> None:
    counts["scenario.noise_block.draws"] += block.size


def _count_path_steps(counts, states) -> None:
    counts["sde.euler_march.path_steps"] += \
        math.prod(states.shape[:-2]) * (states.shape[-2] - 1)


def _count_samples(counts, report) -> None:
    counts["conditions.samples_evaluated"] += report.samples_evaluated


def _count_solution(counts, sol) -> None:
    nodes = math.prod(sol.u.shape[1:])
    counts["pde.node_levels"] += nodes * (sol.u.shape[0] - 1)
    counts["pde.stored_bytes"] += sol.u.nbytes + sol.argmax_index.nbytes
    counts["pde.nodes"] += nodes
    counts["pde.trusted_nodes"] += math.prod(s.stop - s.start for s in sol.trust_slices())


# (span name, home module, function name, counter)
_FUNCTIONS = (
    ("gfunction.eval_G", gfunction, "eval_G", None),
    ("scenario.noise_block", scenario, "noise_block", _count_draws),
    ("scenario.apply_control", scenario, "apply_control", None),
    ("scenario.estimate_sublinear_expectation", scenario,
     "estimate_sublinear_expectation", None),
    ("sde.euler_march", sde, "euler_march", _count_path_steps),
    ("conditions.run_check", conditions, "run_check", _count_samples),
    ("conditions.residual", conditions, "pair_residual", None),
    ("conditions.residual", conditions, "direction_residual", None),
    ("conditions.residual", conditions, "dependency_violation", None),
    ("pde.solve", pde, "solve", _count_solution),
    ("pde.stability_bound", pde, "stability_bound", None),
    ("pde.check", pde, "monotonicity_check", None),
    ("pde.check", pde, "dominance_check", None),
    ("pde.check", pde, "semigroup_value", None),
    ("experiments.dispatch", experiments, "dispatch", None),
)

# sde.coeff_eval also counts the eval_sigma calls that sigma_matrix makes.
_METHODS = (
    ("sde.coeff_eval", CoefficientSet, ("eval_b", "eval_h", "eval_sigma", "sigma_matrix")),
    ("expressions", Expression, ("__call__",)),
)


def install(tracer: Tracer) -> None:
    """Replace every binding of the measured functions and methods by a wrapper."""
    for name, home, attr, counter in _FUNCTIONS:
        original = getattr(home, attr)
        traced = tracer.wrap(name, original, counter)
        for module in _MODULES:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
    for name, cls, attrs in _METHODS:
        for attr in attrs:
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))


# Span names each workload must call; a metric fed by one of them that
# records no call is reported as missing (null), never as 0.
EXPECTED = {
    "comparison": {"experiments.dispatch", "conditions.run_check", "conditions.residual",
                   "gfunction.eval_G", "scenario.noise_block", "scenario.apply_control",
                   "sde.euler_march", "sde.coeff_eval", "expressions"},
    "crosscheck": {"experiments.dispatch", "scenario.noise_block", "scenario.apply_control",
                   "scenario.estimate_sublinear_expectation", "sde.euler_march",
                   "sde.coeff_eval", "expressions", "pde.solve", "pde.stability_bound",
                   "pde.check"},
    "checker": {"conditions.run_check", "conditions.residual", "gfunction.eval_G",
                "sde.coeff_eval", "expressions"},
    "pde-2d": {"pde.solve", "pde.stability_bound", "pde.check", "sde.coeff_eval"},
}


def _rate(count, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _residual_evals(t: Tracer) -> int:
    return sum(v[0] for (name, parent), v in t.aggregates.items()
               if name == "conditions.residual" and parent == "conditions.run_check")


# metric name -> (unit, span name that feeds it, value from a Tracer)
METRICS = {
    "gfunction.eval_G.calls": ("count", "gfunction.eval_G",
                               lambda t: t.calls["gfunction.eval_G"]),
    "gfunction.eval_G.self_s": ("s", "gfunction.eval_G",
                                lambda t: t.self_s["gfunction.eval_G"]),
    "scenario.noise_block.draws": ("count", "scenario.noise_block",
                                   lambda t: t.counts["scenario.noise_block.draws"]),
    "scenario.noise_block.self_s": ("s", "scenario.noise_block",
                                    lambda t: t.self_s["scenario.noise_block"]),
    "scenario.noise_block.draws_per_s": (
        "1/s", "scenario.noise_block",
        lambda t: _rate(t.counts["scenario.noise_block.draws"],
                        t.inclusive_s["scenario.noise_block"])),
    "scenario.apply_control.calls": ("count", "scenario.apply_control",
                                     lambda t: t.calls["scenario.apply_control"]),
    "scenario.apply_control.self_s": ("s", "scenario.apply_control",
                                      lambda t: t.self_s["scenario.apply_control"]),
    "scenario.estimate_sublinear_expectation.self_s": (
        "s", "scenario.estimate_sublinear_expectation",
        lambda t: t.self_s["scenario.estimate_sublinear_expectation"]),
    "sde.euler_march.calls": ("count", "sde.euler_march",
                              lambda t: t.calls["sde.euler_march"]),
    "sde.euler_march.path_steps": ("count", "sde.euler_march",
                                   lambda t: t.counts["sde.euler_march.path_steps"]),
    "sde.euler_march.self_s": ("s", "sde.euler_march",
                               lambda t: t.self_s["sde.euler_march"]),
    "sde.euler_march.path_steps_per_s": (
        "1/s", "sde.euler_march",
        lambda t: _rate(t.counts["sde.euler_march.path_steps"],
                        t.inclusive_s["sde.euler_march"])),
    "sde.coeff_eval.calls": ("count", "sde.coeff_eval", lambda t: t.calls["sde.coeff_eval"]),
    "sde.coeff_eval.self_s": ("s", "sde.coeff_eval", lambda t: t.self_s["sde.coeff_eval"]),
    "expressions.calls": ("count", "expressions", lambda t: t.calls["expressions"]),
    "expressions.self_s": ("s", "expressions", lambda t: t.self_s["expressions"]),
    "conditions.run_check.calls": ("count", "conditions.run_check",
                                   lambda t: t.calls["conditions.run_check"]),
    "conditions.run_check.s": ("s", "conditions.run_check",
                               lambda t: t.inclusive_s["conditions.run_check"]),
    "conditions.run_check.self_s": ("s", "conditions.run_check",
                                    lambda t: t.self_s["conditions.run_check"]),
    "conditions.residual_evals": ("count", "conditions.residual", _residual_evals),
    "conditions.residual_evals_per_s": (
        "1/s", "conditions.residual",
        lambda t: _rate(_residual_evals(t), t.inclusive_s["conditions.run_check"])),
    "conditions.samples_evaluated": ("count", "conditions.run_check",
                                     lambda t: t.counts["conditions.samples_evaluated"]),
    "pde.solve.calls": ("count", "pde.solve", lambda t: t.calls["pde.solve"]),
    "pde.solve.self_s": ("s", "pde.solve", lambda t: t.self_s["pde.solve"]),
    "pde.node_levels": ("count", "pde.solve", lambda t: t.counts["pde.node_levels"]),
    "pde.node_levels_per_s": ("1/s", "pde.solve",
                              lambda t: _rate(t.counts["pde.node_levels"],
                                              t.inclusive_s["pde.solve"])),
    "pde.stored_bytes": ("B", "pde.solve", lambda t: t.counts["pde.stored_bytes"]),
    "pde.trusted_node_share": ("ratio", "pde.solve",
                               lambda t: _rate(t.counts["pde.trusted_nodes"],
                                               t.counts["pde.nodes"])),
    "pde.stability_bound.self_s": ("s", "pde.stability_bound",
                                   lambda t: t.self_s["pde.stability_bound"]),
    "pde.check.self_s": ("s", "pde.check", lambda t: t.self_s["pde.check"]),
    "experiments.dispatch.s": ("s", "experiments.dispatch",
                               lambda t: t.inclusive_s["experiments.dispatch"]),
    "experiments.self_s": ("s", "experiments.dispatch",
                           lambda t: t.self_s["experiments.dispatch"]),
}


def layer_metrics(t: Tracer, workload: str) -> tuple[dict, list]:
    """Per-layer values, and the names of expected layers that recorded no call."""
    expected = EXPECTED[workload]
    missing = sorted(name for name in expected if t.calls[name] == 0)
    values = {}
    for metric, (unit, source, value) in METRICS.items():
        values[metric] = {"value": None if source in missing else value(t), "unit": unit}
    return values, missing
