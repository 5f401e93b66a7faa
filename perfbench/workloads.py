"""The four benchmark workloads: inputs from a seed, the timed call, the checks.

Each workload is a class with three steps, run by ``child.py`` in a fresh
process:

* ``__init__(seed)`` builds every input (configs, coefficient sets with their
  parsed expressions, search domains, grids).  It is part of ``setup_s``.
* ``run()`` makes the calls into the package that ``wall_s`` times.
* ``check(out)`` returns ``[(check name, passed), ...]``, ``checks_per_run``
  of them, and ``report(out)`` returns the JSON-able report whose bytes must
  not depend on tracing.

The package is always reached through module attributes looked up at call
time (``conditions.run_check``, ``pde.solve``), so the tracing wrappers that
``tracing.install`` binds in those modules see every call.

The default seed reproduces the acceptance configs of ``tests/test_acceptance``
exactly (``test_perfbench.py`` guards against drift); any other seed replaces
the random seeds of the inputs and nothing else.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from gdiffusion import conditions, experiments, pde
from gdiffusion.coefficients import build_coefficients, shifted
from gdiffusion.conditions import SearchDomain
from gdiffusion.functions import TestFunction
from gdiffusion.gfunction import CovarianceSet
from gdiffusion.sde import CoefficientSet

DEFAULT_SEED = 0

# Copies of tests/test_acceptance.py COMPARISON_CONFIG and FEYNMAN_CONFIG.
COMPARISON_CONFIG = {
    "seed": 20240601,
    "experiment": "verify-comparison",
    "theta": {"interval": [0.25, 1.0]},
    "coefficients": {
        "n": 2, "d": 1,
        "b": {"family": "offdiag-monotone"},
        "sigma": {"family": "per-coordinate",
                  "entries": [["expr:0.8 + 0.2*tanh(x_1)", "expr:0.8 + 0.2*tanh(x_1)"]]},
        "lipschitz": 1.0,
        "label": "offdiag-monotone",
    },
    "coefficients_bar": {
        "n": 2, "d": 1,
        "b": ["expr:x_2 + 0.1", "expr:x_1 + 0.1"],
        "sigma": {"family": "per-coordinate",
                  "entries": [["expr:0.8 + 0.2*tanh(x_1)", "expr:0.8 + 0.2*tanh(x_1)"]]},
        "label": "offdiag-monotone-raised",
    },
    "x0": [-0.1, -0.1],
    "y0": [0.0, 0.0],
    "domain": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "n_samples": 256, "n_refine": 8,
               "seed": 7},
    "scenario": {"T": 1.0, "n_steps": 200, "n_paths": 500,
                 "controls": {"constants": True, "random_switching": 198, "seed": 3}},
}

FEYNMAN_CONFIG = {
    "seed": 424242,
    "experiment": "feynman-crosscheck",
    "theta": {"interval": [0.25, 1.0]},
    "coefficients": {"n": 1, "d": 1,
                     "sigma": {"family": "constant", "matrix": [[1.0]]},
                     "label": "unit-diffusion"},
    "grid": {"bounds": [[-4.0, 4.0]], "counts": [401], "T": 0.5, "n_levels": 2500},
    "functions": [{"expr": "x_1^2", "name": "square"}],
    "query": {"t": 0.5, "x": [0.0]},
    "scenario": {"T": 0.5, "n_steps": 100, "n_paths": 20000,
                 "controls": {"constants": True, "random_switching": 64, "seed": 9}},
}


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` input seeds drawn from the workload seed."""
    state = np.random.SeedSequence(abs(int(seed))).generate_state(count)
    return [int(s) for s in state]


def digest(report) -> str:
    text = json.dumps(report, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


class _Dispatched:
    """A workload that runs one experiment through ``experiments.dispatch``."""

    experiment = ""

    def __init__(self, seed: int):
        self.cfg = self.config(seed)

    @staticmethod
    def config(seed: int) -> dict:
        raise NotImplementedError

    def run(self):
        return experiments.dispatch(self.experiment, copy.deepcopy(self.cfg))

    def report(self, out) -> dict:
        report = dict(out[0])
        report.pop("timestamp")
        return report


class Comparison(_Dispatched):
    """verify-comparison on the criterion-2 config."""

    experiment = "verify-comparison"
    checks_per_run = 5

    @staticmethod
    def config(seed: int) -> dict:
        cfg = copy.deepcopy(COMPARISON_CONFIG)
        if seed != DEFAULT_SEED:
            cfg["seed"], cfg["domain"]["seed"], cfg["scenario"]["controls"]["seed"] = \
                derived_seeds(seed, 3)
        return cfg

    def check(self, out) -> list:
        report, code = out
        res = report["results"]
        ens = res.get("ensemble", {})
        checks = res.get("checks", {})
        return [
            ("exit-code-0", code == 0),
            ("B1-satisfied", checks.get("B1", {}).get("verdict") == "satisfied-on-domain"),
            ("B2-satisfied", checks.get("B2", {}).get("verdict") == "satisfied-on-domain"),
            ("ensemble-200x500x200",
             (ens.get("n_controls"), ens.get("n_paths"), ens.get("n_steps"))
             == (200, 500, 200)),
            ("min-gap", res.get("min_gap", -np.inf) >= -1e-8),
        ]


class Crosscheck(_Dispatched):
    """feynman-crosscheck on the criterion-4 config."""

    experiment = "feynman-crosscheck"
    checks_per_run = 4

    @staticmethod
    def config(seed: int) -> dict:
        cfg = copy.deepcopy(FEYNMAN_CONFIG)
        if seed != DEFAULT_SEED:
            cfg["seed"], cfg["scenario"]["controls"]["seed"] = derived_seeds(seed, 2)
        return cfg

    def check(self, out) -> list:
        report, code = out
        res = report["results"]
        if "pde_value" not in res:
            return [("exit-code-0", False), ("pde-closed-form", False),
                    ("pde-dominates-mc", False), ("difference", False)]
        se = res["mc_std_error"]
        return [
            ("exit-code-0", code == 0),
            ("pde-closed-form", abs(res["pde_value"] - 0.5) <= 2e-3),
            ("pde-dominates-mc", res["pde_value"] >= res["mc_value"] - 3.0 * se),
            ("difference", abs(res["difference"]) <= max(2e-2, 3.0 * se)),
        ]


def checker_table(seed: int) -> dict:
    """The criterion-9 truth table: condition -> (satisfied, violated) instances.

    Each instance is (cX, cY, theta, domain), built exactly as criterion 9
    builds it; only the search-domain seed follows the workload seed.
    """
    # Criterion 9 also builds a 1-D domain (seed 32) that its table never uses.
    seed2 = 31 if seed == DEFAULT_SEED else derived_seeds(seed, 1)[0]
    theta = CovarianceSet.from_interval(0.25, 1.0)
    theta2 = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
    dom2 = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), n_samples=96,
                        n_refine=6, seed=seed2)

    shared_sigma = {"family": "per-coordinate",
                    "entries": [["expr:0.8 + 0.2*tanh(x_1)", "expr:0.8 + 0.2*tanh(x_1)"]]}
    offdiag = build_coefficients({"n": 2, "d": 1, "b": {"family": "offdiag-monotone"},
                                  "sigma": shared_sigma})
    offdiag_up = build_coefficients({"n": 2, "d": 1,
                                     "b": ["expr:x_2 + 1", "expr:x_1 + 1"],
                                     "sigma": shared_sigma})
    bad_drift = build_coefficients({"n": 2, "d": 1, "b": ["expr:0 - x_2", "expr:0"],
                                    "sigma": shared_sigma})
    cross_sigma = build_coefficients({"n": 2, "d": 1,
                                      "sigma": [["expr:x_2", "expr:1"]]})
    diag2 = build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                                "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]}})
    diag2_lowered = CoefficientSet(n=2, d=2, b=shifted(diag2.b, -0.5), sigma=diag2.sigma)
    diag2_raised = CoefficientSet(n=2, d=2, b=shifted(diag2.b, 0.5), sigma=diag2.sigma)
    scaled_sigma = build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                                       "sigma": {"family": "diag-sigma",
                                                 "values": [2.0, 2.0]}})
    return {
        "B1": ((offdiag, offdiag_up, theta, dom2), (offdiag_up, offdiag, theta, dom2)),
        "B2": ((offdiag, offdiag, theta, dom2), (cross_sigma, cross_sigma, theta, dom2)),
        "C1": ((diag2, None, theta2, dom2), (cross_sigma, None, theta, dom2)),
        "C2": ((offdiag, None, theta, dom2), (bad_drift, None, theta, dom2)),
        "C2'": ((offdiag, None, theta, dom2), (bad_drift, None, theta, dom2)),
        "D1": ((diag2, diag2_lowered, theta2, dom2), (diag2, scaled_sigma, theta2, dom2)),
        "D2'": ((diag2, diag2_lowered, theta2, dom2), (diag2, diag2_raised, theta2, dom2)),
        "D5": ((diag2, diag2_lowered, theta2, dom2), (diag2, diag2_raised, theta2, dom2)),
    }


class Checker:
    """Criterion-9 truth table: 16 checks plus 8 witness re-evaluations."""

    checks_per_run = 24

    def __init__(self, seed: int):
        self.table = checker_table(seed)

    def run(self):
        out = {}
        for name, (good, bad) in self.table.items():
            rep_good = conditions.run_check(name, *good)
            rep_bad = conditions.run_check(name, *bad)
            again = conditions.re_evaluate(rep_bad, *bad[:3])
            out[name] = (rep_good, rep_bad, again)
        return out

    def check(self, out) -> list:
        checks = []
        for name, (rep_good, rep_bad, again) in out.items():
            checks.append((f"{name}-satisfied", rep_good.verdict == "satisfied-on-domain"))
            checks.append((f"{name}-violated", rep_bad.verdict == "violated"))
            checks.append((f"{name}-witness",
                           abs(again - rep_bad.max_violation) <= 1e-12))
        return checks

    def report(self, out) -> dict:
        return {name: {"satisfied": good.to_dict(), "violated": bad.to_dict(),
                       "re_evaluated": again}
                for name, (good, bad, again) in out.items()}


class Pde2d:
    """A 161x161 x 512-level solve of the criterion-7 problem, then its
    monotonicity check."""

    checks_per_run = 3

    def __init__(self, seed: int):
        self.coeffs = build_coefficients({
            "n": 2, "d": 2,
            "b": {"family": "arctan-coupling"},
            "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]},
        })
        self.theta = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
        self.f = TestFunction(f=lambda x: np.tanh(x[..., 0] + x[..., 1]), dim=2,
                              monotone=True, name="tanh-sum")
        self.grid = pde.Grid.regular([[-4.0, 4.0], [-4.0, 4.0]], [161, 161],
                                     horizon=0.3, n_levels=512)

    def run(self):
        sol = pde.solve(self.coeffs, self.theta, self.f, self.grid)
        return sol, pde.monotonicity_check(sol)

    def check(self, out) -> list:
        sol, mono = out
        initial, final = sol.u[0], sol.u[-1]
        return [
            ("solve-raises-nothing", True),
            ("nondecreasing", mono.nondecreasing),
            ("final-within-initial-range",
             bool(np.min(final) >= np.min(initial) - 1e-12
                  and np.max(final) <= np.max(initial) + 1e-12)),
        ]

    def report(self, out) -> dict:
        sol, mono = out
        return {"monotonicity": mono.to_dict(),
                "final_level_sha256": hashlib.sha256(sol.u[-1].tobytes()).hexdigest(),
                "trust_bounds": sol.trust_bounds.tolist()}


WORKLOADS = {
    "comparison": Comparison,
    "crosscheck": Crosscheck,
    "checker": Checker,
    "pde-2d": Pde2d,
}
