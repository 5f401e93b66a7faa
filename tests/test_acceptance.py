"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines interleaved with the pytest output.
"""

import json
import time

import numpy as np
import pytest

from gdiffusion.coefficients import build_coefficients, shifted
from gdiffusion.conditions import SearchDomain, re_evaluate, run_check
from gdiffusion.experiments import dispatch, report_json
from gdiffusion.functions import TestFunction
from gdiffusion.gfunction import CovarianceSet, eval_G, nondegeneracy_bound
from gdiffusion.generator import eval_generator, generator_limit_check
from gdiffusion.pde import Grid, dominance_check, monotonicity_check, solve
from gdiffusion.sde import CoefficientSet


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- shared experiment configs (criteria 2, 4, 8 feed criterion 10) --------

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

ORDER_CONFIG = {
    "seed": 6,
    "experiment": "verify-order",
    "theta": {"interval": [0.25, 1.0]},
    "coefficients": {"n": 1, "d": 1,
                     "sigma": {"family": "constant", "matrix": [[1.0]]},
                     "label": "unit"},
    "coefficients_bar": {"n": 1, "d": 1,
                         "b": ["expr:0 - 0.5"],
                         "sigma": {"family": "constant", "matrix": [[1.0]]},
                         "label": "lowered"},
    "domain": {"box": [[-2.0, 2.0]], "n_samples": 64, "n_refine": 6, "seed": 13},
    "grid": {"bounds": [[-6.0, 6.0]], "counts": [241], "T": 0.5, "n_levels": 406},
    "functions": [{"expr": "tanh(x_1)", "monotone": True, "name": "tanh"}],
    "monotone_side": "bar",
}


def fresh(cfg):
    return json.loads(json.dumps(cfg))


@pytest.fixture(scope="module")
def comparison_run():
    start = time.monotonic()
    report, code = dispatch("verify-comparison", fresh(COMPARISON_CONFIG))
    return report, code, time.monotonic() - start


@pytest.fixture(scope="module")
def feynman_run():
    start = time.monotonic()
    report, code = dispatch("feynman-crosscheck", fresh(FEYNMAN_CONFIG))
    return report, code, time.monotonic() - start


@pytest.fixture(scope="module")
def order_run():
    start = time.monotonic()
    report, code = dispatch("verify-order", fresh(ORDER_CONFIG))
    return report, code, time.monotonic() - start


def test_criterion_01_g_function_axioms():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    thetas = {d: CovarianceSet(generators=tuple(rng.uniform(-2, 2, size=(5, d, d))))
              for d in (1, 2, 3)}
    worst = 0.0
    for trial in range(1000):
        d = (trial % 3) + 1
        theta = thetas[d]
        a = rng.uniform(-5, 5, size=(d, d))
        b = rng.uniform(-5, 5, size=(d, d))
        lam = rng.uniform(0.0, 3.0)
        ga, gb = eval_G(a, theta), eval_G(b, theta)
        # sub-additivity
        worst = max(worst, eval_G(a + b, theta) - (ga + gb))
        # positive homogeneity
        worst = max(worst, abs(eval_G(lam * a, theta) - lam * ga))
        # monotonicity in the semidefinite order
        c = rng.uniform(-1, 1, size=(d, d))
        upper = b + c @ c.T
        gu = eval_G(upper, theta)
        worst = max(worst, gb - gu)
        # certified lower bound on the G increment
        bound = nondegeneracy_bound(theta)
        worst = max(worst, bound * np.trace(upper - b) - (gu - gb))
    elapsed = time.monotonic() - start
    announce(1, worst <= 1e-10 and elapsed < 5.0,
             f"G axioms on 1000 matrices: worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_pathwise_comparison(comparison_run):
    report, code, elapsed = comparison_run
    res = report["results"]
    ok = (code == 0
          and res["checks"]["B1"]["verdict"] == "satisfied-on-domain"
          and res["checks"]["B2"]["verdict"] == "satisfied-on-domain"
          and res["ensemble"]["n_controls"] == 200
          and res["ensemble"]["n_paths"] == 500
          and res["ensemble"]["n_steps"] == 200
          and res["min_gap"] >= -1e-8
          and elapsed < 120.0)
    announce(2, ok, f"coupled ordering: min gap {res['min_gap']:.3e} over "
                    f"200x500x200 ensemble, {elapsed:.1f}s")


def test_criterion_03_remark_counterexample():
    cfg = {"seed": 0, "theta": {"interval": [0.5, 1.0]},
           "scenario": {"T": 1.0, "n_steps": 256}}
    start = time.monotonic()
    report, code = dispatch("counterexample-remark", fresh(cfg))
    elapsed = time.monotonic() - start
    res = report["results"]
    ok = (code == 0
          and res["gap_at_horizon"] == 0.25  # exact: dyadic step, exact covariances
          and res["gap_is_linear_in_t"]
          and res["b1_check"]["verdict"] == "violated"
          and elapsed < 1.0)
    announce(3, ok, f"reversed-inequality pair: gap {res['gap_at_horizon']} == 0.25 "
                    f"exactly, ordering hypothesis violated, {elapsed:.2f}s")


def test_criterion_04_feynman_kac_crosscheck(feynman_run):
    report, code, elapsed = feynman_run
    res = report["results"]
    ok = (code == 0
          and abs(res["pde_value"] - 0.5) <= 2e-3
          and res["pde_value"] >= res["mc_value"] - 3.0 * res["mc_std_error"]
          and abs(res["difference"]) <= max(2e-2, 3.0 * res["mc_std_error"])
          and elapsed < 30.0)
    announce(4, ok, f"PDE {res['pde_value']:.5f} vs closed form 0.5 and MC sup "
                    f"{res['mc_value']:.5f} (se {res['mc_std_error']:.1e}), {elapsed:.1f}s")


def test_criterion_05_classical_reduction():
    start = time.monotonic()
    theta = CovarianceSet(generators=(np.array([[1.0]]),))
    coeffs = build_coefficients({"n": 1, "d": 1,
                                 "sigma": {"family": "constant", "matrix": [[1.0]]}})
    f = TestFunction(f=lambda x: x[..., 0] ** 2, dim=1, name="square")
    grid = Grid.regular([[-4.0, 4.0]], [401], horizon=0.5, n_levels=2500)
    sol = solve(coeffs, theta, f, grid)
    sl = sol.trust_slices()
    ax = grid.axes[0][sl[0]]
    err = float(np.max(np.abs(sol.u[-1][sl[0]] - (ax ** 2 + 0.5))))
    elapsed = time.monotonic() - start
    announce(5, err <= 1e-3 and elapsed < 10.0,
             f"heat-equation case: max |u - (x^2 + t)| = {err:.2e} on trust region, "
             f"{elapsed:.1f}s")


def test_criterion_06_generator_limit():
    theta = CovarianceSet.from_interval(0.25, 1.0)
    coeffs = build_coefficients({"n": 1, "d": 1,
                                 "sigma": {"family": "constant", "matrix": [[1.0]]}})
    f = TestFunction(f=lambda x: x[..., 0] ** 2, dim=1,
                     grad=lambda x: np.array([2.0 * x[0]]),
                     hess=lambda x: np.array([[2.0]]), name="square")
    lf = eval_generator(coeffs, theta, f, [0.0])
    rows = generator_limit_check(coeffs, theta, f, [0.0],
                                 [0.2, 0.1, 0.05, 0.025, 0.0125])
    residuals = [r.residual for r in sorted(rows, key=lambda r: -r.t)]
    shrinking = all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))
    ok = (abs(lf - 1.0) <= 1e-12 and shrinking and residuals[-1] <= 5e-2)
    announce(6, ok, f"generator value {lf}, quotient residuals "
                    f"{['%.1e' % r for r in residuals]} shrink to {residuals[-1]:.1e}")


def test_criterion_07_monotonicity():
    theta = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
    coeffs = build_coefficients({
        "n": 2, "d": 2,
        "b": {"family": "arctan-coupling"},
        "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]},
    })
    dom = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), n_samples=128,
                       n_refine=6, seed=21)
    rep_c1 = run_check("C1", coeffs, None, theta, dom)
    rep_c2 = run_check("C2", coeffs, None, theta, dom)
    grid = Grid.regular([[-4.0, 4.0], [-4.0, 4.0]], [81, 81], horizon=0.3, n_levels=128)
    monotone_funcs = [
        TestFunction(f=lambda x: np.tanh(x[..., 0] + x[..., 1]), dim=2, monotone=True,
                     name="tanh-sum"),
        TestFunction(f=lambda x: 0.4 * x[..., 0] + 0.6 * x[..., 1], dim=2, monotone=True,
                     name="affine"),
        TestFunction(f=lambda x: np.tanh(x[..., 0]) + 0.5 * np.tanh(x[..., 1]), dim=2,
                     monotone=True, name="tanh-split"),
    ]
    worst = np.inf
    for f in monotone_funcs:
        rep = monotonicity_check(solve(coeffs, theta, f, grid))
        worst = min(worst, rep.min_forward_difference)
    negative = monotonicity_check(solve(
        coeffs, theta, TestFunction(f=lambda x: x[..., 0] ** 2, dim=2, name="sq"), grid))
    ok = (rep_c1.verdict == "satisfied-on-domain"
          and rep_c2.verdict == "satisfied-on-domain"
          and worst >= -1e-8
          and not negative.nondecreasing)
    announce(7, ok, f"monotone semigroup: C1/C2 hold, min forward difference {worst:.2e} "
                    f"over 3 monotone functions; x_1^2 control fails as required")


def test_criterion_08_order_preservation(order_run):
    report, code, elapsed = order_run
    res = report["results"]
    entry = res["functions"][0]
    start = time.monotonic()
    reversed_report, reversed_code = dispatch(
        "verify-order",
        {**fresh(ORDER_CONFIG), "coefficients_bar": {
            "n": 1, "d": 1, "b": ["expr:0.5"],
            "sigma": {"family": "constant", "matrix": [[1.0]]},
            "label": "raised"}},
    )
    elapsed_rev = time.monotonic() - start
    # the reversed pair violates the ordering hypothesis, with a witness; the
    # grid solutions themselves also lose dominance
    theta = CovarianceSet.from_interval(0.25, 1.0)
    upper = build_coefficients(fresh(ORDER_CONFIG)["coefficients"])
    raised = CoefficientSet(n=1, d=1, b=shifted(None, 0.5), sigma=upper.sigma)
    f = TestFunction(f=lambda x: np.tanh(x[..., 0]), dim=1, monotone=True, name="tanh")
    grid = Grid.regular([[-6.0, 6.0]], [241], horizon=0.5, n_levels=406)
    failed_dom = dominance_check(solve(upper, theta, f, grid),
                                 solve(raised, theta, f, grid))
    ok = (code == 0 and entry["dominates"] and entry["min_gap"] >= -entry["tolerance"]
          and reversed_code == 3
          and "D5" in reversed_report["results"]["violated"]
          and reversed_report["results"]["checks"]["D5"]["witness"]["K"]
          and not failed_dom.dominates and failed_dom.witness["t"] > 0
          and elapsed < 60.0 and elapsed_rev < 60.0)
    announce(8, ok, f"dominance holds for the lowered pair (min gap {entry['min_gap']:.2e}); "
                    f"reversed pair refuted (D5 witness + grid gap {failed_dom.min_gap:.2e}); "
                    f"{elapsed:.1f}s / {elapsed_rev:.1f}s")


def test_criterion_09_checker_truth_table():
    theta = CovarianceSet.from_interval(0.25, 1.0)
    theta2 = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
    dom2 = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), n_samples=96,
                        n_refine=6, seed=31)
    dom1 = SearchDomain(box=np.array([[-2.0, 2.0]]), n_samples=64, n_refine=4, seed=32)

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

    # condition -> (satisfied instance, violated instance); each entry is
    # (cX, cY, theta, domain)
    table = {
        "B1": ((offdiag, offdiag_up, theta, dom2), (offdiag_up, offdiag, theta, dom2)),
        "B2": ((offdiag, offdiag, theta, dom2), (cross_sigma, cross_sigma, theta, dom2)),
        "C1": ((diag2, None, theta2, dom2), (cross_sigma, None, theta, dom2)),
        "C2": ((offdiag, None, theta, dom2), (bad_drift, None, theta, dom2)),
        "C2'": ((offdiag, None, theta, dom2), (bad_drift, None, theta, dom2)),
        "D1": ((diag2, diag2_lowered, theta2, dom2), (diag2, scaled_sigma, theta2, dom2)),
        "D2'": ((diag2, diag2_lowered, theta2, dom2), (diag2, diag2_raised, theta2, dom2)),
        "D5": ((diag2, diag2_lowered, theta2, dom2), (diag2, diag2_raised, theta2, dom2)),
    }
    failures = []
    for name, (good, bad) in table.items():
        rep_good = run_check(name, good[0], good[1], good[2], good[3])
        rep_bad = run_check(name, bad[0], bad[1], bad[2], bad[3])
        if rep_good.verdict != "satisfied-on-domain":
            failures.append(f"{name}: expected satisfied, got {rep_good.max_violation}")
        if rep_bad.verdict != "violated":
            failures.append(f"{name}: expected violated")
        again = re_evaluate(rep_bad, bad[0], bad[1], bad[2])
        if abs(again - rep_bad.max_violation) > 1e-12:
            failures.append(f"{name}: witness drift {again} vs {rep_bad.max_violation}")
    announce(9, not failures,
             "truth table over B1,B2,C1,C2,C2',D1,D2',D5 with reproducible witnesses"
             + ("" if not failures else f": {failures}"))


def test_criterion_10_determinism(comparison_run, feynman_run, order_run):
    reruns = {
        "verify-comparison": (COMPARISON_CONFIG, comparison_run[0]),
        "feynman-crosscheck": (FEYNMAN_CONFIG, feynman_run[0]),
        "verify-order": (ORDER_CONFIG, order_run[0]),
    }
    mismatches = []
    for name, (cfg, first_report) in reruns.items():
        second_report, _ = dispatch(name, fresh(cfg))
        a = dict(first_report)
        b = dict(second_report)
        a.pop("timestamp")
        b.pop("timestamp")
        if report_json(a).encode() != report_json(b).encode():
            mismatches.append(name)
    announce(10, not mismatches,
             "criteria 2, 4, 8 reports byte-identical on re-run (timestamp excluded)"
             + ("" if not mismatches else f": mismatches in {mismatches}"))
