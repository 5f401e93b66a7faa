"""feynman-crosscheck on two-dimensional systems: the cross stencil, matrix
uncertainty and the drift meet the Monte Carlo route under the experiment's
own tolerance."""

import json

import pytest

from gdiffusion.experiments import dispatch

# d = 2, sigma = I, two generators gamma with Sigma = gamma gamma^T:
# diag(0.25, 1) and [[1, 0.3], [0.3, 0.34]]
MATRIX_UNCERTAINTY = {
    "theta": {"generators": [[[0.5, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.3, 0.5]]]},
    "coefficients": {"n": 2, "d": 2,
                     "sigma": {"family": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
}
# d = 1, sigma = (1, 1): a_00 = a_11 = a_01, so every axis rate of the
# seven-point stencil is exactly 0 on a square grid
RANK_ONE_DRIFT = {
    "theta": {"interval": [0.25, 1.0]},
    "coefficients": {"n": 2, "d": 1,
                     "b": {"family": "linear-drift", "A": [[-0.5, 0.2], [0.1, -0.3]]},
                     "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]}},
}

# name -> (system, f, closed form of E_T f(0) or None)
ROWS = {
    "matrix (x1 + x2)^2": (MATRIX_UNCERTAINTY, "(x_1 + x_2)^2", 0.5 * 1.94),
    "matrix x1 x2": (MATRIX_UNCERTAINTY, "x_1 * x_2", 0.5 * 0.3),
    "drift (x1 + x2)^2": (RANK_ONE_DRIFT, "(x_1 + x_2)^2", None),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_two_dimensional_crosscheck_agrees_with_monte_carlo(row):
    system, expr, closed_form = ROWS[row]
    cfg = {
        "seed": 424242,
        **json.loads(json.dumps(system)),
        "grid": {"bounds": [[-6.0, 6.0], [-6.0, 6.0]], "counts": [81, 81], "T": 0.5,
                 "n_levels": 400},
        "functions": [{"expr": expr}],
        "query": {"t": 0.5, "x": [0.0, 0.0]},
        "scenario": {"T": 0.5, "n_steps": 100, "n_paths": 20000,
                     "controls": {"constants": True, "random_switching": 16, "seed": 9}},
    }
    report, code = dispatch("feynman-crosscheck", cfg)
    results = report["results"]
    assert (code, report["status"], results["n_controls"]) == (0, "ok", 18), results
    if closed_form is not None:
        # E_T f(0) = T max_g <Sigma_g, D2f> / 2 for a quadratic f; the scheme is exact on it
        assert results["pde_value"] == pytest.approx(closed_form, rel=1e-12)
