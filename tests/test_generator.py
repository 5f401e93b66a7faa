import numpy as np
import pytest

from gdiffusion.coefficients import build_coefficients
from gdiffusion.functions import TestFunction
from gdiffusion.errors import ConfigError
from gdiffusion.gfunction import CovarianceSet
from gdiffusion.generator import (
    derivatives,
    eval_generator,
    generator_limit_check,
    generator_matrix,
)
from gdiffusion.sde import CoefficientSet

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)
UNIT_DIFF_1D = build_coefficients(
    {"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}})

SQUARE = TestFunction(f=lambda x: x[..., 0] ** 2, dim=1,
                      grad=lambda x: np.array([2.0 * x[0]]),
                      hess=lambda x: np.array([[2.0]]), name="square")


def test_monotone_audit_rejects_false_declaration():
    with pytest.raises(ConfigError, match="monotone"):
        TestFunction(f=lambda x: -x[..., 0], dim=1, monotone=True, name="bad")


def test_drift_only_generator():
    coeffs = build_coefficients({"n": 2, "d": 1, "b": {"family": "constant-drift", "c": [3.0, -1.0]}})
    f = TestFunction(f=lambda x: x[..., 0], dim=2, name="coord1")
    assert eval_generator(coeffs, INTERVAL, f, [0.4, -0.7]) == pytest.approx(3.0, abs=1e-9)


def test_square_generator_hits_g_values():
    assert eval_generator(UNIT_DIFF_1D, INTERVAL, SQUARE, [0.0]) == pytest.approx(1.0, abs=1e-12)
    neg = TestFunction(f=lambda x: -x[..., 0] ** 2, dim=1, name="neg-square")
    assert eval_generator(UNIT_DIFF_1D, INTERVAL, neg, [0.0]) == pytest.approx(-0.25, abs=1e-8)


def test_fd_matches_analytic_within_square_step():
    # With analytic derivatives supplied the FD route agrees to C * step^2.
    cubicish = TestFunction(
        f=lambda x: x[..., 0] ** 3 + np.tanh(x[..., 1]),
        dim=2,
        grad=lambda x: np.array([3.0 * x[0] ** 2, 1.0 / np.cosh(x[1]) ** 2]),
        hess=lambda x: np.array([[6.0 * x[0], 0.0],
                                 [0.0, -2.0 * np.tanh(x[1]) / np.cosh(x[1]) ** 2]]),
        name="mixed")
    coeffs = build_coefficients({
        "n": 2, "d": 2,
        "b": {"family": "arctan-coupling"},
        "sigma": {"family": "diag-sigma", "values": [1.0, 0.5]},
    })
    theta = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
    x = np.array([0.7, -0.3])
    step = 1e-4 * (1.0 + np.linalg.norm(x))
    exact = eval_generator(coeffs, theta, cubicish, x)
    fd_only = TestFunction(f=cubicish.f, dim=2, name="mixed-fd")
    approx = eval_generator(coeffs, theta, fd_only, x)
    assert abs(exact - approx) <= 50.0 * (1.0 + abs(exact)) * step ** 2


def test_sublinearity_and_homogeneity_of_generator():
    coeffs = UNIT_DIFF_1D
    rng = np.random.default_rng(5)
    for _ in range(20):
        a1, a2, c1, c2 = rng.uniform(-2, 2, 4)
        f = TestFunction(f=lambda x: a1 * x[..., 0] ** 2 + c1 * x[..., 0], dim=1,
                         grad=lambda x: np.array([2 * a1 * x[0] + c1]),
                         hess=lambda x: np.array([[2 * a1]]), name="q1")
        g = TestFunction(f=lambda x: a2 * x[..., 0] ** 2 + c2 * x[..., 0], dim=1,
                         grad=lambda x: np.array([2 * a2 * x[0] + c2]),
                         hess=lambda x: np.array([[2 * a2]]), name="q2")
        fg = TestFunction(f=lambda x: f.f(x) + g.f(x), dim=1,
                          grad=lambda x: f.grad(x) + g.grad(x),
                          hess=lambda x: f.hess(x) + g.hess(x), name="q1+q2")
        x = rng.uniform(-1, 1, 1)
        lf, lg = eval_generator(coeffs, INTERVAL, f, x), eval_generator(coeffs, INTERVAL, g, x)
        assert eval_generator(coeffs, INTERVAL, fg, x) <= lf + lg + 1e-10
        lam = rng.uniform(0, 2)
        scaled = TestFunction(f=lambda x: lam * f.f(x), dim=1,
                              grad=lambda x: lam * f.grad(x),
                              hess=lambda x: lam * f.hess(x), name="lam*q1")
        assert eval_generator(coeffs, INTERVAL, scaled, x) == pytest.approx(
            lam * lf, abs=1e-10)


def test_singleton_theta_generator_is_additive():
    singleton = CovarianceSet.from_interval(1.0, 1.0)
    f = SQUARE
    g = TestFunction(f=lambda x: -3.0 * x[..., 0] ** 2, dim=1,
                     grad=lambda x: np.array([-6.0 * x[0]]),
                     hess=lambda x: np.array([[-6.0]]), name="neg3")
    fg = TestFunction(f=lambda x: f.f(x) + g.f(x), dim=1,
                      grad=lambda x: f.grad(x) + g.grad(x),
                      hess=lambda x: f.hess(x) + g.hess(x), name="sum")
    x = [0.3]
    assert eval_generator(UNIT_DIFF_1D, singleton, fg, x) == pytest.approx(
        eval_generator(UNIT_DIFF_1D, singleton, f, x)
        + eval_generator(UNIT_DIFF_1D, singleton, g, x), abs=1e-10)


def generator_matrix_coordinate_form(coeffs: CoefficientSet, t: float, x,
                                     grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Reference for generator_matrix, assembled entrywise from coordinates:
    sum_i (h_lk + h_kl)_i d_i f + sum_{i,j} sigma_il sigma_jk d2_ij f."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = coeffs.d
    s = coeffs.sigma_matrix(t, x)  # (n, d)
    m = np.empty((d, d))
    for l in range(d):
        for k in range(d):
            h_sym = coeffs.eval_h(l, k, t, x) + coeffs.eval_h(k, l, t, x)
            first = sum(h_sym[i] * grad[i] for i in range(coeffs.n))
            second = sum(s[i, l] * s[j, k] * hess[i, j]
                         for i in range(coeffs.n) for j in range(coeffs.n))
            m[l, k] = first + second
    return (m + m.T) / 2.0


def test_matrix_assemblies_agree():
    rng = np.random.default_rng(11)
    coeffs = build_coefficients({
        "n": 2, "d": 2,
        "b": {"family": "arctan-coupling"},
        "sigma": {"family": "diag-sigma", "values": ["expr:1 + 0.25*tanh(x_1)", 0.75]},
        "h": [[["expr:0.1*tanh(x_1)", 0.0], None], [None, [0.0, "expr:0.2*x_2"]]],
    })
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        grad = rng.uniform(-1, 1, 2)
        hess_raw = rng.uniform(-1, 1, (2, 2))
        hess = (hess_raw + hess_raw.T) / 2
        a = generator_matrix(coeffs, 0.0, x, grad, hess)
        b = generator_matrix_coordinate_form(coeffs, 0.0, x, grad, hess)
        assert np.allclose(a, b, atol=1e-12)


def test_limit_check_martingale_and_drift():
    zero = CoefficientSet(n=1, d=1, sigma=lambda t, x: np.ones(x.shape + (1,)))
    ident = TestFunction(f=lambda x: x[..., 0], dim=1,
                         grad=lambda x: np.array([1.0]),
                         hess=lambda x: np.array([[0.0]]), monotone=True, name="id")
    rows = generator_limit_check(zero, INTERVAL, ident, [0.0], [0.2, 0.1, 0.05])
    for row in rows:
        assert row.generator_value == pytest.approx(0.0, abs=1e-12)
        assert abs(row.quotient) < 1e-8

    drifted = CoefficientSet(n=1, d=1, b=lambda t, x: np.ones(x.shape),
                             sigma=lambda t, x: np.ones(x.shape + (1,)))
    rows = generator_limit_check(drifted, INTERVAL, ident, [0.0], [0.2, 0.1, 0.05])
    for row in rows:
        assert row.generator_value == pytest.approx(1.0, abs=1e-12)
        assert row.quotient == pytest.approx(1.0, abs=1e-6)


def test_limit_check_square_converges_to_g():
    t_list = [0.2, 0.1, 0.05, 0.025, 0.0125]
    rows = generator_limit_check(UNIT_DIFF_1D, INTERVAL, SQUARE, [0.0], t_list)
    assert rows[0].generator_value == pytest.approx(1.0, abs=1e-12)
    residuals = [row.residual for row in sorted(rows, key=lambda r: -r.t)]
    assert residuals[-1] <= 5e-2
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-9


def test_limit_check_rejects_bad_method_and_times():
    from gdiffusion.errors import NonFiniteError

    with pytest.raises(NonFiniteError):
        generator_limit_check(UNIT_DIFF_1D, INTERVAL, SQUARE, [0.0], [])
    with pytest.raises(NonFiniteError):
        generator_limit_check(UNIT_DIFF_1D, INTERVAL, SQUARE, [0.0], [0.1, 0.0])
