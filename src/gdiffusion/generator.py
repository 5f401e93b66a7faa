"""The nonlinear infinitesimal generator and its small-time semigroup limit.

For a smooth test function f,

    Lf(x) = <grad f(x), b(x)>
            + G([ <grad f, h_lk + h_kl> + <hess f sigma_l, sigma_k> ]_{l,k})

which is also the limit of (E_t f(x) - f(x)) / t as t -> 0+.  Derivatives
come from the function's analytic callables when present, otherwise from
Richardson-extrapolated central differences.  The semigroup values for the
limit check are produced by the worst-case PDE solver: the bias of a Monte
Carlo supremum over controls would be divided by small t in the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .functions import TestFunction
from .gfunction import CovarianceSet, eval_G
from .pde import (Grid, _rate_table, coefficient_fields, semigroup_value, solve,
                  stability_bound, trust_margin)
from .sde import CoefficientSet


def _fd_gradient(f: TestFunction, x: np.ndarray, step: float) -> np.ndarray:
    n = x.size
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        out[i] = (f.value(x + step * e) - f.value(x - step * e)) / (2.0 * step)
    return out


def _fd_hessian(f: TestFunction, x: np.ndarray, step: float) -> np.ndarray:
    n = x.size
    out = np.empty((n, n))
    fx = f.value(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[i, i] = (f.value(x + ei) - 2.0 * fx + f.value(x - ei)) / step ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            out[i, j] = out[j, i] = (
                f.value(x + ei + ej) - f.value(x + ei - ej)
                - f.value(x - ei + ej) + f.value(x - ei - ej)
            ) / (4.0 * step ** 2)
    return out


def _richardson(eval_at, step: float):
    """(4 A(h/2) - A(h)) / 3: one extrapolation of an O(h^2) approximation."""
    return (4.0 * eval_at(step / 2.0) - eval_at(step)) / 3.0


def derivatives(f: TestFunction, x) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian, analytic when supplied, else extrapolated FD."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    step = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    if f.grad is not None:
        grad = np.asarray(f.grad(x), dtype=float)
    else:
        grad = _richardson(lambda h: _fd_gradient(f, x, h), step)
    if f.hess is not None:
        hess = np.asarray(f.hess(x), dtype=float)
    else:
        hess = _richardson(lambda h: _fd_hessian(f, x, h), step)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise NonFiniteError(f"non-finite derivative estimate at x={x.tolist()}")
    return grad, (hess + hess.T) / 2.0


def generator_matrix(coeffs: CoefficientSet, t: float, x, grad: np.ndarray,
                     hess: np.ndarray) -> np.ndarray:
    """The d x d argument of G: <grad, h_lk + h_kl> + <hess sigma_l, sigma_k>."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h, s = coeffs.h_table(t, x), coeffs.sigma_matrix(t, x)
    m = (h + np.swapaxes(h, 0, 1)) @ grad + s.T @ hess @ s
    return (m + m.T) / 2.0


def eval_generator(coeffs: CoefficientSet, theta: CovarianceSet, f: TestFunction,
                   x, t: float = 0.0) -> float:
    """Lf(x) = <grad f, b> + G(generator matrix)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    grad, hess = derivatives(f, x)
    m = generator_matrix(coeffs, t, x, grad, hess)
    drift = float(grad @ coeffs.eval_b(t, x))
    return drift + eval_G(m, theta)


@dataclass(frozen=True)
class LimitRow:
    t: float
    quotient: float
    generator_value: float

    @property
    def residual(self) -> float:
        return abs(self.quotient - self.generator_value)


def generator_limit_check(coeffs: CoefficientSet, theta: CovarianceSet,
                          f: TestFunction, x, t_list, grid: Grid | None = None
                          ) -> list[LimitRow]:
    """Table of ((E_t f(x) - f(x)) / t, Lf(x)) for each t in t_list.

    E_t comes from one PDE solve up to max(t_list); the residual is
    expected to shrink as t decreases.  When no grid is given, a box around
    x wide enough to keep the trust region clear of the queries is used,
    with the time step snapped to divide every queried t.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t_list = sorted(float(t) for t in t_list)
    if not t_list or t_list[0] <= 0:
        raise NonFiniteError("t_list must contain positive times")
    if not np.all(np.isfinite(t_list)):
        raise NonFiniteError(f"t_list must contain finite times, got {t_list}")
    lf = eval_generator(coeffs, theta, f, x)
    fx = float(f.value(x))

    if grid is None:
        grid = _default_limit_grid(coeffs, theta, x, t_list)
    for t in t_list:
        grid.level(t)
    sol = solve(coeffs, theta, f, grid)
    rows = []
    for t in t_list:
        quotient = (semigroup_value(sol, t, x) - fx) / t
        rows.append(LimitRow(t=t, quotient=quotient, generator_value=lf))
    return rows


def _gcd_float(values, quantum: float = 1e-9) -> float:
    ints = [int(round(v / quantum)) for v in values]
    g = ints[0]
    for v in ints[1:]:
        g = np.gcd(g, v)
    return g * quantum


def _default_limit_grid(coeffs: CoefficientSet, theta: CovarianceSet,
                        x: np.ndarray, t_list) -> Grid:
    t_max = max(t_list)
    n = coeffs.n
    # half-width: the solver's trust margin over a probe box around x, plus room
    probe = Grid(np.column_stack([x - 1.0, x + 1.0]), [9] * n, horizon=t_max, n_levels=16)
    fields = coefficient_fields(coeffs, theta, 0.0, probe.nodes())
    half = trust_margin(theta, fields, t_max) + 1.0
    bounds = np.column_stack([x - half, x + half])
    counts = [321] * n if n == 1 else [81] * n
    grid0 = Grid(bounds, counts, horizon=t_max, n_levels=16)
    fields = coefficient_fields(coeffs, theta, 0.0, grid0.nodes())
    dt_stable = stability_bound(_rate_table(fields, grid0)[1])
    # snap dt to divide every queried time so quotients use exact levels
    dt = _gcd_float(t_list)
    while dt > dt_stable:
        dt /= 2.0
    n_levels = int(round(t_max / dt))
    return Grid(bounds, counts, horizon=t_max, n_levels=n_levels)
