import itertools
import tracemalloc

import numpy as np
import pytest

from gdiffusion import pde
from gdiffusion.coefficients import build_coefficients, shifted
from gdiffusion.errors import GridError, NonFiniteError, StabilityError
from gdiffusion.experiments import dispatch
from gdiffusion.functions import TestFunction
from gdiffusion.gfunction import CovarianceSet, _first_max
from gdiffusion.pde import (
    DominanceReport,
    Grid,
    MonotonicityReport,
    PDESolution,
    _guard,
    _neighbours,
    _rate_table,
    coefficient_fields,
    dominance_check,
    export_grid_dump,
    monotonicity_check,
    read_grid_dump,
    semigroup_value,
    solve,
    stability_bound,
    trust_margin,
)
from gdiffusion.sde import CoefficientSet

UNIT = CovarianceSet.from_interval(1.0, 1.0)
INTERVAL = CovarianceSet.from_interval(0.25, 1.0)
THETA2 = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))

UNIT_DIFFUSION = build_coefficients(
    {"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}})
SQUARE = TestFunction(f=lambda x: x[..., 0] ** 2, dim=1, name="square")
IDENTITY = TestFunction(f=lambda x: x[..., 0], dim=1, monotone=True, name="identity")


def t0_bound(coeffs, theta, grid):
    """The stability bound of the t = 0 rate table, the one solve reports."""
    return stability_bound(
        _rate_table(coefficient_fields(coeffs, theta, 0.0, grid.nodes()), grid)[1])


def gauss_hermite_expectation(phi, x, t, order=80):
    """Independent oracle: E[phi(x + sqrt(t) Z)] by Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return float(np.sum(weights * phi(x + np.sqrt(2.0 * t) * nodes)) / np.sqrt(np.pi))


def test_grid_validation():
    with pytest.raises(GridError):
        Grid.regular([[-1, 1]], [2], 1.0, 10)
    with pytest.raises(GridError):
        Grid.regular([[-1, 1], [-1, 1], [-1, 1]], [5, 5, 5], 1.0, 10)
    with pytest.raises(GridError, match="grid.n_levels: expected a positive integer, got 0"):
        Grid(bounds=np.array([[-1.0, 1.0]]), counts=(5,), horizon=1.0, n_levels=0)
    grid = Grid(bounds=[[-1.0, 1.0]], counts=[5], horizon=1e-10, n_levels=3)
    assert (grid.horizon, grid.n_levels, grid.dt) == (1e-10, 3, 1e-10 / 3)


def test_stability_bound_refuses_large_dt():
    grid = Grid.regular([[-2, 2]], [41], horizon=0.5, n_levels=10)
    assert grid.dt > t0_bound(UNIT_DIFFUSION, UNIT, grid)
    with pytest.raises(StabilityError, match="stability bound"):
        solve(UNIT_DIFFUSION, UNIT, SQUARE, grid)


def test_linear_data_is_preserved():
    # Drift-free, loading-free: linear u has zero curvature, so du/dt = 0.
    grid = Grid.regular([[-2, 2]], [81], horizon=0.25, n_levels=250)
    sol = solve(UNIT_DIFFUSION, INTERVAL, IDENTITY, grid)
    sl = sol.trust_slices()
    exact = grid.axes[0][sl[0]]
    assert np.max(np.abs(sol.u[-1][sl[0]] - exact)) < 1e-10


def test_constant_data_is_preserved_exactly():
    grid = Grid.regular([[-2, 2]], [41], horizon=0.25, n_levels=300)
    const = TestFunction(f=lambda x: 3.25, dim=1, name="const")
    sol = solve(UNIT_DIFFUSION, INTERVAL, const, grid)
    assert np.all(sol.u == 3.25)


def test_classical_heat_equation_moment():
    # Singleton covariance: u(t, x) = x^2 + t.
    grid = Grid.regular([[-4, 4]], [401], horizon=0.5, n_levels=2500)
    sol = solve(UNIT_DIFFUSION, UNIT, SQUARE, grid)
    sl = sol.trust_slices()
    ax = grid.axes[0][sl[0]]
    err = np.abs(sol.u[-1][sl[0]] - (ax ** 2 + 0.5))
    assert err.max() <= 1e-3


def test_worst_case_variance_for_convex_data():
    # Convex data keeps the top covariance active: u(t, x) = x^2 + t * upper.
    grid = Grid.regular([[-4, 4]], [401], horizon=0.5, n_levels=2500)
    sol = solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid)
    assert semigroup_value(sol, 0.5, [0.0]) == pytest.approx(0.5, abs=2e-3)
    # worst-case generator is the high-variance one wherever curvature > 0
    sl = sol.trust_slices()
    assert np.all(sol.argmax_index[-1][sl[0]] == 1)


def test_concave_data_selects_lower_variance():
    neg_square = TestFunction(f=lambda x: -x[..., 0] ** 2, dim=1, name="neg-square")
    grid = Grid.regular([[-4, 4]], [201], horizon=0.25, n_levels=700)
    sol = solve(UNIT_DIFFUSION, INTERVAL, neg_square, grid)
    assert semigroup_value(sol, 0.25, [0.0]) == pytest.approx(-0.25 * 0.25, abs=2e-3)
    sl = sol.trust_slices()
    assert np.all(sol.argmax_index[-1][sl[0]] == 0)


def test_quartic_against_quadrature_oracle_and_grid_convergence():
    # Frozen from the Hermite oracle: E[(x + W_t)^4] at t = 0.25.
    oracle_0 = gauss_hermite_expectation(lambda y: y ** 4, 0.0, 0.25)
    oracle_1 = gauss_hermite_expectation(lambda y: y ** 4, 1.0, 0.25)
    assert oracle_0 == pytest.approx(0.1875, abs=1e-12)   # 3 t^2
    assert oracle_1 == pytest.approx(2.6875, abs=1e-12)   # x^4 + 6 x^2 t + 3 t^2
    quartic = TestFunction(f=lambda x: x[..., 0] ** 4, dim=1, name="quartic")
    errors = []
    for counts, levels in ((161, 800), (321, 3200)):
        grid = Grid.regular([[-4, 4]], [counts], horizon=0.25, n_levels=levels)
        sol = solve(UNIT_DIFFUSION, UNIT, quartic, grid)
        errors.append(max(
            abs(semigroup_value(sol, 0.25, [0.0]) - oracle_0),
            abs(semigroup_value(sol, 0.25, [1.0]) - oracle_1),
        ))
    assert errors[0] / errors[1] >= 1.5


def test_an_empty_trust_region_is_named_empty_with_its_margin():
    # b = 3, sigma = 0.3 on [-2, 2] for T = 1: the margin 0.9 + 3 = 3.9 exceeds
    # the half-width 2, so no point is trusted; the region was printed as
    # the inverted box [[1.9, -1.9]]
    coeffs = build_coefficients({"n": 1, "d": 1, "b": {"family": "constant-drift", "c": [3.0]},
                                 "sigma": {"family": "constant", "matrix": [[0.3]]}})
    grid = Grid.regular([[-2.0, 2.0]], [81], horizon=1.0, n_levels=400)
    sol = solve(coeffs, UNIT, IDENTITY, grid)
    message = ("trust region is empty: trust margin 3.9 against the box [[-2.0, 2.0]]; "
               "widen the box or shorten the horizon")
    for query in ([0.0], [1.9], [-1.9]):
        with pytest.raises(GridError) as err:
            semigroup_value(sol, 1.0, query)
        assert str(err.value) == message
    with pytest.raises(GridError) as err:
        sol.trust_slices()
    assert str(err.value) == message
    report, code = dispatch("solve-pde", {
        "theta": {"interval": [1.0, 1.0]},
        "coefficients": {"n": 1, "d": 1, "b": {"family": "constant-drift", "c": [3.0]},
                         "sigma": {"family": "constant", "matrix": [[0.3]]}},
        "grid": {"bounds": [[-2.0, 2.0]], "counts": [81], "T": 1.0, "n_levels": 400},
        "functions": [{"expr": "x_1", "name": "f"}], "query": {"x": [0.0]}})
    assert (report["status"], code, report["results"]["error"]) == ("config-error", 2, message)


def test_semigroup_value_queries():
    grid = Grid.regular([[-4, 4]], [161], horizon=0.25, n_levels=800)
    sol = solve(UNIT_DIFFUSION, UNIT, IDENTITY, grid)
    # node query returns the stored value
    idx = 80
    x_node = grid.axes[0][idx]
    assert semigroup_value(sol, 0.25, [x_node]) == sol.u[-1][idx]
    # midpoint of linear data is the exact average
    mid = 0.5 * (grid.axes[0][80] + grid.axes[0][81])
    expected = 0.5 * (sol.u[-1][80] + sol.u[-1][81])
    assert semigroup_value(sol, 0.25, [mid]) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(GridError):
        semigroup_value(sol, 0.25, [3.9])  # outside the trust region
    assert grid.axes[0][158] == pytest.approx(3.9) and sol.u[-1][158] == pytest.approx(3.9, abs=1e-6)
    with pytest.raises(GridError):
        semigroup_value(sol, 0.7, [0.0])


def two_branch_interpolation(grid, values, x):
    """The 1-D and 2-D formulas that the multilinear interpolation replaced."""
    idx0, weights = [], []
    for i in range(grid.n):
        pos = (x[i] - grid.bounds[i, 0]) / grid.dx[i]
        j = int(np.clip(np.floor(pos), 0, grid.counts[i] - 2))
        idx0.append(j)
        weights.append(pos - j)
    if grid.n == 1:
        j, w = idx0[0], weights[0]
        return float((1 - w) * values[j] + w * values[j + 1])
    (j0, j1), (w0, w1) = idx0, weights
    patch = values[j0:j0 + 2, j1:j1 + 2]
    return float((1 - w0) * (1 - w1) * patch[0, 0] + (1 - w0) * w1 * patch[0, 1]
                 + w0 * (1 - w1) * patch[1, 0] + w0 * w1 * patch[1, 1])


@pytest.mark.parametrize("n", [1, 2])
def test_semigroup_value_matches_the_two_branch_formula_bit_for_bit(n):
    grid = Grid.regular([[-2.0, 3.0]] * n, [7] * n, horizon=1.0, n_levels=4)
    rng = np.random.default_rng(n)
    u = rng.normal(size=(grid.n_levels + 1,) + grid.counts)
    sol = PDESolution(grid=grid, u=u, argmax_index=np.zeros(u.shape, dtype=np.uint8),
                      trust_bounds=grid.bounds.copy(), scheme={})
    # random points, nodes (weights 0), and the upper faces (weight 1 in the last cell)
    points = [rng.uniform(-2.0, 3.0, size=n) for _ in range(400)]
    points += [rng.choice(grid.axes[0], size=n) for _ in range(50)]
    points += [np.full(n, 3.0), np.full(n, -2.0), np.array([3.0, -2.0][:n])]
    for level in range(grid.n_levels + 1):
        for x in points:
            assert (semigroup_value(sol, level * grid.dt, x)
                    == two_branch_interpolation(grid, u[level], x))


def test_semigroup_value_refuses_a_time_off_the_levels():
    # dt = 0.25: t = 0.3 used to return the value at the nearest level, 0.25
    grid = Grid.regular([[-8, 8]], [33], horizon=0.5, n_levels=2)
    sol = solve(UNIT_DIFFUSION, UNIT, IDENTITY, grid)
    assert semigroup_value(sol, 0.25, [0.0]) == sol.u[1][16]
    with pytest.raises(GridError, match=r"not a level .* nearest levels are t=0.25 and t=0.5"):
        semigroup_value(sol, 0.3, [0.0])
    with pytest.raises(GridError, match=r"not a level .* nearest levels are t=0.25 and t=0.5"):
        semigroup_value(sol, 0.6, [0.0])  # past the horizon


def test_discrete_comparison_property():
    # f <= g nodewise implies u_f <= u_g nodewise at every level, including
    # boundary nodes: the scheme map is monotone everywhere.
    rng = np.random.default_rng(7)
    grid = Grid.regular([[-3, 3]], [61], horizon=0.2, n_levels=400)
    for _ in range(3):
        c0, c1 = rng.uniform(-1, 1, 2)
        f_low = TestFunction(f=lambda x: np.tanh(c0 * x[..., 0]) + c1, dim=1, name="low")
        f_high = TestFunction(
            f=lambda x: np.tanh(c0 * x[..., 0]) + c1 + 0.3 * np.sin(x[..., 0]) ** 2,
            dim=1, name="high")
        sol_low = solve(UNIT_DIFFUSION, INTERVAL, f_low, grid)
        sol_high = solve(UNIT_DIFFUSION, INTERVAL, f_high, grid)
        assert float(np.min(sol_high.u - sol_low.u)) >= -1e-12


def arctan_instance():
    return build_coefficients({
        "n": 2, "d": 2,
        "b": {"family": "arctan-coupling"},
        "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]},
    })


def grid_2d(horizon=0.3, counts=81):
    probe = Grid.regular([[-4, 4], [-4, 4]], [counts, counts], horizon, 10)
    bound = t0_bound(arctan_instance(), THETA2, probe)
    levels = int(np.ceil(horizon / bound)) + 1
    return Grid.regular([[-4, 4], [-4, 4]], [counts, counts], horizon, levels)


def test_monotone_preservation_2d():
    grid = grid_2d()
    c = arctan_instance()
    functions = [
        TestFunction(f=lambda x: np.tanh(x[..., 0] + x[..., 1]), dim=2, monotone=True,
                     name="tanh-sum"),
        TestFunction(f=lambda x: 0.4 * x[..., 0] + 0.6 * x[..., 1], dim=2, monotone=True,
                     name="affine"),
        TestFunction(f=lambda x: np.tanh(x[..., 0]) + 0.5 * np.tanh(x[..., 1]), dim=2,
                     monotone=True, name="tanh-split"),
    ]
    for f in functions:
        sol = solve(c, THETA2, f, grid)
        report = monotonicity_check(sol)
        assert report.nondecreasing, (f.name, report.min_forward_difference)
        assert report.min_forward_difference >= -1e-8


def test_monotonicity_negative_control():
    grid = grid_2d()
    sol = solve(arctan_instance(), THETA2,
                TestFunction(f=lambda x: x[..., 0] ** 2, dim=2, name="square-x1"), grid)
    report = monotonicity_check(sol)
    assert not report.nondecreasing
    assert report.witness["x"][0] < 0  # decreasing branch of the parabola


def dominance_setup():
    upper = UNIT_DIFFUSION
    lower = CoefficientSet(n=1, d=1, b=shifted(None, -0.5), sigma=upper.sigma)
    raised = CoefficientSet(n=1, d=1, b=shifted(None, +0.5), sigma=upper.sigma)
    f = TestFunction(f=lambda x: np.tanh(x[..., 0]), dim=1, monotone=True, name="tanh")
    grid = Grid.regular([[-6, 6]], [241], horizon=0.5, n_levels=406)
    return upper, lower, raised, f, grid


def test_dominance_nodewise_reduction_and_failure():
    upper, lower, raised, f, grid = dominance_setup()
    sol_u = solve(upper, INTERVAL, f, grid)
    sol_l = solve(lower, INTERVAL, f, grid)
    report = dominance_check(sol_u, sol_l)
    assert report.mode == "nodewise-reduction"
    assert report.dominates and report.min_gap >= -1e-8
    # strictly positive separation at interior times
    mid = grid.counts[0] // 2
    assert sol_u.u[-1][mid] - sol_l.u[-1][mid] > 0.1

    report_bad = dominance_check(sol_u, solve(raised, INTERVAL, f, grid))
    assert not report_bad.dominates
    assert report_bad.min_gap < -0.1
    assert report_bad.witness["t"] > 0


def test_dominance_equal_solutions():
    upper, _, _, f, grid = dominance_setup()
    sol = solve(upper, INTERVAL, f, grid)
    report = dominance_check(sol, sol)
    assert report.dominates and report.min_gap == 0.0


def brute_force_min_gap(sol_upper, sol_lower):
    """min of u(t, x) - u_bar(t, x_bar) over all trusted node pairs x_bar <= x."""
    slices = sol_upper.trust_slices()
    n_levels = sol_upper.u.shape[0]
    upper = sol_upper.u[(slice(None),) + slices].reshape(n_levels, -1)
    lower = sol_lower.u[(slice(None),) + slices].reshape(n_levels, -1)
    idx = np.indices(tuple(s.stop - s.start for s in slices)).reshape(len(slices), -1)
    ordered = np.all(idx[:, None, :] <= idx[:, :, None], axis=0)  # [x, x_bar]
    return min(float(np.min((u[:, None] - u_bar[None, :])[ordered]))
               for u, u_bar in zip(upper, lower))


DOMINANCE_ORACLE_CASES = {
    "bump": (UNIT_DIFFUSION, INTERVAL,
             TestFunction(f=lambda x: np.exp(-x[..., 0] ** 2), dim=1, name="bump"),
             Grid.regular([[-6, 6]], [121], horizon=0.25, n_levels=120)),
    "sin3x": (UNIT_DIFFUSION, INTERVAL,
              TestFunction(f=lambda x: np.sin(3.0 * x[..., 0]), dim=1, name="sin3x"),
              Grid.regular([[-6, 6]], [121], horizon=0.25, n_levels=120)),
    "sin-cos-2d": (build_coefficients({"n": 2, "d": 2, "sigma": {"family": "diag-sigma",
                                                                "values": [1.0, 1.0]}}),
                   THETA2,
                   TestFunction(f=lambda x: np.sin(2.0 * x[..., 0]) * np.cos(x[..., 1]),
                                dim=2, name="sin-cos"),
                   Grid.regular([[-4, 4], [-4, 4]], [33, 33], horizon=0.25, n_levels=40)),
}


@pytest.mark.parametrize("case", list(DOMINANCE_ORACLE_CASES))
def test_dominance_matches_brute_force_over_ordered_pairs(case):
    coeffs, theta, f, grid = DOMINANCE_ORACLE_CASES[case]
    sol = solve(coeffs, theta, f, grid)
    report = dominance_check(sol, sol)
    assert report.mode == "prefix-max-reduction"
    assert report.min_gap == brute_force_min_gap(sol, sol)
    assert not report.dominates  # non-monotone data is not ordered against its shifts
    w = report.witness
    assert all(xb <= x for x, xb in zip(w["x"], w["x_bar"]))
    level = int(round(w["t"] / grid.dt))
    node = tuple(int(np.flatnonzero(ax == v)[0]) for ax, v in zip(grid.axes, w["x"]))
    node_bar = tuple(int(np.flatnonzero(ax == v)[0]) for ax, v in zip(grid.axes, w["x_bar"]))
    assert sol.u[(level,) + node] - sol.u[(level,) + node_bar] == report.min_gap


def test_dominance_reads_only_nodes_both_solutions_trust():
    # the lowered solution's margin adds the drift sweep 0.5 * T: it trusts
    # [-3.63, 3.63], the unit one [-3.88, 3.88]; the lower solution's collar
    # must not set the gap
    upper, lower, _, f, grid = dominance_setup()
    sol_u = solve(upper, INTERVAL, f, grid)
    sol_l = solve(lower, INTERVAL, f, grid)
    assert sol_l.trust_bounds[0, 1] < sol_u.trust_bounds[0, 1]
    report = dominance_check(sol_u, sol_l)
    for sol in (sol_u, sol_l):
        lo, hi = sol.trust_bounds[0]
        assert lo <= report.witness["x"][0] <= hi and lo <= report.witness["x_bar"][0] <= hi
    inner = sol_l.trust_slices()[0]
    gap = sol_u.u[:, inner] - sol_l.u[:, inner]
    assert report.mode == "nodewise-reduction"
    assert report.min_gap == float(gap.flat[int(np.argmin(gap))])


def test_dominance_grid_mismatch():
    upper, lower, _, f, grid = dominance_setup()
    other = Grid.regular([[-6, 6]], [121], horizon=0.5, n_levels=406)
    with pytest.raises(GridError):
        dominance_check(solve(upper, INTERVAL, f, grid), solve(lower, INTERVAL, f, other))


def test_mc_cross_check_of_dominance_gap():
    # Second route to the same ordering: coupled Monte Carlo on shared
    # scenarios reproduces u >= u_bar at the queried point.
    from gdiffusion.scenario import VolatilityControl, noise_block
    from gdiffusion.sde import euler_march

    upper, lower, _, f, grid = dominance_setup()
    sol_u = solve(upper, INTERVAL, f, grid)
    sol_l = solve(lower, INTERVAL, f, grid)
    n_steps, n_paths = 100, 4000
    dw = noise_block(17, 0.5, n_steps, 1, n_paths)
    times = np.linspace(0.0, 0.5, n_steps + 1)
    for gen in (0, 1):
        control = VolatilityControl.constant(gen, n_steps)
        up = euler_march(upper, np.array([0.0]), times, dw, control, INTERVAL)
        dn = euler_march(lower, np.array([0.0]), times, dw, control, INTERVAL)
        mean_up = float(np.mean(np.tanh(up[:, -1, 0])))
        mean_dn = float(np.mean(np.tanh(dn[:, -1, 0])))
        se = float(np.std(np.tanh(up[:, -1, 0]) - np.tanh(dn[:, -1, 0]), ddof=1)
                   / np.sqrt(n_paths))
        assert mean_up - mean_dn >= -3 * se
    # and the PDE gap at x=0 agrees with the MC gap for the worst generator
    pde_gap = semigroup_value(sol_u, 0.5, [0.0]) - semigroup_value(sol_l, 0.5, [0.0])
    assert pde_gap > 0


def test_argmax_record_dtype_and_shape():
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=200)
    sol = solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid)
    assert sol.argmax_index.shape == sol.u.shape
    assert sol.argmax_index.dtype == np.uint8


def test_argmax_record_holds_a_generator_index_past_uint16():
    # 65 537 generators: the top variance, index 65 536, wins at every
    # interior node of x**2, and uint16 cannot hold it
    variances = np.linspace(0.25, 1.0, 2 ** 16 + 1)
    theta = CovarianceSet(generators=np.sqrt(variances).reshape(-1, 1, 1))
    grid = Grid.regular([[-2, 2]], [5], horizon=0.5, n_levels=1)
    sol = solve(UNIT_DIFFUSION, theta, SQUARE, grid)
    assert sol.argmax_index.dtype == np.uint32
    assert sol.argmax_index[1].tolist() == [0, 2 ** 16, 2 ** 16, 2 ** 16, 0]


def test_exports_roundtrip(tmp_path):
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=200)
    sol = solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid)
    dump = tmp_path / "sol.bin"
    export_grid_dump(sol, str(dump))
    back = read_grid_dump(str(dump))
    assert back["n"] == 1 and tuple(back["counts"]) == (41,)
    assert back["dt"] == grid.dt
    assert np.array_equal(back["u"], sol.u)


def test_correlated_diffusion_cross_term_oracle():
    # Singleton correlated covariance: E[(x1 + B1)(x2 + B2)] = x1 x2 + rho t.
    for rho, sign in ((0.5, 1.0), (-0.5, -1.0)):
        corr = np.array([[1.0, rho], [rho, 1.0]])
        theta = CovarianceSet(generators=(np.linalg.cholesky(corr),))
        coeffs = build_coefficients({
            "n": 2, "d": 2, "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]}})
        f = TestFunction(f=lambda x: x[..., 0] * x[..., 1], dim=2, name="bilinear")
        grid = Grid.regular([[-3, 3], [-3, 3]], [61, 61], horizon=0.2, n_levels=200)
        sol = solve(coeffs, theta, f, grid)
        value = semigroup_value(sol, 0.2, [0.0, 0.0])
        assert value == pytest.approx(sign * 0.1, abs=1e-6)
        off_node = semigroup_value(sol, 0.2, [0.5, -0.5])
        assert off_node == pytest.approx(0.5 * (-0.5) + rho * 0.2, abs=1e-5)


def test_anisotropic_cross_terms_rejected_when_dominance_fails():
    corr = np.array([[1.0, 0.95], [0.95, 1.0]])
    theta = CovarianceSet(generators=(np.linalg.cholesky(corr),))
    coeffs = build_coefficients({
        "n": 2, "d": 2, "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]}})
    f = TestFunction(f=lambda x: x[..., 0] * x[..., 1], dim=2, name="bilinear")
    grid = Grid.regular([[-3, 3], [-3, 3]], [13, 97], horizon=0.05, n_levels=4000)
    with pytest.raises(StabilityError, match="monotone stencil"):
        solve(coeffs, theta, f, grid)


def test_loading_term_drift_oracle():
    # dX = h d<B> + dB with h = 0.3 and identity data: worst case accrues the
    # top variance, u(t, x) = x + 0.3 * upper * t, exact for linear data.
    coeffs = CoefficientSet(
        n=1, d=1,
        h=lambda t, x: 0.3 * np.ones(x.shape[:-1] + (1, 1, 1)),
        sigma=lambda t, x: np.ones(x.shape + (1,)))
    grid = Grid.regular([[-4, 4]], [161], horizon=0.25, n_levels=1000)
    sol = solve(coeffs, INTERVAL, f=IDENTITY, grid=grid)
    sl = sol.trust_slices()
    ax = grid.axes[0][sl[0]]
    err = np.abs(sol.u[-1][sl[0]] - (ax + 0.3 * 1.0 * 0.25))
    # boundary-collar contamination decays diffusively into the trust region
    assert np.max(err) < 2e-4
    deep = np.abs(ax) <= 1.0
    assert np.max(err[deep]) < 1e-10


def test_loading_without_diffusion_rejected():
    coeffs = CoefficientSet(n=1, d=1, h=lambda t, x: 0.3 * np.ones(x.shape[:-1] + (1, 1, 1)))
    grid = Grid.regular([[-4, 4]], [161], horizon=0.25, n_levels=4000)
    with pytest.raises(StabilityError, match="monotone stencil"):
        solve(coeffs, INTERVAL, f=IDENTITY, grid=grid)


UNIT_DRIFT = build_coefficients({"n": 1, "d": 1, "b": {"family": "constant-drift", "c": [1.0]}})


def test_drift_only_solves_at_the_upwind_cfl_limit():
    # b = 1, no diffusion, dx = 0.05: the rates are 1/dx toward +e, so 20
    # levels over T = 1 put every centre weight at exactly 0 and each level
    # shifts the data by one node.
    f = TestFunction(f=lambda x: np.sin(3.0 * x[..., 0]), dim=1, name="sin3x")
    grid = Grid.regular([[-2, 2]], [81], horizon=1.0, n_levels=20)
    assert t0_bound(UNIT_DRIFT, INTERVAL, grid) == pytest.approx(0.05, rel=1e-12)
    sol = solve(UNIT_DRIFT, INTERVAL, f, grid)
    sl = sol.trust_slices()
    ax = grid.axes[0][sl[0]]
    assert np.max(np.abs(sol.u[-1][sl[0]] - np.sin(3.0 * (ax + 1.0)))) < 1e-12


def test_stability_bound_is_exact_centre_weight_positivity():
    # 1-D: sum_k r = sigma^2 upper / dx^2 + |b| / dx at interior nodes.
    coeffs = build_coefficients({"n": 1, "d": 1,
                                 "b": {"family": "constant-drift", "c": [-0.5]},
                                 "sigma": {"family": "constant", "matrix": [[1.0]]}})
    grid = Grid.regular([[-2, 2]], [41], horizon=0.5, n_levels=10)
    assert t0_bound(coeffs, INTERVAL, grid) == pytest.approx(
        1.0 / (1.0 / 0.1 ** 2 + 0.5 / 0.1), rel=1e-12)
    # dt at the bound is admitted, dt just above it is refused
    for coeffs, theta, f, bounds, counts in (
            (UNIT_DRIFT, INTERVAL, IDENTITY, [[-2, 2]], (81,)),
            (coeffs, INTERVAL, SQUARE, [[-2, 2]], (41,)),
            (build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                                 "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]}}),
             CovarianceSet(generators=(np.linalg.cholesky([[1.0, 0.5], [0.5, 1.0]]),)),
             TestFunction(f=lambda x: x[..., 0] * x[..., 1], dim=2, name="bilinear"),
             [[-3, 3], [-3, 3]], (31, 31))):
        probe = Grid(bounds=np.array(bounds, dtype=float), counts=counts, horizon=1.0, n_levels=1)
        bound = t0_bound(coeffs, theta, probe)
        at = Grid(bounds=probe.bounds, counts=counts, horizon=4 * bound, n_levels=4)
        assert at.dt == bound
        assert np.all(np.isfinite(solve(coeffs, theta, f, at).u))
        above = Grid(bounds=probe.bounds, counts=counts, horizon=4 * (bound * (1 + 1e-9)),
                     n_levels=4)
        assert above.dt == bound * (1 + 1e-9)
        with pytest.raises(StabilityError, match="stability bound"):
            solve(coeffs, theta, f, above)


def test_trust_margin_counts_the_drift_sweep():
    # b = 2, sigma = 0.3: the outward-drift coupling dropped at the upper face
    # is felt 2 * T deep, far beyond 3 * sigma * sqrt(T) = 0.9.
    coeffs = build_coefficients({"n": 1, "d": 1,
                                 "b": {"family": "constant-drift", "c": [2.0]},
                                 "sigma": {"family": "constant", "matrix": [[0.3]]}})
    grid = Grid.regular([[-3, 3]], [121], horizon=1.0, n_levels=840)
    sol = solve(coeffs, INTERVAL, SQUARE, grid)
    assert sol.scheme["trust_margin"] == pytest.approx(0.9 + 2.0, rel=1e-12)
    exact = (1.4 + 2.0) ** 2 + 0.09  # E (x + 2 t + 0.3 W_t)^2 under the top variance
    assert grid.axes[0][88] == pytest.approx(1.4) and sol.u[-1][88] < exact - 2.0
    with pytest.raises(GridError, match="trust region"):
        semigroup_value(sol, 1.0, [1.4])


def test_trust_region_without_diffusion_shrinks_by_the_drift_sweep():
    grid = Grid.regular([[-2, 2]], [81], horizon=1.0, n_levels=1000)
    sol = solve(UNIT_DRIFT, INTERVAL, IDENTITY, grid)
    assert sol.trust_bounds.tolist() == [[-1.0, 1.0]]
    # u = x + t, but the frozen upper face has been carried a sweep of 1 deep
    assert grid.axes[0][70] == pytest.approx(1.5) and sol.u[-1][70] < 2.5 - 0.4


def time_dependent(sigma=None, b=None, h=None):
    return CoefficientSet(n=1, d=1, sigma=sigma, b=b, h=h, time_homogeneous=False)


def test_time_dependent_rates_are_rechecked_at_every_level():
    # sum_k r = sigma(t)^2 / dx^2 passes 1 / dt = 125 once sigma(t) > 1.118,
    # first at level 3 (t = 0.024, sigma = 1.12).
    growing = time_dependent(sigma=lambda t, x: (1.0 + 5.0 * t) * np.ones(x.shape + (1,)))
    grid = Grid.regular([[-2, 2]], [41], horizon=0.08, n_levels=10)
    assert grid.dt <= t0_bound(growing, UNIT, grid)
    with pytest.raises(StabilityError, match=r"stability bound .* at level 3 "):
        solve(growing, UNIT, SQUARE, grid)
    # a loading h(t) = 100 t outweighs the diffusion rate 0.5 / dx^2 once
    # |h| > 1 / dx = 10, first at level 13 (t = 0.104)
    loading = time_dependent(sigma=lambda t, x: np.ones(x.shape + (1,)),
                             h=lambda t, x: 100.0 * t * np.ones(x.shape[:-1] + (1, 1, 1)))
    grid = Grid.regular([[-2, 2]], [41], horizon=0.16, n_levels=20)
    with pytest.raises(StabilityError, match="monotone stencil violated at level 13 "):
        solve(loading, UNIT, SQUARE, grid)


def test_time_dependent_drift_on_linear_data():
    # b(t) = 1 + t: u(t, x) = x + t + t^2 / 2; explicit Euler in time sums
    # b at the left end of each level, which is exact up to T * dt / 2.
    coeffs = time_dependent(sigma=lambda t, x: np.ones(x.shape + (1,)),
                            b=lambda t, x: (1.0 + t) * np.ones(x.shape))
    grid = Grid.regular([[-4, 4]], [161], horizon=0.5, n_levels=500)
    sol = solve(coeffs, INTERVAL, IDENTITY, grid)
    sl = sol.trust_slices()
    ax = grid.axes[0][sl[0]]
    err = sol.u[-1][sl[0]] - (ax + np.sum(grid.dt * (1.0 + grid.times[:-1])))
    # the boundary collar decays diffusively into the trust region
    assert np.max(np.abs(err)) < 1e-7
    assert np.max(np.abs(err[np.abs(ax) <= 0.5])) < 1e-12
    assert np.max(np.abs(sol.u[-1][sl[0]] - (ax + 0.5 + 0.125))) <= 0.5 * grid.dt / 2 + 1e-7


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_message_prints_a_plain_node():
    # the jump across x = 0 overflows u(. + e) - u at the nodes beside it
    jump = TestFunction(f=lambda x: 1.7e308 * np.sign(x[..., 0]), dim=1, name="jump")
    grid = Grid.regular([[-1, 1]], [4], horizon=0.1, n_levels=10)
    with pytest.raises(NonFiniteError) as err:
        solve(UNIT_DIFFUSION, INTERVAL, jump, grid)
    assert str(err.value) == "non-finite value at level 1 (t=0.01), node (1,)"


def test_nan_coefficient_is_refused_by_the_rate_guard():
    # a NaN rate fails both guard comparisons; it must not reach the march
    nan_edges = CoefficientSet(n=1, d=1, b=lambda t, x: np.where(np.abs(x) > 1.5, np.nan, 0.0),
                               sigma=lambda t, x: np.ones(x.shape + (1,)))
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=100)
    with pytest.raises(NonFiniteError) as err:
        solve(nan_edges, INTERVAL, IDENTITY, grid)
    assert str(err.value) == ("non-finite coefficients at level 0 (t=0): the rate of "
                              "generator 0 toward offset (-1,) at node (1,)")


def test_time_dependent_trust_margin_is_the_largest_over_the_levels():
    # b(t) = 10 t sweeps 5 units by T = 1; the t = 0 margin would be 0
    ramp = CoefficientSet(n=1, d=1, b=lambda t, x: np.full(x.shape, 10.0 * t),
                          time_homogeneous=False)
    grid = Grid.regular([[-8, 8]], [161], horizon=1.0, n_levels=200)
    sol = solve(ramp, UNIT, IDENTITY, grid)
    assert sol.scheme["trust_margin"] == pytest.approx(10.0 * 199 / 200, rel=1e-12)
    with pytest.raises(GridError):
        semigroup_value(sol, 1.0, [7.0])


@pytest.mark.parametrize("homogeneous", [True, False])
def test_solve_evaluates_the_coefficients_once_per_rate_table(homogeneous):
    # one table at t = 0, or one per level; the stability bound reads it
    times = []

    def sigma(t, x):
        times.append(t)
        return np.ones(x.shape + (1,))

    coeffs = CoefficientSet(n=1, d=1, sigma=sigma, time_homogeneous=homogeneous)
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=20)
    solve(coeffs, INTERVAL, SQUARE, grid)
    assert times == ([0.0] if homogeneous else [m * grid.dt for m in range(grid.n_levels)])


def test_an_oversized_solve_is_refused_before_any_grid_wide_array():
    # 10**12 + 1 levels of 3 nodes store 2.7e13 bytes; no page is touched
    grid = Grid.regular([[-1, 1]], [3], horizon=1.0, n_levels=10 ** 12)
    with pytest.raises(GridError, match=r"would store 27000000000027 bytes "
                                        r"\(1000000000001 levels of 3 nodes.*physical memory"):
        solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid)


def full_table_march(coeffs, theta, f, grid):
    """The march over all 3**n - 1 offsets, zero-rate columns included, in
    one einsum: the reference that solve, which sums over the offsets its
    rate table lists, must match bit for bit.  The dense table scatters the
    listed columns into C order of {-1, 0, 1}**n, and the guard reads that
    layout.  Returns u, the generator record, the trust bounds, the scheme's
    numbers and, per rate table built, the offsets whose rate is 0 in every
    branch at every node."""
    nodes = grid.nodes()
    u = np.empty((grid.n_levels + 1,) + nodes.shape[:-1])
    u[0] = f.value(nodes)
    argmax = np.zeros(u.shape, dtype=np.uint8)
    offsets = [e for e in itertools.product((-1, 0, 1), repeat=grid.n) if any(e)]
    neighbours = [_neighbours(e) for e in offsets]
    diffs = np.zeros((len(offsets),) + u.shape[1:])
    margin, rate_free, bounds = 0.0, [], []
    for m in range(grid.n_levels):
        if m == 0 or not coeffs.time_homogeneous:
            fields = coefficient_fields(coeffs, theta, m * grid.dt, nodes)
            listed, columns = _rate_table(fields, grid)
            rates = np.zeros((theta.n_generators, len(offsets)) + u.shape[1:])
            for e, column in zip(listed, columns.swapaxes(0, 1)):
                rates[:, offsets.index(e)] = column
            bounds.append(_guard(offsets, rates, grid, m))
            margin = max(margin, trust_margin(theta, fields, grid.horizon))
            rate_free.append([e for k, e in enumerate(offsets) if not rates[:, k].any()])
        for k, (target, source) in enumerate(neighbours):
            np.subtract(u[m][source], u[m][target], out=diffs[k][target])
        top = _first_max(np.einsum("gk...,k...->g...", rates, diffs), argmax[m + 1])
        u[m + 1] = u[m] + grid.dt * top
    trust = np.column_stack([grid.bounds[:, 0] + margin, grid.bounds[:, 1] - margin])
    scheme = {"dt": grid.dt, "stability_bound": bounds[0], "trust_margin": margin}
    return u, argmax, trust, scheme, rate_free


def lower_triangular_sigma(rho):
    """2-D diffusion columns (1, rho) and (0, sqrt(1 - rho^2)) for a
    correlation rho(t, x): a_01 has the sign of rho."""
    def sigma(t, x):
        r = np.broadcast_to(rho(t, x), x.shape[:-1])
        s = np.zeros(x.shape[:-1] + (2, 2))
        s[..., 0, 0], s[..., 1, 0], s[..., 1, 1] = 1.0, r, np.sqrt(1.0 - r ** 2)
        return s
    return sigma


DIAGONALS = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
TANH_SUM = TestFunction(f=lambda x: np.tanh(x[..., 0] + x[..., 1]), dim=2, name="tanh-sum")
BOX_2D = [[-4, 4], [-4, 4]]
CORRELATED = CovarianceSet(generators=tuple(
    s * np.linalg.cholesky([[1.0, 0.5], [0.5, 1.0]]) for s in (0.7, 1.0)))
# zeros of the sign of x_2 where x_1 <= 0 (2-D) and of x where |x| <= 1 (1-D)
SIGNED_ZEROS_2D = TestFunction(
    f=lambda x: np.where(x[..., 0] > 0, np.tanh(x[..., 0] + x[..., 1]),
                         np.copysign(0.0, x[..., 1])),
    dim=2, name="signed-zeros")
SIGNED_ZEROS_1D = TestFunction(
    f=lambda x: np.where(np.abs(x[..., 0]) > 1, x[..., 0], np.copysign(0.0, x[..., 0])),
    dim=1, name="signed-zeros")

# name -> (coefficients, theta, f, grid, the distinct rate-free offset sets in order)
SKIP_CASES = {
    "2-D diagonal sigma": (arctan_instance(), THETA2, TANH_SUM,
                           Grid.regular(BOX_2D, [41, 41], 0.1, 16), [DIAGONALS]),
    "2-D a01 > 0": (arctan_instance(), CORRELATED, TANH_SUM,
                    Grid.regular(BOX_2D, [41, 41], 0.1, 16), [[(-1, 1), (1, -1)]]),
    "2-D a01 of both signs": (
        CoefficientSet(n=2, d=2, b=lambda t, x: np.arctan(x[..., ::-1]),
                       sigma=lower_triangular_sigma(lambda t, x: 0.5 * np.tanh(x[..., 0]))),
        THETA2, TANH_SUM, Grid.regular(BOX_2D, [41, 41], 0.1, 16), [[]]),
    # a_01 = 0 at t = 0, then positive, then negative after t = pi / 20
    "2-D time-dependent a01": (
        CoefficientSet(n=2, d=2, time_homogeneous=False,
                       sigma=lower_triangular_sigma(lambda t, x: 0.4 * np.sin(20.0 * t))),
        THETA2, TANH_SUM, Grid.regular(BOX_2D, [41, 41], 0.25, 32),
        [DIAGONALS, [(-1, 1), (1, -1)], [(-1, -1), (1, 1)]]),
    "1-D drift only": (UNIT_DRIFT, INTERVAL,
                       TestFunction(f=lambda x: np.sin(3.0 * x[..., 0]), dim=1, name="sin3x"),
                       Grid.regular([[-2, 2]], [81], 1.0, 40), [[(-1,)]]),
    "2-D signed zeros": (arctan_instance(), THETA2, SIGNED_ZEROS_2D,
                         Grid.regular(BOX_2D, [41, 41], 0.1, 16), [DIAGONALS]),
    "1-D signed zeros": (UNIT_DRIFT, INTERVAL, SIGNED_ZEROS_1D,
                         Grid.regular([[-2, 2]], [81], 1.0, 40), [[(-1,)]]),
}


@pytest.mark.parametrize("case", list(SKIP_CASES))
def test_skipping_rate_free_offsets_matches_the_full_table_bit_for_bit(case):
    coeffs, theta, f, grid, rate_free = SKIP_CASES[case]
    u, argmax, trust, scheme, seen = full_table_march(coeffs, theta, f, grid)
    # the case drops the offsets it is meant to, in this order
    assert [s for i, s in enumerate(seen) if i == 0 or s != seen[i - 1]] == rate_free
    if "signed zeros" in case:
        zeros = u[0][u[0] == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    sol = solve(coeffs, theta, f, grid)
    assert sol.u.tobytes() == u.tobytes()
    assert sol.argmax_index.tobytes() == argmax.tobytes()
    assert sol.trust_bounds.tolist() == trust.tolist()
    assert {key: sol.scheme[key] for key in scheme} == scheme


def loaded_on_axis_2(load):
    """n = d = 2, diagonal sigma, and a loading h_11 = load(t) along x_2: it
    pushes the rate toward -e_2 below 0 once load > 1 / dx_2."""
    def h(t, x):
        table = np.zeros(x.shape[:-1] + (2, 2, 2))
        table[..., 1, 1, 1] = load(t)
        return table
    return CoefficientSet(n=2, d=2, h=h, sigma=lambda t, x: np.eye(2), time_homogeneous=False)


def nan_drift_on_axis_2(start):
    """b_2 = NaN at x_2 > 3.5 from t = start on, 0 elsewhere."""
    def b(t, x):
        out = np.zeros(x.shape)
        out[..., 1] = np.where((x[..., 1] > 3.5) & (t >= start), np.nan, 0.0)
        return out
    return CoefficientSet(n=2, d=2, b=b, sigma=lambda t, x: np.eye(2), time_homogeneous=False)


# the diagonal offsets (-1, -1) and (-1, 1) are rate-free and come before the
# offending (0, -1) in offset order, so a guard that read the kept columns
# only would name another offset
GUARD_CASES = {
    "negative at t = 0": (
        loaded_on_axis_2(lambda t: 8.0), StabilityError,
        "monotone stencil violated at level 0 (t=0): rate -7.500e+00 of generator 1 toward "
        "offset (0, -1) at node (0, 1)"),
    "negative later": (
        loaded_on_axis_2(lambda t: 100.0 * t), StabilityError,
        "monotone stencil violated at level 6 (t=0.06): rate -2.500e+00 of generator 1 toward "
        "offset (0, -1) at node (0, 1)"),
    "non-finite at t = 0": (
        nan_drift_on_axis_2(0.0), NonFiniteError,
        "non-finite coefficients at level 0 (t=0): the rate of generator 0 toward offset "
        "(0, -1) at node (0, 38)"),
    "non-finite later": (
        nan_drift_on_axis_2(0.035), NonFiniteError,
        "non-finite coefficients at level 4 (t=0.04): the rate of generator 0 toward offset "
        "(0, -1) at node (0, 38)"),
}


@pytest.mark.parametrize("case", list(GUARD_CASES))
def test_the_guard_names_the_offset_of_the_full_table(case):
    coeffs, error, text = GUARD_CASES[case]
    grid = Grid.regular(BOX_2D, [41, 41], 0.1, 10)
    for march in (solve, full_table_march):
        with pytest.raises(error) as err:
            march(coeffs, THETA2, TANH_SUM, grid)
        assert str(err.value).startswith(text)


def whole_array_monotonicity_check(sol):
    """The check as one reduction over all stored levels: the oracle of the
    level-by-level monotonicity_check.  Its minimum is the difference at the
    first argmin: numpy's whole-array ``min`` returns a zero minimum with
    the sign of whichever tied zero its SIMD lanes meet last."""
    slices = sol.trust_slices()
    tol = 1e-8 * (1.0 + float(np.max(np.abs(sol.u))))
    best = np.inf
    witness = {}
    per_axis = []
    for axis in range(sol.grid.n):
        lo = list(slices)
        hi = list(slices)
        s = slices[axis]
        lo[axis] = slice(s.start, s.stop - 1)
        hi[axis] = slice(s.start + 1, s.stop)
        diffs = sol.u[(slice(None),) + tuple(hi)] - sol.u[(slice(None),) + tuple(lo)]
        if diffs.size == 0:
            per_axis.append(np.inf)
            continue
        where = np.unravel_index(int(np.argmin(diffs)), diffs.shape)
        axis_min = float(diffs[where])
        per_axis.append(axis_min)
        if axis_min < best:
            best = axis_min
            node = [int(where[1 + i] + slices[i].start) for i in range(sol.grid.n)]
            witness = {
                "axis": axis,
                "t": float(where[0] * sol.grid.dt),
                "node_index": node,
                "x": [float(sol.grid.axes[i][node[i]]) for i in range(sol.grid.n)],
            }
    return MonotonicityReport(min_forward_difference=best, per_axis=per_axis,
                              witness=witness, tolerance=tol, nondecreasing=bool(best >= -tol))


def whole_array_dominance_check(sol_upper, sol_lower):
    """The check as one prefix-max reduction over all stored levels, on the
    upper solution's trust region: the oracle of dominance_check for pairs
    with equal trust bounds."""
    scale = max(float(np.max(np.abs(sol_upper.u))), float(np.max(np.abs(sol_lower.u))))
    slices = sol_upper.trust_slices()
    grid = sol_upper.grid
    lower = sol_lower.u[(slice(None),) + slices]
    prefix = lower
    for axis in range(1, lower.ndim):
        prefix = np.maximum.accumulate(prefix, axis=axis)
    gap = sol_upper.u[(slice(None),) + slices] - prefix
    where = np.unravel_index(int(np.argmin(gap)), gap.shape)
    node = where[1:]
    if lower[where] == prefix[where]:
        node_bar = node
    else:
        rect = lower[(where[0],) + tuple(slice(0, j + 1) for j in node)]
        node_bar = np.unravel_index(int(np.argmax(rect)), rect.shape)

    def coords(local):
        return [float(grid.axes[i][local[i] + slices[i].start]) for i in range(grid.n)]

    min_gap = float(gap[where])
    tol = 1e-8 * (1.0 + scale)
    return DominanceReport(
        min_gap=min_gap,
        witness={"t": float(where[0] * grid.dt), "x": coords(node), "x_bar": coords(node_bar)},
        tolerance=tol, dominates=bool(min_gap >= -tol),
        mode="nodewise-reduction" if np.array_equal(prefix, lower) else "prefix-max-reduction")


def stored_solution(u, trust_nodes):
    """A solution holding the levels u on [-1, 1]^n, trusting the node index
    ranges [first, last] of trust_nodes."""
    grid = Grid.regular([[-1.0, 1.0]] * (u.ndim - 1), u.shape[1:], horizon=1.0,
                        n_levels=u.shape[0] - 1)
    trust = np.array([[ax[a], ax[b]] for ax, (a, b) in zip(grid.axes, trust_nodes)])
    return PDESolution(grid=grid, u=u, argmax_index=np.zeros(u.shape, dtype=np.uint8),
                       trust_bounds=trust, scheme={})


def stored_pairs(rng):
    """(upper, lower, trusted node ranges) per case; 0/1 steps make flat
    regions whose exact ties leave the witness to the first-minimum rule."""
    steps_1d = rng.integers(0, 2, size=(30, 41)).astype(float)
    steps_2d = rng.integers(0, 2, size=(12, 17, 13)).astype(float)
    ramp_2d = np.cumsum(np.cumsum(steps_2d, axis=1), axis=2)
    ties = rng.integers(-1, 2, size=(25, 9, 11)).astype(float)
    signed_zero = np.where(rng.random((20, 33)) < 0.5, -0.0, 0.0)
    wave = np.sin(np.linspace(0.0, 9.0, 41) + np.linspace(0.0, 2.0, 30)[:, None])
    return {
        "random-1d": (rng.normal(size=(30, 41)), rng.normal(size=(30, 41)), [(5, 35)]),
        "random-2d": (rng.normal(size=(12, 17, 13)), rng.normal(size=(12, 17, 13)),
                      [(2, 14), (1, 11)]),
        "flat-ties-1d": (np.cumsum(steps_1d, axis=1), np.cumsum(steps_1d, axis=1) - 1.0,
                         [(3, 38)]),
        "flat-ties-2d": (ramp_2d, ramp_2d, [(0, 16), (2, 12)]),
        "ties-non-monotone-2d": (ties, np.roll(ties, 1, axis=0), [(1, 7), (0, 10)]),
        "negative-zero": (np.cumsum(steps_1d[:20, :33], axis=1) + signed_zero,
                          signed_zero, [(4, 30)]),
        "negative-zero-gaps": (signed_zero, -signed_zero, [(0, 32)]),
        "one-node-1d": (rng.normal(size=(30, 41)), rng.normal(size=(30, 41)), [(20, 20)]),
        "one-node-2d": (rng.normal(size=(12, 17, 13)), rng.normal(size=(12, 17, 13)),
                        [(8, 8), (1, 11)]),
        "non-monotone-lower": (wave + 2.5, wave, [(2, 38)]),
    }


PAIR_CASES = list(stored_pairs(np.random.default_rng(0)))


@pytest.mark.parametrize("case", PAIR_CASES)
def test_level_by_level_checks_match_the_whole_array_reductions(case):
    upper_u, lower_u, trust_nodes = stored_pairs(np.random.default_rng(0))[case]
    upper = stored_solution(upper_u, trust_nodes)
    lower = stored_solution(lower_u, trust_nodes)
    for sol in (upper, lower):
        assert repr(monotonicity_check(sol).to_dict()) == \
            repr(whole_array_monotonicity_check(sol).to_dict())
    assert repr(dominance_check(upper, lower).to_dict()) == \
        repr(whole_array_dominance_check(upper, lower).to_dict())


def test_the_oracle_cases_cover_ties_and_the_prefix_max():
    pairs = stored_pairs(np.random.default_rng(0))
    modes = {case: dominance_check(stored_solution(up, t), stored_solution(lo, t)).mode
             for case, (up, lo, t) in pairs.items()}
    assert modes["non-monotone-lower"] == modes["random-2d"] == "prefix-max-reduction"
    assert modes["flat-ties-1d"] == modes["flat-ties-2d"] == "nodewise-reduction"
    flat = monotonicity_check(stored_solution(*pairs["flat-ties-2d"][::2]))
    assert flat.min_forward_difference == 0.0 and flat.nondecreasing
    one_node = monotonicity_check(stored_solution(*pairs["one-node-1d"][::2]))
    assert one_node.per_axis == [np.inf] and one_node.witness == {}


def test_each_check_holds_a_few_levels_beyond_the_solution():
    # traced peaks: about 2.8 levels (monotonicity: the differences and
    # numpy's iterator buffers for the strided slices) and 3.6 (dominance:
    # the prefix max and gap of two consecutive levels); the whole-array
    # reductions allocate one array of all 240 levels
    rng = np.random.default_rng(3)
    u = np.cumsum(rng.normal(size=(240, 64, 64)), axis=1)
    sol = stored_solution(u, [(2, 61), (2, 61)])
    level_bytes = u[0].nbytes
    for check in (lambda: monotonicity_check(sol), lambda: dominance_check(sol, sol)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * level_bytes, (peak, level_bytes)


LOADED = CoefficientSet(n=1, d=1, h=lambda t, x: 0.3 * np.ones(x.shape[:-1] + (1, 1, 1)),
                        sigma=lambda t, x: np.ones(x.shape + (1,)))
# name -> (coefficients, theta, f, grid)
KEEP_SYSTEMS = {
    "1-D": (UNIT_DIFFUSION, INTERVAL, SQUARE, Grid.regular([[-2, 2]], [41], 0.1, 200)),
    "2-D cross terms": (arctan_instance(), CORRELATED, TANH_SUM,
                        Grid.regular(BOX_2D, [41, 41], 0.1, 16)),
    "time-dependent": SKIP_CASES["2-D time-dependent a01"][:4],
    "loadings": (LOADED, INTERVAL, SQUARE, Grid.regular([[-4, 4]], [81], 0.25, 250)),
}
KEEP_SETS = {
    "last": lambda n: {n},
    "first": lambda n: {0},
    "interior": lambda n: {n // 2 + 1},
    "strided": lambda n: set(range(0, n + 1, 3)),
}


@pytest.mark.parametrize("keep", list(KEEP_SETS))
@pytest.mark.parametrize("system", list(KEEP_SYSTEMS))
def test_kept_levels_match_the_solve_that_keeps_every_level_bit_for_bit(system, keep):
    coeffs, theta, f, grid = KEEP_SYSTEMS[system]
    full = solve(coeffs, theta, f, grid)
    assert full.levels == range(grid.n_levels + 1)
    levels = sorted(KEEP_SETS[keep](grid.n_levels))
    sol = solve(coeffs, theta, f, grid, keep=levels[::-1])
    assert list(sol.levels) == levels
    assert sol.u.shape == sol.argmax_index.shape == (len(levels),) + grid.counts
    assert sol.u.tobytes() == full.u[levels].tobytes()
    assert sol.argmax_index.tobytes() == full.argmax_index[levels].tobytes()
    assert sol.trust_bounds.tolist() == full.trust_bounds.tolist()
    assert sol.scheme == full.scheme
    for m in levels:
        assert sol.level_values(m).tobytes() == full.u[m].tobytes()


def partial_solution():
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=200)
    return solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid, keep=[0, 100, 200])


def test_a_level_that_was_not_kept_is_refused_by_name():
    sol = partial_solution()
    assert semigroup_value(sol, 0.05, [0.0]) == semigroup_value(
        solve(UNIT_DIFFUSION, INTERVAL, SQUARE, sol.grid), 0.05, [0.0])
    with pytest.raises(GridError, match=r"^level 3 \(t=0.0015\) was not kept by the solve, "
                                        r"which kept 3 of 201 levels$"):
        semigroup_value(sol, 3 * sol.grid.dt, [0.0])
    with pytest.raises(GridError, match=r"level 7 \(t=0.0035\) was not kept"):
        sol.level_values(7)


@pytest.mark.parametrize("what, check", [
    ("the monotonicity check", lambda sol, path: monotonicity_check(sol)),
    ("the dominance check", lambda sol, path: dominance_check(sol, sol)),
    ("the dominance check", lambda sol, path: dominance_check(
        solve(UNIT_DIFFUSION, INTERVAL, SQUARE, sol.grid), sol)),
    ("the grid dump", lambda sol, path: export_grid_dump(sol, path)),
], ids=["monotonicity", "dominance", "dominance-lower", "dump"])
def test_a_whole_grid_reduction_refuses_a_partial_solution(tmp_path, what, check):
    path = tmp_path / "u.bin"
    with pytest.raises(GridError, match=rf"^{what} reads every level, but level 1 "
                                        r"\(t=0.0005\) was not kept by the solve, which kept "
                                        r"3 of 201 levels$"):
        check(partial_solution(), str(path))
    assert not path.exists()


def test_kept_levels_must_lie_on_the_grid():
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=200)
    for keep in ([201], [-1, 5]):
        with pytest.raises(GridError, match=r"keep: levels must lie in 0\.\.200"):
            solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid, keep=keep)
    sol = solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid, keep=())
    assert sol.u.shape == (0, 41) and sol.levels == ()
    assert sol.scheme == solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid).scheme


def test_the_memory_budget_counts_the_kept_levels_and_the_spares(monkeypatch):
    # 41 nodes: a level is 41 * (8 + 1) = 369 bytes, the spares 41 * (2 * 8 + 1) = 697
    grid = Grid.regular([[-2, 2]], [41], horizon=0.1, n_levels=200)
    monkeypatch.setattr(pde, "_physical_bytes", lambda: 369 + 697)
    sol = solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid, keep=[200])
    assert sol.u.nbytes + sol.argmax_index.nbytes == 369
    with pytest.raises(GridError, match=r"^the solve would store 1435 bytes \(2 levels of 41 "
                                        r"nodes, float64 values and uint8 generator indices, "
                                        r"and two spare levels\), more than the 1066 bytes"):
        solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid, keep=[100, 200])
    with pytest.raises(GridError, match=r"^the solve would store 74169 bytes \(201 levels of "
                                        r"41 nodes, float64 values and uint8 generator "
                                        r"indices\), more than"):
        solve(UNIT_DIFFUSION, INTERVAL, SQUARE, grid)
