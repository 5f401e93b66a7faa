import re

import numpy as np
import pytest

from gdiffusion.coefficients import build_coefficients, remark_counterexample_pair, shifted
from gdiffusion.errors import ConfigError, DimensionMismatchError, NonFiniteError
from gdiffusion.expressions import Expression, parse_expression
from gdiffusion.gfunction import CovarianceSet
from gdiffusion.scenario import VolatilityControl, apply_control, control_schedules, noise_block
from gdiffusion.functions import TestFunction
from gdiffusion.sde import (CoefficientSet, MinGapObserver, SDETerminalFunctional, euler_march,
                            lipschitz_audit)

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)
UNIT = CovarianceSet.from_interval(1.0, 1.0)


def pathwise_min_gap(lower: np.ndarray, upper: np.ndarray,
                     times: np.ndarray) -> tuple[float, tuple]:
    """Exact minimum of upper - lower over batch, grid times and components,
    from stored states: the oracle of ``MinGapObserver``.

    lower, upper : states (..., n_steps + 1, n) marched on the same scenarios.
    Returns (min gap, (*batch index, component starting at 1, time)) with the
    first witness in scan order (batch index, then time, then component).
    """
    if lower.shape != upper.shape or lower.shape[-2] != len(times):
        raise DimensionMismatchError("paths must be aligned on one grid")
    gap = upper - lower
    idx = np.unravel_index(int(np.argmin(gap)), gap.shape)
    *batch, level, comp = (int(i) for i in idx)
    return float(gap[idx]), (*batch, comp + 1, float(times[level]))


def stored_driver_march(coeffs, x0, times, db, dqv):
    """The Euler march on a stored driver: the oracle of ``euler_march``.

    db : (n_steps, ..., d); dqv : (n_steps, ..., d, d) per batch, or
    (n_steps, d, d) shared.  Returns every level, (..., n_steps + 1, n).
    """
    x = np.asarray(x0, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], db.shape[1:-1], dqv.shape[1:-2])
    x = np.broadcast_to(x, batch + x.shape[-1:]).copy()
    states = np.empty(batch + (len(times), coeffs.n))
    states[..., 0, :] = x
    for m in range(len(times) - 1):
        dt = float(times[m + 1] - times[m])
        b, h, s = coeffs.fields(float(times[m]), x)
        incr = b * dt if b is not None else np.zeros(x.shape)
        if h is not None:
            incr += np.einsum("...lki,...lk->...i", h, dqv[m])
        if s is not None:
            for l in range(coeffs.d):
                incr += s[..., l] * db[m][..., l:l + 1]
        x = x + incr
        states[..., m + 1, :] = x
    return states


def unit_path(T=1.0, n_steps=64, seed=3, theta=UNIT, generator=0):
    """(times, dW, control, theta) of path 0 of seed under a constant control;
    dW is (n_steps, 1, d)."""
    dw = noise_block(seed, T, n_steps, theta.dim, 1)
    return (np.linspace(0.0, T, n_steps + 1), dw,
            VolatilityControl.constant(generator, n_steps), theta)


def one_control(dw, control, theta, dt):
    """(dB, dQV) of one control on the whole horizon: dB (n_steps, ..., d)
    from ``apply_control``, and the path-independent dQV (n_steps, d, d), the
    covariance of each step's generator times dt."""
    db = apply_control(dw, control_schedules([control], theta), theta)
    return db[:, 0], theta.covariances[control.schedule] * dt


def driver(path):
    """(dB, dQV) that the control of a unit_path forms from its dW."""
    times, dw, control, theta = path
    return one_control(dw, control, theta, times[-1] / control.n_steps)


def march(coeffs, x0, path):
    """States (n_steps + 1, n) of the single scenario path."""
    return euler_march(coeffs, x0, *path)[0]


def test_zero_coefficients_constant_path():
    coeffs = CoefficientSet(n=2, d=1)
    states = march(coeffs, [1.5, -0.5], unit_path())
    assert np.all(states == np.array([1.5, -0.5]))


def test_pure_drift_is_linear_in_time():
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: np.ones(x.shape))
    path = unit_path(T=2.0, n_steps=128)
    states = march(coeffs, [0.25], path)
    assert np.allclose(states[:, 0], 0.25 + path[0], atol=1e-12)


def test_h_only_accumulates_quadratic_variation():
    coeffs = CoefficientSet(n=1, d=1, h=lambda t, x: np.ones(x.shape[:-1] + (1, 1, 1)))
    path = unit_path(theta=INTERVAL, generator=1, n_steps=50)
    states = march(coeffs, [2.0], path)
    qv = np.concatenate([[0.0], np.cumsum(driver(path)[1][:, 0, 0])])
    assert np.allclose(states[:, 0], 2.0 + qv, atol=1e-14)


def test_sigma_only_reproduces_driver():
    coeffs = CoefficientSet(n=1, d=1, sigma=lambda t, x: np.ones(x.shape + (1,)))
    path = unit_path(n_steps=40)
    states = march(coeffs, [0.0], path)
    cum_b = np.concatenate([[0.0], np.cumsum(driver(path)[0][:, 0, 0])])
    assert np.allclose(states[:, 0], cum_b, atol=1e-14)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_abort_reports_step():
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: x * 1e300)
    path = unit_path(n_steps=8)
    with pytest.raises(NonFiniteError) as err:
        march(coeffs, [1.0], path)
    assert "step" in str(err.value)


def test_dimension_mismatch():
    coeffs = CoefficientSet(n=2, d=1)
    path = unit_path()
    with pytest.raises(DimensionMismatchError):
        march(coeffs, [0.0], path)
    states = euler_march(coeffs, np.zeros(2), *path)
    with pytest.raises(DimensionMismatchError):
        pathwise_min_gap(states, states[..., :1], path[0])
    with pytest.raises(DimensionMismatchError):
        pathwise_min_gap(states, states, path[0][1:])


@pytest.mark.parametrize("n_times, control_steps, message", [
    (40, 16, "db has 16 steps, but times has 40 levels and the controls 16 steps"),
    (10, 16, "db has 16 steps, but times has 10 levels and the controls 16 steps"),
    (16, 16, "db has 16 steps, but times has 16 levels and the controls 16 steps"),
    (17, 8, "db has 16 steps, but times has 17 levels and the controls 8 steps"),
    (17, 20, "db has 16 steps, but times has 17 levels and the controls 20 steps"),
])
@pytest.mark.parametrize("stacked", [False, True])
def test_step_axes_of_times_db_and_dqv_must_agree(n_times, control_steps, message, stacked):
    # dW fixes the 16 steps of the driver db on 2 paths; times and the
    # controls, one or a stack of two, must cover exactly those steps
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: np.ones(x.shape),
                            sigma=lambda t, x: np.ones(x.shape + (1,)))
    dw = noise_block(2, 1.0, 16, 1, 2)
    control = VolatilityControl.constant(0, control_steps)
    controls = [VolatilityControl.constant(1, control_steps), control] if stacked else control
    times = np.linspace(0.0, 1.0, n_times)
    for observe in (None, lambda m, x: None):
        with pytest.raises(DimensionMismatchError) as err:
            euler_march(coeffs, np.zeros(1), times, dw, controls, UNIT, observe=observe)
        assert str(err.value) == message


def test_coupled_identical_systems_bitwise():
    coeffs = build_coefficients({
        "n": 2, "d": 1,
        "b": {"family": "offdiag-monotone"},
        "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]},
    })
    path = unit_path()
    xs = euler_march(coeffs, np.array([0.1, 0.2]), *path)
    ys = euler_march(coeffs, np.array([0.1, 0.2]), *path)
    assert np.array_equal(xs, ys)
    gap, witness = pathwise_min_gap(xs, ys, path[0])
    assert gap == 0.0
    assert witness == (0, 1, 0.0)


def test_coupled_shifted_drift_gap_is_time():
    base = CoefficientSet(n=2, d=1)
    up = CoefficientSet(n=2, d=1, b=shifted(None, 1.0))
    path = unit_path(T=1.0, n_steps=100)
    times = path[0]
    xs = euler_march(base, np.zeros(2), *path)
    ys = euler_march(up, np.zeros(2), *path)
    assert np.allclose(ys - xs, times[:, None], atol=1e-12)
    gap, witness = pathwise_min_gap(xs, ys, times)
    assert gap == 0.0 and witness == (0, 1, 0.0)


def test_pathwise_min_gap_first_witness_in_scan_order():
    # Three ties at -1: batch index comes first, then time, then component.
    times = np.array([0.0, 0.5, 1.0])
    lower = np.zeros((2, 3, 2))
    upper = np.zeros((2, 3, 2))
    upper[1, 0, 0] = upper[0, 2, 1] = upper[0, 2, 0] = -1.0
    assert pathwise_min_gap(lower, upper, times) == (-1.0, (0, 1, 1.0))
    assert pathwise_min_gap(lower[0], upper[0], times) == (-1.0, (1, 1.0))
    upper[0, 1, 1] = -1.0
    assert pathwise_min_gap(lower, upper, times) == (-1.0, (0, 2, 0.5))


def test_remark_counterexample_low_volatility_gap():
    coeffs_x, coeffs_y = remark_counterexample_pair(0.25, 1.0)
    scenario = unit_path(T=1.0, n_steps=256, theta=INTERVAL, generator=0)
    xs = euler_march(coeffs_x, np.zeros(2), *scenario)
    ys = euler_march(coeffs_y, np.zeros(2), *scenario)
    gap, (path, comp, t_at) = pathwise_min_gap(xs, ys, scenario[0])
    # X_2 - Y_2 = ((1+0.25)/2 - 0.25) t = 0.375 t, so the min of Y - X is at T.
    assert comp == 2 and t_at == 1.0
    assert gap == pytest.approx(-0.375, abs=1e-12)


def test_strong_order_at_least_half():
    # Linear test system against the same Brownian path aggregated to
    # coarser grids; reference at 4x resolution.
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: -x,
                            sigma=lambda t, x: np.ones(x.shape + (1,)))
    n_fine = 512
    errors = []
    for n_coarse in (128, 256):
        factor = n_fine // n_coarse
        gaps = []
        for seed in range(40):
            ref = march(coeffs, [1.0], unit_path(n_steps=n_fine, seed=seed))
            fine = noise_block(seed, 1.0, n_fine, 1, 1)[:, 0]
            dw = fine.reshape(n_coarse, factor, 1).sum(axis=1)
            times = np.linspace(0.0, 1.0, n_coarse + 1)
            # the unit generator drives with dB = 1.0 * dW, dQV = 1 / n_coarse
            states = euler_march(coeffs, np.array([1.0]), times, dw,
                                 VolatilityControl.constant(0, n_coarse), UNIT)
            gaps.append((states[-1, 0] - ref[-1, 0]) ** 2)
        errors.append(np.sqrt(np.mean(gaps)))
    order = np.log2(errors[0] / errors[1])
    assert order >= 0.4


def test_permutation_equivariance_exact():
    perm = np.array([2, 0, 1])  # x -> x[perm]
    inv = np.argsort(perm)

    def drift(t, x):
        return np.stack([x[..., 1] * 0.5, np.tanh(x[..., 2]), x[..., 0] - 1.0], axis=-1)

    def drift_permuted(t, x):
        return drift(t, x[..., inv])[..., perm]

    def sigma(t, x):
        return np.ones(x.shape + (1,))

    c1 = CoefficientSet(n=3, d=1, b=drift, sigma=sigma)
    c2 = CoefficientSet(n=3, d=1, b=drift_permuted, sigma=sigma)
    path = unit_path(n_steps=32, seed=11)
    x0 = np.array([0.3, -0.2, 0.9])
    out1 = march(c1, x0, path)
    out2 = march(c2, x0[perm], path)
    assert np.array_equal(out2, out1[:, perm])


def test_h_symmetry_audit_raises():
    def table(t, x):  # h_01 = 1, h_10 = 2
        out = np.zeros(x.shape[:-1] + (2, 2, 1))
        out[..., 0, 1, :] = 1.0
        out[..., 1, 0, :] = 2.0
        return out

    with pytest.raises(DimensionMismatchError, match="h_symmetric"):
        CoefficientSet(n=1, d=2, h=table)


def test_map_of_the_wrong_shape_is_a_dimension_error():
    x = np.zeros((4, 2))
    wrong_b = CoefficientSet(n=2, d=1, b=lambda t, x: np.ones(x.shape[:-1] + (3,)))
    with pytest.raises(DimensionMismatchError, match=r"expected \(4, 2\)"):
        wrong_b.eval_b(0.0, x)
    wrong_sigma = CoefficientSet(n=2, d=1, sigma=lambda t, x: np.ones(x.shape))
    with pytest.raises(DimensionMismatchError, match=r"expected \(4, 2, 1\)"):
        wrong_sigma.fields(0.0, x)
    # the h-symmetry audit evaluates h at 8 points when the set is built
    with pytest.raises(DimensionMismatchError, match=r"expected \(8, 1, 1, 2\)"):
        CoefficientSet(n=2, d=1, h=lambda t, x: np.ones((2, 2)))


def test_lipschitz_audit_warns():
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: 3.0 * x, lipschitz=1.0)
    box = np.array([[-1.0, 1.0]])
    with pytest.warns(UserWarning, match="Lipschitz"):
        worst = lipschitz_audit(coeffs, box)
    assert worst > 2.0


THETA2 = CovarianceSet(generators=(np.array([[1.0, 0.0], [0.4, 0.6]]),
                                   np.array([[0.5, 0.2], [0.0, 1.0]])))

BATCH_CASES = {
    "d1": ({"n": 2, "d": 1,
            "b": {"family": "offdiag-monotone"},
            "sigma": {"family": "constant", "matrix": [[0.5], [1.0]]}}, INTERVAL),
    "d2-h-cross-sigma": ({"n": 2, "d": 2,
                          "b": {"family": "arctan-coupling"},
                          "sigma": [["expr:0.5 + 0.1*tanh(x_2)", 0.3],
                                    [0.2, "expr:0.8 + 0.1*arctan(x_1)"]],
                          "h": [[["expr:0.1*tanh(x_1)", 0.05], ["expr:0.02*x_2", 0.1]],
                                [["expr:0.02*x_2", 0.1], [0.0, "expr:0.1*arctan(x_2)"]]]},
                         THETA2),
}


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batched_march_matches_single_paths(case):
    section, theta = BATCH_CASES[case]
    coeffs = build_coefficients(section)
    n_steps = 16
    times = np.linspace(0.0, 1.0, n_steps + 1)
    control = VolatilityControl.bang_bang_cycle(0, 1, n_steps)
    x0 = np.array([0.1, 0.2])
    batch = euler_march(coeffs, x0, times, noise_block(5, 1.0, n_steps, theta.dim, 3), control,
                        theta)
    for p in range(3):
        dw = noise_block(5, 1.0, n_steps, theta.dim, n_paths=1, first=p)
        single = euler_march(coeffs, x0, times, dw, control, theta)
        assert np.array_equal(batch[p], single[0])


CHUNK_CONTROLS = (VolatilityControl.bang_bang_cycle(0, 1, 16),
                  VolatilityControl.constant(0, 16),
                  VolatilityControl.random_switching(2, 16, seed=8))


def stacked_scenarios(theta, n_paths=3, n_steps=16):
    """(times, dW (n_steps, n_paths, d), CHUNK_CONTROLS, theta): K = 3 controls
    that lead the batch axes of the march."""
    dw = noise_block(5, 1.0, n_steps, theta.dim, n_paths)
    return np.linspace(0.0, 1.0, n_steps + 1), dw, CHUNK_CONTROLS, theta


def stored_drivers(times, dw, controls, theta):
    """dB (n_steps, K, n_paths, d) and per-control dQV (n_steps, K, 1, d, d),
    each control's whole-horizon apply_control stacked on a batch axis."""
    n_steps = len(times) - 1
    db = np.empty((n_steps, len(controls)) + dw.shape[1:])
    dqv = np.empty((n_steps, len(controls), 1, theta.dim, theta.dim))
    for j, control in enumerate(controls):
        db[:, j], dqv[:, j, 0] = one_control(dw, control, theta, 1.0 / n_steps)
    return db, dqv


@pytest.mark.parametrize("case", BATCH_CASES)
def test_stacked_controls_match_per_control_marches(case):
    section, theta = BATCH_CASES[case]
    coeffs = build_coefficients(section)
    x0 = np.array([0.1, 0.2])
    scenario = stacked_scenarios(theta)
    times, dw = scenario[:2]
    stacked = euler_march(coeffs, x0, *scenario)
    db, dqv = stored_drivers(*scenario)
    per_path = stored_driver_march(coeffs, x0, times, db,
                                   np.broadcast_to(dqv, db.shape[:3] + dqv.shape[3:]))
    assert stacked.shape == db.shape[1:3] + (17, 2)
    for j in range(len(CHUNK_CONTROLS)):
        single = euler_march(coeffs, x0, times, dw, CHUNK_CONTROLS[j], theta)
        assert np.array_equal(stacked[j], single)
        assert np.array_equal(per_path[j], single)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_march_matches_the_stored_driver_oracle(case, k):
    # forming dB and dQV step by step from dW gives the bits of the march on
    # the whole-horizon arrays, with dQV per control, per path or shared
    section, theta = BATCH_CASES[case]
    coeffs = build_coefficients(section)
    x0 = np.array([0.1, 0.2])
    times, dw, controls, _ = stacked_scenarios(theta)
    controls = controls[:k]
    db, dqv = stored_drivers(times, dw, controls, theta)
    stacked = euler_march(coeffs, x0, times, dw, controls, theta)
    assert stacked.tobytes() == stored_driver_march(coeffs, x0, times, db, dqv).tobytes()
    per_path = np.broadcast_to(dqv, db.shape[:3] + dqv.shape[3:])
    assert stacked.tobytes() == stored_driver_march(coeffs, x0, times, db, per_path).tobytes()
    for j, control in enumerate(controls):
        single = euler_march(coeffs, x0, times, dw, control, theta)
        assert single.tobytes() == stored_driver_march(coeffs, x0, times, db[:, j],
                                                       dqv[:, j, 0]).tobytes()


class CountingTheta:
    """A CovarianceSet stand-in that counts the reads of its covariances."""

    def __init__(self, theta):
        self.theta, self.reads = theta, 0

    @property
    def covariances(self):
        self.reads += 1
        return self.theta.covariances

    def __getattr__(self, name):
        return getattr(self.theta, name)


@pytest.mark.parametrize("controls", [3, "one"], ids=["k3", "one-control"])
@pytest.mark.parametrize("case", ["d1", "d2-h-cross-sigma"])
def test_a_march_without_loadings_never_reads_the_covariances(case, controls):
    section, theta = BATCH_CASES[case]
    coeffs = build_coefficients({key: part for key, part in section.items() if key != "h"})
    times, dw = stacked_scenarios(theta)[:2]
    controls = CHUNK_CONTROLS[0] if controls == "one" else list(CHUNK_CONTROLS[:controls])
    counting = CountingTheta(theta)
    x0 = np.array([0.1, 0.2])
    states = euler_march(coeffs, x0, times, dw, controls, counting)
    assert counting.reads == 0
    assert states.tobytes() == euler_march(coeffs, x0, times, dw, controls, theta).tobytes()


@pytest.mark.parametrize("controls", [3, "one"], ids=["k3", "one-control"])
def test_the_loading_term_forms_sigma_dt_with_the_bits_of_a_per_step_reference(controls):
    # dQV of step m is Sigma[schedule[m]] * dt, formed per step by the
    # loading term; d = 2, dW with two batch axes (2, 3)
    section, theta = BATCH_CASES["d2-h-cross-sigma"]
    coeffs = build_coefficients(section)
    n_steps, dt = 16, 1.0 / 16
    times = np.linspace(0.0, 1.0, n_steps + 1)
    dw = noise_block(5, 1.0, n_steps, 2, 6).reshape(n_steps, 2, 3, 2)
    one = controls == "one"
    controls = CHUNK_CONTROLS[0] if one else list(CHUNK_CONTROLS[:controls])
    schedules = control_schedules([controls] if one else controls, theta)
    db = apply_control(dw, schedules, theta)
    dqv = np.stack([theta.covariances[schedules[m]] * dt for m in range(n_steps)])
    dqv = dqv.reshape((n_steps, len(schedules[0]), 1, 1, 2, 2))
    if one:
        db, dqv = db[:, 0], dqv[:, 0]
    x0 = np.array([0.1, 0.2])
    counting = CountingTheta(theta)
    states = euler_march(coeffs, x0, times, dw, controls, counting)
    assert counting.reads == n_steps
    assert states.shape == db.shape[1:-1] + (n_steps + 1, 2)
    assert states.tobytes() == stored_driver_march(coeffs, x0, times, db, dqv).tobytes()


@pytest.mark.parametrize("sigma", [None, [[0.0], [1.0]], [[0.0, 0.0], [0.4, -1.0]]],
                         ids=["zero-coefficients", "d1-zero-row", "d2-zero-row"])
def test_signed_zeros_of_a_driftless_march_match_the_zero_filled_oracle(sigma):
    # the increment of component 0 is all -0.0 wherever its draws are
    # negative; added to the x0 entry -0.0 it must give +0.0, as an
    # increment summed from a zero fill does, at step 0 and after
    d = 1 if sigma is None else len(sigma[0])
    coeffs = CoefficientSet(n=2, d=d, sigma=None if sigma is None
                            else (lambda t, x: np.broadcast_to(sigma, x.shape + (d,))))
    theta = CovarianceSet(generators=(np.eye(d), -np.eye(d)))
    times, dw = stacked_scenarios(theta, n_paths=8, n_steps=6)[:2]
    controls = [VolatilityControl(np.arange(6) % 2), VolatilityControl.constant(0, 6)]
    x0 = np.array([-0.0, 0.3])
    db, dqv = stored_drivers(times, dw, controls, theta)
    for j, control in enumerate(controls):
        single = euler_march(coeffs, x0, times, dw, control, theta)
        assert single.tobytes() == stored_driver_march(coeffs, x0, times, db[:, j],
                                                       dqv[:, j, 0]).tobytes()
        assert np.signbit(single[:, 0, 0]).all() and not np.signbit(single[:, 1:, 0]).any()
    both = euler_march(coeffs, x0, times, dw, controls, theta)
    assert both.tobytes() == stored_driver_march(coeffs, x0, times, db, dqv).tobytes()


@pytest.mark.parametrize("case", BATCH_CASES)
def test_lockstep_systems_match_separate_marches(case):
    section, theta = BATCH_CASES[case]
    lower = build_coefficients(section)
    upper = build_coefficients({**section, "label": "raised", "b": ["expr:0.1 + tanh(x_2)", 0.2]})
    x0, y0 = np.array([0.1, 0.2]), np.array([[0.3, 0.2]])
    scenario = stacked_scenarios(theta)
    times = scenario[0]
    both = euler_march((lower, upper), (x0, y0), *scenario)
    assert np.array_equal(both[0], euler_march(lower, x0, *scenario))
    assert np.array_equal(both[1], euler_march(upper, y0, *scenario))
    gaps = MinGapObserver()
    last = euler_march((lower, upper), (x0, y0), *scenario, observe=gaps)
    assert np.array_equal(last, both[..., -1:, :])
    assert gaps.result(times) == pathwise_min_gap(both[0], both[1], times)


@pytest.mark.parametrize("systems", [1, 2])
def test_march_hands_the_maps_component_major_states(systems):
    # every x[..., k] a map sees is one contiguous block of the batch
    seen = []

    def drift(t, x):
        seen.append(all(x[..., k].flags.c_contiguous for k in range(x.shape[-1])))
        return 0.1 * x

    def columns(t, x):
        seen.append(all(x[..., k].flags.c_contiguous for k in range(x.shape[-1])))
        return np.ones(x.shape + (1,))

    coeffs = CoefficientSet(n=2, d=1, b=drift, sigma=columns)
    scenario = stacked_scenarios(INTERVAL)
    x0 = np.array([0.1, 0.2])
    marches = (coeffs, x0) if systems == 1 else ((coeffs, coeffs), (x0, x0 + 0.1))
    states = euler_march(*marches, *scenario)
    assert len(seen) == 2 * systems * (len(scenario[0]) - 1) and all(seen)
    assert states.shape[-2:] == (len(scenario[0]), 2)


def test_min_gap_of_a_component_major_batch_is_that_of_its_c_order_copy():
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 4)
    ordered, scattered = MinGapObserver(), MinGapObserver()
    for m in range(len(times)):
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, 3, 5, 2))
        ordered(m, x)
        scattered(m, np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 1)), 1, -1))
    assert scattered.best[..., 0].flags.c_contiguous  # laid out like the gaps it holds
    assert repr(scattered.result(times)) == repr(ordered.result(times))


def observe_stored(lower, upper):
    """A MinGapObserver fed the stored states (..., levels, n) level by level."""
    gaps = MinGapObserver()
    for m in range(lower.shape[-2]):
        gaps(m, np.stack([lower[..., m, :], upper[..., m, :]]))
    return gaps


@pytest.mark.parametrize("shape", [(3, 4, 5, 2), (2, 6, 3), (7, 4, 3), (2, 2, 3, 3, 2)])
def test_streamed_min_gap_matches_stored_states(shape):
    # gaps drawn from a few values, signed zeros included, plant ties across
    # control, path, level and component; the first witness must still match
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    times = np.linspace(0.0, 1.0, shape[-2])
    lower = np.zeros(shape)
    for _ in range(50):
        upper = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=shape)
        expected = pathwise_min_gap(lower, upper, times)
        assert repr(observe_stored(lower, upper).result(times)) == repr(expected)


def test_streamed_min_gap_first_witness_in_scan_order():
    # ties at -1: control 0 path 1 level 2 component 0 (the first in scan
    # order), control 0 path 1 level 2 component 1, control 0 path 2 level 0,
    # control 1 path 0 level 0; an earlier level wins over a lower component
    times = np.array([0.0, 0.5, 1.0])
    lower = np.zeros((2, 3, 3, 2))
    upper = np.zeros((2, 3, 3, 2))
    upper[0, 1, 2, :] = upper[0, 2, 0, 1] = upper[1, 0, 0, 0] = -1.0
    assert observe_stored(lower, upper).result(times) == (-1.0, (0, 1, 1, 1.0))
    upper[0, 1, 1, 1] = -1.0
    assert observe_stored(lower, upper).result(times) == (-1.0, (0, 1, 2, 0.5))
    assert pathwise_min_gap(lower, upper, times) == (-1.0, (0, 1, 2, 0.5))


@pytest.mark.parametrize("case", BATCH_CASES)
def test_streamed_terminal_state_is_the_last_stored_level(case):
    section, theta = BATCH_CASES[case]
    coeffs = build_coefficients(section)
    x0 = np.array([0.1, 0.2])
    scenario = stacked_scenarios(theta)
    times, dw, controls, _ = scenario
    states = euler_march(coeffs, x0, *scenario)
    seen = []
    last = euler_march(coeffs, x0, *scenario, observe=lambda m, x: seen.append((m, x)))
    assert last.shape == (len(controls),) + dw.shape[1:2] + (1, 2)
    assert np.array_equal(last[..., 0, :], states[..., -1, :])
    assert [m for m, _ in seen] == list(range(len(times)))
    assert all(np.array_equal(x, states[..., m, :]) for m, x in seen)
    square = TestFunction(f=lambda x: x[..., 0] ** 2 + x[..., 1], dim=2)
    functional = SDETerminalFunctional(coeffs, square, x0, theta)
    assert np.array_equal(functional.evaluate_batch(times, dw, controls[0]),
                          square.value(states[0, :, -1, :]))
    assert np.array_equal(functional.evaluate_batch(times, dw, controls),
                          square.value(states[:, :, -1, :]))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("systems", [1, 2])
def test_streaming_nonfinite_abort_matches_stored(systems):
    # path (1, 2) component 1 starts large and overflows one step before the rest
    coeffs = CoefficientSet(n=2, d=1, b=lambda t, x: x * 1e150)
    path = unit_path(n_steps=8)
    x0 = np.ones((2, 3, 2))
    x0[1, 2, 1] = 1e10
    marches = (coeffs, x0) if systems == 1 else ((coeffs, coeffs), (np.ones(2), x0))
    messages = []
    for observe in (None, MinGapObserver() if systems == 2 else lambda m, x: None):
        with pytest.raises(NonFiniteError) as err:
            euler_march(*marches, *path, observe=observe)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("non-finite state at step 2 (t=0.25), batch index (")
    assert messages[0].endswith(", component 1")
    index = messages[0].split("batch index ")[1].split(", component")[0]
    digits = re.findall(r"\d+", index.replace("int64", ""))
    assert digits == (["1", "2"] if systems == 1 else ["1", "1", "2"])


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_message_prints_plain_batch_indices():
    coeffs = CoefficientSet(n=2, d=1, b=lambda t, x: x * 1e150)
    path = unit_path(n_steps=8)
    x0 = np.ones((2, 3, 2))
    x0[1, 2, 1] = 1e10
    with pytest.raises(NonFiniteError) as err:
        euler_march(coeffs, x0, *path)
    assert str(err.value) == "non-finite state at step 2 (t=0.25), batch index (1, 2), component 1"


def test_euler_step_is_the_per_entry_sum():
    section, theta = BATCH_CASES["d2-h-cross-sigma"]
    coeffs = build_coefficients(section)
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1.0, 1.0, (5, 2))
    dw = rng.standard_normal((1, 5, 2))
    control = VolatilityControl.constant(1, 1)
    db, dqv = one_control(dw, control, theta, 0.25)
    step = euler_march(coeffs, x0, np.array([0.0, 0.25]), dw, control, theta)[:, 1]
    expected = x0 + 0.25 * coeffs.b(0.0, x0)
    for l in range(2):
        expected += coeffs.eval_sigma(l, 0.0, x0) * db[0, :, l, None]
        for k in range(2):
            expected += coeffs.eval_h(l, k, 0.0, x0) * dqv[0, l, k]
    assert np.allclose(step, expected, rtol=1e-14, atol=1e-14)


# family config -> which of (b, h, S) fields() must return (the rest are None)
FIELD_CASES = {
    "zero": ({"n": 2, "d": 1, "b": {"family": "zero"}}, ""),
    "constant": ({"n": 2, "d": 1, "b": {"family": "constant-drift", "c": [0.5, -1.0]}}, "b"),
    "linear": ({"n": 2, "d": 1,
                "b": {"family": "linear-drift", "A": [[0.0, 1.0], [0.5, -0.2]]}}, "b"),
    "offdiag": ({"n": 3, "d": 1, "b": {"family": "offdiag-monotone", "scale": 0.5}}, "b"),
    "arctan": ({"n": 3, "d": 1, "b": {"family": "arctan-coupling"}}, "b"),
    "expr-lists": ({"n": 2, "d": 2, "b": ["expr:x_2 + 0.1*t", 0.3],
                    "sigma": [["expr:1 + 0.1*x_1", 0.2], None]}, "bS"),
    "diag-sigma": ({"n": 2, "d": 2, "sigma": {"family": "diag-sigma",
                                              "values": ["expr:1 + 0.25*tanh(x_1)", 0.75]}},
                   "S"),
    "per-coordinate": ({"n": 2, "d": 1, "sigma": {
        "family": "per-coordinate", "entries": [["expr:0.8 + 0.2*tanh(x_1)", 0.5]]}}, "S"),
    "constant-sigma": ({"n": 2, "d": 2, "sigma": {"family": "constant",
                                                  "matrix": [[1.0, 0.3], [0.0, 0.8]]}}, "S"),
    "constant-h": ({"n": 2, "d": 2, "h": {"family": "constant", "table": [
        [[0.1, 0.2], [0.3, 0.0]], [[0.3, 0.0], [0.0, -0.1]]]}}, "h"),
    "expr-h": ({"n": 2, "d": 2, "h": [[["expr:0.1*tanh(x_1)", 0.0], None],
                                      [None, [0.0, "expr:0.2*x_2*t"]]]}, "h"),
    "per-coordinate-t": ({"n": 2, "d": 2, "sigma": {"family": "per-coordinate", "entries": [
        ["expr:1 + t*x_1", 0.5], ["expr:0.3*t", "expr:tanh(x_1) - t^2"]]}}, "S"),
    "expr-h-t": ({"n": 2, "d": 1, "h": [[["expr:t*x_2", "expr:0.5 - exp(-t)"]]]}, "h"),
    "mixed-numbers": ({"n": 2, "d": 2, "b": ["expr:x_1 - t", -0.0],
                       "sigma": [[-0.5, "expr:exp(x_2)"], [1e-05, float("inf")]]}, "bS"),
}
# the cases with an entry that reads t
READS_T = {"expr-lists", "expr-h", "per-coordinate-t", "expr-h-t", "mixed-numbers"}


def _value(entry, t, x):
    """One config entry evaluated on its own at x (..., arity)."""
    if isinstance(entry, str):
        return parse_expression(entry.removeprefix("expr:"), x.shape[-1])(t, x)
    return float(entry)


def _reference(section, t, x):
    """(b, h, S) of a FIELD_CASES section, zero-filled, entry by entry.

    Entries of lists read all of x; diag-sigma and per-coordinate entries
    read the one coordinate x[..., k:k+1] of their family.
    """
    n, d = section["n"], section["d"]
    b = np.zeros(x.shape)
    h = np.zeros(x.shape[:-1] + (d, d, n))
    s = np.zeros(x.shape[:-1] + (n, d))
    drift, sigma, loading = section.get("b"), section.get("sigma"), section.get("h")
    if isinstance(drift, list):
        for i, e in enumerate(drift):
            b[..., i] = _value(e, t, x)
    elif drift is not None:
        family, scale = drift["family"], drift.get("scale", 1.0)
        if family == "constant-drift":
            b[...] = drift["c"]
        elif family == "linear-drift":
            b = np.einsum("ij,...j->...i", np.asarray(drift["A"], dtype=float), x)
        elif family == "offdiag-monotone":
            b = scale * (np.sum(x, axis=-1, keepdims=True) - x)
        elif family == "arctan-coupling":
            b = scale * (np.sum(np.arctan(x), axis=-1, keepdims=True) - np.arctan(x))
    if isinstance(sigma, list):
        for l, column in enumerate(sigma):
            for k, e in enumerate(column or ()):
                s[..., k, l] = _value(e, t, x)
    elif sigma is not None and sigma["family"] == "diag-sigma":
        for l, e in enumerate(sigma["values"]):
            s[..., l, l] = _value(e, t, x[..., l:l + 1])
    elif sigma is not None and sigma["family"] == "per-coordinate":
        for l, row in enumerate(sigma["entries"]):
            for k, e in enumerate(row):
                s[..., k, l] = _value(e, t, x[..., k:k + 1])
    elif sigma is not None:
        s[...] = sigma["matrix"]
    if isinstance(loading, list):
        for l, row in enumerate(loading):
            for k, cell in enumerate(row):
                for i, e in enumerate(cell or ()):
                    h[..., l, k, i] = _value(e, t, x)
    elif loading is not None:
        h[...] = loading["table"]
    return b, h, s


# the remark pair at theta = [0.25, 1]: X has b = (0, 0.625), Y has h_11 = (0, 1)
REMARK_SECTIONS = {
    "remark-x": {"n": 2, "d": 1, "b": {"family": "constant-drift", "c": [0.0, 0.625]}},
    "remark-y": {"n": 2, "d": 1, "h": {"family": "constant", "table": [[[0.0, 1.0]]]}},
}


@pytest.mark.parametrize("case", [*FIELD_CASES, "remark-x", "remark-y"])
def test_fields_match_per_entry_callables(case):
    if case.startswith("remark"):
        coeffs = remark_counterexample_pair(0.25, 1.0)[case == "remark-y"]
        section, present = REMARK_SECTIONS[case], "h" if case == "remark-y" else "b"
    else:
        section, present = FIELD_CASES[case]
        coeffs = build_coefficients(section)
    n, d, t = coeffs.n, coeffs.d, 0.3
    x = np.random.default_rng(2).uniform(-2.0, 2.0, (4, 3, n))
    b, h, s = coeffs.fields(t, x)
    assert (b is not None, h is not None, s is not None) == \
        ("b" in present, "h" in present, "S" in present)
    ref_b, ref_h, ref_s = _reference(section, t, x)
    # bit for bit: signed zeros and infinities included
    if b is not None:
        assert b.shape == (4, 3, n) and b.tobytes() == ref_b.tobytes()
    if h is not None:
        assert h.shape == (4, 3, d, d, n) and h.tobytes() == ref_h.tobytes()
    if s is not None:
        assert s.shape == (4, 3, n, d) and s.tobytes() == ref_s.tobytes()


@pytest.mark.parametrize("part, section", [
    ("b", {"b": {"family": "constant-drift", "c": [0.5, -1.0]}}),
    ("sigma", {"sigma": {"family": "constant", "matrix": [[0.5], [1.0]]}}),
    ("h", {"h": {"family": "constant", "table": [[[0.0, 1.0]]]}}),
], ids=["b", "sigma", "h"])
def test_a_broadcast_field_is_a_read_only_view_of_the_constant(part, section):
    # a map's output that needs broadcasting is read in place, never copied
    coeffs = build_coefficients({"n": 2, "d": 1, **section})
    constant = getattr(coeffs, part)(0.0, np.zeros(2))
    field = next(f for f in coeffs.fields(0.0, np.zeros((4, 3, 2))) if f is not None)
    assert field.shape[:2] == (4, 3) and not field.flags.writeable
    assert np.shares_memory(field, constant)
    # at a single point the field is the constant itself
    assert next(f for f in coeffs.fields(0.0, np.zeros(2)) if f is not None) is constant


# systems whose parts are all constants: crosscheck's n = d = 1, and n = 2
# with d = 1 and with d = 2 and loadings
CONSTANT_SYSTEMS = {
    "n1-d1": ({"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}}, INTERVAL),
    "n2-d1": ({"n": 2, "d": 1, "b": {"family": "constant-drift", "c": [0.5, -1.0]},
               "sigma": {"family": "constant", "matrix": [[0.5], [1.0]]}}, INTERVAL),
    "n2-d2-h": ({"n": 2, "d": 2, "b": {"family": "constant-drift", "c": [0.5, -1.0]},
                 "sigma": {"family": "constant", "matrix": [[1.0, 0.3], [0.0, 0.8]]},
                 "h": {"family": "constant", "table": [[[0.1, 0.2], [0.3, 0.0]],
                                                       [[0.3, 0.0], [0.0, -0.1]]]}}, THETA2),
}


def full_shape_copies(coeffs):
    """coeffs with maps that return each field as a full-shape C-order copy."""
    def copying(func, tail):
        return None if func is None else (
            lambda t, x: np.broadcast_to(func(t, x), x.shape[:-1] + tail).copy())

    n, d = coeffs.n, coeffs.d
    return CoefficientSet(n=n, d=d, b=copying(coeffs.b, (n,)), h=copying(coeffs.h, (d, d, n)),
                          sigma=copying(coeffs.sigma, (n, d)))


@pytest.mark.parametrize("controls", [1, 3, "one"], ids=["k1", "k3", "one-control"])
@pytest.mark.parametrize("case", CONSTANT_SYSTEMS)
def test_broadcast_fields_march_with_the_bits_of_full_shape_copies(case, controls):
    section, theta = CONSTANT_SYSTEMS[case]
    coeffs = build_coefficients(section)
    times, dw = stacked_scenarios(theta, n_paths=5)[:2]
    controls = CHUNK_CONTROLS[0] if controls == "one" else list(CHUNK_CONTROLS[:controls])
    x0 = np.linspace(-0.5, 0.5, coeffs.n)
    views = euler_march(coeffs, x0, times, dw, controls, theta)
    copies = euler_march(full_shape_copies(coeffs), x0, times, dw, controls, theta)
    assert views.shape == copies.shape and views.tobytes() == copies.tobytes()


@pytest.mark.parametrize("family", ["offdiag-monotone", "arctan-coupling"])
def test_coupling_drifts_have_the_bits_of_the_np_sum_form(family):
    # the drifts add the columns one at a time; for n <= 7 that is the order
    # np.sum adds them in, signed zeros included
    rng = np.random.default_rng(12)
    for n in range(1, 8):
        drift = build_coefficients({"n": n, "d": 1, "b": {"family": family, "scale": 0.5}}).b
        for shape in [(), (1,), (5,), (3, 4), (2, 20, 7)]:
            x = rng.standard_normal(shape + (n,)) * 10.0 ** rng.integers(-8, 9, shape + (n,))
            x.reshape(-1, n)[0] = -0.0
            x.reshape(-1, n)[-1, 0] = -0.0
            y = np.arctan(x) if family == "arctan-coupling" else x
            expected = 0.5 * (np.sum(y, axis=-1, keepdims=True) - y)
            assert drift(0.0, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", FIELD_CASES)
def test_time_dependence_is_read_from_the_expressions(case):
    assert build_coefficients(FIELD_CASES[case][0]).time_homogeneous == (case not in READS_T)


def test_a_config_part_is_one_expression_call_per_evaluation(monkeypatch):
    coeffs = build_coefficients({
        "n": 2, "d": 2, "b": ["expr:x_2 + t", 0.3],
        "sigma": {"family": "per-coordinate",
                  "entries": [["expr:1 + 0.1*x_1", "expr:tanh(x_1)"], [0.5, "expr:exp(x_1)"]]},
        "h": [[["expr:0.1*x_1", 0.0], None], [None, [0.0, "expr:0.2*t"]]]})
    calls = []
    call = Expression.__call__
    monkeypatch.setattr(Expression, "__call__",
                        lambda self, t, x: calls.append(self) or call(self, t, x))
    coeffs.fields(0.5, np.zeros((7, 2)))
    assert calls == [coeffs.b, coeffs.h, coeffs.sigma]


def test_single_coordinate_families_read_their_own_coordinate():
    x = np.random.default_rng(3).uniform(-2.0, 2.0, (5, 2))
    per_coordinate = build_coefficients({"n": 2, "d": 1, "sigma": {
        "family": "per-coordinate", "entries": [["expr:x_1", "expr:2*x_1"]]}})
    assert np.array_equal(per_coordinate.sigma_matrix(0.0, x)[..., 0], x * [1.0, 2.0])
    diag = build_coefficients({"n": 2, "d": 2, "sigma": {
        "family": "diag-sigma", "values": ["expr:x_1", "expr:3*x_1"]}})
    expected = np.zeros((5, 2, 2))
    expected[:, 0, 0], expected[:, 1, 1] = x[:, 0], 3.0 * x[:, 1]
    assert np.array_equal(diag.sigma_matrix(0.0, x), expected)


@pytest.mark.parametrize("section", [{"b": [None, 0.0]}, {"sigma": [[[1.0], 0.0]]},
                                     {"h": [[[0.0, {}]]]}], ids=["b", "sigma", "h"])
def test_entry_that_is_not_a_number_or_expression_is_a_config_error(section):
    with pytest.raises(ConfigError, match="an entry must be a number or an expression"):
        build_coefficients({"n": 2, "d": 1, **section})
