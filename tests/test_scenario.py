import tracemalloc

import numpy as np
import pytest

from gdiffusion.coefficients import build_coefficients
from gdiffusion.errors import DimensionMismatchError, EvaluationError, NonFiniteError
from gdiffusion.functions import TestFunction
from gdiffusion.gfunction import CovarianceSet
from gdiffusion import scenario
from gdiffusion.config import controls_from_config, theta_from_config
from gdiffusion.sde import CoefficientSet, SDETerminalFunctional, euler_march
from gdiffusion.scenario import (
    VolatilityControl,
    apply_control,
    control_schedules,
    estimate_sublinear_expectation,
    lockstep_shape,
    noise_block,
    seeded_streams,
)

from test_acceptance import COMPARISON_CONFIG, FEYNMAN_CONFIG
from test_crosscheck import MATRIX_UNCERTAINTY

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)
# the scenario of the d = 2 matrix rows of test_crosscheck.py
MATRIX_CONFIG = {"seed": 424242, **MATRIX_UNCERTAINTY,
                 "scenario": {"T": 0.5, "n_steps": 100, "n_paths": 20000,
                              "controls": {"constants": True, "random_switching": 16, "seed": 9}}}


def one_path(seed, T, n_steps, d, path_index=0):
    """Reference increments (n_steps, d) of the single path (seed, path_index)."""
    return noise_block(seed, T, n_steps, d, 1, first=path_index)[:, 0]


def horizon_db(dw, schedules, theta):
    """dB (n_steps, K, ..., d) of dW (n_steps, ..., d) on the whole horizon
    under the generator indices (n_steps, K) of K controls: the oracle of the
    march's one-step ``apply_control``."""
    return np.einsum("kcij,k...j->kc...i", theta.generators[schedules], dw)


def one_control(dw, control, theta):
    """dB (n_steps, ..., d) of one control."""
    return horizon_db(dw, control_schedules([control], theta), theta)[:, 0]


def marched_qv(seed, T, n_steps, control, theta=INTERVAL):
    """Running quadratic covariation <B^l, B^k> of path 0 of seed under one
    control at the grid times, (n_steps + 1, d, d), as the Euler march's
    loading term sums it: state l * d + k has the loading h_lk = 1 alone."""
    d = theta.dim
    table = np.eye(d * d).reshape(d, d, d * d)
    coeffs = CoefficientSet(n=d * d, d=d, h=lambda t, x: table, h_symmetric=False)
    states = euler_march(coeffs, np.zeros(d * d), np.linspace(0.0, T, n_steps + 1),
                         noise_block(seed, T, n_steps, d, 1), control, theta)[0]
    return states.reshape(n_steps + 1, d, d)


class ScalarTerminal:
    """phi applied elementwise to the terminal value of a 1-d driver."""

    def __init__(self, phi):
        self.phi = phi

    def evaluate_batch(self, times, dw, controls):
        db = horizon_db(dw, control_schedules(controls, INTERVAL), INTERVAL)
        return self.phi(np.sum(db, axis=0)[..., 0])


def control_family(n_steps, n_switching, seed):
    """The constant controls plus n_switching seeded switching schedules."""
    return controls_from_config({"constants": True, "random_switching": n_switching,
                                 "seed": seed}, INTERVAL, n_steps, seed)


def test_noise_regeneration_bit_identical():
    a = one_path(1, 1.0, 4, 1)
    b = one_path(1, 1.0, 4, 1)
    assert np.array_equal(a, b)


def test_noise_block_matches_per_path_streams():
    block = noise_block(9, 1.0, 16, 2, n_paths=5)
    assert block.shape == (16, 5, 2) and block.flags.c_contiguous
    for p in range(5):
        assert np.array_equal(block[:, p], one_path(9, 1.0, 16, 2, path_index=p))
    assert np.array_equal(block[:, 2:], noise_block(9, 1.0, 16, 2, n_paths=3, first=2))


@pytest.mark.parametrize("d", [1, 2])
def test_time_major_column_is_its_own_stream(d):
    block = noise_block(4, 0.5, 12, d, n_paths=7, first=3)
    for p in range(7):
        alone = noise_block(4, 0.5, 12, d, n_paths=1, first=3 + p)
        assert alone.shape == (12, 1, d)
        assert block[:, p].tobytes() == alone[:, 0].tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_time_major_sub_block_regenerates(d):
    block = noise_block(4, 0.5, 12, d, n_paths=9)
    for a, b in ((0, 9), (0, 1), (2, 6), (5, 9), (8, 9)):
        sub = noise_block(4, 0.5, 12, d, n_paths=b - a, first=a)
        assert sub.shape == (12, b - a, d)
        assert block[:, a:b].tobytes() == sub.tobytes()


def seed_sequence_path(seed, T, n_steps, d, p):
    """Path p of seed from its own SeedSequence: the construction noise_block
    replaces, kept as the oracle of its streams."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, p))))
    return rng.standard_normal((n_steps, d)) * np.sqrt(T / n_steps)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed, first, n_paths", [
    (0, 0, 1100),                  # more paths than one hashing pass
    (2**32 + 5, 3, 12),            # a seed of two words
    (2**130 + 7, 0, 12),           # five entropy words, more than the pool of 4
    (7, 2**32 - 6, 12),            # the path index gains a word inside the block
    (7, 2**63 + 5, 12),
    (2**32 - 1, 2**96 - 2, 5),     # the index's upper words carry inside the block
], ids=["seed0", "seed-2-words", "seed-5-words", "first-straddles-2^32", "first-2^63",
        "first-straddles-2^96"])
def test_noise_block_equals_the_seed_sequence_streams(seed, first, n_paths, d):
    block = noise_block(seed, 0.5, 13, d, n_paths, first=first)
    assert block.shape == (13, n_paths, d) and block.flags.c_contiguous
    for p in range(n_paths):
        assert block[:, p].tobytes() == seed_sequence_path(seed, 0.5, 13, d, first + p).tobytes()


def test_seeded_streams_equal_the_seed_sequence_streams():
    # each stream ends on an odd count of 32-bit draws, so the reused
    # generator holds a buffered half word that the next reseed must drop
    prefix = (2**40 + 3, 9, 0)
    for j, rng in enumerate(seeded_streams(prefix, 2**32 - 2, 4), start=2**32 - 2):
        alone = np.random.Generator(np.random.PCG64(np.random.SeedSequence(prefix + (j,))))
        assert rng.random(5).tobytes() == alone.random(5).tobytes()
        assert (rng.integers(0, 2**31, 3, dtype=np.uint32).tolist()
                == alone.integers(0, 2**31, 3, dtype=np.uint32).tolist())


def test_negative_seed_is_refused():
    # SeedSequence refuses it too; a word split of -1 would give 0xFFFFFFFF
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence((-1, 0))
    with pytest.raises(ValueError, match="non-negative"):
        noise_block(-1, 1.0, 4, 1, 2)


def test_noise_block_allocates_little_beyond_its_output():
    tracemalloc.start()
    try:
        block = noise_block(424242, 0.5, 100, 1, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * block.nbytes


def test_noise_invalid_sizes():
    for shape in ({"T": -1.0}, {"T": 0.0}, {"n_steps": 0}, {"d": 0}, {"n_paths": 0},
                  {"n_paths": -3}, {"first": -1}):
        args = {"seed": 1, "T": 1.0, "n_steps": 4, "d": 1, "n_paths": 2, **shape}
        with pytest.raises(DimensionMismatchError, match="invalid noise shape"):
            noise_block(**args)


def test_increment_moments_within_4_sigma():
    # Pooled variance of N(0, dt) draws: se(var) ~ dt * sqrt(2/(N-1)).
    n_paths, n_steps, dt = 250, 400, 0.25
    draws = noise_block(123, 0.25 * 400, n_steps, 1, n_paths).ravel()
    n = draws.size
    assert abs(np.mean(draws)) < 4 * np.sqrt(dt / n)
    assert abs(np.var(draws, ddof=1) - dt) < 4 * dt * np.sqrt(2.0 / (n - 1))


def test_distinct_seeds_uncorrelated():
    a = one_path(1, 1.0, 100_000, 1).ravel()
    b = one_path(2, 1.0, 100_000, 1).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(a.size)


def test_control_validation():
    with pytest.raises(DimensionMismatchError):
        VolatilityControl(np.array([0, -1]))
    with pytest.raises(DimensionMismatchError):
        VolatilityControl(np.array([[0, 1]]))
    c = VolatilityControl.constant(1, 8)
    assert c.n_steps == 8 and c.label == "constant[1]"


def test_control_labels():
    # reports name controls by these labels
    assert VolatilityControl.constant(2, 4).label == "constant[2]"
    assert VolatilityControl.random_switching(3, 4, seed=7).label == "switching[seed=7]"
    assert VolatilityControl.bang_bang_cycle(0, 2, 4).label == "bangbang[0,2]"
    assert VolatilityControl(np.array([3, 0, 1])).label == "explicit[3..]"
    assert VolatilityControl(np.array([3, 0]), label="mine").label == "mine"


def test_build_constant_unit_volatility_qv_is_time():
    theta = CovarianceSet.from_interval(1.0, 1.0)
    qv = marched_qv(5, 2.0, 64, VolatilityControl.constant(0, 64), theta)
    assert qv[64, 0, 0] == pytest.approx(2.0)
    assert qv[32, 0, 0] == pytest.approx(1.0)


def test_build_low_volatility_qv():
    qv = marched_qv(5, 1.0, 40, VolatilityControl.constant(0, 40))
    assert qv[-1, 0, 0] == pytest.approx(0.25)


def test_bang_bang_half_half_qv():
    control = VolatilityControl.bang_bang_cycle(0, 1, 64)
    qv = marched_qv(5, 1.0, 64, control)
    assert qv[-1, 0, 0] == pytest.approx(0.5 * 0.25 + 0.5 * 1.0)


def test_qv_psd_and_nondecreasing():
    rng = np.random.default_rng(0)
    theta = CovarianceSet(generators=tuple(rng.uniform(-1, 1, size=(3, 2, 2))))
    control = VolatilityControl.random_switching(3, 32, seed=4)
    qv = marched_qv(11, 1.0, 32, control, theta)
    for k in range(32):
        w = np.linalg.eigvalsh(qv[k + 1] - qv[k])
        assert np.min(w) >= -1e-12


def test_path_construction_is_pure():
    dw = one_path(5, 1.0, 16, 1)
    control = VolatilityControl.bang_bang_cycle(0, 1, 16)
    db1 = one_control(dw, control, INTERVAL)
    db2 = one_control(dw, control, INTERVAL)
    assert np.array_equal(db1, db2)


@pytest.mark.parametrize("paths", [(), (3,), (2, 3)])
def test_stacked_controls_per_step_match_whole_array_apply_control(paths):
    # each step's dB of a batch of K controls, formed by the one-step
    # apply_control on the (K, 1, ..) index the march builds, has the bits of
    # each control's whole-horizon dB
    rng = np.random.default_rng(6)
    theta = CovarianceSet(generators=tuple(rng.uniform(-1, 1, size=(3, 2, 2))))
    controls = [VolatilityControl.random_switching(3, 12, seed=s) for s in range(5)]
    dw = rng.standard_normal((12,) + paths + (2,))
    schedules = control_schedules(controls, theta)
    assert schedules.shape == (12, 5)
    index = schedules.reshape((12, 5) + (1,) * len(paths))
    whole = horizon_db(dw, schedules, theta)
    for m in range(12):
        db_m = apply_control(dw[m], index[m], theta)
        assert db_m.shape == (5,) + paths + (2,)
        assert db_m.tobytes() == whole[m].tobytes()
        for j, control in enumerate(controls):
            assert db_m[j].tobytes() == one_control(dw, control, theta)[m].tobytes()
            alone = apply_control(dw[m], schedules[m, j], theta)
            assert alone.tobytes() == db_m[j].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_per_path_index_gives_each_slot_the_bits_of_its_constant_index(d):
    # an index per control and path (K, P) gives slot (k, p) the bits that
    # the constant (K, 1) index of that slot's generator gives it
    rng = np.random.default_rng(11 + d)
    theta = CovarianceSet(generators=tuple(rng.uniform(-1, 1, size=(4, d, d))))
    n_controls, n_paths = 5, 7
    dw_m = rng.standard_normal((n_paths, d))
    index = rng.integers(0, 4, size=(n_controls, n_paths))
    db_m = apply_control(dw_m, index, theta)
    assert db_m.shape == (n_controls, n_paths, d)
    for g in range(4):
        constant = apply_control(dw_m, np.full((n_controls, 1), g), theta)
        assert constant.shape == (n_controls, n_paths, d)
        slots = index == g
        assert db_m[slots].tobytes() == constant[slots].tobytes()


def test_control_schedules_are_checked_once_against_theta():
    controls = [VolatilityControl.constant(1, 8), VolatilityControl.constant(0, 8)]
    assert control_schedules(controls[:1], INTERVAL).tolist() == [[1]] * 8
    assert control_schedules(controls, INTERVAL).tolist() == [[1, 0]] * 8
    with pytest.raises(DimensionMismatchError, match="generator 2 but the set has only 2"):
        control_schedules(controls + [VolatilityControl.constant(2, 8)], INTERVAL)
    with pytest.raises(DimensionMismatchError, match="the same steps"):
        control_schedules(controls + [VolatilityControl.constant(0, 4)], INTERVAL)
    with pytest.raises(DimensionMismatchError, match="at least one control"):
        control_schedules([], INTERVAL)


def test_control_coverage_mismatch():
    with pytest.raises(DimensionMismatchError, match="generator 5"):
        control_schedules([VolatilityControl.constant(5, 16)], INTERVAL)


def test_estimate_martingale_near_zero():
    controls = control_family(50, n_switching=6, seed=1)
    est, se, _ = estimate_sublinear_expectation(
        ScalarTerminal(lambda b: b), INTERVAL, controls,
        n_paths=4000, seed=77, T=1.0, n_steps=50)
    assert abs(est) <= 3 * se


def test_estimate_square_attains_upper_variance():
    controls = [VolatilityControl.constant(m, 50) for m in range(2)]
    est, se, best = estimate_sublinear_expectation(
        ScalarTerminal(lambda b: b ** 2), INTERVAL, controls,
        n_paths=6000, seed=101, T=1.0, n_steps=50)
    assert abs(est - 1.0) <= 3 * se
    assert best.label == "constant[1]"


def test_estimate_negative_square_attains_lower_variance():
    controls = [VolatilityControl.constant(m, 50) for m in range(2)]
    est, se, best = estimate_sublinear_expectation(
        ScalarTerminal(lambda b: -(b ** 2)), INTERVAL, controls,
        n_paths=6000, seed=101, T=1.0, n_steps=50)
    assert abs(est - (-0.25)) <= 3 * se
    assert best.label == "constant[0]"


def test_estimate_monotone_in_control_family():
    functional = ScalarTerminal(lambda b: np.tanh(b))
    fam_small = control_family(40, n_switching=4, seed=2)
    fam_large = fam_small + [VolatilityControl.bang_bang_cycle(0, 1, 40)]
    small, _, _ = estimate_sublinear_expectation(functional, INTERVAL, fam_small,
                                                 n_paths=500, seed=3, T=1.0, n_steps=40)
    large, _, _ = estimate_sublinear_expectation(functional, INTERVAL, fam_large,
                                                 n_paths=500, seed=3, T=1.0, n_steps=40)
    assert large >= small  # exact: shared seeds make existing means identical


@pytest.mark.parametrize("phi", [lambda b: b ** 2, lambda b: np.maximum(b - 1.0, 0.0)])
def test_convex_functionals_maximized_at_upper_constant(phi):
    # For these convex payoffs the domination holds per sample, hence exactly.
    constants = [VolatilityControl.constant(m, 30) for m in range(2)]
    _, _, best = estimate_sublinear_expectation(
        ScalarTerminal(phi), INTERVAL, constants,
        n_paths=400, seed=5, T=1.0, n_steps=30)
    assert best.label == "constant[1]"


def test_nonfinite_functional_diagnostic():
    bad = ScalarTerminal(lambda b: np.where(np.arange(b.size) == 0, np.nan, b))
    controls = [VolatilityControl.constant(0, 4)]
    with pytest.raises(EvaluationError) as err:
        estimate_sublinear_expectation(bad, INTERVAL, controls,
                                       n_paths=3, seed=1, T=1.0, n_steps=4)
    assert "control 0" in str(err.value) and "path 0" in str(err.value)


def per_control_estimate(functional, theta, controls, n_paths, seed, T, n_steps):
    """The estimator's earlier loop, kept as its oracle: the whole noise block,
    then each control alone (K = 1), in order.  Returns ((estimate, standard
    error, best label), the (K, n_paths) values)."""
    dw = noise_block(seed, T, n_steps, theta.dim, n_paths)
    times = np.linspace(0.0, float(T), int(n_steps) + 1)
    rows, best = [], None
    for control in controls:
        values = np.asarray(functional.evaluate_batch(times, dw, [control])[0], dtype=float)
        rows.append(values)
        mean = float(np.mean(values))
        if best is None or mean > best[0]:
            best = (mean, float(np.std(values, ddof=1) / np.sqrt(n_paths)), control.label)
    return best, np.array(rows)


class Recording:
    """A functional whose evaluate_batch calls keep their controls and values."""

    def __init__(self, functional):
        self.functional = functional
        self.calls = []

    def evaluate_batch(self, times, dw, controls):
        values = self.functional.evaluate_batch(times, dw, controls)
        self.calls.append((len(controls), dw.shape[1], values))
        return values


THETA2 = CovarianceSet(generators=(np.array([[1.0, 0.0], [0.4, 0.6]]),
                                   np.array([[0.5, 0.2], [0.0, 1.0]])))

# a 2-D system driven in d = 1 and in d = 2, with state-dependent fields
SYSTEMS = {
    1: ({"n": 2, "d": 1, "b": {"family": "offdiag-monotone"},
         "sigma": [["expr:0.5 + 0.1*tanh(x_2)", 1.0]]}, INTERVAL),
    2: ({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
         "sigma": [["expr:0.5 + 0.1*tanh(x_2)", 0.3], [0.2, "expr:0.8 + 0.1*arctan(x_1)"]],
         "h": [[["expr:0.1*tanh(x_1)", 0.05], ["expr:0.02*x_2", 0.1]],
               [["expr:0.02*x_2", 0.1], [0.0, "expr:0.1*arctan(x_2)"]]]}, THETA2),
}


def terminal_functional(d):
    section, theta = SYSTEMS[d]
    f = TestFunction(f=lambda x: np.tanh(x[..., 0]) + x[..., 1] ** 2, dim=2)
    return SDETerminalFunctional(build_coefficients(section), f, np.array([0.1, -0.2]), theta)


def family(theta, n_controls, n_steps):
    """The constant controls, then seeded switching ones, n_controls in all;
    one control is a switching one."""
    constants = [VolatilityControl.constant(m, n_steps) for m in range(theta.n_generators)]
    controls = constants if n_controls > 1 else []
    return controls + [VolatilityControl.random_switching(theta.n_generators, n_steps, seed=s)
                       for s in range(n_controls - len(controls))]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_controls", [1, 70])
def test_chunked_lockstep_estimate_has_the_bits_of_the_per_control_loop(n_controls, d):
    # 1100 paths: two whole chunks of 512 and a partial one when K = 70
    theta = SYSTEMS[d][1]
    controls = family(theta, n_controls, 12)
    functional = Recording(terminal_functional(d))
    est, se, best = estimate_sublinear_expectation(functional, theta, controls,
                                                   n_paths=1100, seed=6, T=0.5, n_steps=12)
    expected, rows = per_control_estimate(terminal_functional(d), theta, controls,
                                          1100, 6, 0.5, 12)
    assert (est, se, best.label) == expected
    assert [call[:2] for call in functional.calls] == (
        [(1, 1100)] if n_controls == 1 else [(70, 512), (70, 512), (70, 76)] if d == 1
        else [(39, 512), (31, 512), (39, 512), (31, 512), (39, 76), (31, 76)])
    # the calls go chunk by chunk, each in control order
    values, first, k = np.empty_like(rows), 0, 0
    for count, paths, batch in functional.calls:
        values[k:k + count, first:first + paths] = batch
        k += count
        if k == n_controls:
            first, k = first + paths, 0
    assert values.tobytes() == rows.tobytes()


class NaNAt:
    """phi(B_T) of ScalarTerminal, with NaN at one (control, global path)."""

    def __init__(self, control, path):
        self.control, self.path, self.first = control, path, 0

    def evaluate_batch(self, times, dw, controls):
        values = ScalarTerminal(lambda b: b).evaluate_batch(times, dw, controls)
        local = self.path - self.first
        if 0 <= local < dw.shape[1]:
            values[self.control, local] = np.nan
        self.first += dw.shape[1]
        return values


def test_nonfinite_value_names_its_global_path_and_control():
    controls = family(INTERVAL, 70, 4)
    with pytest.raises(EvaluationError) as err:
        estimate_sublinear_expectation(NaNAt(3, 700), INTERVAL, controls,
                                       n_paths=1100, seed=1, T=1.0, n_steps=4)
    assert str(err.value) == ("functional returned a non-finite value at control 3 "
                              f"({controls[3].label}), path 700")


@pytest.mark.filterwarnings("ignore:overflow")
def test_lockstep_blow_up_raises_what_the_first_failing_control_raises_alone():
    # x' = x^3 from 0.6 blows up at a step that depends on the control: control
    # 0 fails at step 15, others earlier, so the lockstep march fails elsewhere
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: x ** 3,
                            sigma=lambda t, x: np.ones(x.shape + (1,)))
    f = TestFunction(f=lambda x: x[..., 0], dim=1)
    functional = SDETerminalFunctional(coeffs, f, np.array([0.6]), INTERVAL)
    controls = family(INTERVAL, 70, 16)
    times = np.linspace(0.0, 1.0, 17)
    with pytest.raises(NonFiniteError) as lockstep:
        functional.evaluate_batch(times, noise_block(3, 1.0, 16, 1, 512), controls)
    with pytest.raises(NonFiniteError) as alone:
        functional.evaluate_batch(times, noise_block(3, 1.0, 16, 1, 1100), controls[:1])
    with pytest.raises(NonFiniteError) as err:
        estimate_sublinear_expectation(functional, INTERVAL, controls,
                                       n_paths=1100, seed=3, T=1.0, n_steps=16)
    assert str(err.value) == str(alone.value) != str(lockstep.value)
    assert str(err.value).startswith("non-finite state at step 15 ")


@pytest.mark.filterwarnings("ignore:overflow")
def test_the_blow_up_fallback_draws_one_chunk_at_a_time(monkeypatch):
    # the x^3 blow-up above: every draw, the lockstep ones and the fallback's,
    # covers at most one chunk of the 1100 paths, so the error path holds no
    # more noise than the memory refusal counts
    coeffs = CoefficientSet(n=1, d=1, b=lambda t, x: x ** 3,
                            sigma=lambda t, x: np.ones(x.shape + (1,)))
    f = TestFunction(f=lambda x: x[..., 0], dim=1)
    functional = SDETerminalFunctional(coeffs, f, np.array([0.6]), INTERVAL)
    controls = family(INTERVAL, 70, 16)
    drawn = []

    def recording_draw(seed, T, n_steps, d, n_paths, first=0):
        drawn.append(n_paths)
        return noise_block(seed, T, n_steps, d, n_paths, first=first)

    monkeypatch.setattr(scenario, "noise_block", recording_draw)
    with pytest.raises(NonFiniteError, match=r"^non-finite state at step 15 "):
        estimate_sublinear_expectation(functional, INTERVAL, controls,
                                       n_paths=1100, seed=3, T=1.0, n_steps=16)
    chunk, _ = lockstep_shape(70, 1100, 1)
    assert chunk == 512 and len(drawn) > 3 and max(drawn) <= chunk


@pytest.mark.parametrize("cfg, width, shape, marches", [
    (COMPARISON_CONFIG, 2 * 2, (500, 20), 10),
    (FEYNMAN_CONFIG, 1, (512, 66), 40),
    (MATRIX_CONFIG, 2, (1024, 18), 20),
], ids=["comparison", "crosscheck", "matrix"])
def test_lockstep_shape_of_the_benchmark_configs(cfg, width, shape, marches):
    # width: two systems of n = 2 states for verify-comparison, d for the estimator
    scen = cfg["scenario"]
    theta = theta_from_config(cfg)
    n_controls = len(controls_from_config(scen["controls"], theta, scen["n_steps"], cfg["seed"]))
    paths, batch = lockstep_shape(n_controls, scen["n_paths"], width)
    assert (paths, batch) == shape
    assert -(-scen["n_paths"] // paths) * -(-n_controls // batch) == marches


def test_interval_qv_envelope_exact():
    # Dyadic step count and exact endpoint covariances: the running quadratic
    # variation stays inside [lower * t, upper * t] with exact arithmetic.
    control = VolatilityControl.random_switching(2, 256, seed=8)
    qv = marched_qv(21, 1.0, 256, control)[:, 0, 0]
    t = np.linspace(0.0, 1.0, 257)
    assert np.all(qv >= 0.25 * t)
    assert np.all(qv <= 1.0 * t)


def test_path_records_noise_provenance():
    # A path is identified by (seed, path index) alone: path 5 of seed 3 is
    # the same stream inside any block that covers it.
    alone = one_path(3, 1.0, 8, 1, path_index=5)
    assert np.array_equal(alone, noise_block(3, 1.0, 8, 1, 8)[:, 5])
    assert np.array_equal(alone, noise_block(3, 1.0, 8, 1, 2, first=4)[:, 1])
    assert not np.array_equal(alone, one_path(4, 1.0, 8, 1, path_index=5))


def test_public_names_resolve():
    import gdiffusion

    for name in gdiffusion.__all__:
        assert getattr(gdiffusion, name, None) is not None, name
