import tracemalloc

import numpy as np
import pytest

from gdiffusion.errors import DimensionMismatchError, EvaluationError
from gdiffusion.gfunction import CovarianceSet
from gdiffusion.config import controls_from_config
from gdiffusion.scenario import (
    VolatilityControl,
    apply_control,
    control_schedules,
    estimate_sublinear_expectation,
    noise_block,
    seeded_streams,
)

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)


def one_path(seed, T, n_steps, d, path_index=0):
    """Reference increments (n_steps, d) of the single path (seed, path_index)."""
    return noise_block(seed, T, n_steps, d, 1, first=path_index)[:, 0]


def one_control(dw, control, theta, dt):
    """(dB, dQV) of one control: dB (n_steps, ..., d) and the path-independent
    dQV (n_steps, d, d)."""
    db, dqv = apply_control(dw, control_schedules([control], theta), theta, dt)
    return db[:, 0], dqv[:, 0].reshape(control.n_steps, theta.dim, theta.dim)


def scenario(seed, T, n_steps, control, theta=INTERVAL):
    """(dB, dQV) of path 0 of seed under one control."""
    return one_control(one_path(seed, T, n_steps, theta.dim), control, theta, T / n_steps)


def cum_qv(dqv):
    """Running quadratic covariation at the grid times, (n_steps + 1, d, d)."""
    return np.concatenate([np.zeros((1,) + dqv.shape[1:]), np.cumsum(dqv, axis=0)])


class ScalarTerminal:
    """phi applied elementwise to the terminal value of a 1-d driver."""

    def __init__(self, phi):
        self.phi = phi

    def evaluate_batch(self, times, dw, controls):
        db, _ = apply_control(dw, control_schedules(controls, INTERVAL), INTERVAL,
                              times[1] - times[0])
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
    _, dqv = scenario(5, 2.0, 64, VolatilityControl.constant(0, 64), theta)
    qv = cum_qv(dqv)
    assert qv[64, 0, 0] == pytest.approx(2.0)
    assert qv[32, 0, 0] == pytest.approx(1.0)


def test_build_low_volatility_qv():
    _, dqv = scenario(5, 1.0, 40, VolatilityControl.constant(0, 40))
    assert cum_qv(dqv)[-1, 0, 0] == pytest.approx(0.25)


def test_bang_bang_half_half_qv():
    control = VolatilityControl.bang_bang_cycle(0, 1, 64)
    _, dqv = scenario(5, 1.0, 64, control)
    assert cum_qv(dqv)[-1, 0, 0] == pytest.approx(0.5 * 0.25 + 0.5 * 1.0)


def test_qv_psd_and_nondecreasing():
    rng = np.random.default_rng(0)
    theta = CovarianceSet(generators=tuple(rng.uniform(-1, 1, size=(3, 2, 2))))
    control = VolatilityControl.random_switching(3, 32, seed=4)
    _, dqv = scenario(11, 1.0, 32, control, theta)
    for k in range(32):
        w = np.linalg.eigvalsh(dqv[k])
        assert np.min(w) >= -1e-12


def test_path_construction_is_pure():
    dw = one_path(5, 1.0, 16, 1)
    control = VolatilityControl.bang_bang_cycle(0, 1, 16)
    db1, dqv1 = one_control(dw, control, INTERVAL, 1.0 / 16)
    db2, dqv2 = one_control(dw, control, INTERVAL, 1.0 / 16)
    assert np.array_equal(db1, db2) and np.array_equal(dqv1, dqv2)


@pytest.mark.parametrize("paths", [(), (3,), (2, 3)])
def test_stacked_controls_per_step_match_whole_array_apply_control(paths):
    # each step's dB and dQV of a batch of K controls, formed on the one-step
    # slice, has the bits of each control's whole-horizon apply_control
    rng = np.random.default_rng(6)
    theta = CovarianceSet(generators=tuple(rng.uniform(-1, 1, size=(3, 2, 2))))
    controls = [VolatilityControl.random_switching(3, 12, seed=s) for s in range(5)]
    dw = rng.standard_normal((12,) + paths + (2,))
    schedules = control_schedules(controls, theta)
    assert schedules.shape == (12, 5)
    for m in range(12):
        db_m, dqv_m = apply_control(dw[m:m + 1], schedules[m:m + 1], theta, 0.125)
        assert db_m.shape == (1, 5) + paths + (2,)
        assert dqv_m.shape == (1, 5) + (1,) * len(paths) + (2, 2)
        for j, control in enumerate(controls):
            db, dqv = one_control(dw, control, theta, 0.125)
            assert db_m[0, j].tobytes() == db[m].tobytes()
            assert dqv_m[0, j].reshape(2, 2).tobytes() == dqv[m].tobytes()


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
    dw = one_path(5, 1.0, 16, 1)
    short = control_schedules([VolatilityControl.constant(0, 8)] * 2, INTERVAL)
    with pytest.raises(DimensionMismatchError, match="cover 8 steps but noise has 16"):
        apply_control(dw, short, INTERVAL, 1.0 / 16)
    with pytest.raises(DimensionMismatchError, match="cover 16 steps but noise has 8"):
        apply_control(dw[:8], control_schedules([VolatilityControl.constant(0, 16)], INTERVAL),
                      INTERVAL, 1.0 / 16)
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


def test_interval_qv_envelope_exact():
    # Dyadic step count and exact endpoint covariances: the running quadratic
    # variation stays inside [lower * t, upper * t] with exact arithmetic.
    control = VolatilityControl.random_switching(2, 256, seed=8)
    _, dqv = scenario(21, 1.0, 256, control)
    qv = cum_qv(dqv)[:, 0, 0]
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
