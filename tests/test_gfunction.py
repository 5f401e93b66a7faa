import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdiffusion.errors import DimensionMismatchError, NonFiniteError
from gdiffusion.gfunction import CovarianceSet, argmax_sigma, eval_G, nondegeneracy_bound

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)


def random_theta(rng, d, n_gen):
    gens = rng.uniform(-2.0, 2.0, size=(n_gen, d, d))
    return CovarianceSet(generators=tuple(gens))


def test_eval_g_symmetrizes():
    # Sigma_2 = [[1, 1], [1, 2]]: G of the symmetrized [[1, 1], [1, 3]] is 9 / 2
    theta = CovarianceSet(generators=(np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]])))
    assert eval_G([[1.0, 2.0], [0.0, 3.0]], theta) == eval_G([[1.0, 1.0], [1.0, 3.0]], theta) == 4.5
    assert argmax_sigma([[1.0, 2.0], [0.0, 3.0]], theta)[0] == 1


def test_eval_g_rejects_nonfinite_and_nonsquare():
    with pytest.raises(NonFiniteError):
        eval_G([[np.nan]], INTERVAL)
    with pytest.raises(DimensionMismatchError):
        eval_G(np.zeros((2, 3)), INTERVAL)


def test_interval_set_is_bang_bang():
    assert INTERVAL.n_generators == 2
    assert INTERVAL.sigma_lower_sq == pytest.approx(0.25)
    assert INTERVAL.sigma_upper_sq == pytest.approx(1.0)


def test_eval_g_zero_matrix():
    for theta in (INTERVAL, CovarianceSet(generators=(np.eye(3),))):
        assert eval_G(np.zeros((theta.dim, theta.dim)), theta) == 0.0


def test_eval_g_interval_enumeration():
    # Enumerate the two-element covariance set {0.25, 1.0} by hand.
    assert eval_G([[2.0]], INTERVAL) == pytest.approx(1.0)
    assert eval_G([[-2.0]], INTERVAL) == pytest.approx(-0.25)


def test_eval_g_singleton_is_linear():
    theta = CovarianceSet.from_interval(1.0, 1.0)
    for a in (-3.0, 0.0, 7.0):
        assert eval_G([[a]], theta) == pytest.approx(a / 2.0)


def test_eval_g_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        eval_G(np.eye(2), INTERVAL)


def test_argmax_sigma_enumeration():
    idx_hi, sigma_hi = argmax_sigma([[2.0]], INTERVAL)
    idx_lo, sigma_lo = argmax_sigma([[-2.0]], INTERVAL)
    assert sigma_hi[0, 0] == pytest.approx(1.0)
    assert sigma_lo[0, 0] == pytest.approx(0.25)
    assert idx_hi == 1 and idx_lo == 0
    # consistency contract with eval_G
    assert eval_G([[2.0]], INTERVAL) == pytest.approx(0.5 * 2.0 * sigma_hi[0, 0])


def test_argmax_tie_break_lowest_index():
    idx, _ = argmax_sigma(np.zeros((1, 1)), INTERVAL)
    assert idx == 0


def test_nondegeneracy_bound_values():
    assert nondegeneracy_bound(INTERVAL) == pytest.approx(0.125)
    assert nondegeneracy_bound(CovarianceSet(generators=(np.eye(2),))) == pytest.approx(0.5)
    singular = CovarianceSet(generators=(np.zeros((2, 2)), np.eye(2)))
    assert nondegeneracy_bound(singular) == 0.0


sym_entries = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.lists(st.floats(-5, 5), min_size=d, max_size=d), min_size=d, max_size=d
    )
)


@settings(max_examples=100, deadline=None)
@given(sym_entries, st.integers(0, 2 ** 31 - 1))
def test_sublinearity_and_homogeneity(entries, seed):
    a = np.array(entries)
    d = len(a)
    rng = np.random.default_rng(seed)
    theta = random_theta(rng, d, n_gen=3)
    b = rng.uniform(-5, 5, size=(d, d))
    lam = rng.uniform(0, 3)
    assert eval_G(a + b, theta) <= eval_G(a, theta) + eval_G(b, theta) + 1e-12
    assert eval_G(lam * a, theta) == pytest.approx(lam * eval_G(a, theta), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_monotonicity_and_nondegeneracy(d, seed):
    rng = np.random.default_rng(seed)
    theta = random_theta(rng, d, n_gen=4)
    b = rng.uniform(-3, 3, size=(d, d))
    c = rng.uniform(-1, 1, size=(d, d))
    a = b + c @ c.T  # a >= b in the PSD order
    ga, gb = eval_G(a, theta), eval_G(b, theta)
    assert ga >= gb - 1e-12
    bound = nondegeneracy_bound(theta)
    assert ga - gb >= bound * np.trace(a - b) - 1e-10


def test_singleton_additivity_exact():
    rng = np.random.default_rng(3)
    theta = CovarianceSet(generators=(rng.uniform(-1, 1, size=(3, 3)),))
    for _ in range(50):
        a = rng.uniform(-4, 4, size=(3, 3))
        b = rng.uniform(-4, 4, size=(3, 3))
        lhs = eval_G(a + b, theta)
        rhs = eval_G(a, theta) + eval_G(b, theta)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_explicit_covariance_psd_validation():
    with pytest.raises(NonFiniteError):
        CovarianceSet(generators=(np.eye(1),), covariances=(np.array([[-1.0]]),))
    # within clamping tolerance: accepted and clamped to zero
    theta = CovarianceSet(generators=(np.eye(1),), covariances=(np.array([[-5e-11]]),))
    assert theta.sigma_lower_sq == 0.0


THREE_GEN_2D = CovarianceSet(generators=(np.array([[1.0, 0.0], [0.4, 0.6]]),
                                         np.array([[0.5, 0.2], [-0.3, 0.9]]), 0.5 * np.eye(2)))


@pytest.mark.parametrize("theta", [INTERVAL, THREE_GEN_2D], ids=["interval", "three-gen-2d"])
def test_stack_equals_per_matrix_calls_bitwise(theta):
    rng = np.random.default_rng(17)
    d = theta.dim
    stack = rng.uniform(-5.0, 5.0, size=(4, 3, d, d))
    values = eval_G(stack, theta)
    index, covs = argmax_sigma(stack, theta)
    assert values.shape == index.shape == (4, 3) and covs.shape == (4, 3, d, d)
    for k in np.ndindex(4, 3):
        assert values[k] == eval_G(stack[k], theta)
        idx, cov = argmax_sigma(stack[k], theta)
        assert type(idx) is int and index[k] == idx
        assert np.array_equal(covs[k], cov)


@pytest.mark.parametrize("theta, exact", [
    (INTERVAL, True), (CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2))), True),
    (THREE_GEN_2D, False)], ids=["interval", "half-and-identity", "three-gen-2d"])
def test_kernel_matches_the_tensordot_loop(theta, exact):
    # the loop eval_G and argmax_sigma used to run: one tensordot per covariance
    rng = np.random.default_rng(23)
    for a in rng.uniform(-5.0, 5.0, size=(200, theta.dim, theta.dim)):
        a = (a + a.T) / 2.0
        values = [0.5 * float(np.tensordot(a, s, axes=2)) for s in theta.covariances]
        g = eval_G(a, theta)
        assert g == max(values) if exact else g == pytest.approx(max(values), rel=1e-14)
        assert argmax_sigma(a, theta)[0] == int(np.argmax(values))


def test_ties_resolve_to_the_lowest_index():
    # all branches tie: tr(0 Sigma_m) = 0 for every m
    tied = CovarianceSet(generators=(np.eye(2), 2.0 * np.eye(2), np.diag([1.0, 3.0])))
    assert argmax_sigma(np.zeros((2, 2)), tied)[0] == 0
    assert argmax_sigma(np.zeros((5, 2, 2)), tied)[0].tolist() == [0] * 5
    # only generators 1 and 2 tie at the top, on A = diag(1, 0): 1 < 4 = 4
    pair = CovarianceSet(generators=(np.eye(2), np.diag([2.0, 1.0]), np.diag([2.0, 3.0])))
    a = np.diag([1.0, 0.0])
    assert eval_G(a, pair) == 2.0
    assert argmax_sigma(a, pair)[0] == 1
    assert argmax_sigma(np.stack([a, -a, a]), pair)[0].tolist() == [1, 0, 1]


def test_covariances_are_one_read_only_stack():
    for theta in (INTERVAL, THREE_GEN_2D):
        m, d = theta.n_generators, theta.dim
        for stack in (theta.covariances, theta.generators):
            assert isinstance(stack, np.ndarray) and stack.shape == (m, d, d)
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        assert len(theta.covariances) == m
        assert [c.shape for c in theta.covariances] == [(d, d)] * m
    assert np.array_equal(THREE_GEN_2D.covariances[2], 0.25 * np.eye(2))


def test_stack_validation_matches_single_matrices():
    with pytest.raises(DimensionMismatchError):
        eval_G(np.zeros((3, 2, 2)), INTERVAL)
    with pytest.raises(DimensionMismatchError):
        argmax_sigma(np.zeros((3, 2, 1)), INTERVAL)
    bad = np.zeros((3, 1, 1))
    bad[1, 0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        eval_G(bad, INTERVAL)
