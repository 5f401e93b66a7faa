import numpy as np
import pytest

from gdiffusion.coefficients import build_coefficients, remark_counterexample_pair, shifted
from gdiffusion.errors import ConfigError, DimensionMismatchError, NonFiniteError
from gdiffusion.expressions import parse_expression
from gdiffusion.gfunction import CovarianceSet
from gdiffusion.scenario import VolatilityControl, apply_control, noise_block
from gdiffusion.sde import CoefficientSet, euler_march, lipschitz_audit, pathwise_min_gap

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)
UNIT = CovarianceSet.from_interval(1.0, 1.0)


def unit_path(T=1.0, n_steps=64, seed=3, theta=UNIT, generator=0):
    """(times, dB, dQV) of path 0 of seed under a constant control; dB is (1, n_steps, d)."""
    dw = noise_block(seed, T, n_steps, theta.dim, 1)
    db, dqv = apply_control(dw, VolatilityControl.constant(generator, n_steps), theta,
                            T / n_steps)
    return np.linspace(0.0, T, n_steps + 1), db, dqv


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
    qv = np.concatenate([[0.0], np.cumsum(path[2][:, 0, 0])])
    assert np.allclose(states[:, 0], 2.0 + qv, atol=1e-14)


def test_sigma_only_reproduces_driver():
    coeffs = CoefficientSet(n=1, d=1, sigma=lambda t, x: np.ones(x.shape + (1,)))
    path = unit_path(n_steps=40)
    states = march(coeffs, [0.0], path)
    cum_b = np.concatenate([[0.0], np.cumsum(path[1][0, :, 0])])
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


def test_coupled_identical_systems_bitwise():
    coeffs = build_coefficients({
        "n": 2, "d": 1,
        "b": {"family": "offdiag-monotone"},
        "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]},
    })
    times, db, dqv = unit_path()
    xs = euler_march(coeffs, np.array([0.1, 0.2]), times, db, dqv)
    ys = euler_march(coeffs, np.array([0.1, 0.2]), times, db, dqv)
    assert np.array_equal(xs, ys)
    gap, witness = pathwise_min_gap(xs, ys, times)
    assert gap == 0.0
    assert witness == (0, 1, 0.0)


def test_coupled_shifted_drift_gap_is_time():
    base = CoefficientSet(n=2, d=1)
    up = CoefficientSet(n=2, d=1, b=shifted(None, 1.0))
    times, db, dqv = unit_path(T=1.0, n_steps=100)
    xs = euler_march(base, np.zeros(2), times, db, dqv)
    ys = euler_march(up, np.zeros(2), times, db, dqv)
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
    times, db, dqv = unit_path(T=1.0, n_steps=256, theta=INTERVAL, generator=0)
    xs = euler_march(coeffs_x, np.zeros(2), times, db, dqv)
    ys = euler_march(coeffs_y, np.zeros(2), times, db, dqv)
    gap, (path, comp, t_at) = pathwise_min_gap(xs, ys, times)
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
            fine = noise_block(seed, 1.0, n_fine, 1, 1)[0]
            dw = fine.reshape(n_coarse, factor, 1).sum(axis=1)
            times = np.linspace(0.0, 1.0, n_coarse + 1)
            dqv = np.ones((n_coarse, 1, 1)) / n_coarse
            states = euler_march(coeffs, np.array([1.0]), times, dw, dqv)
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
    db, dqv = apply_control(noise_block(5, 1.0, n_steps, theta.dim, 3), control, theta,
                            1.0 / n_steps)
    batch = euler_march(coeffs, x0, times, db, dqv)
    for p in range(3):
        dw = noise_block(5, 1.0, n_steps, theta.dim, n_paths=1, first=p)
        single = euler_march(coeffs, x0, times, *apply_control(dw, control, theta, 1.0 / n_steps))
        assert np.array_equal(batch[p], single[0])


def test_euler_step_is_the_per_entry_sum():
    section, theta = BATCH_CASES["d2-h-cross-sigma"]
    coeffs = build_coefficients(section)
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1.0, 1.0, (5, 2))
    db = rng.standard_normal((5, 1, 2))
    dqv = np.array([[[0.3, 0.1], [0.1, 0.2]]])
    step = euler_march(coeffs, x0, np.array([0.0, 0.25]), db, dqv)[:, 1]
    expected = x0 + 0.25 * coeffs.b(0.0, x0)
    for l in range(2):
        expected += coeffs.eval_sigma(l, 0.0, x0) * db[:, 0, l, None]
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
}


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
    if b is not None:
        assert b.shape == (4, 3, n) and np.array_equal(b, ref_b)
    if h is not None:
        assert h.shape == (4, 3, d, d, n) and np.array_equal(h, ref_h)
    if s is not None:
        assert s.shape == (4, 3, n, d) and np.array_equal(s, ref_s)


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
