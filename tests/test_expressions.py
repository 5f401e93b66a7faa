import numpy as np
import pytest

from gdiffusion.errors import ConfigError
from gdiffusion.expressions import parse_expression


def test_arithmetic_and_precedence():
    f = parse_expression("1 + 2 * x_1 ^ 2 - 3 / 2", arity=1)
    assert f(0.0, np.array([2.0])) == pytest.approx(1 + 2 * 4 - 1.5)


def test_power_right_associative():
    f = parse_expression("2 ^ 3 ^ 2", arity=1)
    assert f(0.0, np.array([0.0])) == pytest.approx(512.0)


def test_unary_minus_and_functions():
    f = parse_expression("-tanh(x_1) + exp(0) + arctan(x_2)", arity=2)
    x = np.array([0.3, -1.0])
    assert f(0.0, x) == pytest.approx(-np.tanh(0.3) + 1.0 + np.arctan(-1.0))


def test_min_max_binary():
    f = parse_expression("min(x_1, 2) + max(x_1, 0)", arity=1)
    assert f(0.0, np.array([3.0])) == pytest.approx(2 + 3)
    assert f(0.0, np.array([-1.0])) == pytest.approx(-1 + 0)


def test_time_variable():
    f = parse_expression("t * x_1", arity=1)
    assert f(2.0, np.array([3.0])) == pytest.approx(6.0)


def test_vectorized_batch():
    f = parse_expression("x_1 + 0.1 * x_2", arity=2)
    x = np.arange(12.0).reshape(2, 3, 2)
    out = f(0.0, x)
    assert out.shape == (2, 3)
    assert np.allclose(out, x[..., 0] + 0.1 * x[..., 1])


def test_constant_broadcasts():
    f = parse_expression("1.5", arity=2)
    out = f(0.0, np.zeros((4, 2)))
    assert out.shape == (4,)
    assert np.all(out == 1.5)


@pytest.mark.parametrize(
    "text", ["x_3", "foo(x_1)", "x_1 +", "(x_1", "1 ? 2", "min(x_1)", "y"]
)
def test_rejects_bad_input_with_position(text):
    with pytest.raises(ConfigError) as err:
        parse_expression(text, arity=2)
    assert "position" in str(err.value)


X = np.array([[0.3, -1.2], [1.7, 0.4], [-0.6, 2.5]])
POS = np.array([[0.3, 1.2], [1.7, 0.4], [0.6, 2.5]])


@pytest.mark.parametrize("text, formula, x", [
    ("x_1 + x_2", lambda t, x: x[:, 0] + x[:, 1], X),
    ("x_1 - x_2 - 0.5", lambda t, x: (x[:, 0] - x[:, 1]) - 0.5, X),
    ("x_1 * x_2 / 3", lambda t, x: (x[:, 0] * x[:, 1]) / 3.0, X),
    ("-x_1 + -(-x_2)", lambda t, x: -x[:, 0] + -(-x[:, 1]), X),
    ("x_1 ^ x_2", lambda t, x: np.power(x[:, 0], x[:, 1]), POS),
    ("x_1 ^ x_2 ^ 0.5", lambda t, x: np.power(x[:, 0], np.power(x[:, 1], 0.5)), POS),
    ("-x_1 ^ 2", lambda t, x: -np.power(x[:, 0], 2.0), X),
    ("exp(x_1) + tanh(x_2) * arctan(x_1)",
     lambda t, x: np.exp(x[:, 0]) + np.tanh(x[:, 1]) * np.arctan(x[:, 0]), X),
    ("min(x_1, x_2) - max(x_1, 0.25)",
     lambda t, x: np.minimum(x[:, 0], x[:, 1]) - np.maximum(x[:, 0], 0.25), X),
    ("t * x_1 + t ^ 2", lambda t, x: t * x[:, 0] + np.power(t, 2.0), X),
])
def test_compiled_expression_is_the_numpy_formula_exactly(text, formula, x):
    out = parse_expression(text, arity=2)(0.7, x)
    assert np.array_equal(out, formula(0.7, x))
