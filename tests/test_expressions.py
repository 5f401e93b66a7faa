import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdiffusion.errors import ConfigError
from gdiffusion.expressions import Expression, _parse, parse_expression


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
    "text", ["x_3", "foo(x_1)", "x_1 +", "(x_1", "1 ? 2", "min(x_1)", "y",
             # forms that Python reads but the grammar does not hold
             "+x_1", "x_1 ** 2", "exp(x_1,)", "(exp)(x_1)", "x_1 if t else 2", "not x_1",
             "True", "(x_1, 2)", "exp(*x_1)", ".5", "1_0"]
)
def test_rejects_bad_input_with_position(text):
    with pytest.raises(ConfigError) as err:
        parse_expression(text, arity=2)
    assert "position" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("x_1+1?2", "bad character '?' at position 5"),
    ("1 ? 2", "bad character '?' at position 2"),
    ("x_1 + foo(2)", "unknown function 'foo' at position 6"),
    ("2 * y", "unknown name 'y' at position 4"),
    ("t + x_3", "variable x_3 out of range for arity 2 at position 4"),
    ("1 + min(x_1)", "min takes 2 arguments, got 1 at position 4"),
    ("tanh(1, 2)", "tanh takes 1 argument, got 2 at position 0"),
    ("x_1 2", "invalid syntax at position 4"),
    ("x_1 * * 2", "invalid syntax at position 6"),
    ("(x_1))", "invalid syntax at position 5"),
    # a text that ends early is refused at its end
    ("x_1 +", "invalid syntax at position 5"),
    ("exp((x_1)", "invalid syntax at position 9"),
])
def test_refusal_messages(text, message):
    with pytest.raises(ConfigError) as err:
        parse_expression(text, arity=2)
    assert str(err.value) == f"{message} in {text!r}"


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
    # forms that Python's own literals and layout would refuse or change
    ("05 * x_1", lambda t, x: 5.0 * x[:, 0], X),
    ("1e999 * x_1", lambda t, x: np.inf * x[:, 0], X),
    ("x_01", lambda t, x: x[:, 0], X),
    ("x_1\t-\nx_2", lambda t, x: x[:, 0] - x[:, 1], X),
    # whitespace at either end is skipped
    ("x_1 ", lambda t, x: x[:, 0], X),
    ("x_1\t", lambda t, x: x[:, 0], X),
    (" \nx_1 * x_2 ", lambda t, x: x[:, 0] * x[:, 1], X),
])
def test_compiled_expression_is_the_numpy_formula_exactly(text, formula, x):
    out = parse_expression(text, arity=2)(0.7, x)
    assert np.array_equal(out, formula(0.7, x))


def test_table_is_one_function_of_generated_names_only():
    text = "tanh(x_1) + exp(t) * min(x_2, 2) ^ arctan(1e-05)"
    table = Expression((2, 2), {(0, 0): (text, None), (1, 0): ("max(x_1, -x_1)", 1),
                                (1, 1): (float("inf"), None)}, arity=2)
    code = table._func.__code__
    assert code.co_names and all(name == "shape" or re.fullmatch(r"_\d+", name)
                                 for name in code.co_names)
    # locals: the arguments, the table and one generated temporary per inner call
    assert {"t", "x", "out"} <= set(code.co_varnames)
    assert all(re.fullmatch(r"v\d+", name) for name in set(code.co_varnames) - {"t", "x", "out"})
    assert table.reads_t and not parse_expression("x_1", arity=1).reads_t
    out = table(0.3, POS)
    assert out.shape == (3, 2, 2)
    assert np.array_equal(out[:, 0, 0], parse_expression(text, arity=2)(0.3, POS))
    assert np.array_equal(out[:, 1, 0], POS[:, 1])
    assert np.all(out[:, 0, 1] == 0.0) and np.all(out[:, 1, 1] == np.inf)


def component_major(x):
    """x with the same values, stored (n, ...) so that x[..., k] is contiguous."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


LAYOUT_TABLES = {
    # (1, 1) and (0, 2) are not listed and stay 0
    "sparse": ((2, 3), {(0, 0): ("tanh(x_1) * x_2", None), (1, 2): ("min(x_1, 0.5)", 1),
                        (1, 0): ("x_2", None), (0, 1): ("-x_1 ^ 2", 0)}),
    # a cell that reads only t fills its whole slot through out=
    "t-only": ((2,), {(0,): ("exp(t)", None), (1,): ("arctan(x_1) + t", 1)}),
    "constant": ((2, 1), {(0, 0): (1.5, None), (1, 0): ("2 ^ 0.5", None)}),
}


@pytest.mark.parametrize("case", LAYOUT_TABLES)
def test_table_does_not_depend_on_the_layout_of_x(case):
    tail, cells = LAYOUT_TABLES[case]
    table = Expression(tail, cells, arity=2)
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 3, 2))
    out = table(0.7, x)
    assert out.shape == (4, 3) + tail
    assert out.tobytes() == table(0.7, component_major(x)).tobytes()
    for index in np.ndindex(*tail):
        assert out[(..., *index)].flags.c_contiguous
        if index not in cells:
            assert np.all(out[(..., *index)] == 0.0)
    if case == "t-only":
        assert np.all(out[..., 0] == np.exp(0.7))


def test_a_long_flat_sum_is_one_statement_per_call():
    # a chain of 249 additions is no deeper than its tree: each call is its own
    # statement, so Python's limit of 200 open brackets in a line does not apply
    text = " + ".join(f"{k} * x_1" for k in range(1, 251))
    out = parse_expression(text, arity=1)(0.0, X[:, :1])
    expected = 1.0 * X[:, 0]
    for k in range(2, 251):
        expected = expected + k * X[:, 0]
    assert out.tobytes() == expected.tobytes()


def peak_bytes(func, *args):
    """The peak of the memory that tracemalloc sees during func(*args)."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_argument_temporaries_live_no_longer_than_in_a_nested_call():
    # each call's arguments are freed once it returns, so ten terms need as
    # much memory at once as the nested numpy expression, not ten times more
    text = " + ".join(f"tanh({k} * x_1)" for k in range(1, 11))
    table = parse_expression(text, arity=1)
    x = np.linspace(-1.0, 1.0, 20_000)[:, None]

    def nested(x):
        out = np.empty(len(x))
        acc = np.tanh(np.multiply(1.0, x[..., 0]))
        for k in range(2, 10):
            acc = np.add(acc, np.tanh(np.multiply(float(k), x[..., 0])))
        return np.add(acc, np.tanh(np.multiply(10.0, x[..., 0])), out=out)

    assert table(0.0, x).tobytes() == nested(x).tobytes()
    assert peak_bytes(table, 0.0, x) <= peak_bytes(nested, x) + 4096


def test_zero_dimensional_table_on_a_single_point():
    f = parse_expression("exp(t) * x_1 + tanh(x_2)", arity=2)
    point = np.array([0.3, -1.1])
    out = f(0.4, point)
    assert out.shape == () and out == np.exp(0.4) * 0.3 + np.tanh(-1.1)
    batch = np.tile(point, (3, 1))
    assert f(0.4, component_major(batch)).tobytes() == f(0.4, batch).tobytes()
    assert np.all(f(0.4, batch) == out)


# The grammar's levels: 0 expr, 1 term, 2 unary, 3 power, 4 atom.
BINARY = {np.add: ("+", 0), np.subtract: ("-", 0), np.multiply: ("*", 1), np.divide: ("/", 1)}
CALLS = {np.exp: "exp", np.tanh: "tanh", np.arctan: "arctan", np.minimum: "min",
         np.maximum: "max"}


def written(tree, level=0):
    """The text of a tree with the fewest parentheses its precedence allows."""
    tag = tree[0]
    if tag == "t":
        text, own = "t", 4
    elif tag == "x":
        text, own = f"x_{tree[1] + 1}", 4
    elif tag == "const":
        text, own = repr(tree[1]), 4
    elif tag in CALLS:
        text, own = f"{CALLS[tag]}({', '.join(written(arg) for arg in tree[1:])})", 4
    elif tag is np.negative:
        text, own = f"-{written(tree[1], 2)}", 2
    elif tag is np.power:  # right-associative: the base is an atom, the exponent a unary
        text, own = f"{written(tree[1], 4)} ^ {written(tree[2], 2)}", 3
    else:  # left-associative: the right operand binds one level tighter
        symbol, own = BINARY[tag]
        text = f"{written(tree[1], own)} {symbol} {written(tree[2], own + 1)}"
    return f"({text})" if own < level else text


leaves = st.one_of(st.just(("t",)), st.integers(0, 1).map(lambda k: ("x", k)),
                   st.floats(0.0, 1e300).map(lambda v: ("const", abs(v))))
trees = st.recursive(leaves, lambda inner: st.one_of(
    st.tuples(st.sampled_from([*BINARY, np.power, np.minimum, np.maximum]), inner, inner),
    st.tuples(st.sampled_from([np.negative, np.exp, np.tanh, np.arctan]), inner)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_written_tree_parses_back_to_itself(tree):
    assert _parse(written(tree), arity=2) == tree
