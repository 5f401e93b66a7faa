"""Tiny arithmetic expression language for coefficient declarations.

Grammar (operator precedence, right-associative power):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names: ``t`` and ``x_1`` .. ``x_n``.  Functions: ``exp``, ``tanh``,
``arctan`` (unary) and ``min``, ``max`` (binary).  No conditionals, no
loops; every expression is total on finite inputs.  An expression is
parsed and compiled to one Python function once, when it is built; each
call then runs that function.  Evaluation is vectorized: ``x`` may carry
leading batch dimensions.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_UNARY_FUNCS = {"exp": np.exp, "tanh": np.tanh, "arctan": np.arctan}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ConfigError(f"bad character {text[pos]!r} at position {pos} in {text!r}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.take()
        if val != value:
            raise ConfigError(f"expected {value!r} at position {pos} in {self.text!r}, got {val!r}")

    def fail(self, msg: str, pos: int):
        raise ConfigError(f"{msg} at position {pos} in {self.text!r}")

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            self.fail(f"unexpected trailing token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = (np.add if op == "+" else np.subtract, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            node = (np.multiply if op == "*" else np.divide, node, rhs)
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return (np.negative, self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.take()
            return (np.power, node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return ("const", float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[1] == "(":
                self.take()
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                if val in _UNARY_FUNCS:
                    if len(args) != 1:
                        self.fail(f"{val} takes 1 argument, got {len(args)}", pos)
                    return (_UNARY_FUNCS[val], args[0])
                if val in _BINARY_FUNCS:
                    if len(args) != 2:
                        self.fail(f"{val} takes 2 arguments, got {len(args)}", pos)
                    return (_BINARY_FUNCS[val], args[0], args[1])
                self.fail(f"unknown function {val!r}", pos)
            if val == "t":
                return ("t",)
            m = re.fullmatch(r"x_(\d+)", val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.arity:
                    self.fail(f"variable {val} out of range for arity {self.arity}", pos)
                return ("x", idx - 1)
            self.fail(f"unknown name {val!r}", pos)
        self.fail(f"unexpected token {val!r}", pos)


def _compile(ast):
    """One Python function for a parsed tree, calling the same numpy
    functions in the same order as the tree walk would.  Its source holds
    only generated names (constants and functions live in its namespace),
    never text of the expression."""
    namespace = {}

    def emit(node):
        tag = node[0]
        if tag in ("t", "x"):
            return "t" if tag == "t" else f"x[..., {node[1]}]"
        name = f"_{len(namespace)}"
        namespace[name] = node[1] if tag == "const" else tag
        return name if tag == "const" else f"{name}({', '.join(map(emit, node[1:]))})"

    return eval(compile(f"lambda t, x: {emit(ast)}", "<expression>", "eval"), namespace)


class Expression:
    """A scalar expression over (t, x_1..x_n), compiled once at construction."""

    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self._func = _compile(_Parser(text, arity).parse())

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._func(t, x), dtype=float)
        target = x.shape[:-1]
        if out.shape != target:
            out = np.broadcast_to(out, target).copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Expression({self.text!r}, arity={self.arity})"


def parse_expression(text: str, arity: int) -> Expression:
    """Compile an ``expr:`` string; raises ConfigError with the offending position."""
    return Expression(text, arity)
