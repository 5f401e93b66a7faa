"""Tiny arithmetic expression language for coefficient declarations.

Grammar (operator precedence, right-associative power):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names: ``t`` and ``x_1`` .. ``x_n``.  Functions: ``exp``, ``tanh``,
``arctan`` (unary) and ``min``, ``max`` (binary).  No conditionals, no
loops; every expression is total on finite inputs.  A table of
expressions (one coefficient part; one expression is the 0-d table) is
compiled to one Python function when it is built, and each call runs that
function.  ``x``, a float array, may carry leading batch dimensions.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

# numpy 2's limit on the number of axes of an array
_MAX_DIMS = 64


def tail_major_axes(rank: int) -> list:
    """axes[x.ndim]: the axes of (*tail, *batch) memory, for a tail of the given
    rank and the batch x.shape[:-1], in (*batch, *tail) order."""
    return [None] + [(*range(rank, rank + k), *range(rank)) for k in range(_MAX_DIMS - rank + 1)]


# name -> (numpy function, number of arguments)
_FUNCS = {"exp": (np.exp, 1), "tanh": (np.tanh, 1), "arctan": (np.arctan, 1),
          "min": (np.minimum, 2), "max": (np.maximum, 2)}


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
                if val not in _FUNCS:
                    self.fail(f"unknown function {val!r}", pos)
                func, count = _FUNCS[val]
                if len(args) != count:
                    self.fail(f"{val} takes {count} argument{'s' * (count > 1)}, "
                              f"got {len(args)}", pos)
                return (func, *args)
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


class Expression:
    """A table of scalar expressions over (t, x_1..x_n), compiled once into
    one function (t, x) -> (..., *tail).

    ``cells`` maps an index of the table to (entry, coord).  An entry is a
    number or an expression text; with coord None it reads all of x (as
    x_1..x_arity), with coord k only x[..., k] (as x_1).  Cells not listed
    are zero.  The function allocates the table tail-major, as (*tail, ...)
    memory read through a precomputed axis permutation as (..., *tail), so
    every slot out[..., i, j] is one contiguous block of the batch; the
    table is zeroed first only when some cell is not listed.  Each slot is
    filled by the numpy calls of its tree in tree-walk order, the root call
    writing into the slot through ``out=``.  Shapes and values do not depend
    on the layout of x.  The function's source holds only generated names
    (numbers, functions, the tail and its permutations live in its
    namespace) and ``shape``, never text of an expression.  ``reads_t``
    records whether any cell reads t.
    """

    def __init__(self, tail: tuple, cells: dict, arity: int):
        namespace = {}
        self.reads_t = False

        def name(value):
            key = f"_{len(namespace)}"
            namespace[key] = value
            return key

        def emit(node, coord, out=None):
            tag = node[0]
            if tag == "t":
                self.reads_t = True
                return "t"
            if tag == "x":
                return f"x[..., {node[1] if coord is None else coord}]"
            if tag == "const":
                return name(node[1])
            args = [emit(arg, coord) for arg in node[1:]] + ([f"out={out}"] if out else [])
            return f"{name(tag)}({', '.join(args)})"

        tail = tuple(tail)
        alloc = np.empty if len(cells) == math.prod(tail) else np.zeros
        if tail:
            lines = [f"out = {name(np.ndarray.transpose)}({name(alloc)}({name(tail)} + "
                     f"x.shape[:-1]), {name(tail_major_axes(len(tail)))}[{name(len)}(x.shape)])"]
        else:
            lines = [f"out = {name(alloc)}(x.shape[:-1])"]
        for index, (entry, coord) in cells.items():
            tree = (_Parser(entry, arity if coord is None else 1).parse()
                    if isinstance(entry, str) else ("const", float(entry)))
            slot = f"out[{', '.join(['...', *map(str, index)])}]"
            # a numpy call at the root writes into the slot; a leaf is assigned
            lines.append(emit(tree, coord, slot) if callable(tree[0])
                         else f"{slot} = {emit(tree, coord)}")
        source = "def table(t, x):\n    " + "\n    ".join(lines) + "\n    return out\n"
        exec(compile(source, "<expression>", "exec"), namespace)
        self._func = namespace.pop("table")

    def __call__(self, t, x):
        return self._func(t, x)


def parse_expression(text: str, arity: int) -> Expression:
    """Compile one ``expr:`` string as the 0-d table; raises ConfigError with
    the offending position."""
    return Expression((), {(): (text, None)}, arity)
