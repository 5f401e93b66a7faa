"""Tiny arithmetic expression language for coefficient declarations.

Grammar (operator precedence, right-associative power):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names: ``t`` and ``x_1`` .. ``x_n``.  Functions: ``exp``, ``tanh``,
``arctan`` (unary) and ``min``, ``max`` (binary).  No conditionals, no
loops; every expression is total on finite inputs.  With ``^`` written
``**`` the grammar is a subset of Python's expressions, with the same
precedence and associativity, so Python's parser reads a text once its
tokens are written out as Python (each number as the index of its value),
and a walk of the result accepts only the forms above.  A table of
expressions (one coefficient part; one expression is the 0-d table) is
compiled to one Python function when it is built, and each call runs that
function.  ``x``, a float array, may carry leading batch dimensions.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

from .errors import ConfigError

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)
_SPACE_RE = re.compile(r"\s*")

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
    pos = _SPACE_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConfigError(f"bad character {text[pos]!r} at position {pos} in {text!r}")
        tokens.append((m.lastgroup, m.group(), pos))
        pos = _SPACE_RE.match(text, m.end()).end()
    return tokens


_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide,
           ast.Pow: np.power}


def _parse(text: str, arity: int) -> tuple:
    """The tree of one text: ("t",), ("x", k), ("const", value) or
    (numpy function, *argument trees)."""
    tokens = _tokenize(text)
    numbers, pieces = [], []
    for kind, val, _ in tokens:
        if kind == "num":  # as the index of its value, so that 05, 1. and 1e999 keep it
            numbers.append(float(val))
            val = str(len(numbers) - 1)
        pieces.append("**" if val == "^" else val)
    # one space between tokens, so that two '*' never read as '**'
    source = " ".join(pieces)
    # token_at[column of the source]: the index of the token there (a space
    # belongs to the token after it), and len(tokens) at the end
    token_at = [i for i, piece in enumerate(pieces) for _ in range(len(piece) + (i > 0))]
    token_at.append(len(tokens))
    positions = [pos for _, _, pos in tokens] + [len(text)]

    def fail(msg: str, column: int):
        raise ConfigError(f"{msg} at position {positions[token_at[column]]} in {text!r}")

    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        # Python reports the end of the text outside the source (offset 0)
        # and an unclosed '(' at the bracket; either way the text ended early
        column = (exc.offset or 0) - 1
        if not 0 <= column < len(source) or "never closed" in exc.msg:
            column = len(source)
        fail("invalid syntax", column)

    def walk(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return (np.negative, walk(node.operand))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return ("const", numbers[node.value])
        if isinstance(node, ast.Name):
            if node.id == "t":
                return ("t",)
            m = re.fullmatch(r"x_(\d+)", node.id)
            if m is None:
                fail(f"unknown name {node.id!r}", node.col_offset)
            if not 1 <= int(m.group(1)) <= arity:
                fail(f"variable {node.id} out of range for arity {arity}", node.col_offset)
            return ("x", int(m.group(1)) - 1)
        # a call is a name, then '(', then positional arguments with no comma after the last
        close = token_at[node.end_col_offset - 1]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
                and tokens[token_at[node.func.col_offset] + 1][1] == "("
                and tokens[close - 1][1] != ","):
            args = [walk(arg) for arg in node.args]
            name = node.func.id
            if name not in _FUNCS:
                fail(f"unknown function {name!r}", node.col_offset)
            func, count = _FUNCS[name]
            if len(args) != count:
                fail(f"{name} takes {count} argument{'s' * (count > 1)}, got {len(args)}",
                     node.col_offset)
            return (func, *args)
        fail("invalid syntax", node.col_offset)

    return walk(tree)


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
    filled by the numpy calls of its tree in tree-walk order, one statement
    per call, the root call writing into the slot through ``out=``.  Shapes
    and values do not depend on the layout of x.  The function's source
    holds only generated names (numbers, functions, the tail and its
    permutations live in its namespace) and ``shape``, never text of an
    expression.  ``reads_t`` records whether any cell reads t.
    """

    def __init__(self, tail: tuple, cells: dict, arity: int):
        namespace = {}
        self.reads_t = False

        def name(value):
            key = f"_{len(namespace)}"
            namespace[key] = value
            return key

        def emit(node, coord, out=None):
            """A leaf as a Python expression; a call as one statement, its value
            in a new local or, at the root, written into ``out``, and each
            argument local deleted after it, as a nested call frees it."""
            tag = node[0]
            if tag == "t":
                self.reads_t = True
                return "t"
            if tag == "x":
                return f"x[..., {node[1] if coord is None else coord}]"
            if tag == "const":
                return name(node[1])
            args = [emit(arg, coord) for arg in node[1:]]
            call = f"{name(tag)}({', '.join(args + ([f'out={out}'] if out else []))})"
            local = None if out else f"v{len(lines)}"
            lines.append(f"{local} = {call}" if local else call)
            if dead := [arg for arg in args if arg.startswith("v")]:
                lines.append(f"del {', '.join(dead)}")
            return local

        tail = tuple(tail)
        alloc = np.empty if len(cells) == math.prod(tail) else np.zeros
        if tail:
            lines = [f"out = {name(np.ndarray.transpose)}({name(alloc)}({name(tail)} + "
                     f"x.shape[:-1]), {name(tail_major_axes(len(tail)))}[{name(len)}(x.shape)])"]
        else:
            lines = [f"out = {name(alloc)}(x.shape[:-1])"]
        for index, (entry, coord) in cells.items():
            slot = f"out[{', '.join(['...', *map(str, index)])}]"
            try:
                tree = (_parse(entry, arity if coord is None else 1)
                        if isinstance(entry, str) else ("const", float(entry)))
                # a numpy call at the root writes into the slot; a leaf is assigned
                if callable(tree[0]):
                    emit(tree, coord, slot)
                else:
                    lines.append(f"{slot} = {emit(tree, coord)}")
            except (RecursionError, MemoryError):
                # Python's parser reports a nesting beyond its own stack as MemoryError
                raise ConfigError(f"expression nested too deeply: {entry!r}") from None
        source = "def table(t, x):\n    " + "\n    ".join(lines) + "\n    return out\n"
        exec(compile(source, "<expression>", "exec"), namespace)
        self._func = namespace.pop("table")

    def __call__(self, t, x):
        return self._func(t, x)


def parse_expression(text: str, arity: int) -> Expression:
    """Compile one ``expr:`` string as the 0-d table; raises ConfigError with
    the offending position."""
    return Expression((), {(): (text, None)}, arity)
