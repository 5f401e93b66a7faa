"""Named coefficient families and config-driven builders.

Families produce :class:`~gdiffusion.sde.CoefficientSet` values (or pairs)
from small parameter dicts.  Free-form coefficients use ``expr:`` strings in
the tiny arithmetic grammar of :mod:`gdiffusion.expressions`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .expressions import parse_expression
from .sde import CoefficientSet


def _constant(values):
    """The map (t, x) -> values, broadcast over the batch of x."""
    values = np.array(values, dtype=float)
    values.setflags(write=False)  # CoefficientSet returns a writable copy
    return lambda t, x: values


def _scalar(entry, arity: int):
    """A number, or an expression string with an optional 'expr:' prefix."""
    if isinstance(entry, str):
        return parse_expression(entry[5:] if entry.startswith("expr:") else entry, arity)
    try:
        return float(entry)
    except (TypeError, ValueError):
        raise ConfigError(f"an entry must be a number or an expression, got {entry!r}") from None


def _checked(entries, count: int):
    if len(entries) != count:
        raise ConfigError(f"expected {count} entries, got {len(entries)}")
    return entries


def _table(tail: tuple, cells: dict, n: int):
    """One map (t, x) -> (..., *tail) from {index: (entry, coord)}, or None if empty.

    Each entry is a number or an expression.  With coord None it reads all of
    x (variables x_1..x_n); with coord k it reads only x[..., k:k+1], as its
    variable x_1.  Cells not listed are zero.
    """
    if not cells:
        return None
    parts = [((..., *index), _scalar(entry, n if coord is None else 1), coord)
             for index, (entry, coord) in cells.items()]
    if all(isinstance(part, float) for _, part, _ in parts):
        table = np.zeros(tail)
        for index, part, _ in parts:
            table[index] = part
        return _constant(table)

    def func(t, x):
        out = np.zeros(x.shape[:-1] + tail)
        for index, part, coord in parts:
            if isinstance(part, float):
                out[index] = part
            else:
                out[index] = part(t, x if coord is None else x[..., coord:coord + 1])
        return out

    return func


def offdiag_monotone_drift(n: int, scale: float = 1.0):
    """b_i(x) = scale * sum_{j != i} x_j: monotone off-diagonal coupling."""

    def func(t, x):
        x = np.asarray(x, dtype=float)
        total = np.sum(x, axis=-1, keepdims=True)
        return scale * (total - x)

    return func


def arctan_coupling_drift(n: int, scale: float = 1.0):
    """b_i(x) = scale * sum_{j != i} arctan(x_j): bounded monotone coupling."""

    def func(t, x):
        x = np.asarray(x, dtype=float)
        a = np.arctan(x)
        total = np.sum(a, axis=-1, keepdims=True)
        return scale * (total - a)

    return func


def linear_drift(matrix):
    matrix = np.asarray(matrix, dtype=float)

    def func(t, x):
        return np.einsum("ij,...j->...i", matrix, np.asarray(x, dtype=float))

    return func


def shifted(func, delta):
    """func + delta componentwise; delta scalar or length-n vector."""
    delta = np.asarray(delta, dtype=float)

    def shifted_func(t, x):
        base = func(t, x) if func is not None else np.zeros(np.asarray(x, dtype=float).shape)
        return base + delta

    return shifted_func


def remark_counterexample_pair(theta_lower_sq: float, theta_upper_sq: float
                               ) -> tuple[CoefficientSet, CoefficientSet]:
    """Two-component systems showing that the reversed drift/loading
    inequality does not imply pathwise ordering.

    X: dX_1 = 0,  dX_2 = (upper + lower)/2 dt
    Y: dY_1 = 0,  dY_2 = d<B>_t
    Under the constant lowest-volatility scenario, X_2 - Y_2 grows linearly.
    """
    mid = 0.5 * (theta_upper_sq + theta_lower_sq)
    coeffs_x = CoefficientSet(n=2, d=1, b=_constant([0.0, mid]),
                              label=f"remark-drift[{mid}]")
    coeffs_y = CoefficientSet(n=2, d=1, h=_constant([[[0.0, 1.0]]]), label="remark-qv")
    return coeffs_x, coeffs_y


def build_coefficients(section: dict) -> CoefficientSet:
    """Assemble a coefficient set from a config section.

    Keys: n, d (required); b, h, sigma (each optional: a family dict, an
    entry list, or null for zero); lipschitz, label.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"coefficient section must be a mapping, got {type(section).__name__}")
    try:
        n = int(section["n"])
        d = int(section["d"])
    except KeyError as exc:
        raise ConfigError(f"coefficient section missing key {exc}") from exc

    # sugar: a top-level drift family name ("family": "arctan-coupling") fills b
    drift_families = ("zero", "constant-drift", "linear-drift",
                      "offdiag-monotone", "arctan-coupling")
    if section.get("family") in drift_families and section.get("b") is None:
        section = {**section, "b": {k: v for k, v in section.items()
                                    if k in ("family", "c", "A", "scale")}}

    b = _build_drift(section.get("b"), n)
    sigma = _build_sigma(section.get("sigma"), n, d)
    h = _build_h(section.get("h"), n, d)
    return CoefficientSet(
        n=n, d=d, b=b, h=h, sigma=sigma,
        lipschitz=float(section.get("lipschitz", 0.0)),
        time_homogeneous=bool(section.get("time_homogeneous", True)),
        h_symmetric=bool(section.get("h_symmetric", True)),
        label=str(section.get("label", section.get("family", "custom"))),
    )


def _build_drift(section, n: int):
    if section is None:
        return None
    if isinstance(section, list):
        return _table((n,), {(i,): (e, None) for i, e in enumerate(_checked(section, n))}, n)
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "constant-drift":
            c = section.get("c", 0.0)
            vec = np.full(n, float(c)) if np.isscalar(c) else np.asarray(c, dtype=float)
            if vec.shape != (n,):
                raise ConfigError(f"constant-drift c must be scalar or length {n}")
            return _constant(vec)
        if family == "linear-drift":
            a = np.asarray(section["A"], dtype=float)
            if a.shape != (n, n):
                raise ConfigError(f"linear-drift A must be {n}x{n}")
            return linear_drift(a)
        if family == "offdiag-monotone":
            return offdiag_monotone_drift(n, float(section.get("scale", 1.0)))
        if family == "arctan-coupling":
            return arctan_coupling_drift(n, float(section.get("scale", 1.0)))
        raise ConfigError(f"unknown drift family {family!r}")
    raise ConfigError("drift section must be null, a list of entries, or a family mapping")


def _build_sigma(section, n: int, d: int):
    """Columns sigma_l as one (..., n, d) map: column lists (a null column is
    zero), or the families diag-sigma ((sigma_l)_k = delta_lk s_l(x_l)),
    per-coordinate ((sigma_l)_k = s_lk(x_k), a d x n table over x_1) and
    constant (an n x d matrix)."""
    if section is None:
        return None
    if isinstance(section, list):
        if len(section) != d:
            raise ConfigError(f"sigma must list {d} columns")
        return _table((n, d), {(k, l): (e, None) for l, column in enumerate(section)
                               if column is not None
                               for k, e in enumerate(_checked(column, n))}, n)
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "diag-sigma":
            if d > n:
                raise ConfigError("diagonal diffusion requires d <= n")
            values = _checked(section.get("values", [1.0] * d), d)
            return _table((n, d), {(l, l): (v, l) for l, v in enumerate(values)}, n)
        if family == "per-coordinate":
            return _table((n, d), {(k, l): (e, k)
                                   for l, row in enumerate(_checked(section["entries"], d))
                                   for k, e in enumerate(_checked(row, n))}, n)
        if family == "constant":
            matrix = np.asarray(section["matrix"], dtype=float)  # n x d columns
            if matrix.shape != (n, d):
                raise ConfigError(f"constant sigma matrix must be {n}x{d}")
            return _constant(matrix)
        raise ConfigError(f"unknown sigma family {family!r}")
    raise ConfigError("sigma section must be null, a nested list, or a family mapping")


def _build_h(section, n: int, d: int):
    """Loadings h_lk as one (..., d, d, n) map: a d x d table of entry lists
    (a null cell is zero), or the constant family (a d x d x n table)."""
    if section is None:
        return None
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "constant":
            table = np.asarray(section["table"], dtype=float)  # d x d x n
            if table.shape != (d, d, n):
                raise ConfigError(f"constant h table must be {d}x{d}x{n}")
            return _constant(table)
        raise ConfigError(f"unknown h family {family!r}")
    if isinstance(section, list):
        if len(section) != d or any(len(row) != d for row in section):
            raise ConfigError(f"h must be a {d}x{d} table")
        return _table((d, d, n), {(l, k, i): (e, None) for l, row in enumerate(section)
                                  for k, cell in enumerate(row) if cell is not None
                                  for i, e in enumerate(_checked(cell, n))}, n)
    raise ConfigError("h section must be null, a nested list, or a family mapping")
