"""Named coefficient families and config-driven builders.

Families produce :class:`~gdiffusion.sde.CoefficientSet` values (or pairs)
from small parameter dicts.  Free-form coefficients use ``expr:`` strings in
the tiny arithmetic grammar of :mod:`gdiffusion.expressions`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError
from .expressions import Expression
from .sde import CoefficientSet


def _no_bool(value):
    """value, unless it is or holds a boolean: JSON true is not the number 1."""
    if isinstance(value, bool):
        raise ValueError("a boolean is not a number")
    if isinstance(value, list):
        for item in value:
            _no_bool(item)
    return value


def _float_array(value) -> np.ndarray:
    return np.asarray(_no_bool(value), dtype=float)


def _number(value) -> float:
    return float(_no_bool(value))


def _constant(values):
    """The map (t, x) -> values, broadcast over the batch of x."""
    values = np.array(values, dtype=float)
    values.setflags(write=False)  # CoefficientSet returns a writable copy
    return lambda t, x: values


def _read(section: dict, key: str, convert, where: str = "", default=None):
    """convert(section.get(key, default)); a value it cannot read is a
    ConfigError naming ``where + key``."""
    value = section.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where + key}: cannot read {value!r} ({exc})") from None


def _integer(value) -> int:
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("expected an integer")
    return int(value)


def _array(section: dict, key: str, shape: tuple, where: str) -> np.ndarray:
    """section[key], required, as a float array of the given shape."""
    value = _read(section, key, _float_array, where)
    if value.shape != shape:
        raise ConfigError(f"{where + key}: expected shape {shape}, got {section.get(key)!r}")
    return value


def _list(value, count: int, key: str) -> list:
    if not isinstance(value, list) or len(value) != count:
        raise ConfigError(f"{key}: expected a list of {count}, got {value!r}")
    return value


def _entries(entries, count: int, key: str) -> list:
    """A config list of count entries, each a number or an expression text
    (the 'expr:' prefix is optional)."""
    for i, entry in enumerate(_list(entries, count, key)):
        if isinstance(entry, bool) or not isinstance(entry, (str, numbers.Real)):
            raise ConfigError(f"{key}[{i}]: an entry must be a number or an expression, "
                              f"got {entry!r}")
    return [e.removeprefix("expr:") if isinstance(e, str) else e for e in entries]


def offdiag_monotone_drift(n: int, scale: float = 1.0):
    """b_i(x) = scale * sum_{j != i} x_j: monotone off-diagonal coupling."""

    def func(t, x):
        total = np.sum(x, axis=-1, keepdims=True)
        return scale * (total - x)

    return func


def arctan_coupling_drift(n: int, scale: float = 1.0):
    """b_i(x) = scale * sum_{j != i} arctan(x_j): bounded monotone coupling."""

    def func(t, x):
        a = np.arctan(x)
        total = np.sum(a, axis=-1, keepdims=True)
        return scale * (total - a)

    return func


def linear_drift(matrix):
    matrix = np.asarray(matrix, dtype=float)

    def func(t, x):
        return np.einsum("ij,...j->...i", matrix, x)

    return func


def shifted(func, delta):
    """func + delta componentwise; delta scalar or length-n vector."""
    delta = np.asarray(delta, dtype=float)

    def shifted_func(t, x):
        base = func(t, x) if func is not None else np.zeros(x.shape)
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

    Keys: n, d (required integers); b, h, sigma (each optional: a family
    dict, an entry list, or null for zero); family (a drift family name, with
    its c, A or scale, fills an absent b); lipschitz (a number); h_symmetric
    (true or false); label.  Whether the set is time-homogeneous is read from
    the expressions: it is unless some entry reads t.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"coefficient section must be a mapping, got {type(section).__name__}")
    n = _read(section, "n", _integer)
    d = _read(section, "d", _integer)

    # sugar: a top-level drift family name ("family": "arctan-coupling") fills b
    drift_families = ("zero", "constant-drift", "linear-drift",
                      "offdiag-monotone", "arctan-coupling")
    if section.get("family") in drift_families and section.get("b") is None:
        section = {**section, "b": {k: v for k, v in section.items()
                                    if k in ("family", "c", "A", "scale")}}

    b = _build_drift(section.get("b"), n)
    sigma = _build_sigma(section.get("sigma"), n, d)
    h = _build_h(section.get("h"), n, d)
    h_symmetric = section.get("h_symmetric", True)
    if not isinstance(h_symmetric, bool):
        raise ConfigError(f"h_symmetric: expected true or false, got {h_symmetric!r}")
    return CoefficientSet(
        n=n, d=d, b=b, h=h, sigma=sigma,
        lipschitz=_read(section, "lipschitz", _number, "", 0.0),
        time_homogeneous=not any(isinstance(part, Expression) and part.reads_t
                                 for part in (b, h, sigma)),
        h_symmetric=h_symmetric,
        label=str(section.get("label", section.get("family", "custom"))),
    )


def _build_drift(section, n: int):
    if section is None:
        return None
    if isinstance(section, list):
        return Expression((n,), {(i,): (e, None)
                                 for i, e in enumerate(_entries(section, n, "b"))}, n)
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "constant-drift":
            vec = _read(section, "c", lambda c: np.full(n, _number(c)) if np.isscalar(c)
                        else _float_array(c), "b.", 0.0)
            if vec.shape != (n,):
                raise ConfigError(f"b.c: constant-drift c must be scalar or length {n}")
            return _constant(vec)
        if family == "linear-drift":
            return linear_drift(_array(section, "A", (n, n), "b."))
        if family == "offdiag-monotone":
            return offdiag_monotone_drift(n, _read(section, "scale", _number, "b.", 1.0))
        if family == "arctan-coupling":
            return arctan_coupling_drift(n, _read(section, "scale", _number, "b.", 1.0))
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
        cells = {(k, l): (e, None) for l, column in enumerate(_list(section, d, "sigma"))
                 if column is not None
                 for k, e in enumerate(_entries(column, n, f"sigma[{l}]"))}
        return Expression((n, d), cells, n) if cells else None
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "diag-sigma":
            if d > n:
                raise ConfigError("diagonal diffusion requires d <= n")
            values = _entries(section.get("values", [1.0] * d), d, "sigma.values")
            return Expression((n, d), {(l, l): (v, l) for l, v in enumerate(values)}, n)
        if family == "per-coordinate":
            rows = _list(section.get("entries"), d, "sigma.entries")
            return Expression((n, d), {(k, l): (e, k) for l, row in enumerate(rows) for k, e in
                                       enumerate(_entries(row, n, f"sigma.entries[{l}]"))}, n)
        if family == "constant":
            return _constant(_array(section, "matrix", (n, d), "sigma."))  # n x d columns
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
            return _constant(_array(section, "table", (d, d, n), "h."))  # d x d x n
        raise ConfigError(f"unknown h family {family!r}")
    if isinstance(section, list):
        cells = {(l, k, i): (e, None) for l, row in enumerate(_list(section, d, "h"))
                 for k, cell in enumerate(_list(row, d, f"h[{l}]")) if cell is not None
                 for i, e in enumerate(_entries(cell, n, f"h[{l}][{k}]"))}
        return Expression((d, d, n), cells, n) if cells else None
    raise ConfigError("h section must be null, a nested list, or a family mapping")
