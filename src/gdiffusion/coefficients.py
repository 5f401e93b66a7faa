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


def _const_vector(values: np.ndarray):
    values = np.asarray(values, dtype=float)

    def func(t, x):
        return np.broadcast_to(values, x.shape).copy()

    return func


def _scalar(entry, arity: int):
    """A number, or an expression string with an optional 'expr:' prefix."""
    if isinstance(entry, str):
        return parse_expression(entry[5:] if entry.startswith("expr:") else entry, arity)
    return float(entry)


def _expr_vector(entries, n: int):
    """Vector map from a list of n scalar entries (numbers or 'expr:' strings)."""
    if len(entries) != n:
        raise ConfigError(f"expected {n} entries, got {len(entries)}")
    parts = [_scalar(e, n) for e in entries]
    if all(isinstance(p, float) for p in parts):
        return _const_vector(np.array(parts))

    def func(t, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for i, p in enumerate(parts):
            out[..., i] = p(t, x) if not isinstance(p, float) else p
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


def diag_sigma(n: int, d: int, values) -> tuple:
    """Diagonal diffusion columns: (sigma_l)_k = delta_{lk} * s_l(x_l).

    ``values`` lists d entries, each a number or an expression in the single
    variable x_1 (evaluated at coordinate l), so each loading depends only on
    its own coordinate.
    """
    if d > n:
        raise ConfigError("diagonal diffusion requires d <= n")
    if len(values) != d:
        raise ConfigError(f"diag-sigma expects {d} values, got {len(values)}")
    columns = []
    for l, v in enumerate(values):
        def column(t, x, l=l, v=_scalar(v, 1)):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            out[..., l] = v if isinstance(v, float) else v(t, x[..., l:l + 1])
            return out
        columns.append(column)
    return tuple(columns)


def per_coordinate_sigma(n: int, d: int, exprs) -> tuple:
    """Columns (sigma_l)_k = s_lk(x_k); exprs is a d x n table over x_1."""
    columns = []
    for l in range(d):
        def column(t, x, parts=tuple(_scalar(e, 1) for e in exprs[l])):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape)
            for k, p in enumerate(parts):
                out[..., k] = p if isinstance(p, float) else p(t, x[..., k:k + 1])
            return out
        columns.append(column)
    return tuple(columns)


def remark_counterexample_pair(theta_lower_sq: float, theta_upper_sq: float
                               ) -> tuple[CoefficientSet, CoefficientSet]:
    """Two-component systems showing that the reversed drift/loading
    inequality does not imply pathwise ordering.

    X: dX_1 = 0,  dX_2 = (upper + lower)/2 dt
    Y: dY_1 = 0,  dY_2 = d<B>_t
    Under the constant lowest-volatility scenario, X_2 - Y_2 grows linearly.
    """
    mid = 0.5 * (theta_upper_sq + theta_lower_sq)
    coeffs_x = CoefficientSet(
        n=2, d=1,
        b=_const_vector(np.array([0.0, mid])),
        label=f"remark-drift[{mid}]",
    )

    def h_loading(t, x):
        out = np.zeros(np.asarray(x, dtype=float).shape)
        out[..., 1] = 1.0
        return out

    coeffs_y = CoefficientSet(
        n=2, d=1,
        h=((h_loading,),),
        label="remark-qv",
    )
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
        return _expr_vector(section, n)
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "constant-drift":
            c = section.get("c", 0.0)
            vec = np.full(n, float(c)) if np.isscalar(c) else np.asarray(c, dtype=float)
            if vec.shape != (n,):
                raise ConfigError(f"constant-drift c must be scalar or length {n}")
            return _const_vector(vec)
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
    if section is None:
        return None
    if isinstance(section, list):
        if len(section) != d:
            raise ConfigError(f"sigma must list {d} columns")
        return tuple(None if row is None else _expr_vector(row, n) for row in section)
    if isinstance(section, dict):
        family = section.get("family")
        if family == "zero":
            return None
        if family == "diag-sigma":
            return diag_sigma(n, d, section.get("values", [1.0] * d))
        if family == "per-coordinate":
            return per_coordinate_sigma(n, d, section["entries"])
        if family == "constant":
            matrix = np.asarray(section["matrix"], dtype=float)  # n x d columns
            if matrix.shape != (n, d):
                raise ConfigError(f"constant sigma matrix must be {n}x{d}")
            return tuple(_const_vector(matrix[:, l]) for l in range(d))
        raise ConfigError(f"unknown sigma family {family!r}")
    raise ConfigError("sigma section must be null, a nested list, or a family mapping")


def _build_h(section, n: int, d: int):
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
            return tuple(tuple(_const_vector(table[l, k]) for k in range(d)) for l in range(d))
        raise ConfigError(f"unknown h family {family!r}")
    if isinstance(section, list):
        if len(section) != d or any(len(row) != d for row in section):
            raise ConfigError(f"h must be a {d}x{d} table")
        return tuple(
            tuple(None if cell is None else _expr_vector(cell, n) for cell in row)
            for row in section
        )
    raise ConfigError("h section must be null, a nested list, or a family mapping")
