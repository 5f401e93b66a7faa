"""Named coefficient families and config-driven builders.

Families produce :class:`~gdiffusion.sde.CoefficientSet` values (or pairs)
from small parameter dicts.  Free-form coefficients use ``expr:`` strings in
the tiny arithmetic grammar of :mod:`gdiffusion.expressions`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError, read, refuse_unknown_keys
from .expressions import Expression
from .sde import CoefficientSet


def _constant(values):
    """The map (t, x) -> values, broadcast over the batch of x."""
    values = np.array(values, dtype=float)
    values.setflags(write=False)  # at a single point x (n,), the field is values itself
    return lambda t, x: values


def _shaped(array: np.ndarray, shape: tuple, key: str) -> np.ndarray:
    if array.shape != shape:
        raise ConfigError(f"{key}: expected shape {shape}, got {array.tolist()}")
    return array


def _cells(value, shape: tuple, key: str, nulls: bool = False) -> dict:
    """{index: entry} of a nested config list of the given shape whose
    entries are numbers or expression texts (the 'expr:' prefix is optional);
    with ``nulls``, a null list of entries is zero and holds no cells."""
    if not shape:
        if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
            raise ConfigError(f"{key}: an entry must be a number or an expression, "
                              f"got {value!r}")
        return {(): value.removeprefix("expr:") if isinstance(value, str) else value}
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ConfigError(f"{key}: expected a list of {shape[0]}, got {value!r}")
    return {(i, *index): entry for i, item in enumerate(value)
            if not (nulls and item is None and len(shape) == 2)
            for index, entry in _cells(item, shape[1:], f"{key}[{i}]", nulls).items()}


def _column_sum(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis, kept as a length-1 axis, one column at a
    time from 0.0: the bits of np.sum(x, axis=-1, keepdims=True) for a last
    axis of up to 7, where the sum adds in that order, without its reduce."""
    total = x[..., :1] + 0.0
    for j in range(1, x.shape[-1]):
        total += x[..., j:j + 1]
    return total


def offdiag_monotone_drift(n: int, scale: float = 1.0):
    """b_i(x) = scale * sum_{j != i} x_j: monotone off-diagonal coupling."""

    def func(t, x):
        return scale * (_column_sum(x) - x)

    return func


def arctan_coupling_drift(n: int, scale: float = 1.0):
    """b_i(x) = scale * sum_{j != i} arctan(x_j): bounded monotone coupling."""

    def func(t, x):
        a = np.arctan(x)
        return scale * (_column_sum(a) - a)

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
    coeffs_x = CoefficientSet(n=2, d=1, b=_constant([0.0, mid]))
    coeffs_y = CoefficientSet(n=2, d=1, h=_constant([[[0.0, 1.0]]]))
    return coeffs_x, coeffs_y


_SECTION_KEYS = ("n", "d", "b", "h", "sigma", "lipschitz", "h_symmetric", "label")


def build_coefficients(section: dict) -> CoefficientSet:
    """Assemble a coefficient set from a config section.

    Keys: n, d (required integers); b, h, sigma (each optional: a family
    dict, an entry list, or null for zero); lipschitz (a number); h_symmetric
    (true or false); label (a name for the reader, not read).  Any other key
    is refused, so that a misspelt part cannot run as zero; a drift family
    is named under b, not at the top level.  Whether the set is
    time-homogeneous is read from the expressions: it is unless some entry
    reads t.
    """
    n = read(section, "n", "integer")
    d = read(section, "d", "integer")
    if "family" in section:
        raise ConfigError("family: a drift family is named under b (b.family), "
                          "not at the top level")
    refuse_unknown_keys(section, "", _SECTION_KEYS, "a coefficient section")
    b = _build_drift(section.get("b"), n)
    sigma = _build_sigma(section.get("sigma"), n, d)
    h = _build_h(section.get("h"), n, d)
    return CoefficientSet(
        n=n, d=d, b=b, h=h, sigma=sigma,
        h_symmetric=read(section, "h_symmetric", "flag", True),
        lipschitz=read(section, "lipschitz", "number", 0.0),
        time_homogeneous=not any(isinstance(part, Expression) and part.reads_t
                                 for part in (b, h, sigma)),
    )


def _family(section: dict, part: str, kind: str, keys: dict) -> str:
    """The family that ``section`` names, one of ``keys`` (family -> the keys
    it reads besides ``family``), with every other key of the section refused."""
    family = section.get("family")
    if family not in tuple(keys):  # a tuple: the value may be unhashable
        raise ConfigError(f"{part}.family: unknown {kind} family {family!r}")
    refuse_unknown_keys(section, f"{part}.", ("family", *keys[family]), part)
    return family


def _build_drift(section, n: int):
    if section is None:
        return None
    if isinstance(section, list):
        return Expression((n,), {index: (e, None)
                                 for index, e in _cells(section, (n,), "b").items()}, n)
    if isinstance(section, dict):
        family = _family(section, "b", "drift", {
            "zero": (), "constant-drift": ("c",), "linear-drift": ("A",),
            "offdiag-monotone": ("scale",), "arctan-coupling": ("scale",)})
        if family == "zero":
            return None
        if family == "constant-drift":
            c = read(section, "b.c", "numbers" if isinstance(section.get("c"), list)
                     else "number", 0.0)
            if np.shape(c) not in ((), (n,)):
                raise ConfigError(f"b.c: constant-drift c must be scalar or length {n}")
            return _constant(np.full(n, c))
        if family == "linear-drift":
            return linear_drift(_shaped(read(section, "b.A", "numbers"), (n, n), "b.A"))
        if family == "offdiag-monotone":
            return offdiag_monotone_drift(n, read(section, "b.scale", "number", 1.0))
        return arctan_coupling_drift(n, read(section, "b.scale", "number", 1.0))
    raise ConfigError("b: expected null, a list of entries or a family mapping")


def _build_sigma(section, n: int, d: int):
    """Columns sigma_l as one (..., n, d) map: column lists (a null column is
    zero), or the families diag-sigma ((sigma_l)_k = delta_lk s_l(x_l)),
    per-coordinate ((sigma_l)_k = s_lk(x_k), a d x n table over x_1) and
    constant (an n x d matrix)."""
    if section is None:
        return None
    if isinstance(section, list):
        cells = {(k, l): (e, None)
                 for (l, k), e in _cells(section, (d, n), "sigma", nulls=True).items()}
        return Expression((n, d), cells, n) if cells else None
    if isinstance(section, dict):
        family = _family(section, "sigma", "sigma", {
            "zero": (), "diag-sigma": ("values",), "per-coordinate": ("entries",),
            "constant": ("matrix",)})
        if family == "zero":
            return None
        if family == "diag-sigma":
            if d > n:
                raise ConfigError("sigma.family: diagonal diffusion requires d <= n")
            values = _cells(section.get("values", [1.0] * d), (d,), "sigma.values")
            return Expression((n, d), {(l, l): (v, l) for (l,), v in values.items()}, n)
        if family == "per-coordinate":
            rows = _cells(section.get("entries"), (d, n), "sigma.entries")
            return Expression((n, d), {(k, l): (e, k) for (l, k), e in rows.items()}, n)
        return _constant(_shaped(read(section, "sigma.matrix", "numbers"), (n, d),
                                 "sigma.matrix"))  # constant: n x d columns
    raise ConfigError("sigma: expected null, a nested list or a family mapping")


def _build_h(section, n: int, d: int):
    """Loadings h_lk as one (..., d, d, n) map: a d x d table of entry lists
    (a null cell is zero), or the constant family (a d x d x n table)."""
    if section is None:
        return None
    if isinstance(section, dict):
        if _family(section, "h", "h", {"zero": (), "constant": ("table",)}) == "zero":
            return None
        return _constant(_shaped(read(section, "h.table", "numbers"), (d, d, n), "h.table"))
    if isinstance(section, list):
        cells = {index: (e, None)
                 for index, e in _cells(section, (d, d, n), "h", nulls=True).items()}
        return Expression((d, d, n), cells, n) if cells else None
    raise ConfigError("h: expected null, a nested list or a family mapping")
