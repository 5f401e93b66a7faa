"""Monotone explicit finite differences for the worst-case diffusion equation.

Solves the initial-value problem

    du/dt = <b(x), Du> + G(H(Du, D2u, x)),        u(0, x) = f(x),
    H_lk  = <D2u sigma_l, sigma_k> + <Du, h_lk + h_kl>,

whose solution is the semigroup value E_t f(x) of the uncertain-volatility
diffusion.  (The terminal-value formulation with data at time T is the time
reversal u_hat(t, x) = u(T - t, x) of this one.)

Scheme
------
Explicit Euler in time.  Drift uses first-order upwind differences by the
sign of b_i; second derivatives use central differences; the h-loading term
is folded into H through central first differences; in two dimensions the
mixed derivative uses the seven-point stencil oriented by the sign of the
off-diagonal diffusion entry.  The worst case over the covariance family is
an exact max over per-generator branches, so the update is a maximum of
monotone linear schemes and keeps the discrete comparison property.  A time
step above the declared stability bound is refused, as are loading/diffusion
configurations that break diagonal dominance of the stencil.

Boundary rule: couplings that would reach outside the grid are dropped
(outward drift, face curvature, cross terms at faces).  This keeps the
scheme map monotone everywhere at the cost of consistency in a collar near
the faces; all checks and queries are therefore restricted to the interior
trust region, at distance 3 * sigma_max * sqrt(T) from each face, which the
boundary error cannot reach at more than roundoff size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, GridError, NonFiniteError, StabilityError
from .functions import TestFunction
from .gfunction import CovarianceSet
from .sde import CoefficientSet, frame_eigenvalues

STABILITY_SLACK = 1.0 + 1e-12
DOMINANCE_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on a box, 1 or 2 spatial dimensions."""

    bounds: np.ndarray   # (n, 2) rows [lo, hi]
    counts: tuple        # nodes per axis, each >= 3
    dt: float
    horizon: float

    def __post_init__(self) -> None:
        bounds = np.asarray(self.bounds, dtype=float)
        counts = tuple(int(c) for c in self.counts)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise GridError("bounds must be an (n, 2) array")
        n = bounds.shape[0]
        if n not in (1, 2):
            raise GridError(f"only 1 or 2 spatial dimensions are supported, got {n}")
        if len(counts) != n or any(c < 3 for c in counts):
            raise GridError("node counts must match the dimension and be at least 3")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise GridError("bounds rows must satisfy lo < hi")
        if self.dt <= 0 or self.horizon <= 0:
            raise GridError("dt and horizon must be positive")
        levels = self.horizon / self.dt
        if abs(levels - round(levels)) > 1e-9 * max(1.0, levels):
            raise GridError(f"dt={self.dt} must divide the horizon {self.horizon}")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def regular(cls, bounds, counts, horizon: float, n_levels: int) -> "Grid":
        return cls(bounds=np.asarray(bounds, dtype=float), counts=tuple(counts),
                   dt=float(horizon) / int(n_levels), horizon=float(horizon))

    @property
    def n(self) -> int:
        return self.bounds.shape[0]

    @property
    def n_levels(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def dx(self) -> np.ndarray:
        return (self.bounds[:, 1] - self.bounds[:, 0]) / (np.array(self.counts) - 1)

    @property
    def axes(self) -> tuple:
        return tuple(np.linspace(self.bounds[i, 0], self.bounds[i, 1], self.counts[i])
                     for i in range(self.n))

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape counts + (n,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_levels + 1) * self.dt


@dataclass
class PDESolution:
    """Grid-sampled semigroup values with scheme provenance."""

    grid: Grid
    u: np.ndarray                 # (n_levels + 1,) + counts
    argmax_index: np.ndarray      # same layout, worst-case generator per node/level
    trust_bounds: np.ndarray      # (n, 2) interior region unaffected by the boundary
    coefficient_id: str
    theta_id: str
    function_id: str
    scheme: dict

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def trust_slices(self) -> tuple:
        out = []
        for i, ax in enumerate(self.grid.axes):
            inside = np.nonzero((ax >= self.trust_bounds[i, 0] - 1e-12)
                                & (ax <= self.trust_bounds[i, 1] + 1e-12))[0]
            if inside.size == 0:
                raise GridError(
                    "trust region is empty; widen the box or shorten the horizon "
                    f"(margin leaves {self.trust_bounds.tolist()})"
                )
            out.append(slice(int(inside[0]), int(inside[-1]) + 1))
        return tuple(out)


def _first_diffs(u: np.ndarray, axis: int, dx: float):
    """(forward, backward, central) differences; entries needing a missing
    neighbor are zero."""
    fwd = np.zeros_like(u)
    bwd = np.zeros_like(u)
    cen = np.zeros_like(u)
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    diff = (u[tuple(hi)] - u[tuple(lo)]) / dx
    fwd[tuple(lo)] = diff
    bwd[tuple(hi)] = diff
    mid = [slice(None)] * u.ndim
    mid[axis] = slice(1, -1)
    cen[tuple(mid)] = 0.5 * (fwd[tuple(mid)] + bwd[tuple(mid)])
    return fwd, bwd, cen


def _second_diff(u: np.ndarray, axis: int, dx: float) -> np.ndarray:
    out = np.zeros_like(u)
    mid = [slice(None)] * u.ndim
    up = [slice(None)] * u.ndim
    dn = [slice(None)] * u.ndim
    mid[axis], up[axis], dn[axis] = slice(1, -1), slice(2, None), slice(None, -2)
    out[tuple(mid)] = (u[tuple(up)] - 2.0 * u[tuple(mid)] + u[tuple(dn)]) / (dx * dx)
    return out


def _cross_diffs(u: np.ndarray, dx0: float, dx1: float):
    """Seven-point mixed-derivative stencils for both off-diagonal signs.

    Returns (positive-orientation, negative-orientation) arrays, zero on all
    faces.  Each is monotone when combined with diagonally dominant second
    differences.
    """
    pos = np.zeros_like(u)
    neg = np.zeros_like(u)
    c = u[1:-1, 1:-1]
    pp, mm = u[2:, 2:], u[:-2, :-2]
    pm, mp = u[2:, :-2], u[:-2, 2:]
    p0, m0 = u[2:, 1:-1], u[:-2, 1:-1]
    zp, zm = u[1:-1, 2:], u[1:-1, :-2]
    scale = 2.0 * dx0 * dx1
    pos[1:-1, 1:-1] = (2.0 * c + pp + mm - p0 - m0 - zp - zm) / scale
    neg[1:-1, 1:-1] = -(2.0 * c + pm + mp - p0 - m0 - zp - zm) / scale
    return pos, neg


def _evaluate_fields(coeffs: CoefficientSet, theta: CovarianceSet, t: float,
                     nodes: np.ndarray):
    """Per-node drift, per-generator diffusion matrices and loading drifts."""
    shape = nodes.shape[:-1]
    n = coeffs.n
    b_arr, h, s_arr = coeffs.fields(t, nodes)  # s_arr: (..., n, d)
    h_sym = None if h is None else h + np.swapaxes(h, -3, -2)
    covs = np.stack(theta.covariances)  # (M, d, d)
    if s_arr is not None:
        # a_m = 1/2 S Sigma_m S^T, shape (M,) + shape + (n, n)
        a_all = 0.5 * np.einsum("...id,mde,...je->m...ij", s_arr, covs, s_arr)
    else:
        a_all = np.zeros((covs.shape[0],) + shape + (n, n))
    if h_sym is not None:
        c_all = 0.5 * np.einsum("mlk,...lki->m...i", covs, h_sym)
    else:
        c_all = None
    return b_arr, s_arr, a_all, c_all


def stability_bound(coeffs: CoefficientSet, theta: CovarianceSet, grid: Grid) -> float:
    """Largest admissible dt for the explicit scheme on this problem.

    dt <= dx_min^2 / (2 n sigma2_max + dx_min (|b|_inf + 2 d^2 |h|_inf sigma2_max))
    with sigma2_max the worst covariance eigenvalue scaled by the largest
    diffusion frame norm on the grid.  Coefficients are sampled at the
    initial time; time-dependent runs re-validate the stencil per level.
    """
    n, d = coeffs.n, coeffs.d
    b_arr, h, s_arr = coeffs.fields(0.0, grid.nodes())
    s2_frame = 0.0 if s_arr is None else float(np.max(frame_eigenvalues(s_arr)))
    sigma2_max = theta.sigma_upper_sq * max(1.0, s2_frame)
    b_inf = 0.0 if b_arr is None else float(np.max(np.abs(b_arr)))
    h_inf = 0.0 if h is None else float(np.max(np.abs(h)))
    dx_min = float(np.min(grid.dx))
    denom = 2.0 * n * sigma2_max + dx_min * (b_inf + 2.0 * d * d * h_inf * sigma2_max)
    return np.inf if denom == 0.0 else dx_min * dx_min / denom


def _validate_monotone_stencil(a_all: np.ndarray, c_all, grid: Grid) -> None:
    """Diagonal dominance of diffusion over cross terms and central loadings.

    Required for every covariance branch so that the pointwise max over
    branches stays a monotone scheme; violating configurations are rejected.
    """
    dx = grid.dx
    n = grid.n
    for i in range(n):
        margin = a_all[..., i, i] / dx[i] ** 2
        if n == 2:
            margin = margin - np.abs(a_all[..., 0, 1]) / (dx[0] * dx[1])
        if c_all is not None:
            margin = margin - np.abs(c_all[..., i]) / (2.0 * dx[i])
        worst = float(np.min(margin))
        if worst < -DOMINANCE_TOL * (1.0 + float(np.max(np.abs(a_all)))):
            raise StabilityError(
                f"monotone stencil violated on axis {i}: diffusion diagonal cannot "
                f"dominate cross/loading terms (worst margin {worst:.3e}); refine the "
                "grid or reduce the loadings"
            )


def solve(coeffs: CoefficientSet, theta: CovarianceSet, f: TestFunction,
          grid: Grid) -> PDESolution:
    """March the explicit scheme from u(0, .) = f to the horizon.

    Records the per-node worst-case generator index at every level.  Refuses
    to run when dt exceeds the stability bound or the stencil would lose
    monotonicity.
    """
    if coeffs.d != theta.dim:
        raise DimensionMismatchError(
            f"coefficient noise dim {coeffs.d} != covariance set dim {theta.dim}")
    if coeffs.n != grid.n:
        raise DimensionMismatchError(f"state dim {coeffs.n} != grid dim {grid.n}")
    bound = stability_bound(coeffs, theta, grid)
    if grid.dt > bound * STABILITY_SLACK:
        raise StabilityError(
            f"dt={grid.dt:.6g} exceeds the stability bound {bound:.6g}; "
            f"use at least {int(np.ceil(grid.horizon / bound))} levels"
        )

    nodes = grid.nodes()
    n_levels = grid.n_levels
    dx = grid.dx
    n = grid.n
    n_gen = theta.n_generators
    index_dtype = np.uint8 if n_gen <= 255 else np.uint16

    u0 = f.value(nodes)
    if not np.all(np.isfinite(u0)):
        raise NonFiniteError("initial data is not finite on the grid")
    u = np.empty((n_levels + 1,) + u0.shape)
    u[0] = u0
    argmax = np.zeros((n_levels + 1,) + u0.shape, dtype=index_dtype)

    fields = _evaluate_fields(coeffs, theta, 0.0, nodes)
    _validate_monotone_stencil(fields[2], fields[3], grid)
    # worst eigenvalue of the state covariance S Sigma S^T over grid and family
    s_arr = fields[1]
    sigma2_max = 0.0 if s_arr is None else \
        theta.sigma_upper_sq * float(np.max(frame_eigenvalues(s_arr)))

    for m in range(n_levels):
        t = m * grid.dt
        if not coeffs.time_homogeneous and m > 0:
            fields = _evaluate_fields(coeffs, theta, t, nodes)
            _validate_monotone_stencil(fields[2], fields[3], grid)
        b_arr, _, a_all, c_all = fields

        cur = u[m]
        fwd, bwd, cen = [], [], []
        d2 = []
        for i in range(n):
            fw, bw, ce = _first_diffs(cur, i, dx[i])
            fwd.append(fw)
            bwd.append(bw)
            cen.append(ce)
            d2.append(_second_diff(cur, i, dx[i]))
        if n == 2:
            cross_pos, cross_neg = _cross_diffs(cur, dx[0], dx[1])

        drift = 0.0
        if b_arr is not None:
            for i in range(n):
                bi = b_arr[..., i]
                drift = drift + np.maximum(bi, 0.0) * fwd[i] + np.minimum(bi, 0.0) * bwd[i]

        branches = np.empty((n_gen,) + cur.shape)
        for g in range(n_gen):
            val = np.zeros_like(cur)
            for i in range(n):
                val += a_all[g, ..., i, i] * d2[i]
            if n == 2:
                a01 = a_all[g, ..., 0, 1]
                val += 2.0 * a01 * np.where(a01 >= 0.0, cross_pos, cross_neg)
            if c_all is not None:
                for i in range(n):
                    val += c_all[g, ..., i] * cen[i]
            branches[g] = val
        g_term = branches.max(axis=0)
        argmax[m + 1] = branches.argmax(axis=0)

        u[m + 1] = cur + grid.dt * (drift + g_term)
        if not np.all(np.isfinite(u[m + 1])):
            bad = np.argwhere(~np.isfinite(u[m + 1]))[0]
            raise NonFiniteError(
                f"non-finite value at level {m + 1} (t={t + grid.dt:.6g}), node {tuple(bad)}"
            )

    margin = 3.0 * np.sqrt(sigma2_max * grid.horizon)
    trust = np.column_stack([grid.bounds[:, 0] + margin, grid.bounds[:, 1] - margin])
    return PDESolution(
        grid=grid, u=u, argmax_index=argmax, trust_bounds=trust,
        coefficient_id=coeffs.label or "coefficients",
        theta_id=f"theta[{theta.n_generators}]",
        function_id=getattr(f, "name", "f"),
        scheme={
            "time": "explicit-euler",
            "drift": "upwind",
            "second_order": "central",
            "cross": "seven-point-sign-matched",
            "boundary": "dropped-couplings (monotone), trust margin 3*sigma*sqrt(T)",
            "dt": grid.dt,
            "stability_bound": bound,
            "trust_margin": margin,
        },
    )


def semigroup_value(sol: PDESolution, t: float, x, allow_untrusted: bool = False) -> float:
    """Multilinear interpolation in space at the nearest time level.

    Queries are restricted to the interior trust region unless explicitly
    overridden; out-of-range queries raise.
    """
    grid = sol.grid
    level = int(round(t / grid.dt))
    if not (0 <= level <= grid.n_levels) or abs(level * grid.dt - t) > 0.5 * grid.dt + 1e-12:
        raise GridError(f"time {t} outside the solved range [0, {grid.horizon}]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (grid.n,):
        raise DimensionMismatchError(f"query point must have dim {grid.n}")
    lo_ok = x >= (sol.trust_bounds[:, 0] if not allow_untrusted else grid.bounds[:, 0]) - 1e-12
    hi_ok = x <= (sol.trust_bounds[:, 1] if not allow_untrusted else grid.bounds[:, 1]) + 1e-12
    if not (np.all(lo_ok) and np.all(hi_ok)):
        raise GridError(
            f"query {x.tolist()} outside the {'grid' if allow_untrusted else 'trust region'} "
            f"{(grid.bounds if allow_untrusted else sol.trust_bounds).tolist()}"
        )
    values = sol.u[level]
    weights = []
    idx0 = []
    for i in range(grid.n):
        pos = (x[i] - grid.bounds[i, 0]) / grid.dx[i]
        j = int(np.clip(np.floor(pos), 0, grid.counts[i] - 2))
        idx0.append(j)
        weights.append(pos - j)
    if grid.n == 1:
        j, w = idx0[0], weights[0]
        return float((1 - w) * values[j] + w * values[j + 1])
    j0, j1 = idx0
    w0, w1 = weights
    patch = values[j0:j0 + 2, j1:j1 + 2]
    return float((1 - w0) * (1 - w1) * patch[0, 0] + (1 - w0) * w1 * patch[0, 1]
                 + w0 * (1 - w1) * patch[1, 0] + w0 * w1 * patch[1, 1])


@dataclass
class MonotonicityReport:
    min_forward_difference: float
    per_axis: list
    witness: dict
    tolerance: float
    nondecreasing: bool

    def to_dict(self) -> dict:
        return asdict(self)


def monotonicity_check(sol: PDESolution, tol: float | None = None) -> MonotonicityReport:
    """Minimum forward difference over trust-region nodes, axes, and levels."""
    slices = sol.trust_slices()
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.max(np.abs(sol.u))))
    best = np.inf
    witness = {}
    per_axis = []
    for axis in range(sol.grid.n):
        lo = list(slices)
        hi = list(slices)
        s = slices[axis]
        lo[axis] = slice(s.start, s.stop - 1)
        hi[axis] = slice(s.start + 1, s.stop)
        diffs = sol.u[(slice(None),) + tuple(hi)] - sol.u[(slice(None),) + tuple(lo)]
        if diffs.size == 0:
            per_axis.append(np.inf)
            continue
        axis_min = float(diffs.min())
        per_axis.append(axis_min)
        if axis_min < best:
            best = axis_min
            flat = int(np.argmin(diffs))
            where = np.unravel_index(flat, diffs.shape)
            level = int(where[0])
            node = [int(where[1 + i] + slices[i].start) for i in range(sol.grid.n)]
            node[axis] = int(where[1 + axis] + s.start)
            witness = {
                "axis": axis,
                "t": float(level * sol.grid.dt),
                "node_index": node,
                "x": [float(sol.grid.axes[i][node[i]]) for i in range(sol.grid.n)],
            }
    return MonotonicityReport(
        min_forward_difference=best,
        per_axis=per_axis,
        witness=witness,
        tolerance=tol,
        nondecreasing=bool(best >= -tol),
    )


@dataclass
class DominanceReport:
    min_gap: float
    witness: dict
    tolerance: float
    dominates: bool
    mode: str

    def to_dict(self) -> dict:
        return asdict(self)


def dominance_check(sol_upper: PDESolution, sol_lower: PDESolution,
                    tol: float | None = None) -> DominanceReport:
    """Check u(t, x) >= u_bar(t, x_bar) for every ordered pair x >= x_bar of
    trusted nodes, at every level, exactly.

    P(t, x) = max of u_bar(t, x_bar) over trusted x_bar <= x is the running
    maximum of u_bar along each axis in turn, so min_gap = min(u - P) over
    all ordered pairs.  mode is "nodewise-reduction" when P equals u_bar (a
    nondecreasing lower solution: the gap is nodewise) and
    "prefix-max-reduction" otherwise.  The witness x_bar is x when u_bar(t, x)
    attains P(t, x), else the first maximizer of u_bar over the trusted
    nodes <= x, so u(t, x) - u_bar(t, x_bar) is min_gap exactly.
    """
    if sol_upper.grid.counts != sol_lower.grid.counts or \
            not np.array_equal(sol_upper.grid.bounds, sol_lower.grid.bounds) or \
            sol_upper.grid.dt != sol_lower.grid.dt:
        raise GridError("dominance check requires identical grids")
    if tol is None:
        scale = max(float(np.max(np.abs(sol_upper.u))), float(np.max(np.abs(sol_lower.u))))
        tol = 1e-8 * (1.0 + scale)
    slices = sol_upper.trust_slices()
    grid = sol_upper.grid
    lower = sol_lower.u[(slice(None),) + slices]
    prefix = lower
    for axis in range(1, lower.ndim):
        prefix = np.maximum.accumulate(prefix, axis=axis)
    gap = sol_upper.u[(slice(None),) + slices] - prefix
    where = np.unravel_index(int(np.argmin(gap)), gap.shape)
    node = where[1:]
    if lower[where] == prefix[where]:
        node_bar = node
    else:
        rect = lower[(where[0],) + tuple(slice(0, j + 1) for j in node)]
        node_bar = np.unravel_index(int(np.argmax(rect)), rect.shape)

    def coords(local):
        return [float(grid.axes[i][local[i] + slices[i].start]) for i in range(grid.n)]

    min_gap = float(gap[where])
    return DominanceReport(
        min_gap=min_gap,
        witness={"t": float(where[0] * grid.dt), "x": coords(node), "x_bar": coords(node_bar)},
        tolerance=tol,
        dominates=bool(min_gap >= -tol),
        mode="nodewise-reduction" if np.array_equal(prefix, lower) else "prefix-max-reduction",
    )


def export_solution_csv(sol: PDESolution, path: str, level_stride: int = 1) -> None:
    """Rows (t, x..., u) for every stored level that survives the stride."""
    grid = sol.grid
    nodes = grid.nodes().reshape(-1, grid.n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(grid.n)) + ",u\n")
        for level in range(0, grid.n_levels + 1, max(1, level_stride)):
            t = level * grid.dt
            flat = sol.u[level].reshape(-1)
            for point, value in zip(nodes, flat):
                coords = ",".join(repr(float(c)) for c in point)
                fh.write(f"{float(t)!r},{coords},{float(value)!r}\n")


GRID_DUMP_MAGIC = b"GDIF"


def export_grid_dump(sol: PDESolution, path: str) -> None:
    """Compact little-endian binary dump.

    Layout: magic 'GDIF' | uint32 n | uint32 counts[n] | float64 lo[n]
    | float64 hi[n] | float64 dt | uint32 n_levels_stored
    | float64 u[level-major, row-major].
    """
    grid = sol.grid
    with open(path, "wb") as fh:
        fh.write(GRID_DUMP_MAGIC)
        np.array([grid.n], dtype="<u4").tofile(fh)
        np.array(grid.counts, dtype="<u4").tofile(fh)
        np.asarray(grid.bounds[:, 0], dtype="<f8").tofile(fh)
        np.asarray(grid.bounds[:, 1], dtype="<f8").tofile(fh)
        np.array([grid.dt], dtype="<f8").tofile(fh)
        np.array([sol.u.shape[0]], dtype="<u4").tofile(fh)
        np.asarray(sol.u, dtype="<f8").tofile(fh)


def read_grid_dump(path: str) -> dict:
    """Inverse of :func:`export_grid_dump`; returns header fields and u."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != GRID_DUMP_MAGIC:
            raise GridError(f"not a grid dump (magic {magic!r})")
        n = int(np.fromfile(fh, dtype="<u4", count=1)[0])
        counts = np.fromfile(fh, dtype="<u4", count=n).astype(int)
        lo = np.fromfile(fh, dtype="<f8", count=n)
        hi = np.fromfile(fh, dtype="<f8", count=n)
        dt = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        n_levels = int(np.fromfile(fh, dtype="<u4", count=1)[0])
        u = np.fromfile(fh, dtype="<f8").reshape((n_levels,) + tuple(counts))
    return {"n": n, "counts": counts, "lo": lo, "hi": hi, "dt": dt, "u": u}
