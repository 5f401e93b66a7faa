"""Monotone explicit finite differences for the worst-case diffusion equation.

Solves the initial-value problem

    du/dt = L_t u = <b(t, x), Du> + G(H(Du, D2u, t, x)),        u(0, x) = f(x),
    H_lk  = <D2u sigma_l, sigma_k> + <Du, h_lk + h_kl>,

with the coefficients read at the level's own time t.  For coefficients
that do not depend on t, u(t, x) is the semigroup value E_t f(x) of the
uncertain-volatility diffusion (and u(T - t, x) solves the terminal-value
problem with data at T).  For time-dependent ones, E_T f is u(T, .) for
du/dt = L_{T-t} u instead: the two agree when the L_t commute, and when t
and x mix, this march solves the time-reversed problem.

Scheme
------
Explicit Euler in time on a table of rates.  For each covariance generator
g the update is a weighted sum of differences to neighbour offsets e_k in
{-1, 0, 1}**n,

    u_{m+1} = u_m + dt * max_g sum_k r[g, k] * (u_m(. + e_k) - u_m),

a Markov chain when every rate r[g, k] >= 0 and every centre weight
1 - dt * sum_k r[g, k] >= 0 (Kushner & Dupuis, 2001).  The rates collect the
upwind drift (the same in every branch), central second differences, the
h-loading term through central first differences, and for each pair of
axes the seven-point mixed-derivative stencil oriented by the sign of that
off-diagonal diffusion entry.  The table lists only the offsets that carry
a rate somewhere on the grid, and the sum runs over them: an offset whose
rate is 0 in every branch at every node (the four diagonals when a_01 = 0,
the side a one-signed pure drift points away from) would add exactly
nothing.  The worst case over the covariance family is an exact max over
the branches, so the update is a maximum of monotone linear schemes and
keeps the discrete comparison property.  One coefficient evaluation builds
one rate table, which alone gives the update and the guards: the stability
bound is 1 / max_g sum_k r[g, k] (exact centre-weight positivity), and a
negative or non-finite rate refuses the stencil.  The t = 0 table is
guarded and its bound reported; for time-dependent coefficients every
level's is guarded.

Boundary rule: couplings that would reach outside the grid are dropped
(outward drift, face curvature, cross terms at faces): their rates are 0.
This keeps the scheme map monotone everywhere at the cost of consistency in
a collar near the faces; all checks and queries are therefore restricted to
the interior trust region, at distance 3 * sigma_max * sqrt(T) +
(|b|_inf + |c|_inf) * T from each face (c the loading drift), which the
diffusion's three-sigma band and the worst drift sweep from the faces do
not cross.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatchError, GridError, NonFiniteError, StabilityError, check_box
from .functions import TestFunction
from .gfunction import CovarianceSet, _first_max
from .sde import CoefficientSet, frame_eigenvalues

STABILITY_SLACK = 1.0 + 1e-12
DOMINANCE_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on a box, 1 or 2 spatial dimensions, as the
    grid section gives it; the time step is dt = horizon / n_levels."""

    bounds: np.ndarray   # (n, 2) rows [lo, hi]
    counts: tuple        # nodes per axis, each >= 3
    horizon: float
    n_levels: int

    def __post_init__(self) -> None:
        bounds = check_box(self.bounds, "grid.bounds", GridError)
        counts = tuple(int(c) for c in self.counts)
        n = bounds.shape[0]
        if n not in (1, 2):
            raise GridError(f"grid.bounds: only 1 or 2 spatial dimensions are supported, got {n}")
        if len(counts) != n or any(c < 3 for c in counts):
            raise GridError("grid.counts: node counts must match the dimension and be at least 3")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "n_levels", int(self.n_levels))
        if self.n_levels < 1:
            raise GridError(f"grid.n_levels: expected a positive integer, got {self.n_levels}")
        if not np.isfinite(self.horizon):
            raise GridError(f"grid.T: expected a finite horizon, got T={self.horizon}, "
                            f"dt={self.dt}")
        if self.horizon <= 0:
            raise GridError("grid.T: dt and horizon must be positive")

    @classmethod
    def regular(cls, bounds, counts, horizon: float, n_levels: int) -> "Grid":
        """The constructor under its earlier name, which perfbench/workloads.py calls."""
        return cls(bounds, counts, horizon, n_levels)

    @property
    def n(self) -> int:
        return self.bounds.shape[0]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_levels

    @property
    def dx(self) -> np.ndarray:
        return (self.bounds[:, 1] - self.bounds[:, 0]) / (np.array(self.counts) - 1)

    @property
    def axes(self) -> tuple:
        return tuple(np.linspace(self.bounds[i, 0], self.bounds[i, 1], self.counts[i])
                     for i in range(self.n))

    def level(self, t: float) -> int:
        """The index m of the level time t = m * dt (to 1e-9 of a step); any
        other t, a non-finite one included, raises GridError."""
        steps = t / self.dt
        level = int(round(steps)) if np.isfinite(steps) else -1
        if not (0 <= level <= self.n_levels and abs(steps - level) <= 1e-9 * max(1.0, level)):
            below = int(np.clip(np.floor(np.nan_to_num(steps)), 0, self.n_levels - 1))
            raise GridError(f"time {t} is not a level of the solve on [0, {self.horizon}] "
                            f"(dt={self.dt:.6g}); the nearest levels are t={below * self.dt:.6g} "
                            f"and t={(below + 1) * self.dt:.6g}")
        return level

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape counts + (n,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_levels + 1) * self.dt


@dataclass
class PDESolution:
    """Grid-sampled semigroup values, worst-case generator indices, the trust
    region, and the scheme with its dt, stability bound and trust margin."""

    grid: Grid
    u: np.ndarray                 # (n_levels + 1,) + counts
    argmax_index: np.ndarray      # same layout, worst-case generator per node/level
    trust_bounds: np.ndarray      # (n, 2) interior region unaffected by the boundary
    scheme: dict

    def trust_slices(self) -> tuple:
        out = []
        for i, ax in enumerate(self.grid.axes):
            inside = np.nonzero((ax >= self.trust_bounds[i, 0] - 1e-12)
                                & (ax <= self.trust_bounds[i, 1] + 1e-12))[0]
            if inside.size == 0:
                raise self._empty_trust_region()
            out.append(slice(int(inside[0]), int(inside[-1]) + 1))
        return tuple(out)

    def _empty_trust_region(self) -> GridError:
        return GridError(f"trust region is empty: trust margin {self.scheme['trust_margin']:.6g} "
                         f"against the box {self.grid.bounds.tolist()}; widen the box or "
                         "shorten the horizon")


# per offset component: (nodes whose neighbour exists, those neighbours)
_SIDES = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1)),
          0: (slice(None), slice(None))}


def _neighbours(e) -> tuple:
    """(target, source) slices: u[source] is u(. + e) at the nodes u[target]."""
    return tuple(_SIDES[c][0] for c in e), tuple(_SIDES[c][1] for c in e)


def coefficient_fields(coeffs: CoefficientSet, theta: CovarianceSet, t: float,
                       nodes: np.ndarray) -> tuple:
    """(b, S, a, c) at the nodes: drift, diffusion columns, per-generator
    diffusion matrices a_g = 1/2 S Sigma_g S^T of shape (M,) + nodes + (n, n),
    and loading drifts c_g = 1/2 <Sigma_g, h + h^T> of shape (M,) + nodes + (n,).
    b, S and c are None when the part is absent."""
    b, h, s = coeffs.fields(t, nodes)
    if s is not None:
        a = 0.5 * np.einsum("...id,mde,...je->m...ij", s, theta.covariances, s)
    else:
        a = np.zeros((theta.n_generators,) + nodes.shape[:-1] + (coeffs.n, coeffs.n))
    c = None if h is None else \
        0.5 * np.einsum("mlk,...lki->m...i", theta.covariances, h + np.swapaxes(h, -3, -2))
    return b, s, a, c


def _rate_table(fields: tuple, grid: Grid) -> tuple:
    """(offsets, rates): the offsets e_k that carry a rate, in C order of
    {-1, 0, 1}**n, and rates r[g, k] of shape (M, len(offsets)) + counts,
    the weight of u(. + e_k) - u in branch g of the update.

    Upwind drift (in every branch), central diffusion and loading terms along
    each axis, and for every pair of axes the seven-point cross stencil
    matched to the sign of a_ij.  A coupling that would reach outside the
    grid is dropped: its rate is 0.  An offset whose rate is 0 in every
    branch at every node is not listed; the list may be empty.
    """
    b, _, a, c = fields
    n, dx = grid.n, grid.dx
    columns = {}

    def add(e, region, value):
        value = value[(Ellipsis,) + region]
        if value.any():  # adding zeros would leave a column's bits as they are
            column = columns.setdefault(e, np.zeros(a.shape[:1] + grid.counts))
            column[(slice(None),) + region] += value

    for i in range(n):
        inner = tuple(slice(1, -1) if j == i else slice(None) for j in range(n))
        for sign in (1, -1):
            e = tuple(sign if j == i else 0 for j in range(n))
            if b is not None:
                add(e, _neighbours(e)[0], np.maximum(sign * b[..., i], 0.0) / dx[i])
            add(e, inner, a[..., i, i] / dx[i] ** 2)
            if c is not None:
                add(e, inner, sign * c[..., i] / (2.0 * dx[i]))
    for i, j in itertools.combinations(range(n), 2):
        inner = tuple(slice(1, -1) if k in (i, j) else slice(None) for k in range(n))
        w = a[..., i, j] / (dx[i] * dx[j])
        for si, sj in itertools.product((-1, 0, 1), repeat=2):
            if si or sj:
                e = tuple(si if k == i else sj if k == j else 0 for k in range(n))
                add(e, inner, np.maximum(si * sj * w, 0.0) if si and sj else -np.abs(w))
    offsets = sorted(e for e, column in columns.items() if column.any())
    empty = np.empty(a.shape[:1] + (0,) + grid.counts)
    return offsets, np.concatenate([empty] + [columns[e][:, None] for e in offsets], axis=1)


def stability_bound(rates: np.ndarray) -> float:
    """Largest admissible dt for a rate table, 1 / max_g sum_k r[g, k]: the
    largest dt keeping every centre weight 1 - dt * sum_k r[g, k]
    non-negative."""
    total = float(np.max(rates.sum(axis=1)))
    return np.inf if total <= 0.0 else 1.0 / total


def _guard(offsets: list, rates: np.ndarray, grid: Grid, level: int) -> float:
    """Refuse a level whose update is not a monotone scheme: a non-finite
    rate or a negative one, each named by its offset, or dt above the table's
    stability bound (a negative centre weight).  Returns that bound."""
    where = f"level {level} (t={level * grid.dt:.6g})"
    if not np.all(np.isfinite(rates)):
        g, k, *node = np.argwhere(~np.isfinite(rates))[0]
        raise NonFiniteError(f"non-finite coefficients at {where}: the rate of generator {g} "
                             f"toward offset {offsets[k]} at node {tuple(map(int, node))}")
    bound = stability_bound(rates)
    if grid.dt > bound * STABILITY_SLACK:
        raise StabilityError(
            f"dt={grid.dt:.6g} exceeds the stability bound {bound:.6g} at {where}; "
            f"use at least {int(np.ceil(grid.horizon / bound))} levels"
        )
    worst = float(np.min(rates, initial=0.0))  # 0.0 for a table that lists no offset
    if worst < -DOMINANCE_TOL * (1.0 + float(np.max(np.abs(rates), initial=0.0))):
        g, k, *node = np.unravel_index(int(np.argmin(rates)), rates.shape)
        raise StabilityError(
            f"monotone stencil violated at {where}: rate {worst:.3e} of generator {g} "
            f"toward offset {offsets[k]} at node {tuple(int(j) for j in node)}; "
            "diffusion cannot dominate the cross/loading terms there; refine the grid "
            "or reduce the loadings"
        )
    return bound


def trust_margin(theta: CovarianceSet, fields: tuple, horizon: float) -> float:
    """3 sigma_max sqrt(T) + (|b|_inf + |c|_inf) T for coefficient_fields
    output: how far the diffusion's three-sigma band and the worst drift
    sweep carry the effect of the dropped boundary couplings in time T."""
    b, s, _, c = fields
    sigma2 = 0.0 if s is None else theta.sigma_upper_sq * float(np.max(frame_eigenvalues(s)))
    speed = sum(0.0 if v is None else float(np.max(np.abs(v))) for v in (b, c))
    return 3.0 * np.sqrt(sigma2 * horizon) + speed * horizon


def solve(coeffs: CoefficientSet, theta: CovarianceSet, f: TestFunction,
          grid: Grid) -> PDESolution:
    """March the explicit scheme from u(0, .) = f to the horizon.

    Each level is u + dt * max_g sum_k r[g, k] (u(. + e_k) - u), and records
    the per-node worst-case generator index.  The sum runs over the offsets
    that the rate table lists, in offset order: an unlisted offset would add
    only +0.0 * (a finite difference) to a sum that starts at +0.0, so the
    bits are those of the sum over all 3**n - 1 offsets.  One coefficient
    evaluation builds each rate table, with its own offsets: at t = 0, and at
    every level for time-dependent coefficients.  Refuses to run when dt
    exceeds a table's stability bound or a rate is negative; the scheme
    reports the bound of the m = 0 table and the largest trust margin over
    the tables.  Refuses up front, before any grid-wide array, a grid whose
    stored levels (u and the generator record) would not fit in physical
    memory.
    """
    if coeffs.d != theta.dim:
        raise DimensionMismatchError(
            f"coefficient noise dim {coeffs.d} != covariance set dim {theta.dim}")
    if coeffs.n != grid.n:
        raise DimensionMismatchError(f"state dim {coeffs.n} != grid dim {grid.n}")
    n_levels = grid.n_levels
    index_dtype = np.min_scalar_type(theta.n_generators - 1)
    stored = (n_levels + 1) * math.prod(grid.counts) * (8 + index_dtype.itemsize)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if stored > physical:
        raise GridError(
            f"the solve would store {stored} bytes ({n_levels + 1} levels of "
            f"{'x'.join(map(str, grid.counts))} nodes, float64 values and "
            f"{index_dtype.name} generator indices), more than the {physical} "
            "bytes of physical memory; use fewer levels or nodes"
        )
    nodes = grid.nodes()
    # the t = 0 table is built before f is read: a failing coefficient map is reported first
    fields = coefficient_fields(coeffs, theta, 0.0, nodes)
    offsets, rates = _rate_table(fields, grid)
    u0 = f.value(nodes)
    if not np.all(np.isfinite(u0)):
        raise NonFiniteError("initial data is not finite on the grid")
    bound = _guard(offsets, rates, grid, 0)
    u = np.empty((n_levels + 1,) + u0.shape)
    u[0] = u0
    argmax = np.zeros((n_levels + 1,) + u0.shape, dtype=index_dtype)

    margin = 0.0
    for m in range(n_levels):
        if m == 0 or not coeffs.time_homogeneous:
            if m > 0:
                fields = coefficient_fields(coeffs, theta, m * grid.dt, nodes)
                offsets, rates = _rate_table(fields, grid)
                _guard(offsets, rates, grid, m)
            margin = max(margin, trust_margin(theta, fields, grid.horizon))
            neighbours = [_neighbours(e) for e in offsets]
            diffs = np.zeros((len(offsets),) + u0.shape)  # u(. + e_k) - u, 0 off the grid
        cur = u[m]
        for k, (target, source) in enumerate(neighbours):
            np.subtract(cur[source], cur[target], out=diffs[k][target])
        top = _first_max(np.einsum("gk...,k...->g...", rates, diffs), argmax[m + 1])
        u[m + 1] = cur + grid.dt * top
        if not np.all(np.isfinite(u[m + 1])):
            bad = np.argwhere(~np.isfinite(u[m + 1]))[0]
            raise NonFiniteError(
                f"non-finite value at level {m + 1} (t={(m + 1) * grid.dt:.6g}), "
                f"node {tuple(int(j) for j in bad)}"
            )

    trust = np.column_stack([grid.bounds[:, 0] + margin, grid.bounds[:, 1] - margin])
    return PDESolution(
        grid=grid, u=u, argmax_index=argmax, trust_bounds=trust,
        scheme={
            "time": "explicit-euler",
            "drift": "upwind",
            "second_order": "central",
            "cross": "seven-point-sign-matched",
            "boundary": "dropped-couplings (monotone), trust margin "
                        "3*sigma*sqrt(T) + (|b|+|c|)*T",
            "dt": grid.dt,
            "stability_bound": bound,
            "trust_margin": margin,
        },
    )


def semigroup_value(sol: PDESolution, t: float, x) -> float:
    """Multilinear interpolation in space at the time level t.

    t must be a level time (``Grid.level``): there is no interpolation in
    time.  x must lie in the interior trust region.  Other queries raise.
    """
    grid = sol.grid
    level = grid.level(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (grid.n,):
        raise DimensionMismatchError(f"query point must have dim {grid.n}")
    box = sol.trust_bounds
    if np.any(box[:, 0] > box[:, 1]):
        raise sol._empty_trust_region()
    if not (np.all(x >= box[:, 0] - 1e-12) and np.all(x <= box[:, 1] + 1e-12)):
        raise GridError(f"query {x.tolist()} outside the trust region {box.tolist()}")
    pos = (x - grid.bounds[:, 0]) / grid.dx
    idx0 = np.clip(np.floor(pos), 0, np.array(grid.counts) - 2).astype(int)
    weights = pos - idx0
    # the 2^n cell corners in C order, each weighted by a product over the axes
    total = 0.0
    for corner in itertools.product((0, 1), repeat=grid.n):
        weight = 1.0
        for w, bit in zip(weights, corner):
            weight *= w if bit else 1.0 - w
        total += weight * sol.u[level][tuple(idx0 + corner)]
    return float(total)


def _first_min(levels) -> tuple:
    """(value, level, flat node index) of the first minimum over the arrays
    that ``levels`` yields, one level at a time: levels in order, nodes in C
    order within a level, and a later level replaces the record only when its
    minimum is strictly lower.  This is ``np.argmin`` over the stacked levels
    (for finite values) with one level in memory; each array is read before
    the next is asked for, so a generator may refill one buffer."""
    best = (np.inf, -1, -1)
    for level, values in enumerate(levels):
        k = int(np.argmin(values))
        if level == 0 or values.flat[k] < best[0]:
            best = (float(values.flat[k]), level, k)
    return best


def _max_abs(u: np.ndarray) -> float:
    """max |u| as a running max(level.max(), -level.min()): the same number,
    since solve stores only finite levels, without an |u| copy."""
    return max(max(float(level.max()), -float(level.min())) for level in u)


@dataclass
class MonotonicityReport:
    min_forward_difference: float
    per_axis: list
    witness: dict
    tolerance: float
    nondecreasing: bool

    def to_dict(self) -> dict:
        return asdict(self)


def monotonicity_check(sol: PDESolution) -> MonotonicityReport:
    """Minimum forward difference over trust-region nodes, axes, and levels.

    The reduction runs one level at a time (``_first_min``), so beyond
    ``sol`` it holds one level of differences.  The witness is the first
    minimum of the first axis that attains the overall minimum, and
    min_forward_difference is the difference there.
    """
    slices = sol.trust_slices()
    grid = sol.grid
    tol = 1e-8 * (1.0 + _max_abs(sol.u))
    best = np.inf
    witness = {}
    per_axis = []
    for axis in range(grid.n):
        lo = tuple(slice(s.start, s.stop - 1) if i == axis else s for i, s in enumerate(slices))
        hi = tuple(slice(s.start + 1, s.stop) if i == axis else s for i, s in enumerate(slices))
        shape = tuple(s.stop - s.start for s in lo)
        if 0 in shape:
            per_axis.append(np.inf)
            continue
        diffs = np.empty(shape)
        axis_min, level, k = _first_min(np.subtract(u_m[hi], u_m[lo], out=diffs)
                                        for u_m in sol.u)
        per_axis.append(axis_min)
        if axis_min < best:
            best = axis_min
            node = [int(j + r.start) for j, r in zip(np.unravel_index(k, shape), lo)]
            witness = {
                "axis": axis,
                "t": float(level * grid.dt),
                "node_index": node,
                "x": [float(grid.axes[i][node[i]]) for i in range(grid.n)],
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


def _prefix_max(level: np.ndarray) -> np.ndarray:
    """P(x) = max of the level over the nodes x_bar <= x: a running maximum
    along each axis in turn."""
    for axis in range(level.ndim):
        level = np.maximum.accumulate(level, axis=axis)
    return level


def dominance_check(sol_upper: PDESolution, sol_lower: PDESolution) -> DominanceReport:
    """Check u(t, x) >= u_bar(t, x_bar) for every ordered pair x >= x_bar of
    nodes trusted by both solutions, at every level, exactly.

    The nodes are the intersection of the two trust regions (the larger
    margin on each side), so neither solution is read where its boundary
    collar reaches.  P(t, x) = max of u_bar(t, x_bar) over those x_bar <= x
    is the running maximum of u_bar along each axis in turn, so
    min_gap = min(u - P) over all ordered pairs.  mode is
    "nodewise-reduction" when P equals u_bar (a nondecreasing lower solution:
    the gap is nodewise) and "prefix-max-reduction" otherwise.  The witness
    x_bar is x when u_bar(t, x) attains P(t, x), else the first maximizer of
    u_bar over the trusted nodes <= x, so u(t, x) - u_bar(t, x_bar) is
    min_gap exactly.  The reduction runs one level at a time
    (``_first_min``): beyond the solutions it holds a few levels' arrays.
    """
    if sol_upper.grid.counts != sol_lower.grid.counts or \
            not np.array_equal(sol_upper.grid.bounds, sol_lower.grid.bounds) or \
            sol_upper.grid.dt != sol_lower.grid.dt:
        raise GridError("dominance check requires identical grids")
    tol = 1e-8 * (1.0 + max(_max_abs(sol_upper.u), _max_abs(sol_lower.u)))
    slices = tuple(slice(max(a.start, b.start), min(a.stop, b.stop))
                   for a, b in zip(sol_upper.trust_slices(), sol_lower.trust_slices()))
    grid = sol_upper.grid
    nodewise = True

    def gaps():
        nonlocal nodewise
        for upper, lower in zip(sol_upper.u, sol_lower.u):
            prefix = _prefix_max(lower[slices])
            nodewise = nodewise and np.array_equal(prefix, lower[slices])
            yield upper[slices] - prefix

    min_gap, level, k = _first_min(gaps())
    lower = sol_lower.u[level][slices]
    node = np.unravel_index(k, lower.shape)
    if lower[node] == _prefix_max(lower)[node]:
        node_bar = node
    else:
        rect = lower[tuple(slice(0, j + 1) for j in node)]
        node_bar = np.unravel_index(int(np.argmax(rect)), rect.shape)

    def coords(local):
        return [float(grid.axes[i][local[i] + slices[i].start]) for i in range(grid.n)]

    return DominanceReport(
        min_gap=min_gap,
        witness={"t": float(level * grid.dt), "x": coords(node), "x_bar": coords(node_bar)},
        tolerance=tol,
        dominates=bool(min_gap >= -tol),
        mode="nodewise-reduction" if nodewise else "prefix-max-reduction",
    )


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
