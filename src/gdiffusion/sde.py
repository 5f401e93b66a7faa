"""Euler integration of SDEs driven by an uncertain-volatility Brownian motion.

State dynamics on a scenario (dB, dQV):

    X_{m+1} = X_m + b(t_m, X_m) dt
                  + sum_{i,j} h_ij(t_m, X_m) dQV[m, i, j]
                  + sum_i sigma_i(t_m, X_m) dB[m, i]

Coefficients are evaluated at the left endpoint (non-anticipative), matching
the Ito integrals being discretized.  Two systems can be stepped on one
shared scenario for coupled comparison experiments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .scenario import GBrownianPath

H_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientSet:
    """Drift b, covariation loadings h_ij, and diffusion columns sigma_i.

    b : callable (t, x) -> R^n or None for zero
    h : d x d nested sequence of callables (t, x) -> R^n (None entries are zero)
    sigma : length-d sequence of callables (t, x) -> R^n (None entries are zero)
    lipschitz / bound : declared constants, audited by spot checks only
    h_symmetric : when set, h_ij == h_ji is verified on sample points at
        construction and violations are a construction error
    """

    n: int
    d: int
    b: object = None
    h: tuple = None
    sigma: tuple = None
    lipschitz: float = 0.0
    bound: float = float("inf")
    time_homogeneous: bool = True
    h_symmetric: bool = True
    label: str = ""
    _audit_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise DimensionMismatchError(f"invalid dimensions n={self.n}, d={self.d}")
        h = self.h
        if h is not None:
            h = tuple(tuple(row) for row in h)
            if len(h) != self.d or any(len(row) != self.d for row in h):
                raise DimensionMismatchError(f"h must be a {self.d}x{self.d} table of maps")
        sigma = self.sigma
        if sigma is not None:
            sigma = tuple(sigma)
            if len(sigma) != self.d:
                raise DimensionMismatchError(f"sigma must list {self.d} maps")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "sigma", sigma)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xA0D17)))
        pts = rng.uniform(-1.5, 1.5, size=(8, self.n))
        pts.setflags(write=False)
        object.__setattr__(self, "_audit_points", pts)
        if self.h_symmetric and h is not None:
            for l in range(self.d):
                for k in range(l + 1, self.d):
                    a = self.eval_h(l, k, 0.0, pts)
                    b_ = self.eval_h(k, l, 0.0, pts)
                    if np.max(np.abs(a - b_)) > H_SYMMETRY_TOL * (1.0 + np.max(np.abs(a))):
                        raise DimensionMismatchError(
                            f"h[{l}][{k}] != h[{k}][{l}] on sampled points "
                            "but h_symmetric is declared"
                        )

    def _eval_vector(self, func, t, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if func is None:
            return np.zeros(x.shape)
        out = np.asarray(func(t, x), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).copy()
        return out

    def eval_b(self, t, x) -> np.ndarray:
        return self._eval_vector(self.b, t, x)

    def eval_h(self, l: int, k: int, t, x) -> np.ndarray:
        return self._eval_vector(self.h[l][k] if self.h is not None else None, t, x)

    def eval_sigma(self, l: int, t, x) -> np.ndarray:
        return self._eval_vector(self.sigma[l] if self.sigma is not None else None, t, x)

    def sigma_matrix(self, t, x) -> np.ndarray:
        """Diffusion columns stacked as (..., n, d)."""
        cols = [self.eval_sigma(l, t, x) for l in range(self.d)]
        return np.stack(cols, axis=-1)

    @property
    def has_h(self) -> bool:
        return self.h is not None and any(e is not None for row in self.h for e in row)

    @property
    def has_sigma(self) -> bool:
        return self.sigma is not None and any(e is not None for e in self.sigma)


def lipschitz_audit(coeffs: CoefficientSet, box: np.ndarray, n_samples: int = 64,
                    seed: int = 7, warn: bool = True) -> float:
    """Spot-check difference quotients of all coefficient maps on a box.

    Returns the largest sampled quotient; warns (never raises) when it
    exceeds 1.05 times the declared constant.
    """
    box = np.asarray(box, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x11B))))
    x = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, coeffs.n))
    y = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, coeffs.n))
    dist = np.linalg.norm(x - y, axis=-1)
    keep = dist > 1e-9
    x, y, dist = x[keep], y[keep], dist[keep]
    worst = 0.0

    def quot(fx, fy):
        return float(np.max(np.linalg.norm(fx - fy, axis=-1) / dist))

    worst = max(worst, quot(coeffs.eval_b(0.0, x), coeffs.eval_b(0.0, y)))
    for l in range(coeffs.d):
        worst = max(worst, quot(coeffs.eval_sigma(l, 0.0, x), coeffs.eval_sigma(l, 0.0, y)))
        for k in range(coeffs.d):
            worst = max(worst, quot(coeffs.eval_h(l, k, 0.0, x), coeffs.eval_h(l, k, 0.0, y)))
    if warn and coeffs.lipschitz > 0 and worst > 1.05 * coeffs.lipschitz:
        warnings.warn(
            f"sampled Lipschitz quotient {worst:.4g} exceeds 1.05 * declared "
            f"constant {coeffs.lipschitz:.4g}",
            stacklevel=2,
        )
    return worst


@dataclass(frozen=True)
class StatePath:
    """Grid-sampled solution path with provenance for reproducibility."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, n)
    provenance: dict

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def euler_march(coeffs: CoefficientSet, x0: np.ndarray, times: np.ndarray,
                db: np.ndarray, dqv: np.ndarray) -> np.ndarray:
    """Explicit Euler on one or many scenarios.

    x0 : (..., n); db : (..., n_steps, d); dqv : (n_steps, d, d) shared.
    Returns states of shape (..., n_steps + 1, n).  Aborts on the first
    non-finite state rather than clamping: with bounded coefficients a
    blow-up indicates a bug, not a model feature.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-1] != coeffs.n:
        raise DimensionMismatchError(f"x0 has dim {x0.shape[-1]}, coefficients expect {coeffs.n}")
    if not np.all(np.isfinite(x0)):
        raise NonFiniteError("initial state must be finite")
    if db.shape[-1] != coeffs.d:
        raise DimensionMismatchError(f"noise dim {db.shape[-1]} != coefficient d {coeffs.d}")
    n_steps = db.shape[-2]
    batch = np.broadcast_shapes(x0.shape[:-1], db.shape[:-2])
    states = np.empty(batch + (n_steps + 1, coeffs.n))
    states[..., 0, :] = x0
    x = np.broadcast_to(x0, batch + (coeffs.n,)).copy()
    for m in range(n_steps):
        t = float(times[m])
        dt = float(times[m + 1] - times[m])
        incr = coeffs.eval_b(t, x) * dt
        if coeffs.has_h:
            for l in range(coeffs.d):
                for k in range(coeffs.d):
                    w = float(dqv[m, l, k])
                    if w != 0.0 and coeffs.h[l][k] is not None:
                        incr += coeffs.eval_h(l, k, t, x) * w
        if coeffs.has_sigma:
            for l in range(coeffs.d):
                if coeffs.sigma[l] is not None:
                    incr += coeffs.eval_sigma(l, t, x) * db[..., m, l, None]
        x = x + incr
        if not np.all(np.isfinite(x)):
            bad = np.argwhere(~np.isfinite(x))[0]
            raise NonFiniteError(
                f"non-finite state at step {m + 1} (t={times[m + 1]:.6g}), "
                f"batch index {tuple(bad[:-1])}, component {bad[-1]}"
            )
        states[..., m + 1, :] = x
    return states


def integrate(coeffs: CoefficientSet, x0, path: GBrownianPath) -> StatePath:
    """Integrate one system on one scenario."""
    states = euler_march(coeffs, np.asarray(x0, dtype=float), path.times, path.dB, path.dQV)
    return StatePath(
        times=path.times,
        states=states,
        provenance={"coefficients": coeffs.label, "control": path.control.label,
                    "noise_id": list(path.noise_id),
                    "x0": np.asarray(x0, dtype=float).tolist()},
    )


@dataclass(frozen=True)
class SDETerminalFunctional:
    """f(X_T) for the system started at x0, one value per scenario path.

    ``f`` is a :class:`~gdiffusion.functions.TestFunction`.  Only the batched
    form exists: estimate_sublinear_expectation marches all paths at once.
    """

    coeffs: CoefficientSet
    f: object
    x0: np.ndarray

    def evaluate_batch(self, times, db, dqv) -> np.ndarray:
        states = euler_march(self.coeffs, self.x0, times, db, dqv)
        return self.f.value(states[..., -1, :])


def integrate_coupled(coeffs_x: CoefficientSet, coeffs_y: CoefficientSet,
                      x0, y0, path: GBrownianPath) -> tuple[StatePath, StatePath]:
    """Step two systems on the identical scenario, aligned on one grid.

    Warns (but proceeds, for counterexample hunting) when the initial states
    are not ordered componentwise.
    """
    if (coeffs_x.n, coeffs_x.d) != (coeffs_y.n, coeffs_y.d):
        raise DimensionMismatchError("coupled systems must share state and noise dimensions")
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if np.any(x0 > y0):
        warnings.warn("x0 <= y0 fails componentwise; running in counterexample mode",
                      stacklevel=2)
    return integrate(coeffs_x, x0, path), integrate(coeffs_y, y0, path)


def pathwise_min_gap(pair: tuple[StatePath, StatePath]) -> tuple[float, tuple[int, float]]:
    """Exact minimum of Y_k(t) - X_k(t) over components and grid times.

    Returns (min gap, (component index starting at 1, time)) with the first
    witness in scan order (time-major, then component).
    """
    lower, upper = pair
    if lower.states.shape != upper.states.shape:
        raise DimensionMismatchError("paths must be aligned on one grid")
    gap = upper.states - lower.states
    flat = int(np.argmin(gap))
    level, comp = divmod(flat, gap.shape[1])
    return float(gap[level, comp]), (comp + 1, float(lower.times[level]))
