"""Euler integration of SDEs driven by an uncertain-volatility Brownian motion.

State dynamics on a scenario (dB, dQV):

    X_{m+1} = X_m + b(t_m, X_m) dt
                  + sum_{i,j} h_ij(t_m, X_m) dQV[m, i, j]
                  + sum_i sigma_i(t_m, X_m) dB[m, i]

Coefficients are evaluated at the left endpoint (non-anticipative), matching
the Ito integrals being discretized.  ``euler_march`` steps a whole batch of
scenarios at once and returns the states as one array (..., n_steps + 1, n);
two systems marched on the same dB are coupled, and ``pathwise_min_gap``
reads the first place where their states come closest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

H_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientSet:
    """Drift b, covariation loadings h_lk, and diffusion columns sigma_l.

    Each part is one map of (t, x), x of shape (..., n), or None for zero:

    b : (t, x) -> (..., n)
    h : (t, x) -> (..., d, d, n), the raw table with [..., l, k, :] = h_lk
        (not h_lk + h_kl)
    sigma : (t, x) -> (..., n, d), the columns with [..., :, l] = sigma_l
    lipschitz : declared constant, audited by spot checks only
    h_symmetric : when set, h_lk == h_kl is verified on sample points at
        construction and violations are a construction error

    A map may return any array that broadcasts to its shape.  ``fields(t, x)``
    evaluates all three and is how the rest of the package reads them, with
    None for an absent part; ``eval_b``, ``h_table`` and ``sigma_matrix`` are
    its three parts on their own, with zeros instead of None.
    """

    n: int
    d: int
    b: object = None
    h: object = None
    sigma: object = None
    lipschitz: float = 0.0
    time_homogeneous: bool = True
    h_symmetric: bool = True
    label: str = ""
    _audit_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise DimensionMismatchError(f"invalid dimensions n={self.n}, d={self.d}")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xA0D17)))
        pts = rng.uniform(-1.5, 1.5, size=(8, self.n))
        pts.setflags(write=False)
        object.__setattr__(self, "_audit_points", pts)
        if self.h_symmetric and self.has_h:
            table = self.h_table(0.0, pts)  # (8, d, d, n)
            gap = np.max(np.abs(table - np.swapaxes(table, 1, 2)), axis=(0, 3))
            scale = np.max(np.abs(table), axis=(0, 3))
            bad = np.argwhere(np.triu(gap > H_SYMMETRY_TOL * (1.0 + scale), 1))
            if bad.size:
                l, k = bad[0]
                raise DimensionMismatchError(
                    f"h[{l}][{k}] != h[{k}][{l}] on sampled points "
                    "but h_symmetric is declared"
                )

    @staticmethod
    def _field(func, t, x, tail: tuple) -> np.ndarray:
        """func(t, x) as a writable float array of shape x.shape[:-1] + tail."""
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] + tail
        if func is None:
            return np.zeros(shape)
        out = np.asarray(func(t, x), dtype=float)
        if out.shape == shape and out.flags.writeable:
            return out
        full = np.empty(shape)
        try:
            full[...] = out
        except ValueError:
            raise DimensionMismatchError(
                f"coefficient map returned shape {out.shape}, expected {shape}") from None
        return full

    def eval_b(self, t, x) -> np.ndarray:
        return self._field(self.b, t, x, (self.n,))

    def h_table(self, t, x) -> np.ndarray:
        return self._field(self.h, t, x, (self.d, self.d, self.n))

    def sigma_matrix(self, t, x) -> np.ndarray:
        return self._field(self.sigma, t, x, (self.n, self.d))

    def eval_h(self, l: int, k: int, t, x) -> np.ndarray:
        return self.h_table(t, x)[..., l, k, :]

    def eval_sigma(self, l: int, t, x) -> np.ndarray:
        return self.sigma_matrix(t, x)[..., l]

    def fields(self, t, x) -> tuple:
        """(b, h, S) at x; see the class docstring for shapes and None."""
        x = np.asarray(x, dtype=float)
        return (self.eval_b(t, x) if self.b is not None else None,
                self.h_table(t, x) if self.has_h else None,
                self.sigma_matrix(t, x) if self.has_sigma else None)

    @property
    def has_h(self) -> bool:
        return self.h is not None

    @property
    def has_sigma(self) -> bool:
        return self.sigma is not None


def frame_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the state frame S S^T for diffusion columns S (..., n, d)."""
    return np.linalg.eigvalsh(np.einsum("...id,...jd->...ij", s, s))


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

    def vectors(z):
        """Every coefficient vector at z, as (len(z), count, n)."""
        h, s = coeffs.h_table(0.0, z), coeffs.sigma_matrix(0.0, z)
        return np.concatenate([coeffs.eval_b(0.0, z)[:, None], h.reshape(len(z), -1, coeffs.n),
                               np.swapaxes(s, 1, 2)], axis=1)

    quotients = np.linalg.norm(vectors(x) - vectors(y), axis=-1) / dist[:, None]
    worst = float(np.max(quotients))
    if warn and coeffs.lipschitz > 0 and worst > 1.05 * coeffs.lipschitz:
        warnings.warn(
            f"sampled Lipschitz quotient {worst:.4g} exceeds 1.05 * declared "
            f"constant {coeffs.lipschitz:.4g}",
            stacklevel=2,
        )
    return worst


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
        b, h, s = coeffs.fields(t, x)
        incr = b * dt if b is not None else np.zeros(x.shape)
        if h is not None:
            incr += np.einsum("...lki,lk->...i", h, dqv[m])
        if s is not None:
            for l in range(coeffs.d):
                incr += s[..., l] * db[..., m, l:l + 1]
        x = x + incr
        if not np.isfinite(x).all():
            bad = np.argwhere(~np.isfinite(x))[0]
            raise NonFiniteError(
                f"non-finite state at step {m + 1} (t={times[m + 1]:.6g}), "
                f"batch index {tuple(bad[:-1])}, component {bad[-1]}"
            )
        states[..., m + 1, :] = x
    return states


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


def pathwise_min_gap(lower: np.ndarray, upper: np.ndarray,
                     times: np.ndarray) -> tuple[float, tuple]:
    """Exact minimum of upper - lower over batch, grid times and components.

    lower, upper : states (..., n_steps + 1, n) marched on the same scenarios.
    Returns (min gap, (*batch index, component starting at 1, time)) with the
    first witness in scan order (batch index, then time, then component).
    """
    if lower.shape != upper.shape or lower.shape[-2] != len(times):
        raise DimensionMismatchError("paths must be aligned on one grid")
    gap = upper - lower
    idx = np.unravel_index(int(np.argmin(gap)), gap.shape)
    *batch, level, comp = (int(i) for i in idx)
    return float(gap[idx]), (*batch, comp + 1, float(times[level]))
