"""Reference noise, volatility controls and scenario arrays with a batch axis.

A scenario is a pair (reference Wiener path, volatility control).  The
control selects one covariance generator per time step; the driven path has
increments ``dB_k = gamma_{m(k)} dW_k`` and accumulates quadratic covariation
``d<B^i,B^j>_k = (gamma gamma^T)_{ij} dt``.  Scenarios are plain arrays:
``noise_block`` gives the reference increments ``dW (n_paths, n_steps, d)``
and ``apply_control`` maps them to ``dB`` of the same shape and the shared
``dQV (n_steps, d, d)``; a single path is a batch of one.  Worst-case
(sublinear) expectations are estimated from below by maximizing Monte Carlo
means over a finite family of controls.

Noise streams follow a stream-split contract: the draw at (seed, path index,
step) is fixed, so regeneration is bit-identical and ensembles can be built
in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvaluationError
from .gfunction import CovarianceSet

POLICY_TAGS = ("constant", "random-switching", "bang-bang-cycle", "explicit")


def _rng_for_path(seed: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(path_index)))))


def noise_block(seed: int, T: float, n_steps: int, d: int, n_paths: int,
                first: int = 0) -> np.ndarray:
    """Reference increments of paths first .. first + n_paths - 1, (n_paths, n_steps, d).

    Row p holds the i.i.d. N(0, dt) draws (dt = T / n_steps) of the stream
    (seed, first + p), so a block and any sub-block regenerate bit for bit;
    a single path is ``noise_block(..., n_paths=1, first=p)[0]``.
    """
    if not (T > 0 and n_steps >= 1 and d >= 1):
        raise DimensionMismatchError(
            f"invalid noise shape: T={float(T)}, n_steps={n_steps}, d={d}")
    if n_paths < 1 or first < 0:
        raise DimensionMismatchError(f"invalid noise shape: n_paths={n_paths}, first={first}")
    dt = float(T) / int(n_steps)
    out = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        out[p] = _rng_for_path(seed, first + p).standard_normal((n_steps, d))
    out *= np.sqrt(dt)
    return out


@dataclass(frozen=True)
class VolatilityControl:
    """Piecewise-constant choice of covariance generator per time step."""

    schedule: np.ndarray
    policy: str = "explicit"
    label: str = ""

    def __post_init__(self) -> None:
        sched = np.asarray(self.schedule, dtype=np.int64)
        if sched.ndim != 1 or sched.size < 1:
            raise DimensionMismatchError("control schedule must be a nonempty 1-d index array")
        if np.min(sched) < 0:
            raise DimensionMismatchError("control schedule indices must be nonnegative")
        if self.policy not in POLICY_TAGS:
            raise DimensionMismatchError(f"unknown policy tag {self.policy!r}")
        sched.setflags(write=False)
        object.__setattr__(self, "schedule", sched)
        if not self.label:
            object.__setattr__(self, "label", f"{self.policy}[{sched[0]}..]")

    @property
    def n_steps(self) -> int:
        return self.schedule.size

    @classmethod
    def constant(cls, index: int, n_steps: int) -> "VolatilityControl":
        return cls(np.full(n_steps, index, dtype=np.int64), "constant", f"constant[{index}]")

    @classmethod
    def random_switching(cls, n_generators: int, n_steps: int, seed: int) -> "VolatilityControl":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), 0x5EED))))
        sched = rng.integers(0, n_generators, size=n_steps)
        return cls(sched, "random-switching", f"switching[seed={seed}]")

    @classmethod
    def bang_bang_cycle(cls, lo_index: int, hi_index: int, n_steps: int,
                        period: int | None = None) -> "VolatilityControl":
        """Alternate between two generators; default period splits the horizon in half."""
        period = n_steps if period is None else period
        k = np.arange(n_steps)
        sched = np.where((k % period) < (period + 1) // 2, lo_index, hi_index)
        return cls(sched.astype(np.int64), "bang-bang-cycle", f"bangbang[{lo_index},{hi_index}]")


def apply_control(dw: np.ndarray, control: VolatilityControl,
                  theta: CovarianceSet, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Map reference increments to (dB, dQV) under one control.

    dw may carry a leading batch dimension: (..., n_steps, d) -> dB of the
    same shape; dQV has shape (n_steps, d, d) and is path-independent.
    """
    sched = control.schedule
    if dw.shape[-2] != sched.size:
        raise DimensionMismatchError(
            f"control covers {sched.size} steps but noise has {dw.shape[-2]}"
        )
    if dw.shape[-1] != theta.dim:
        raise DimensionMismatchError(
            f"noise dim {dw.shape[-1]} does not match covariance set dim {theta.dim}"
        )
    if np.max(sched) >= theta.n_generators:
        raise DimensionMismatchError(
            f"schedule references generator {int(np.max(sched))} "
            f"but the set has only {theta.n_generators}"
        )
    gamma_per_step = theta.generators[sched]     # (n_steps, d, d)
    db = np.einsum("kij,...kj->...ki", gamma_per_step, dw)
    dqv = theta.covariances[sched] * dt          # (n_steps, d, d)
    return db, dqv


def estimate_sublinear_expectation(functional, theta: CovarianceSet,
                                   controls: list[VolatilityControl],
                                   n_paths: int, seed: int, T: float, n_steps: int
                                   ) -> tuple[float, float, VolatilityControl]:
    """Maximize the Monte Carlo mean of a path functional over a control family.

    Returns (estimate, standard error at the argmax, maximizing control).
    The estimate is a LOWER bound estimate of the worst-case expectation:
    the true value is a supremum over all scenarios, here restricted to the
    supplied finite family.  Noise is shared across controls (it depends on
    (seed, path index) only), so enlarging the family can never decrease the
    estimate.

    ``functional.evaluate_batch(times, dB, dQV)`` returns one value per
    path for dB of shape (n_paths, n_steps, d) and the shared dQV.
    """
    if n_paths < 2:
        raise DimensionMismatchError("n_paths must be at least 2")
    if not controls:
        raise DimensionMismatchError("at least one control is required")
    dt = float(T) / int(n_steps)
    dw = noise_block(seed, T, n_steps, theta.dim, n_paths)
    times = np.linspace(0.0, float(T), int(n_steps) + 1)
    best = None
    for c_idx, control in enumerate(controls):
        db, dqv = apply_control(dw, control, theta, dt)
        values = np.asarray(functional.evaluate_batch(times, db, dqv), dtype=float)
        if not np.all(np.isfinite(values)):
            p_bad = int(np.argmin(np.isfinite(values)))
            raise EvaluationError(
                f"functional returned a non-finite value at control {c_idx} "
                f"({control.label}), path {p_bad}"
            )
        mean = float(np.mean(values))
        if best is None or mean > best[0]:
            se = float(np.std(values, ddof=1) / np.sqrt(n_paths))
            best = (mean, se, control)
    return best
