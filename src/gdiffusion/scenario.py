"""Reference noise, volatility controls and scenario arrays with a batch axis.

A scenario is a pair (reference Wiener path, volatility control).  The
control selects one covariance generator per time step; the driven path has
increments ``dB_k = gamma_{m(k)} dW_k`` and accumulates quadratic covariation
``d<B^i,B^j>_k = (gamma gamma^T)_{ij} dt``.  Scenarios are plain arrays
with time as the leading axis, so an Euler step reads one contiguous slice:
``noise_block`` gives the reference increments ``dW (n_steps, n_paths, d)``,
shared by every control, and ``apply_control`` maps a one-step slice of them
to that step's ``dB`` and ``dQV`` for one control or for a batch of K
controls stacked on a leading batch axis.  ``sde.euler_march`` makes that
call at every step, so no whole-horizon ``dB`` is ever stored.  A batch
marched in lockstep holds per-step arrays ``(K, n_paths, width)``, and
``lockstep_batch`` sizes K so that one of them stays within ``STEP_BYTES``.

Worst-case (sublinear) expectations are estimated by maximizing Monte Carlo
means over a finite family of controls.  The supremum over a finite family
is at most the supremum over all scenarios, but its sampled estimate is not
a lower bound: the maximum of in-sample means is biased upward.

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

# bytes of one per-step array (K, n_paths, width) of K controls marched in
# lockstep.  Smaller batches pay more per-step Python overhead, larger ones
# more peak memory; 160 000 B holds 20 controls of 500 paths in 2-D, or one
# control of 20 000 paths in 1-D.
STEP_BYTES = 160_000


def lockstep_batch(n_controls: int, n_paths: int, width: int) -> int:
    """How many of n_controls to march in lockstep: the most whose per-step
    array (K, n_paths, width) of doubles fits STEP_BYTES, and at least one."""
    return max(1, min(n_controls, STEP_BYTES // (8 * n_paths * width)))


def _rng_for_path(seed: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(path_index)))))


def noise_block(seed: int, T: float, n_steps: int, d: int, n_paths: int,
                first: int = 0) -> np.ndarray:
    """Reference increments of paths first .. first + n_paths - 1, (n_steps, n_paths, d).

    Column p holds the i.i.d. N(0, dt) draws (dt = T / n_steps) of the stream
    (seed, first + p), so a block and any sub-block regenerate bit for bit;
    a single path is ``noise_block(..., n_paths=1, first=p)[:, 0]``.
    """
    if not (T > 0 and n_steps >= 1 and d >= 1):
        raise DimensionMismatchError(
            f"invalid noise shape: T={float(T)}, n_steps={n_steps}, d={d}")
    if n_paths < 1 or first < 0:
        raise DimensionMismatchError(f"invalid noise shape: n_paths={n_paths}, first={first}")
    dt = float(T) / int(n_steps)
    # each stream fills a contiguous row; one transposed copy makes time lead
    rows = np.empty((n_paths, n_steps, d))
    for p in range(n_paths):
        rows[p] = _rng_for_path(seed, first + p).standard_normal((n_steps, d))
    out = np.ascontiguousarray(rows.transpose(1, 0, 2))
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


def control_schedules(controls, theta: CovarianceSet) -> np.ndarray:
    """Generator indices of one control, (n_steps,), or of a sequence of K
    controls of one length, (n_steps, K), checked against the generators of
    theta."""
    single = isinstance(controls, VolatilityControl)
    group = (controls,) if single else tuple(controls)
    if not group:
        raise DimensionMismatchError("at least one control is required")
    if len({control.n_steps for control in group}) > 1:
        raise DimensionMismatchError("controls marched together must cover the same steps")
    schedules = np.stack([control.schedule for control in group], axis=-1)
    top = int(np.max(schedules))
    if top >= theta.n_generators:
        raise DimensionMismatchError(
            f"schedule references generator {top} but the set has only {theta.n_generators}")
    return schedules[:, 0] if single else schedules


def apply_control(dw: np.ndarray, control, theta: CovarianceSet,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Map reference increments to (dB, dQV) under one control or a batch of K.

    dw is time-major and may carry batch axes after time: (n_steps, ..., d).
    control is a VolatilityControl, checked here, or generator indices from
    ``control_schedules`` for the same steps, checked there:

    * one control, (n_steps,): dB (n_steps, ..., d) and the path-independent
      dQV (n_steps, d, d);
    * K controls, (n_steps, K): the controls lead the batch axes, dB
      (n_steps, K, ..., d) and dQV (n_steps, K, 1.., d, d), with one unit
      axis per batch axis of dw.
    """
    if isinstance(control, VolatilityControl):
        if dw.shape[0] != control.n_steps:
            raise DimensionMismatchError(
                f"control covers {control.n_steps} steps but noise has {dw.shape[0]}")
        control = control_schedules(control, theta)
    if dw.shape[-1] != theta.dim:
        raise DimensionMismatchError(
            f"noise dim {dw.shape[-1]} does not match covariance set dim {theta.dim}"
        )
    gamma = theta.generators[control]            # (n_steps, [K,] d, d)
    dqv = theta.covariances[control] * dt        # (n_steps, [K,] d, d)
    if control.ndim == 1:
        return np.einsum("kij,k...j->k...i", gamma, dw), dqv
    db = np.einsum("kcij,k...j->kc...i", gamma, dw)
    return db, dqv.reshape(dqv.shape[:2] + (1,) * (dw.ndim - 2) + dqv.shape[2:])


def estimate_sublinear_expectation(functional, theta: CovarianceSet,
                                   controls: list[VolatilityControl],
                                   n_paths: int, seed: int, T: float, n_steps: int
                                   ) -> tuple[float, float, VolatilityControl]:
    """Maximize the Monte Carlo mean of a path functional over a control family.

    Returns (estimate, standard error at the argmax, maximizing control); of
    equal means the first control wins.  The true worst-case expectation is
    a supremum over all scenarios; the supremum over the supplied finite
    family is at most that, but the estimate is not a lower bound: the
    maximum of in-sample means is biased upward.  Noise is shared across
    controls (it depends on (seed, path index) only), so enlarging the
    family can never decrease the estimate.

    ``functional.evaluate_batch(times, dW, controls)`` returns one value per
    control and path, (K, n_paths), for the shared time-major dW of shape
    (n_steps, n_paths, d) and a list of K controls; each control here goes
    in its own call, K = 1.
    """
    if n_paths < 2:
        raise DimensionMismatchError("n_paths must be at least 2")
    if not controls:
        raise DimensionMismatchError("at least one control is required")
    dw = noise_block(seed, T, n_steps, theta.dim, n_paths)
    times = np.linspace(0.0, float(T), int(n_steps) + 1)
    best = None
    for c_idx, control in enumerate(controls):
        values = np.asarray(functional.evaluate_batch(times, dw, [control])[0], dtype=float)
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
