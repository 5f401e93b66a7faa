"""Reference noise, volatility controls and scenario arrays with a batch axis.

A scenario is a pair (reference Wiener path, volatility control).  The
control selects one covariance generator per time step; the driven path has
increments ``dB_k = gamma_{m(k)} dW_k`` and accumulates quadratic covariation
``d<B^i,B^j>_k = (gamma gamma^T)_{ij} dt``.  Scenarios are plain arrays
with time as the leading axis, so an Euler step reads one contiguous slice:
``noise_block`` gives the reference increments ``dW (n_steps, n_paths, d)``,
shared by every control, and ``apply_control`` maps a one-step slice of them
to that step's ``dB`` and ``dQV`` for a batch of K controls, given as the
generator indices (n_steps, K) of ``control_schedules`` and stacked on a
leading batch axis; one control is the batch K = 1.  ``sde.euler_march``
makes that call at every step, so no whole-horizon ``dB`` is ever stored.
A batch marched in lockstep holds per-step arrays ``(K, n_paths, width)``,
and ``lockstep_batch`` sizes K so that one of them stays within
``STEP_BYTES``.

Worst-case (sublinear) expectations are estimated by maximizing Monte Carlo
means over a finite family of controls.  The supremum over a finite family
is at most the supremum over all scenarios, but its sampled estimate is not
a lower bound: the maximum of in-sample means is biased upward.

Noise streams follow a stream-split contract: the draw at (seed, path index,
step) is fixed, so regeneration is bit-identical and ensembles can be built
in any order or in parallel.  Path p draws from the stream that
``Generator(PCG64(SeedSequence((seed, p))))`` gives, bit for bit, but
``seeded_streams`` never builds a ``SeedSequence``: it runs the
SeedSequence hash (NEP 19 keeps it stable) for a slice of paths at once in
numpy uint32 arithmetic, turns each hashed row into a PCG64 state as the
PCG64 constructor does, and sets that state on one reused generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvaluationError
from .gfunction import CovarianceSet

# bytes of one per-step array (K, n_paths, width) of K controls marched in
# lockstep.  Smaller batches pay more per-step Python overhead, larger ones
# more peak memory; 160 000 B holds 20 controls of 500 paths in 2-D, or one
# control of 20 000 paths in 1-D.
STEP_BYTES = 160_000


def lockstep_batch(n_controls: int, n_paths: int, width: int) -> int:
    """How many of n_controls to march in lockstep: the most whose per-step
    array (K, n_paths, width) of doubles fits STEP_BYTES, and at least one."""
    return max(1, min(n_controls, STEP_BYTES // (8 * n_paths * width)))


# SeedSequence's hash constants, and the multiplier of PCG64's 128-bit LCG
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
# streams hashed per numpy pass, whose states are held as Python ints, and
# paths per noise_block draw chunk
_ROWS = 512


def _words(value: int) -> list[int]:
    """The uint32 words of a non-negative integer, low first, as SeedSequence
    splits its entropy."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words; returns the advanced constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const
    return value ^ (value >> _XSHIFT), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 words."""
    x = x * _MIX_MULT_L - y * _MIX_MULT_R
    return x ^ (x >> _XSHIFT)


def _seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy row).generate_state(4, np.uint64) of every row:
    entropy holds one uint32 column per entropy word, (rows, 4) out."""
    const, pool = _INIT_A, []
    for word in entropy[:4] + [np.zeros_like(entropy[0])] * (4 - len(entropy)):
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[4:]:
        for dst in range(4):
            word, const = _hashmix(extra, const)
            pool[dst] = _mix(pool[dst], word)
    const, state = _INIT_B, []
    for k in range(8):
        word = pool[k % 4] ^ const
        const = const * _MULT_B & _MASK32
        word = word * const
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)], -1)


def seeded_streams(prefix: tuple, first: int, count: int):
    """Yield a Generator for each j = first .. first + count - 1, at the start
    of the stream of ``Generator(PCG64(SeedSequence(prefix + (j,))))`` bit
    for bit.

    Every step yields the same Generator, reseeded, so draw from it before
    the next step.  Negative entropy raises ValueError, as in SeedSequence.
    """
    head = [word for value in prefix for word in _words(value)]
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    start, end = int(first), int(first) + int(count)
    while start < end:
        # j's words above the low one, and so the entropy length, stay fixed
        # up to the next multiple of 2**32
        high = start >> 32
        stop = min(end, (high + 1) << 32, start + _ROWS)
        low = np.arange(start & _MASK32, (start & _MASK32) + (stop - start), dtype=np.uint32)
        entropy = ([np.full_like(low, word) for word in head] + [low]
                   + [np.full_like(low, word) for word in (_words(high) if high else ())])
        for s_hi, s_lo, q_hi, q_lo in _seed_words(entropy).tolist():
            # pcg64_set_seed: inc from the sequence words, then two LCG steps
            inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
            state["state"] = {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128,
                              "inc": inc}
            bitgen.state = state
            yield rng
        start = stop


def noise_block(seed: int, T: float, n_steps: int, d: int, n_paths: int,
                first: int = 0) -> np.ndarray:
    """Reference increments of paths first .. first + n_paths - 1, (n_steps, n_paths, d).

    Column p holds the i.i.d. N(0, dt) draws (dt = T / n_steps) of the stream
    (seed, first + p), the stream of ``Generator(PCG64(SeedSequence((seed,
    first + p))))`` bit for bit, so a block and any sub-block regenerate
    bit for bit; a single path is ``noise_block(..., n_paths=1, first=p)[:, 0]``.
    ``seeded_streams`` seeds all the streams in numpy passes, and no
    (n_paths, n_steps, d) row array or transposed copy is made.  A negative
    seed raises ValueError.
    """
    if not (T > 0 and n_steps >= 1 and d >= 1):
        raise DimensionMismatchError(
            f"invalid noise shape: T={float(T)}, n_steps={n_steps}, d={d}")
    if n_paths < 1 or first < 0:
        raise DimensionMismatchError(f"invalid noise shape: n_paths={n_paths}, first={first}")
    dt = float(T) / int(n_steps)
    out = np.empty((n_steps, n_paths, d))
    # Streams draw into the contiguous rows of a chunk, copied once per chunk.
    # Freeing the chunk also raises glibc's dynamic mmap threshold above the
    # march's per-step arrays, which then come from the heap: drawing straight
    # into out gave verify-comparison 7x the minor page faults (x86_64 Linux).
    rows = np.empty((min(n_paths, _ROWS), n_steps, d))
    for p, rng in enumerate(seeded_streams((seed,), first, n_paths)):
        i = p % len(rows)
        rng.standard_normal(out=rows[i])
        if i == len(rows) - 1 or p == n_paths - 1:
            out[:, p - i:p + 1] = rows[:i + 1].transpose(1, 0, 2)
    out *= np.sqrt(dt)
    return out


@dataclass(frozen=True)
class VolatilityControl:
    """Piecewise-constant choice of covariance generator per time step.

    ``label`` names it in reports; a schedule given directly defaults to
    ``explicit[<first index>..]``."""

    schedule: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        sched = np.asarray(self.schedule, dtype=np.int64)
        if sched.ndim != 1 or sched.size < 1:
            raise DimensionMismatchError("control schedule must be a nonempty 1-d index array")
        if np.min(sched) < 0:
            raise DimensionMismatchError("control schedule indices must be nonnegative")
        sched.setflags(write=False)
        object.__setattr__(self, "schedule", sched)
        if not self.label:
            object.__setattr__(self, "label", f"explicit[{sched[0]}..]")

    @property
    def n_steps(self) -> int:
        return self.schedule.size

    @classmethod
    def constant(cls, index: int, n_steps: int) -> "VolatilityControl":
        return cls(np.full(n_steps, index, dtype=np.int64), f"constant[{index}]")

    @classmethod
    def random_switching(cls, n_generators: int, n_steps: int, seed: int) -> "VolatilityControl":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), 0x5EED))))
        sched = rng.integers(0, n_generators, size=n_steps)
        return cls(sched, f"switching[seed={seed}]")

    @classmethod
    def bang_bang_cycle(cls, lo_index: int, hi_index: int, n_steps: int,
                        period: int | None = None) -> "VolatilityControl":
        """Alternate between two generators; default period splits the horizon in half."""
        period = n_steps if period is None else period
        k = np.arange(n_steps)
        sched = np.where((k % period) < (period + 1) // 2, lo_index, hi_index)
        return cls(sched.astype(np.int64), f"bangbang[{lo_index},{hi_index}]")


def control_schedules(controls, theta: CovarianceSet) -> np.ndarray:
    """Generator indices of a sequence of K controls of one length, (n_steps,
    K), checked against the generators of theta."""
    if not controls:
        raise DimensionMismatchError("at least one control is required")
    if len({control.n_steps for control in controls}) > 1:
        raise DimensionMismatchError("controls marched together must cover the same steps")
    schedules = np.stack([control.schedule for control in controls], axis=-1)
    top = int(np.max(schedules))
    if top >= theta.n_generators:
        raise DimensionMismatchError(
            f"schedule references generator {top} but the set has only {theta.n_generators}")
    return schedules


def apply_control(dw: np.ndarray, schedules: np.ndarray, theta: CovarianceSet,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Map reference increments to (dB, dQV) under a batch of K controls.

    dw is time-major and may carry batch axes after time: (n_steps, ..., d).
    schedules are the generator indices (n_steps, K) of ``control_schedules``
    for the same steps.  The controls lead the batch axes: dB (n_steps, K,
    ..., d) and dQV (n_steps, K, 1.., d, d), with one unit axis per batch
    axis of dw.
    """
    if dw.shape[0] != len(schedules):
        raise DimensionMismatchError(
            f"controls cover {len(schedules)} steps but noise has {dw.shape[0]}")
    if dw.shape[-1] != theta.dim:
        raise DimensionMismatchError(
            f"noise dim {dw.shape[-1]} does not match covariance set dim {theta.dim}"
        )
    gamma = theta.generators[schedules]          # (n_steps, K, d, d)
    dqv = theta.covariances[schedules] * dt      # (n_steps, K, d, d)
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
