"""Reference noise, volatility controls and scenario arrays with a batch axis.

A scenario is a pair (reference Wiener path, volatility control).  The
control selects one covariance generator per time step; the driven path has
increments ``dB_k = gamma_{m(k)} dW_k`` and accumulates quadratic covariation
``d<B^i,B^j>_k = (gamma gamma^T)_{ij} dt``, which only the loadings of
``sde.euler_march`` read.  Scenarios are plain arrays with time as the
leading axis: ``noise_block`` gives the reference increments ``dW (n_steps,
n_paths, d)``, shared by every control, and ``apply_control`` maps one step
``dW[m]`` to its ``dB`` under generator indices that broadcast against its
batch axes, (K, 1, ..) for K controls; ``sde.euler_march`` calls it per step.
``march_chunks`` is the one Monte Carlo loop: it draws the noise of one
chunk of paths at a time, marches the controls on it in lockstep batches
through the caller's march and hands each result to the caller's reducer;
``lockstep_shape`` sizes chunk and batch so that one step's states
``(K_b, P, width)`` stay within ``STEP_BYTES``.  On it,
``estimate_sublinear_expectation`` maximizes Monte Carlo means over a
finite family of controls.

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

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, NonFiniteError
from .gfunction import CovarianceSet

# bytes of one step's lockstep states (K_b, P, width): a batch of K_b
# controls on a chunk of P paths, width the entries of one path's state (its
# systems' components).  Smaller steps pay more per-step Python overhead,
# larger ones more peak memory; 320 000 B holds 20 controls of 500 paths of
# two 2-D systems, or 66 controls of 512 paths in 1-D.
STEP_BYTES = 320_000


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


def lockstep_shape(n_controls: int, n_paths: int, width: int) -> tuple[int, int]:
    """(P, K_b) of a lockstep march: P paths per chunk, at most n_paths, else
    the largest multiple of _ROWS, and at least _ROWS, whose states
    (n_controls, P, width) of doubles fit STEP_BYTES; K_b controls per batch,
    the most whose states (K_b, P, width) fit, and at least one."""
    paths = min(n_paths, _ROWS * max(1, STEP_BYTES // (8 * n_controls * width * _ROWS)))
    return paths, max(1, min(n_controls, STEP_BYTES // (8 * paths * width)))


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


def apply_control(dw_m: np.ndarray, index: np.ndarray, theta: CovarianceSet) -> np.ndarray:
    """One step's dB = gamma dW: dw_m (..., d) are the step's reference
    increments, index the generator indices of the step, which broadcast
    against the batch axes of dw_m, so dB has their broadcast batch shape.
    A scalar index is one control; K controls lead the batch axes as (K, 1,
    .., 1); an index per control and path fills those axes.
    """
    if dw_m.shape[-1] != theta.dim:
        raise DimensionMismatchError(
            f"noise dim {dw_m.shape[-1]} does not match covariance set dim {theta.dim}")
    return np.einsum("...ij,...j->...i", theta.generators[index], dw_m)


def march_chunks(controls: list[VolatilityControl], n_paths: int, march, reduce, *,
                 width: int, noise: tuple, systems: int = 1) -> None:
    """March every control on paths 0 .. n_paths - 1 of noise = (seed, T,
    n_steps, d), in the ``lockstep_shape`` of states with width entries: per
    chunk one draw, then ``reduce(ctrl, paths, march(times, dw, batch))`` per
    batch, the slices naming the controls and global paths covered.

    After a NonFiniteError, ``march(times, dw, [control], s)`` marches each
    control and each of the caller's systems alone on every chunk, and the
    first of them to fail raises what it raises on the whole block: at its
    earliest step, then global path, then component."""
    chunk, size = lockstep_shape(len(controls), n_paths, width)
    seed, T, n_steps, d = noise
    times = np.linspace(0.0, float(T), int(n_steps) + 1)
    chunks = [(first, min(chunk, n_paths - first)) for first in range(0, n_paths, chunk)]
    try:
        for first, count in chunks:
            dw = noise_block(seed, T, n_steps, d, count, first=first)
            for k in range(0, len(controls), size):
                reduce(slice(k, k + size), slice(first, first + count),
                       march(times, dw, controls[k:k + size]))
    except NonFiniteError:
        found = {}  # (control, system) -> its (step, global batch index, component)
        for first, count in chunks:
            dw = noise_block(seed, T, n_steps, d, count, first=first)
            for j, s in itertools.product(range(len(controls)), range(systems)):
                if found and (j, s) > min(found):
                    break  # an earlier march fails already
                try:
                    march(times, dw, [controls[j]], s)
                except NonFiniteError as err:
                    if err.entry is None:
                        raise
                    step, index, comp = err.entry
                    entry = (step, index[:-1] + (first + index[-1],), comp)
                    found[j, s] = min(found.get((j, s), entry), entry)
        if found:
            step, index, comp = found[min(found)]
            raise NonFiniteError.at_state(step, times[step], index, comp) from None
        raise


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
    control and path, (K, n_paths), for the shared time-major dW (n_steps,
    n_paths, d) and a list of K controls; ``march_chunks`` makes the calls,
    so each control's values, and any NonFiniteError, have the bits of
    marching it alone on the whole block.  The memory held is the (K,
    n_paths) values and one chunk of noise.
    """
    if n_paths < 2:
        raise DimensionMismatchError("n_paths must be at least 2")
    if not controls:
        raise DimensionMismatchError("at least one control is required")
    values = np.empty((len(controls), n_paths))

    def write(ctrl: slice, paths: slice, rows: np.ndarray) -> None:
        values[ctrl, paths] = rows

    march_chunks(controls, n_paths, lambda times, dw, batch, s=0:
                 functional.evaluate_batch(times, dw, batch), write,
                 width=theta.dim, noise=(seed, T, n_steps, theta.dim))
    best = None
    for c_idx, (control, row) in enumerate(zip(controls, values)):
        if not np.all(np.isfinite(row)):
            raise EvaluationError(f"functional returned a non-finite value at control {c_idx} "
                                  f"({control.label}), path {int(np.argmin(np.isfinite(row)))}")
        mean = float(np.mean(row))
        if best is None or mean > best[0]:
            se = float(np.std(row, ddof=1) / np.sqrt(n_paths))
            best = (mean, se, control)
    return best
