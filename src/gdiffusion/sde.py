"""Euler integration of SDEs driven by an uncertain-volatility Brownian motion.

State dynamics on a scenario (dB, dQV):

    X_{m+1} = X_m + b(t_m, X_m) dt
                  + sum_{i,j} h_ij(t_m, X_m) dQV[m, i, j]
                  + sum_i sigma_i(t_m, X_m) dB[m, i]

Coefficients are evaluated at the left endpoint (non-anticipative), matching
the Ito integrals being discretized.  ``euler_march`` steps a whole batch of
scenarios, and systems coupled on the same noise and controls, in lockstep:
it forms each step's dB from the shared reference increments with one
``scenario.apply_control`` call, so no whole-horizon dB is stored, and
returns every level or, when an observer reduces each level as it is made,
only the last.  ``MinGapObserver`` streams the exact minimum gap between two
coupled systems with its first witness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .scenario import VolatilityControl, apply_control, control_schedules

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
    time_homogeneous : the maps do not read t, so the PDE evaluates them once
        (``build_coefficients`` reads this from the expressions)
    h_symmetric : when set, h_lk == h_kl is verified on sample points at
        construction and violations are a construction error

    A map may return any array that broadcasts to its shape (see ``_field``).
    ``fields(t, x)`` evaluates all three and is how the rest of the package
    reads them, with None for an absent part; ``eval_b``, ``h_table`` and
    ``sigma_matrix`` are its three parts on their own, with zeros for None.
    """

    n: int
    d: int
    b: object = None
    h: object = None
    sigma: object = None
    lipschitz: float = 0.0
    time_homogeneous: bool = True
    h_symmetric: bool = True

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise DimensionMismatchError(f"invalid dimensions n={self.n}, d={self.d}")
        if self.h_symmetric and self.has_h:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xA0D17)))
            pts = rng.uniform(-1.5, 1.5, size=(8, self.n))
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
        """func(t, x) as a float array of shape x.shape[:-1] + tail: the map's
        output when it has that shape, else a read-only broadcast view of it;
        zeros for an absent part."""
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] + tail
        if func is None:
            return np.zeros(shape)
        out = np.asarray(func(t, x), dtype=float)
        if out.shape == shape:
            return out
        try:
            return np.broadcast_to(out, shape)
        except ValueError:
            raise DimensionMismatchError(
                f"coefficient map returned shape {out.shape}, expected {shape}") from None

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


def lipschitz_audit(coeffs: CoefficientSet, box: np.ndarray, seed: int = 7) -> float:
    """Spot-check difference quotients of all coefficient maps on 64 point pairs of a box.

    Returns the largest sampled quotient; warns (never raises) when it
    exceeds 1.05 times the declared constant.
    """
    box = np.asarray(box, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x11B))))
    x = rng.uniform(box[:, 0], box[:, 1], size=(64, coeffs.n))
    y = rng.uniform(box[:, 0], box[:, 1], size=(64, coeffs.n))
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
    if coeffs.lipschitz > 0 and worst > 1.05 * coeffs.lipschitz:
        warnings.warn(
            f"sampled Lipschitz quotient {worst:.4g} exceeds 1.05 * declared "
            f"constant {coeffs.lipschitz:.4g}",
            stacklevel=2,
        )
    return worst


def euler_march(coeffs, x0, times: np.ndarray, dw: np.ndarray, controls, theta,
                observe=None) -> np.ndarray:
    """Explicit Euler on one or many scenarios, for one system or several in lockstep.

    coeffs : a CoefficientSet, or a sequence of S of them sharing n, stepped
        in lockstep on the same noise; the system axis is then the leading
        batch axis of the states, and x0 is one initial state per system.
    x0 : (..., n); dw : the reference increments (n_steps, ..., d),
        time-major, on the uniform steps of ``scenario.noise_block``; times
        holds the n_steps + 1 levels.
    controls : one VolatilityControl, or a sequence of K of them, which then
        lead the batch axes of dw: one control per leading batch slot.
        theta is their CovarianceSet.  Step m's dB is ``apply_control`` of
        dw[m], its dQV the covariances of its generators times the uniform
        step; one control goes in as K = 1 and its control axis is dropped.
    observe : optional ``observe(m, x)``, called with the states x (..., n)
        at every level m = 0 .. n_steps; x must not be written to.

    The states are stored component-major, as (S, n, ...) memory read as
    (S, ..., n): the maps get x (..., n) with every x[..., k] C-contiguous,
    and the increments and next states keep that layout.

    One step is one ``apply_control`` call for the batch; per system one
    ``fields(t, x)`` call, the increment summed from its first term (b dt,
    then the loading term, then sigma_l dB_l for l = 1..d; whichever comes
    first is the start, with no zero fill and no extra pass; a first term
    that is a product is written straight into the next states' buffer),
    and x + increment written into the next states; then one finiteness
    test.  Without a drift, step 0's increment alone is summed from +0.0,
    which keeps the bits of a zero-filled sum: only there can an x0 entry
    of -0.0 meet an all -0.0 increment.

    Returns the states at the levels kept, levels after the batch axes:
    every level, (..., n_steps + 1, n) in C order, or with an observer only
    the last, (..., 1, n), a view of the component-major states.  Aborts on
    the first non-finite state rather than clamping: with bounded
    coefficients a blow-up indicates a bug, not a model feature.
    """
    single = isinstance(coeffs, CoefficientSet)
    systems = (coeffs,) if single else tuple(coeffs)
    starts = [np.asarray(start, dtype=float) for start in ((x0,) if single else x0)]
    if len(starts) != len(systems):
        raise DimensionMismatchError(f"{len(starts)} initial states for {len(systems)} systems")
    for system, start in zip(systems, starts):
        if start.shape[-1] != system.n:
            raise DimensionMismatchError(
                f"x0 has dim {start.shape[-1]}, coefficients expect {system.n}")
        if not np.all(np.isfinite(start)):
            raise NonFiniteError("initial state must be finite")
        if dw.shape[-1] != system.d:
            raise DimensionMismatchError(f"noise dim {dw.shape[-1]} != coefficient d {system.d}")
    n = systems[0].n
    if any(system.n != n for system in systems):
        raise DimensionMismatchError("systems marched together must share the state dimension")
    n_steps = dw.shape[0]
    one = isinstance(controls, VolatilityControl)
    schedules = control_schedules([controls] if one else controls, theta)  # (n_steps, K)
    if len(times) != n_steps + 1 or len(schedules) != n_steps:
        raise DimensionMismatchError(
            f"db has {n_steps} steps, but times has {len(times)} levels "
            f"and the controls {len(schedules)} steps")
    qv_dt = float(times[-1] - times[0]) / n_steps
    lead = () if one else schedules.shape[1:]  # the control axis leads the batch axes of dw
    batch = np.broadcast_shapes(*(start.shape[:-1] for start in starts), lead + dw.shape[1:-1])
    qv_shape = lead + (1,) * (dw.ndim - 2) + (theta.dim,) * 2  # one step's dQV
    step = (0, 0) if one else 0  # step m of apply_control's output, no control axis for one
    # component-major: (n, ...) memory read as (..., n), so that each
    # x[s, ..., k] is one contiguous block of the batch
    to_state = (*range(1, 1 + len(batch)), 0)
    x = np.empty((len(systems), n) + batch).transpose(0, *(a + 1 for a in to_state))
    for x_s, start in zip(x, starts):
        x_s[...] = start
    # the system axis is dropped again for a single system
    view = (lambda a: a[0]) if single else (lambda a: a)
    if observe is None:
        states = np.empty(x.shape[:-1] + (n_steps + 1, n))
        states[..., 0, :] = x
    else:
        observe(0, view(x))
    for m in range(n_steps):
        t = float(times[m])
        dt = float(times[m + 1] - times[m])
        db_m = apply_control(dw[m:m + 1], schedules[m:m + 1], theta)[step]
        nxt = np.empty_like(x)
        for system, x_s, nxt_s in zip(systems, x, nxt):
            b, h, s = system.fields(t, x_s)
            # from its first term, a product written into nxt_s; step 0
            # without a drift from +0.0 (see above)
            incr = np.multiply(b, dt, out=nxt_s) if b is not None else 0.0 if m == 0 else None
            if h is not None:
                dqv_m = (theta.covariances[schedules[m]] * qv_dt).reshape(qv_shape)
                loading = np.einsum("...lki,...lk->...i", h, dqv_m)
                if incr is None:
                    incr = loading
                else:
                    incr += loading
            if s is not None:
                for l in range(system.d):
                    if incr is None:
                        incr = np.multiply(s[..., l], db_m[..., l:l + 1], out=nxt_s)
                    else:
                        incr += s[..., l] * db_m[..., l:l + 1]
            np.add(x_s, 0.0 if incr is None else incr, out=nxt_s)
        x = nxt
        if not np.isfinite(x).all():
            bad = np.argwhere(~np.isfinite(view(x)))[0]
            raise NonFiniteError.at_state(m + 1, times[m + 1], tuple(int(i) for i in bad[:-1]),
                                          int(bad[-1]))
        if observe is None:
            states[..., m + 1, :] = x
        else:
            observe(m + 1, view(x))
    return view(states if observe is None else x[..., None, :])


class MinGapObserver:
    """The exact minimum of upper - lower over batch, levels and components,
    streamed for two systems marched in lockstep.

    As the ``observe`` of ``euler_march`` on the systems (lower, upper), it
    keeps per batch index and component the running minimum of upper - lower
    over levels, with the first level where it occurs, in arrays laid out
    like the gaps (component-major in a march).
    """

    def __init__(self):
        self.best = self.level = None

    def __call__(self, m: int, x: np.ndarray) -> None:
        gap = x[1] - x[0]
        if self.best is None:
            self.best = np.full_like(gap, np.inf)
            self.level = np.zeros_like(gap, dtype=np.int64)
        better = gap < self.best  # strict: the first level stays the witness
        np.copyto(self.best, gap, where=better)
        np.copyto(self.level, m, where=better)

    def result(self, times: np.ndarray) -> tuple[float, tuple]:
        """(min gap, (*batch index, component starting at 1, time)) with the
        first witness in scan order: batch index, then level, then component."""
        idx = np.unravel_index(int(np.argmin(self.best.min(axis=-1))), self.best.shape[:-1])
        best, level = self.best[idx], self.level[idx]
        # of the components at the minimum, the first level, then the first component
        ties = np.flatnonzero(best == best.min())
        comp = int(ties[np.argmin(level[ties])])
        return float(best[comp]), (*(int(i) for i in idx), comp + 1, float(times[level[comp]]))


@dataclass(frozen=True)
class SDETerminalFunctional:
    """f(X_T) for the system started at x0, one value per scenario.

    ``f`` is a :class:`~gdiffusion.functions.TestFunction` and ``theta`` the
    CovarianceSet of the controls.  Only the batched form exists:
    ``evaluate_batch(times, dW, controls)`` marches every path under every
    control at once on the shared dW (n_steps, n_paths, d), keeping only
    X_T, and returns (n_paths,) for one control or (K, n_paths) for a
    sequence of K.
    """

    coeffs: CoefficientSet
    f: object
    x0: np.ndarray
    theta: object

    def evaluate_batch(self, times, dw, controls) -> np.ndarray:
        # an observer that reduces nothing: the march keeps only X_T
        terminal = euler_march(self.coeffs, self.x0, times, dw, controls, self.theta,
                               observe=lambda m, x: None)
        return self.f.value(terminal[..., -1, :])
