"""Numerical certification / refutation of comparison and order hypotheses.

Each checker maximizes a violation (a signed inequality residual) over the
constrained domain of its hypothesis, restricted to a declared box, with one
batched engine, ``_search``: score the seeded sample stream, then refine by
coordinate pattern search from each record-holder of the stream (its strict
running maxima) and from ``n_refine`` seeded restarts, all starts in
lockstep.  The residual kernels take a (..., n) stack of points like
``eval_G``, and each engine step is one kernel call per distinct time.  A
checker supplies only its draw, the map from the search vector to a
feasible point (constraints hold by construction, never by penalty), its
witness and its tolerance.  Records of a stream prefix are records of the
whole stream, so max_violation never decreases in n_samples or n_refine.
Because the true quantifier ranges over all of R^n, a reported violation is
a genuine counterexample (the witness re-evaluates exactly), while
"satisfied-on-domain" is evidence, not proof.

Residual conventions (cX carries b, h; cY carries b_bar, h_bar; G is the
worst-case half-trace of the covariance set):

    pair residual  r_i(t, x, y) = b_i(t,x) - b_bar_i(t,y)
                                  + G(Hsym_i(t,x) - Hsym_bar_i(t,y))
    with (Hsym_i)_lk = (h_lk + h_kl)_i

    direction residual r(t, x, K) = <K, b_bar - b>(t,x)
                                    + G([<K, Hsym_bar_lk - Hsym_lk>](t,x))

The pair and direction conditions are listed in ``_CONVENTIONS``.  A
dependency condition is one search over the slot table of its equality
audit, each sample row and start carrying its slot:

    B2     sigma shared, and (sigma_l)_k depends only on x_k: sigma at [k, l]
    C1/D3  (sigma_l)_i (sigma_k)_j depends only on {x_i, x_j}: products at [i, l, j, k]
    D1     C1 plus the product equality audit between the two systems
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, check_box
from .gfunction import CovarianceSet, eval_G
from .scenario import seeded_streams
from .sde import CoefficientSet

PAIR_CONDITIONS = ("B1", "C2", "C2'", "D2", "D4", "D4'")
DIRECTION_CONDITIONS = ("D2'", "D5")

# condition -> (sign, swap), with violation = sign * residual.  The pair
# conditions range over x_i = y_i with x <= y when sign is +1, x >= y when -1.
# swap exchanges the two coefficient sets inside the residual.
_CONVENTIONS = {
    "B1": (+1.0, False),   # r_i <= 0
    "C2": (+1.0, False),   # B1 with cY = cX
    "D4'": (+1.0, True),   # B1 with the roles of cX and cY swapped
    "C2'": (-1.0, False),  # r_i >= 0 with cY = cX
    "D2": (-1.0, False),   # r_i >= 0
    "D4": (-1.0, False),   # r_i >= 0
    "D5": (+1.0, False),   # direction residual <= 0 for K >= 0
    "D2'": (-1.0, True),   # (b - b_bar, h - h_bar) direction residual >= 0 for K >= 0
}
_RESIDUAL_TOL = 1e-8   # relative tolerance of the pair and direction searches
_EXACT_TOL = 1e-9      # relative tolerance of dependency searches and audits
_N_ITERS = 60          # pattern-search iterations per start
_N_DIRECTIONS = 128    # random unit directions sampled besides the axes


@dataclass(frozen=True)
class SearchDomain:
    """Box, time grid, and search budget for a violation search."""

    box: np.ndarray                      # (n, 2) rows [lo, hi]
    t_grid: tuple = (0.0,)
    n_samples: int = 512
    n_refine: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        box = check_box(self.box, "domain.box", DimensionMismatchError)
        if self.n_samples < 1:
            raise DimensionMismatchError("n_samples must be positive")
        if self.n_refine < 0:
            raise DimensionMismatchError("n_refine must be nonnegative")
        t_grid = tuple(float(t) for t in self.t_grid)
        if not t_grid or not np.all(np.isfinite(t_grid)):
            raise DimensionMismatchError("t_grid must hold at least one finite time")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "t_grid", t_grid)

    @property
    def dim(self) -> int:
        return self.box.shape[0]


@dataclass
class CheckReport:
    """Outcome of one hypothesis check.

    verdict is "violated" unless max_violation <= tolerance, so a NaN
    max_violation is a violation, never a pass; the witness carries the
    sample at which the maximum was attained and reproduces max_violation on
    re-evaluation.
    """

    condition: str
    max_violation: float
    witness: dict
    tolerance: float
    samples_evaluated: int
    box: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "satisfied-on-domain" if self.max_violation <= self.tolerance else "violated"

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, **asdict(self)}


def _rng(seed, *tags) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tags)))


def _uniform(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo + (hi - lo) * rng.uniform(size=lo.size)


def _draws(dom: SearchDomain, tag: int, count: int, draw) -> tuple:
    """((t,), z), one row per sample in stream order: z_j = draw(rng) with
    rng the stream (seed, tag, j), j < count, at every t of the grid."""
    z = np.array([draw(rng) for rng in seeded_streams((dom.seed, tag), 0, count)])
    return (np.tile(dom.t_grid, count),), np.repeat(z, len(dom.t_grid), axis=0)


def _at_times(kernel, t: np.ndarray, *rows) -> np.ndarray:
    """kernel(time, *rows) on the rows at each distinct time: one call per time."""
    out = None
    for time in dict.fromkeys(t.tolist()):
        at = t == time
        value = np.asarray(kernel(time, *(r[at] for r in rows)))
        if out is None:
            out = np.empty(t.shape + value.shape[1:])
        out[at] = value
    return np.empty(t.shape) if out is None else out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> over the last axis.  matmul equals np.dot on every row, bit for
    bit; einsum and a product sum can differ from it in the last bit."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _evaluation_error(exc: Exception, t: float, *points) -> EvaluationError:
    """Name t and the first point (x, or x and y) of the failing batch."""
    rows = [p.reshape(-1, p.shape[-1]) for p in points]
    where = ", ".join(f"{name}={r[0].tolist()}" for name, r in zip("xy", rows))
    return EvaluationError(f"coefficient evaluation failed at t={t}, {where} "
                           f"(first of a batch of {len(rows[0])}): {exc}")


def pair_residual(cX: CoefficientSet, cY: CoefficientSet, theta: CovarianceSet,
                  i, t: float, x, y):
    """r_i(t,x,y) = b_i(t,x) - b_bar_i(t,y) + G(Hsym_i(t,x) - Hsym_bar_i(t,y))
    at points x, y of shape (..., n), with i an int or per-row (...) array: a
    float for one point, an array (...) for a stack."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    try:
        bx, hx = cX.eval_b(t, x), cX.h_table(t, x)
        by, hy = cY.eval_b(t, y), cY.h_table(t, y)
    except Exception as exc:  # noqa: BLE001 - surfaced with the sample point
        raise _evaluation_error(exc, t, x, y) from exc
    i = np.broadcast_to(np.asarray(i), x.shape[:-1])[..., None]
    b = np.take_along_axis(bx, i, -1) - np.take_along_axis(by, i, -1)
    hx, hy = (np.take_along_axis(h, i[..., None, None], -1)[..., 0] for h in (hx, hy))
    return b[..., 0] + eval_G((hx + np.swapaxes(hx, -1, -2)) - (hy + np.swapaxes(hy, -1, -2)),
                              theta)


def direction_residual(cX: CoefficientSet, cY: CoefficientSet, theta: CovarianceSet,
                       t: float, x, K, flip: bool):
    """<K, b_bar - b> + G([<K, Hsym_bar - Hsym>]) at points x and directions K
    of shape (..., n): a float for one point, an array (...) for a stack.
    flip=False is the D5 orientation (cY minus cX), flip=True the D2' one."""
    x, K = np.asarray(x, dtype=float), np.asarray(K, dtype=float)
    lo, hi = (cX, cY) if not flip else (cY, cX)
    try:
        b_lo, h_lo = lo.eval_b(t, x), lo.h_table(t, x)
        b_hi, h_hi = hi.eval_b(t, x), hi.h_table(t, x)
    except Exception as exc:  # noqa: BLE001
        raise _evaluation_error(exc, t, x) from exc
    diff = h_hi + np.swapaxes(h_hi, -3, -2) - h_lo - np.swapaxes(h_lo, -3, -2)
    return _dot(K, b_hi - b_lo) + eval_G((diff @ K[..., None, :, None])[..., 0], theta)


def dependency_violation(table, slot, t: float, x, x_prime):
    """|table(t, x') - table(t, x)| at a slot, for points x, x' of shape
    (..., n) that ``table`` maps to (..., *shape): ``slot`` is a flat index
    into ``shape``, an int or a per-row (...) array.  A float for one point,
    an array (...) for a stack."""
    x = np.asarray(x, dtype=float)
    gap = np.subtract(table(t, np.asarray(x_prime, dtype=float)), table(t, x), dtype=float)
    slot = np.broadcast_to(np.asarray(slot), x.shape[:-1])[..., None]
    return np.abs(np.take_along_axis(gap.reshape(slot.shape[:-1] + (-1,)), slot, -1)[..., 0])


def _violation(condition: str, cX: CoefficientSet, cY: CoefficientSet,
               theta: CovarianceSet, *point):
    """sign * residual at pair points (i, t, x, y) or direction points (t, x, K)."""
    sign, swap = _CONVENTIONS[condition]
    if condition in DIRECTION_CONDITIONS:
        return sign * direction_residual(cX, cY, theta, *point, flip=swap)
    if swap:
        cX, cY = cY, cX
    return sign * pair_residual(cX, cY, theta, *point)


def _pattern_search(objective, z0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Coordinate pattern search maximizing ``objective(rows, z)`` on [lo, hi]
    from every row of z0 in lockstep: (best values, best points).  A start
    halves its own step after an iteration without a move, and is frozen (no
    longer evaluated) once the step falls below the stop size."""
    z = np.clip(z0, lo, hi)
    best = objective(np.arange(len(z)), z)
    step = np.tile(0.25 * (hi - lo), (len(z), 1))
    active = np.ones(len(z), dtype=bool)
    for _ in range(_N_ITERS):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        improved = np.zeros(len(z), dtype=bool)
        for c in range(z.shape[1]):
            for direction in (+1.0, -1.0):
                trial = z[rows]
                trial[:, c] = trial[:, c] + direction * step[rows, c]
                trial = np.clip(trial, lo, hi)
                val = objective(rows, trial)
                up = val > best[rows]
                best[rows[up]], z[rows[up]], improved[rows[up]] = val[up], trial[up], True
        still = rows[~improved[rows]]
        step[still] *= 0.5
        active[still[np.max(step[still], axis=1) < 1e-9 * np.max(hi - lo)]] = False
    return best, z


def _search(samples: tuple, restarts: tuple, objective, z_lo: np.ndarray,
            z_hi: np.ndarray, score=None, n_slots: int = 1) -> tuple:
    """The violation search of every checker (see module docstring).

    ``samples`` and ``restarts`` are seeded streams (ctx, z): search vectors
    z with per-row contexts ctx = (t, ...), in ``n_slots`` equal blocks of
    rows.  ``score`` rates the samples (``objective`` by default) and pattern
    search maximizes ``objective`` (None: nothing is free) on [z_lo, z_hi],
    each as f(time, *rest, z) once per distinct time.  Each slot is searched
    as if alone; returns (sample values, value, context, z, refined) of the
    first slot of largest value, passing over NaN unless every slot is NaN."""
    ctx, z = samples
    values = _at_times(score or objective, *ctx, z)
    by_slot = values.reshape(n_slots, -1)
    # [slot, column]: the slot's samples, then its restarts
    pool = [np.concatenate([v.reshape(n_slots, -1, *a.shape[1:]) for v in (a, b)], axis=1)
            for a, b in zip((*ctx, z), (*restarts[0], restarts[1]))]
    gain, moved = np.full(pool[0].shape, -np.inf), pool[-1].copy()
    if objective is not None:  # start from the record holders, then the restarts
        start = np.ones(gain.shape, dtype=bool)
        start[:, :by_slot.shape[1]] = by_slot > np.fmax.accumulate(
            np.c_[np.full(n_slots, -np.inf), by_slot[:, :-1]], axis=1)
        *rest, z0 = (a[start] for a in pool)
        gain[start], moved[start] = _pattern_search(
            lambda rows, trial: _at_times(objective, *(a[rows] for a in rest), trial),
            z0, z_lo, z_hi)
    slot, top, up = np.arange(n_slots), np.argmax(by_slot, axis=1), np.argmax(gain, axis=1)
    refined = gain[slot, up] > by_slot[slot, top]
    best = np.where(refined, gain[slot, up], by_slot[slot, top])
    s = int(np.argmax(np.where(np.isnan(best), -np.inf, best)))
    col = up[s] if refined[s] else top[s]
    return (values, best[s], tuple(a[s, col] for a in pool[:-1]),
            (moved if refined[s] else pool[-1])[s, col], bool(refined[s]))


def _search_pair_condition(condition: str, cX: CoefficientSet, cY: CoefficientSet,
                           theta: CovarianceSet, dom: SearchDomain) -> CheckReport:
    """B1 / C2 / C2' / D2 / D4 / D4' over ordered pairs tied at coordinate i.

    z = (y, u) holds the free endpoint and mixing weights in [0, 1]^n; the
    dominated endpoint x = lo + u * (y - lo), or y + u * (hi - y) for x >= y,
    has x_i = y_i exactly, so every pair satisfies its constraint.
    """
    n = cX.n
    if dom.dim != n:
        raise DimensionMismatchError(f"domain dim {dom.dim} != state dim {n}")
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    sign, _ = _CONVENTIONS[condition]

    def pairs(i, z):
        y, u = z[:, :n], z[:, n:]
        x = lo + u * (y - lo) if sign > 0 else y + u * (hi - y)
        x[np.arange(len(z)), i] = y[np.arange(len(z)), i]
        return x, y

    def objective(time, i, z):
        return _violation(condition, cX, cY, theta, i, time, *pairs(i, z))

    def stream(tag, count):  # each draw at each t, tied at each coordinate i
        (t,), z = _draws(dom, tag, count, lambda rng: np.concatenate(
            [_uniform(rng, lo, hi), rng.uniform(size=n)]))
        return (np.repeat(t, n), np.tile(np.arange(n), len(t))), np.repeat(z, n, axis=0)

    values, best_v, (t, i), z, _ = _search(stream(1, dom.n_samples), stream(9, dom.n_refine),
                                           objective, np.r_[lo, np.zeros(n)], np.r_[hi, np.ones(n)])
    (x,), (y,) = pairs(np.array([i]), z[None])
    witness = {"i": int(i), "t": float(t), "x": x.tolist(), "y": y.tolist()}
    return _residual_report(condition, best_v, witness, values, dom)


def _residual_report(condition: str, best_v, witness: dict, values, dom) -> CheckReport:
    """A pair or direction report; the tolerance scales with the largest residual."""
    scale = float(np.max(np.abs(values))) + abs(best_v)
    return CheckReport(condition=condition, max_violation=float(best_v),
                       witness={**witness, "residual": float(_CONVENTIONS[condition][0] * best_v)},
                       tolerance=_RESIDUAL_TOL * (1.0 + scale),
                       samples_evaluated=len(values), box=dom.box.tolist())


def check_dependency(table, allowed: dict, dom: SearchDomain, condition: str = "dependency",
                     names: tuple = ()) -> CheckReport:
    """Does each slot of ``table(t, x)``, (..., n) -> (..., *shape), depend
    only on its allowed coordinates?  ``allowed`` maps the slots to search, in
    order, to their 0-based allowed coordinates; a slot is an index into
    ``shape``, named in the witness by ``names``.  Slot s maximizes |table(t,
    x') - table(t, x)| at s over x' = x on allowed[s]; z = (x, x_alt) takes
    x' from x_alt off it."""
    n, slots = dom.dim, list(allowed)
    n_slots = len(slots)
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    coords = [sorted(set(int(c) for c in allowed[s])) for s in slots]
    kept = np.array([np.isin(np.arange(n), c) for c in coords])

    def perturbed(s, z):
        return np.where(kept[s], z[..., :n], z[..., n:])

    def objective(time, s, z):
        return dependency_violation(table, flat[s], time, z[:, :n], perturbed(s, z))

    def draw(rng):
        return np.concatenate([_uniform(rng, lo, hi), _uniform(rng, lo, hi)])

    def per_slot(stream):  # every slot searches the same draws, slot after slot
        (t,), z = stream
        return (np.tile(t, n_slots), np.repeat(np.arange(n_slots), len(t))), \
            np.tile(z, (n_slots, 1))

    samples = _draws(dom, 2, dom.n_samples, draw)
    fx = _at_times(table, samples[0][0], samples[1][:, :n])
    flat = np.array([np.arange(fx[0].size).reshape(fx.shape[1:])[s] for s in slots])
    scale = np.max(np.abs(fx.reshape(len(fx), -1)[:, flat]), axis=0)
    values, best_v, (t, s), z, _ = _search(
        per_slot(samples), per_slot(_draws(dom, 10, dom.n_refine, draw)),
        None if kept.all() else objective, np.r_[lo, lo], np.r_[hi, hi], score=objective,
        n_slots=n_slots)
    witness = {"t": float(t), "x": z[:n].tolist(), "x_prime": perturbed(s, z).tolist(),
               "allowed_coords": coords[s], **dict(zip(names, map(int, slots[s])))}
    return CheckReport(condition=condition, max_violation=float(best_v),
                       witness=witness, tolerance=_EXACT_TOL * (1.0 + float(scale[s])),
                       samples_evaluated=len(values), box=dom.box.tolist())


def _merge_reports(condition: str, parts: list[tuple[dict, CheckReport]]) -> CheckReport:
    worst_tag, worst = max(parts, key=lambda p: p[1].max_violation)
    return CheckReport(condition=condition, max_violation=worst.max_violation,
                       witness={**worst.witness, **worst_tag}, tolerance=worst.tolerance,
                       samples_evaluated=sum(p[1].samples_evaluated for p in parts),
                       box=worst.box)


def _sigma_products(c: CoefficientSet, t: float, x: np.ndarray) -> np.ndarray:
    """All products (sigma_l)_i (sigma_k)_j at points (..., n), indexed [..., i, l, j, k]."""
    s = c.sigma_matrix(t, x)
    return np.einsum("...il,...jk->...iljk", s, s)


# audit kind -> (condition, rng tag, witness index names, values(c, t, x))
_AUDITS = {
    "sigma-shared": ("B2", 3, ("k", "l"), lambda c, t, x: c.sigma_matrix(t, x)),
    "product-equality": ("D1", 6, ("i", "l", "j", "k"), _sigma_products),
}
_TABLE = {"B2": "sigma-shared", "C1": "product-equality", "D1": "product-equality",
          "D3": "product-equality"}  # the audit whose table a dependency search reads


def _equality_audit(kind: str, cX: CoefficientSet, cY: CoefficientSet,
                    dom: SearchDomain) -> CheckReport:
    """Audit values(cX) == values(cY) on seeded points.  The witness is the
    first point of largest gap: the first point when every gap is 0."""
    condition, tag, names, values = _AUDITS[kind]
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    (t,), x = _draws(dom, tag, min(dom.n_samples, 256), lambda rng: _uniform(rng, lo, hi))
    vx, vy = (_at_times(lambda time, x: values(c, time, x), t, x) for c in (cX, cY))
    gap = np.abs(vx - vy)
    p = int(np.argmax(gap.reshape(len(t), -1).max(axis=1)))
    witness = {"t": float(t[p]), "x": x[p].tolist(), "kind": kind,
               **dict(zip(names, map(int, np.unravel_index(int(np.argmax(gap[p])), gap[p].shape))))}
    return CheckReport(condition=condition, max_violation=float(np.max(gap[p])),
                       witness=witness, tolerance=_EXACT_TOL * (1.0 + float(np.max(np.abs(vx)))),
                       samples_evaluated=len(t), box=dom.box.tolist())


def _sigma_dependency(condition: str, c: CoefficientSet, dom: SearchDomain) -> CheckReport:
    """The dependency search of B2, C1, D1 or D3 (see module docstring).  A
    product with i != j whose {i, j} is every coordinate (n = 2) depends on
    nothing else, so its violation is exactly 0 and it is not searched."""
    if condition == "B2":
        allowed = {(k, l): {k} for l, k in itertools.product(range(c.d), range(c.n))}
    else:
        allowed = {(i, l, j, k): {i, j} for l, k, i, j in itertools.product(
            range(c.d), range(c.d), range(c.n), range(c.n)) if i == j or c.n != 2}
    _, _, names, values = _AUDITS[_TABLE[condition]]
    return check_dependency(lambda t, x: values(c, t, x), allowed, dom, condition, names)


def _search_direction_condition(condition: str, cX: CoefficientSet, cY: CoefficientSet,
                                theta: CovarianceSet, dom: SearchDomain) -> CheckReport:
    """D5 / D2' over x in the box and K on the nonnegative unit sphere.  The
    residual is positively homogeneous in K, so z = (x, K) maps to (x, K / |K|).
    Samples keep their stored unit directions: renormalizing would move bits."""
    n = cX.n
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    directions = np.abs(_rng(dom.seed, 4).standard_normal((_N_DIRECTIONS, n)))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # include the coordinate axes so componentwise violations are never missed
    directions = np.concatenate([np.eye(n), directions])

    def score(time, z):
        return _violation(condition, cX, cY, theta, time, z[:, :n], z[:, n:])

    def objective(time, z):  # -inf where K is too short to normalize
        norm = np.sqrt(_dot(z[:, n:], z[:, n:]))[:, None]
        out, ok = np.full(len(z), -np.inf), norm[:, 0] > 1e-12
        if ok.any():
            out[ok] = score(time, np.concatenate([z[ok, :n], z[ok, n:] / norm[ok]], 1))
        return out

    def restart(rng):
        x, K = _uniform(rng, lo, hi), np.abs(rng.standard_normal(n))
        return np.concatenate([x, K / np.sqrt(_dot(K, K))])

    (t,), x = _draws(dom, 5, dom.n_samples, lambda rng: _uniform(rng, lo, hi))
    samples = (np.repeat(t, len(directions)),), np.concatenate(
        [np.repeat(x, len(directions), axis=0), np.tile(directions, (len(x), 1))], axis=1)
    values, best_v, (t,), z, refined = _search(
        samples, _draws(dom, 11, dom.n_refine, restart), objective,
        np.r_[lo, np.zeros(n)], np.r_[hi, np.ones(n)], score)
    K = z[n:] / np.sqrt(_dot(z[n:], z[n:])) if refined else z[n:]
    return _residual_report(condition, best_v, {"t": float(t), "x": z[:n].tolist(),
                                                "K": K.tolist()}, values, dom)


def re_evaluate(report: CheckReport, cX: CoefficientSet, cY: CoefficientSet | None,
                theta: CovarianceSet) -> float:
    """Recompute the violation at a report's witness.

    Soundness contract: the returned value matches ``report.max_violation``
    to within 1e-12.
    """
    cY = cX if cY is None else cY
    w = report.witness
    if report.condition in PAIR_CONDITIONS:
        return _violation(report.condition, cX, cY, theta, w["i"], w["t"], w["x"], w["y"])
    if report.condition in DIRECTION_CONDITIONS:
        return _violation(report.condition, cX, cY, theta, w["t"], w["x"], w["K"])
    _, _, names, values = _AUDITS[_TABLE[report.condition]]
    slot = tuple(w[name] for name in names)
    # an audit compares cX with cY at x, a dependency search cX at x with cX at x'
    other, x_other = (cX, w["x_prime"]) if "x_prime" in w else (cY, w["x"])
    return abs(float(values(cX, w["t"], w["x"])[slot] - values(other, w["t"], x_other)[slot]))


def run_check(condition: str, cX: CoefficientSet, cY: CoefficientSet | None,
              theta: CovarianceSet, dom: SearchDomain) -> CheckReport:
    """Dispatch a named condition check; cY defaults to cX, and C1, C2 and C2'
    always check cX against itself."""
    if cY is None or condition in ("C1", "C2", "C2'"):
        cY = cX
    if condition in PAIR_CONDITIONS:
        return _search_pair_condition(condition, cX, cY, theta, dom)
    if condition in DIRECTION_CONDITIONS:
        return _search_direction_condition(condition, cX, cY, theta, dom)
    if condition in ("C1", "D3"):
        return _sigma_dependency(condition, cX, dom)
    if condition in ("B2", "D1"):  # the equality audit between the systems, then the search
        search = {"B2": "sigma-dependency", "D1": "product-dependency"}[condition]
        return _merge_reports(condition, [
            ({"kind": _TABLE[condition]}, _equality_audit(_TABLE[condition], cX, cY, dom)),
            ({"kind": search}, _sigma_dependency(condition, cX, dom))])
    raise DimensionMismatchError(f"unknown condition {condition!r}")
