"""Numerical certification / refutation of comparison and order hypotheses.

Each checker maximizes a violation (a signed inequality residual) over the
constrained domain of its hypothesis, restricted to a declared box, with one
engine, ``_search``: keep the best of the seeded samples, then refine by
coordinate pattern search from each record-holder of the sample stream (its
strict running maxima) and from ``n_refine`` seeded restarts.  A checker
supplies only its draw, the map from the search vector to a feasible point
(constraints hold by construction, never by penalty), its witness and its
tolerance.  Records of a stream prefix are records of the whole stream, so
max_violation never decreases in n_samples or n_refine.  Because the true
quantifier ranges over all of R^n, a reported violation is a genuine
counterexample (the witness re-evaluates exactly), while
"satisfied-on-domain" is evidence, not proof.

Residual conventions (cX carries b, h; cY carries b_bar, h_bar; G is the
worst-case half-trace of the covariance set):

    pair residual  r_i(t, x, y) = b_i(t,x) - b_bar_i(t,y)
                                  + G(Hsym_i(t,x) - Hsym_bar_i(t,y))
    with (Hsym_i)_lk = (h_lk + h_kl)_i

    direction residual r(t, x, K) = <K, b_bar - b>(t,x)
                                    + G([<K, Hsym_bar_lk - Hsym_lk>](t,x))

The pair and direction conditions are listed in ``_CONVENTIONS``.  The
dependency conditions are:

    B2   sigma shared between the systems and (sigma_l)_k depending only
         on x_k (equality audit + dependency search)
    C1/D3  every product (sigma_l)_i (sigma_k)_j depends only on {x_i, x_j}
    D1   C1-style dependency plus the product equality audit between the
         two systems
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EvaluationError
from .gfunction import CovarianceSet, eval_G
from .sde import CoefficientSet

PAIR_CONDITIONS = ("B1", "C2", "C2'", "D2", "D4", "D4'")
DIRECTION_CONDITIONS = ("D2'", "D5")
DEPENDENCY_CONDITIONS = ("B2", "C1", "D1", "D3")
ALL_CONDITIONS = PAIR_CONDITIONS + DIRECTION_CONDITIONS + DEPENDENCY_CONDITIONS

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
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            raise DimensionMismatchError("box must be an (n, 2) array of [lo, hi] rows")
        if np.any(box[:, 0] >= box[:, 1]):
            raise DimensionMismatchError("box rows must satisfy lo < hi")
        if self.n_samples < 1:
            raise DimensionMismatchError("n_samples must be positive")
        if self.n_refine < 0:
            raise DimensionMismatchError("n_refine must be nonnegative")
        t_grid = tuple(float(t) for t in self.t_grid)
        if not t_grid or not np.all(np.isfinite(t_grid)):
            raise DimensionMismatchError("t_grid must hold at least one finite time")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "t_grid", t_grid)

    @property
    def dim(self) -> int:
        return self.box.shape[0]


@dataclass
class CheckReport:
    """Outcome of one hypothesis check.

    verdict is "violated" exactly when max_violation > tolerance; the witness
    carries the sample at which the maximum was attained and reproduces
    max_violation on re-evaluation.
    """

    condition: str
    max_violation: float
    witness: dict
    tolerance: float
    samples_evaluated: int
    box: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "violated" if self.max_violation > self.tolerance else "satisfied-on-domain"

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, **asdict(self)}


def _rng(seed, *tags) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tags)))


def _uniform(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo + (hi - lo) * rng.uniform(size=lo.size)


def _draws(dom: SearchDomain, tag: int, count: int, draw):
    """(t, z) for z = draw(rng) with rng seeded by (tag, j), j < count, at every t."""
    for j in range(count):
        z = draw(_rng(dom.seed, tag, j))
        for t in dom.t_grid:
            yield t, z


def pair_residual(cX: CoefficientSet, cY: CoefficientSet, theta: CovarianceSet,
                  i: int, t: float, x, y) -> float:
    """r_i(t,x,y) = b_i(t,x) - b_bar_i(t,y) + G(Hsym_i(t,x) - Hsym_bar_i(t,y))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        bx, hx = cX.eval_b(t, x), cX.h_table(t, x)
        by, hy = cY.eval_b(t, y), cY.h_table(t, y)
    except Exception as exc:  # noqa: BLE001 - surfaced with the sample point
        raise EvaluationError(f"coefficient evaluation failed at t={t}, x={x.tolist()}, "
                              f"y={y.tolist()}: {exc}") from exc
    hx, hy = hx[..., i], hy[..., i]
    return float(bx[i]) - float(by[i]) + eval_G((hx + hx.T) - (hy + hy.T), theta)


def direction_residual(cX: CoefficientSet, cY: CoefficientSet, theta: CovarianceSet,
                       t: float, x, K, flip: bool) -> float:
    """<K, b_bar - b> + G([<K, Hsym_bar - Hsym>]) at x; flip swaps the roles.

    flip=False is the D5 orientation (cY minus cX); flip=True gives the D2'
    orientation (cX minus cY).
    """
    x = np.asarray(x, dtype=float)
    K = np.asarray(K, dtype=float)
    lo, hi = (cX, cY) if not flip else (cY, cX)
    try:
        b_lo, h_lo = lo.eval_b(t, x), lo.h_table(t, x)
        b_hi, h_hi = hi.eval_b(t, x), hi.h_table(t, x)
    except Exception as exc:  # noqa: BLE001
        raise EvaluationError(f"coefficient evaluation failed at t={t}, "
                              f"x={x.tolist()}: {exc}") from exc
    diff = h_hi + np.swapaxes(h_hi, 0, 1) - h_lo - np.swapaxes(h_lo, 0, 1)
    return float(np.dot(K, b_hi - b_lo)) + eval_G(diff @ K, theta)


def _violation(condition: str, cX: CoefficientSet, cY: CoefficientSet,
               theta: CovarianceSet, *point) -> float:
    """sign * residual at a pair point (i, t, x, y) or a direction point (t, x, K)."""
    sign, swap = _CONVENTIONS[condition]
    if condition in DIRECTION_CONDITIONS:
        return sign * direction_residual(cX, cY, theta, *point, flip=swap)
    if swap:
        cX, cY = cY, cX
    return sign * pair_residual(cX, cY, theta, *point)


def _pattern_search(objective, z0: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[float, np.ndarray]:
    """Deterministic coordinate pattern search maximizing ``objective`` on [lo, hi]."""
    z = np.clip(z0, lo, hi)
    best = objective(z)
    step = 0.25 * (hi - lo)
    for _ in range(_N_ITERS):
        improved = False
        for c in range(z.size):
            for direction in (+1.0, -1.0):
                trial = z.copy()
                trial[c] = trial[c] + direction * step[c]
                trial = np.clip(trial, lo, hi)
                val = objective(trial)
                if val > best:
                    best, z, improved = val, trial, True
        if not improved:
            step *= 0.5
            if np.max(step) < 1e-9 * np.max(hi - lo):
                break
    return best, z


def _record_indices(values: list[float]) -> list[int]:
    """Indices of strict running maxima, in stream order."""
    out, best = [], -np.inf
    for idx, v in enumerate(values):
        if v > best:
            out.append(idx)
            best = v
    return out


def _search(samples: list, restarts, objective, z_lo: np.ndarray, z_hi: np.ndarray):
    """The violation search of every checker (see module docstring).

    ``samples`` holds (value, context, z) in stream order and ``restarts``
    yields seeded (context, z).  Pattern search maximizes
    ``objective(context, z)`` on [z_lo, z_hi]; ``objective`` is None when
    nothing is free to refine.  Returns (value, context, z, refined).
    """
    values = [s[0] for s in samples]
    best_v, context, z = samples[int(np.argmax(values))]
    refined = False
    if objective is None:
        return best_v, context, z, refined
    records = (samples[r][1:] for r in _record_indices(values))
    for ctx, z0 in itertools.chain(records, restarts):
        v, z_ref = _pattern_search(lambda z, ctx=ctx: objective(ctx, z), z0, z_lo, z_hi)
        if v > best_v:
            best_v, context, z, refined = v, ctx, z_ref, True
    return best_v, context, z, refined


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

    def pair(i, z):
        y, u = z[:n], z[n:]
        x = lo + u * (y - lo) if sign > 0 else y + u * (hi - y)
        x[i] = y[i]
        return x, y

    def objective(context, z):
        i, t = context
        return _violation(condition, cX, cY, theta, i, t, *pair(i, z))

    def draw(rng):
        return np.concatenate([_uniform(rng, lo, hi), rng.uniform(size=n)])

    def draws(tag, count):
        return (((i, t), z) for t, z in _draws(dom, tag, count, draw) for i in range(n))

    samples = [(objective(context, z), context, z) for context, z in draws(1, dom.n_samples)]
    best_v, (i, t), z, _ = _search(samples, draws(9, dom.n_refine), objective,
                                   np.concatenate([lo, np.zeros(n)]),
                                   np.concatenate([hi, np.ones(n)]))
    x, y = pair(i, z)
    scale = max(abs(s[0]) for s in samples) + abs(best_v)
    witness = {"i": int(i), "t": float(t), "x": x.tolist(), "y": y.tolist(),
               "residual": float(sign * best_v)}
    return CheckReport(condition=condition, max_violation=float(best_v),
                       witness=witness, tolerance=_RESIDUAL_TOL * (1.0 + scale),
                       samples_evaluated=len(samples), box=dom.box.tolist())


def dependency_violation(func, coords, t: float, x, x_prime) -> float:
    """|func(t, x') - func(t, x)| for x' differing from x off ``coords`` only."""
    return abs(float(func(t, np.asarray(x_prime, dtype=float)))
               - float(func(t, np.asarray(x, dtype=float))))


def check_dependency(func, allowed_coords, dom: SearchDomain,
                     condition: str = "dependency") -> CheckReport:
    """Does ``func(t, x)`` depend only on the coordinates in ``allowed_coords``?

    Maximizes |func(t, x') - func(t, x)| over x' = x on the allowed set; the
    search vector z = (x, x_alt) takes x' from x_alt off it.  0-based indices.
    """
    n = dom.dim
    allowed = sorted(set(int(c) for c in allowed_coords))
    free = [c for c in range(n) if c not in allowed]
    lo, hi = dom.box[:, 0], dom.box[:, 1]

    def perturbed(z):
        x_prime = z[n:].copy()
        x_prime[allowed] = z[:n][allowed]
        return x_prime

    def objective(t, z):
        return dependency_violation(func, allowed, t, z[:n], perturbed(z))

    def draw(rng):
        return np.concatenate([_uniform(rng, lo, hi), _uniform(rng, lo, hi)])

    samples, scale = [], 0.0
    for t, z in _draws(dom, 2, dom.n_samples, draw):
        fx = float(func(t, z[:n]))
        scale = max(scale, abs(fx))
        samples.append((abs(float(func(t, perturbed(z))) - fx), t, z))
    restarts = _draws(dom, 10, dom.n_refine, draw)
    best_v, t, z, _ = _search(samples, restarts, objective if free else None,
                              np.concatenate([lo, lo]), np.concatenate([hi, hi]))
    witness = {"t": float(t), "x": z[:n].tolist(), "x_prime": perturbed(z).tolist(),
               "allowed_coords": allowed}
    return CheckReport(condition=condition, max_violation=float(best_v),
                       witness=witness, tolerance=_EXACT_TOL * (1.0 + scale),
                       samples_evaluated=len(samples), box=dom.box.tolist())


def _merge_reports(condition: str, parts: list[tuple[dict, CheckReport]]) -> CheckReport:
    worst_tag, worst = max(parts, key=lambda p: p[1].max_violation)
    return CheckReport(condition=condition, max_violation=worst.max_violation,
                       witness={**worst.witness, **worst_tag}, tolerance=worst.tolerance,
                       samples_evaluated=sum(p[1].samples_evaluated for p in parts),
                       box=worst.box)


def sigma_component(c: CoefficientSet, l: int, k: int):
    """The scalar map x -> (sigma_l)_k(x)."""
    return lambda t, x: float(c.sigma_matrix(t, x)[..., k, l])


def sigma_product(c: CoefficientSet, l: int, k: int, i: int, j: int):
    """The scalar map x -> (sigma_l)_i(x) * (sigma_k)_j(x)."""
    def product(t, x):
        s = c.sigma_matrix(t, x)
        return float(s[..., i, l] * s[..., j, k])
    return product


def _sigma_products(c: CoefficientSet, t: float, x: np.ndarray) -> np.ndarray:
    """All products (sigma_l)_i (sigma_k)_j at one point, indexed [i, l, j, k]."""
    s = c.sigma_matrix(t, x)
    return np.einsum("il,jk->iljk", s, s)


# audit kind -> (condition, rng tag, witness index names, values(c, t, x))
_AUDITS = {
    "sigma-shared": ("B2", 3, ("k", "l"), lambda c, t, x: c.sigma_matrix(t, x)),
    "product-equality": ("D1", 6, ("i", "l", "j", "k"), _sigma_products),
}


def _equality_audit(kind: str, cX: CoefficientSet, cY: CoefficientSet,
                    dom: SearchDomain) -> CheckReport:
    """Audit values(cX) == values(cY) on seeded points.  The witness is the
    first point of largest gap: the first point when every gap is 0."""
    condition, tag, names, values = _AUDITS[kind]
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    worst, witness, scale, evaluated = 0.0, None, 0.0, 0
    for t, x in _draws(dom, tag, min(dom.n_samples, 256), lambda rng: _uniform(rng, lo, hi)):
        vx, vy = values(cX, t, x), values(cY, t, x)
        evaluated += 1
        scale = max(scale, float(np.max(np.abs(vx))))
        gap = np.abs(vx - vy)
        if witness is None or float(np.max(gap)) > worst:
            worst = float(np.max(gap))
            idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
            witness = {"t": float(t), "x": x.tolist(), "kind": kind,
                       **{name: int(v) for name, v in zip(names, idx)}}
    return CheckReport(condition=condition, max_violation=worst, witness=witness,
                       tolerance=_EXACT_TOL * (1.0 + scale),
                       samples_evaluated=evaluated, box=dom.box.tolist())


def check_C1(c: CoefficientSet, dom: SearchDomain, condition: str = "C1") -> CheckReport:
    """Every product (sigma_l)_i (sigma_k)_j depends only on {x_i, x_j}.

    A product with i != j whose {i, j} is every coordinate (n = 2) depends on
    nothing else, so its violation is exactly 0 and it is not searched.
    """
    parts = []
    for l, k, i, j in itertools.product(range(c.d), range(c.d), range(c.n), range(c.n)):
        if i != j and c.n == 2:
            continue
        rep = check_dependency(sigma_product(c, l, k, i, j), {i, j}, dom, condition=condition)
        parts.append(({"l": l, "k": k, "i": i, "j": j}, rep))
    return _merge_reports(condition, parts)


def check_B2(cX: CoefficientSet, cY: CoefficientSet, dom: SearchDomain) -> CheckReport:
    """Shared diffusion with per-coordinate loadings.

    Audits (sigma_l)_k(x) == (sigma_bar_l)_k(x) on samples and searches for
    dependence of (sigma_l)_k on coordinates other than x_k.
    """
    parts = [({"kind": "sigma-shared"}, _equality_audit("sigma-shared", cX, cY, dom))]
    for l, k in itertools.product(range(cX.d), range(cX.n)):
        rep = check_dependency(sigma_component(cX, l, k), {k}, dom, condition="B2")
        parts.append(({"l": l, "k": k, "kind": "sigma-dependency"}, rep))
    return _merge_reports("B2", parts)


def _search_direction_condition(condition: str, cX: CoefficientSet, cY: CoefficientSet,
                                theta: CovarianceSet, dom: SearchDomain) -> CheckReport:
    """D5 / D2' over x in the box and K on the nonnegative unit sphere.

    The residual is positively homogeneous in K, so z = (x, K) maps to
    (x, K / |K|).  Samples keep their stored unit directions as they are:
    renormalizing would move their last bits.
    """
    n = cX.n
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    sign, _ = _CONVENTIONS[condition]
    directions = np.abs(_rng(dom.seed, 4).standard_normal((_N_DIRECTIONS, n)))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # include the coordinate axes so componentwise violations are never missed
    directions = np.concatenate([np.eye(n), directions])

    def unit(K):
        norm = float(np.linalg.norm(K))
        return K / norm if norm > 1e-12 else None

    def objective(t, z):
        K = unit(z[n:])
        return -np.inf if K is None else _violation(condition, cX, cY, theta, t, z[:n], K)

    def restart(rng):
        return np.concatenate([_uniform(rng, lo, hi), unit(np.abs(rng.standard_normal(n)))])

    samples = []
    for t, x in _draws(dom, 5, dom.n_samples, lambda rng: _uniform(rng, lo, hi)):
        for K in directions:
            v = _violation(condition, cX, cY, theta, t, x, K)
            samples.append((v, t, np.concatenate([x, K])))
    best_v, t, z, refined = _search(samples, _draws(dom, 11, dom.n_refine, restart), objective,
                                    np.concatenate([lo, np.zeros(n)]),
                                    np.concatenate([hi, np.ones(n)]))
    K = unit(z[n:]) if refined else z[n:]
    scale = max(abs(s[0]) for s in samples) + abs(best_v)
    witness = {"t": float(t), "x": z[:n].tolist(), "K": K.tolist(),
               "residual": float(sign * best_v)}
    return CheckReport(condition=condition, max_violation=float(best_v),
                       witness=witness, tolerance=_RESIDUAL_TOL * (1.0 + scale),
                       samples_evaluated=len(samples), box=dom.box.tolist())


def check_D1(cX: CoefficientSet, cY: CoefficientSet, dom: SearchDomain) -> CheckReport:
    """Product equality sigma_il sigma_jk == sigma_bar_il sigma_bar_jk plus
    the C1-style dependency requirement on the products."""
    return _merge_reports("D1", [
        ({"kind": "product-equality"}, _equality_audit("product-equality", cX, cY, dom)),
        ({"kind": "product-dependency"}, check_C1(cX, dom, condition="D1")),
    ])


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
    kind = w.get("kind", "")
    if kind in _AUDITS:
        _, _, names, values = _AUDITS[kind]
        idx = tuple(w[name] for name in names)
        x = np.asarray(w["x"], dtype=float)
        return abs(float(values(cX, w["t"], x)[idx] - values(cY, w["t"], x)[idx]))
    if kind == "sigma-dependency":
        func = sigma_component(cX, w["l"], w["k"])
    else:  # product dependency (C1 / D1 / D3)
        func = sigma_product(cX, w["l"], w["k"], w["i"], w["j"])
    return dependency_violation(func, w["allowed_coords"], w["t"], w["x"], w["x_prime"])


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
        return check_C1(cX, dom, condition=condition)
    if condition == "B2":
        return check_B2(cX, cY, dom)
    if condition == "D1":
        return check_D1(cX, cY, dom)
    raise DimensionMismatchError(f"unknown condition {condition!r}")
