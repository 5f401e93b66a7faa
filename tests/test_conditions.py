import itertools

import numpy as np
import pytest

from gdiffusion import conditions
from gdiffusion.coefficients import (
    build_coefficients,
    remark_counterexample_pair,
    shifted,
)
from gdiffusion.conditions import (
    _AUDITS,
    _CONVENTIONS,
    _EXACT_TOL,
    _N_DIRECTIONS,
    _N_ITERS,
    _RESIDUAL_TOL,
    DIRECTION_CONDITIONS,
    PAIR_CONDITIONS,
    CheckReport,
    SearchDomain,
    _dot,
    _draws,
    _merge_reports,
    _rng,
    _sigma_products,
    _uniform,
    check_dependency,
    dependency_violation,
    direction_residual,
    pair_residual,
    re_evaluate,
    run_check,
)
from gdiffusion.gfunction import CovarianceSet, eval_G
from gdiffusion.sde import CoefficientSet

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)

DOM2 = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), n_samples=160, n_refine=6, seed=11)


def offdiag_pair(delta):
    base = {"n": 2, "d": 1, "b": {"family": "offdiag-monotone"},
            "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]}}
    cx = build_coefficients(base)
    cy = CoefficientSet(n=2, d=1, b=shifted(cx.b, delta), sigma=cx.sigma)
    return cx, cy


def test_b1_satisfied_offdiag_monotone_identical():
    cx, _ = offdiag_pair(0.0)
    rep = run_check("B1", cx, cx, INTERVAL, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    # residual = sum_{j != i}(x_j - y_j) <= 0 on the constrained pairs
    assert rep.max_violation <= 1e-12


def test_b1_satisfied_with_drift_margin():
    cx, cy = offdiag_pair(1.0)
    rep = run_check("B1", cx, cy, INTERVAL, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    assert rep.max_violation == pytest.approx(-1.0, abs=1e-6)


def test_b1_violated_with_witness():
    def b(t, x):
        out = np.zeros(np.asarray(x, dtype=float).shape)
        out[..., 0] = x[..., 1]
        return out

    cx = CoefficientSet(n=2, d=1, b=b)
    cy = CoefficientSet(n=2, d=1)
    rep = run_check("B1", cx, cy, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    # sup of x_2 over the box is 2; the search must get close
    assert rep.max_violation >= 2.0 - 1e-6
    assert rep.witness["i"] == 0


def test_b1_witness_reproduces_violation():
    cx, cy = offdiag_pair(-0.5)
    rep = run_check("B1", cx, cy, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    again = re_evaluate(rep, cx, cy, INTERVAL)
    assert again == pytest.approx(rep.max_violation, abs=1e-12)


def test_b1_constraints_hold_exactly():
    cx, cy = offdiag_pair(0.3)
    rep = run_check("B1", cx, cy, INTERVAL, DOM2)
    x = np.array(rep.witness["x"])
    y = np.array(rep.witness["y"])
    i = rep.witness["i"]
    assert x[i] == y[i]
    assert np.all(x <= y)


def cross_sigma_instance():
    return build_coefficients({"n": 2, "d": 2,
                               "sigma": [["expr:x_1 + 0.1*x_2", 0.0], [0.0, 1.0]]})


def monotone_case(condition):
    """One instance per user of the shared search: pair, direction, dependency."""
    if condition == "B1":
        return (*offdiag_pair(-0.2), INTERVAL)
    if condition == "D5":
        c = c1_instance()
        return c, CoefficientSet(n=2, d=2, b=shifted(c.b, 0.25), sigma=c.sigma), INTERVAL2D
    return cross_sigma_instance(), None, INTERVAL2D


@pytest.mark.parametrize("condition", ["B1", "D5", "C1"])
def test_b1_monotone_in_samples_and_refine(condition):
    cx, cy, theta = monotone_case(condition)
    values = []
    for n_samples, n_refine in ((40, 0), (80, 0), (80, 4), (160, 6)):
        dom = SearchDomain(box=DOM2.box, n_samples=n_samples, n_refine=n_refine, seed=11)
        values.append(run_check(condition, cx, cy, theta, dom).max_violation)
    assert values == sorted(values)


def test_b1_equals_c2_on_identical_systems():
    cx, _ = offdiag_pair(0.0)
    rep_b1 = run_check("B1", cx, cx, INTERVAL, DOM2)
    rep_c2 = run_check("C2", cx, None, INTERVAL, DOM2)
    assert rep_b1.max_violation == rep_c2.max_violation
    assert rep_b1.witness["x"] == rep_c2.witness["x"]


def test_dependency_satisfied_single_coordinate():
    rep = check_dependency(lambda t, x: x[..., 0] ** 2, {(): {0}}, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    assert rep.max_violation == 0.0


def test_dependency_violated_linear_leak():
    rep = check_dependency(lambda t, x: x[..., 0] + 0.1 * x[..., 1], {(): {0}}, DOM2)
    assert rep.verdict == "violated"
    # perturbation span of x_2 is 4, so the max violation approaches 0.4
    assert rep.max_violation >= 0.1 * 4.0 - 1e-6
    x = np.array(rep.witness["x"])
    xp = np.array(rep.witness["x_prime"])
    assert x[0] == xp[0]


def test_dependency_constant_empty_support():
    rep = check_dependency(lambda t, x: np.full(x.shape[:-1], 3.5), {(): set()}, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    assert rep.max_violation == 0.0


def c1_instance(diag_value="expr:1 + 0.5*tanh(x_1)"):
    return build_coefficients({
        "n": 2, "d": 2,
        "b": {"family": "arctan-coupling"},
        "sigma": {"family": "diag-sigma", "values": [diag_value, diag_value]},
    })


def test_c1_satisfied_for_diagonal_per_coordinate_sigma():
    rep = run_check("C1", c1_instance(), None, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "satisfied-on-domain"


def test_c1_violated_for_cross_coordinate_sigma():
    c = cross_sigma_instance()
    rep = run_check("C1", c, None, INTERVAL2D, DOM2)
    assert rep.verdict == "violated"
    assert re_evaluate(rep, c, None, INTERVAL2D) == pytest.approx(rep.max_violation, abs=1e-12)


def test_c1_searches_only_products_that_can_violate():
    # With n = 2 a product (sigma_l)_i (sigma_k)_j with i != j may depend on
    # both coordinates, so only the d * d * n products with i == j are searched.
    c = cross_sigma_instance()
    rep = run_check("C1", c, None, INTERVAL2D, DOM2)
    assert rep.samples_evaluated == c.d * c.d * c.n * DOM2.n_samples
    for l, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        skipped = check_dependency(sigma_product(c, l, k, 0, 1), {(): {0, 1}}, DOM2)
        assert skipped.max_violation == 0.0


def test_one_search_serves_every_slot(monkeypatch):
    # an exactly satisfied C1 check makes as many kernel calls for the 8
    # products of d = 2 as for the 2 products of d = 1
    calls = []

    def counted(*args, _kernel=conditions.dependency_violation):
        calls.append(args)
        return _kernel(*args)

    monkeypatch.setattr(conditions, "dependency_violation", counted)
    d2, _, theta, dom = TRUTH_TABLE["C1"][0]
    d1 = build_coefficients({"n": 2, "d": 1, "sigma": {"family": "diag-sigma", "values": [1.0]}})
    counts = []
    for c in (d2, d1):
        calls.clear()
        rep = run_check("C1", c, None, theta, dom)
        assert rep.max_violation == 0.0
        assert rep.samples_evaluated == c.d * c.d * c.n * dom.n_samples
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_drift_residual_is_a_violation():
    # exp(400 x_2) overflows for x_2 > 1.78, where b_1 reads inf - inf = nan
    c = build_coefficients({"n": 2, "d": 1, "sigma": [[1.0, 1.0]],
                            "b": ["expr:exp(400*x_2) - exp(400*x_2) + x_2", "expr:0"]})
    rep = run_check("B1", c, c, INTERVAL, DOM2)
    assert np.isnan(rep.max_violation)
    assert rep.verdict == "violated"
    assert rep.to_dict()["verdict"] == "violated"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("condition", ["B2", "D1"])
def test_a_nan_equality_audit_is_a_violation(condition):
    c = build_coefficients({"n": 2, "d": 1, "sigma": [["expr:exp(400*x_1)", "expr:x_1"]]})
    rep = run_check(condition, c, c, INTERVAL, DOM2)
    assert np.isnan(rep.max_violation)
    assert rep.verdict == "violated"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_slot_does_not_hide_the_violation_of_another_slot():
    # the first slot, (sigma_0)_0^2 = exp(800 x_1), overflows for x_1 > 0.89
    # and reads |inf - inf| = nan there; the slot i = j = 1 may read only
    # x_2, but its product (sigma_0)_1^2 = x_1^2 reads x_1
    c = build_coefficients({"n": 2, "d": 1, "sigma": [["expr:exp(400*x_1)", "expr:x_1"]]})
    rep = run_check("C1", c, None, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    assert (rep.witness["i"], rep.witness["j"]) == (1, 1)
    assert rep.max_violation >= 4.0 - 1e-6
    assert re_evaluate(rep, c, None, INTERVAL) == pytest.approx(rep.max_violation, abs=1e-12)


def test_c2_satisfied_arctan_coupling():
    c = c1_instance()
    rep = run_check("C2", c, None, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "satisfied-on-domain"


def test_c2_violated_sign_flip():
    def b(t, x):
        out = np.zeros(np.asarray(x, dtype=float).shape)
        out[..., 0] = -x[..., 1]
        return out

    c = CoefficientSet(n=2, d=1, b=b)
    rep = run_check("C2", c, None, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    assert rep.max_violation >= 2.0 - 1e-6


def test_c2_prime_satisfied_and_violated():
    good = c1_instance()
    rep = run_check("C2'", good, None, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "satisfied-on-domain"

    def b(t, x):
        out = np.zeros(np.asarray(x, dtype=float).shape)
        out[..., 0] = -x[..., 1]
        return out

    bad = CoefficientSet(n=2, d=1, b=b)
    rep = run_check("C2'", bad, None, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    assert re_evaluate(rep, bad, None, INTERVAL) == pytest.approx(rep.max_violation, abs=1e-12)


def test_b2_satisfied_shared_per_coordinate():
    c = c1_instance()
    rep = run_check("B2", c, c, INTERVAL, DOM2)
    assert rep.verdict == "satisfied-on-domain"


@pytest.mark.parametrize("condition", ["B2", "D1"])
def test_satisfied_equality_audit_witness_re_evaluates(condition):
    # every part is exactly 0, so the equality audit is the worst part; its
    # witness must still carry a point that re-evaluates
    c = c1_instance()
    rep = run_check(condition, c, c, INTERVAL2D, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    assert rep.witness["kind"] in ("sigma-shared", "product-equality")
    assert re_evaluate(rep, c, c, INTERVAL2D) == rep.max_violation == 0.0


def test_b2_violated_cross_dependence():
    c = build_coefficients({
        "n": 2, "d": 1,
        "sigma": [["expr:x_2", 1.0]],
    })
    rep = run_check("B2", c, c, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    assert re_evaluate(rep, c, c, INTERVAL) == pytest.approx(rep.max_violation, abs=1e-12)


def test_b2_violated_not_shared():
    cx = build_coefficients({"n": 2, "d": 1,
                             "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]}})
    cy = build_coefficients({"n": 2, "d": 1,
                             "sigma": {"family": "constant", "matrix": [[2.0], [2.0]]}})
    rep = run_check("B2", cx, cy, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    assert rep.witness["kind"] == "sigma-shared"
    assert rep.max_violation == pytest.approx(1.0, abs=1e-12)


def test_d1_identical_passes_and_scaled_fails():
    c = c1_instance()
    rep = run_check("D1", c, c, INTERVAL2D, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    assert rep.max_violation <= 1e-12

    cx = build_coefficients({"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}})
    cy = build_coefficients({"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[2.0]]}})
    dom1 = SearchDomain(box=np.array([[-1.0, 1.0]]), n_samples=32, seed=5)
    rep = run_check("D1", cx, cy, INTERVAL, dom1)
    assert rep.verdict == "violated"
    assert rep.max_violation == pytest.approx(3.0, abs=1e-12)  # |1*1 - 2*2|


def test_d5_zero_difference_and_lowered_drift():
    c = c1_instance()
    rep = run_check("D5", c, c, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "satisfied-on-domain"
    assert abs(rep.max_violation) <= 1e-12

    lowered = CoefficientSet(n=2, d=2, b=shifted(c.b, -0.5), sigma=c.sigma)
    rep = run_check("D5", c, lowered, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "satisfied-on-domain"
    # residual = <K, -0.5 * ones> minimized at coordinate directions: -0.5
    assert rep.max_violation == pytest.approx(-0.5, abs=1e-9)


def test_d5_violated_with_raised_drift():
    c = c1_instance()
    raised = CoefficientSet(n=2, d=2, b=shifted(c.b, 0.25), sigma=c.sigma)
    rep = run_check("D5", c, raised, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "violated"
    assert re_evaluate(rep, c, raised, INTERVAL2D) == pytest.approx(rep.max_violation, abs=1e-12)


def test_d2_prime_orientation():
    c = c1_instance()
    raised = CoefficientSet(n=2, d=2, b=shifted(c.b, 0.25), sigma=c.sigma)
    # E_t(raised) >= E_t(c) style necessary direction: b - b_bar = -0.25 -> violated
    rep = run_check("D2'", c, raised, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "violated"
    lowered = CoefficientSet(n=2, d=2, b=shifted(c.b, -0.25), sigma=c.sigma)
    rep = run_check("D2'", c, lowered, INTERVAL2D, INTERVAL2D_DOM)
    assert rep.verdict == "satisfied-on-domain"


def test_d2_and_d4_direction():
    cx, cy = offdiag_pair(-0.1)  # b_bar = b - 0.1, so b(x) - b_bar(y) >= 0.1 > 0 on x >= y
    for variant in ("D2", "D4"):
        rep = run_check(variant, cx, cy, INTERVAL, DOM2)
        assert rep.verdict == "satisfied-on-domain"
    cx, cy = offdiag_pair(0.1)
    rep = run_check("D2", cx, cy, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    assert re_evaluate(rep, cx, cy, INTERVAL) == pytest.approx(rep.max_violation, abs=1e-12)


def test_d4_prime_matches_b1_style():
    cx, cy = offdiag_pair(1.0)
    # D4' swaps roles: b_bar(x) - b(y) + ... <= 0 over x <= y fails for raised drift
    rep = run_check("D4'", cx, cy, INTERVAL, DOM2)
    assert rep.verdict == "violated"
    rep = run_check("D4'", cx, CoefficientSet(n=2, d=1, b=shifted(cx.b, -1.0), sigma=cx.sigma),
                    INTERVAL, DOM2)
    assert rep.verdict == "satisfied-on-domain"


def test_remark_pair_b1_violated_by_half_spread():
    cx, cy = remark_counterexample_pair(0.5, 1.0)
    dom = SearchDomain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), n_samples=64, seed=3)
    rep = run_check("B1", cx, cy, INTERVAL05, dom)
    assert rep.verdict == "violated"
    assert rep.max_violation == pytest.approx(0.25, abs=1e-9)
    assert rep.witness["i"] == 1
    # closed form: residual = (upper - lower) / 2 at the G term
    r = pair_residual(cx, cy, INTERVAL05, 1, 0.0, [0.0, 0.0], [0.0, 0.0])
    assert r == pytest.approx(0.25, abs=1e-12)


def test_run_check_dispatch_and_unknown():
    cx, _ = offdiag_pair(0.0)
    rep = run_check("C2", cx, None, INTERVAL, DOM2)
    assert rep.condition == "C2"
    with pytest.raises(Exception):
        run_check("Z9", cx, None, INTERVAL, DOM2)


INTERVAL2D = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
INTERVAL2D_DOM = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
                              n_samples=48, n_refine=4, seed=21)
INTERVAL05 = CovarianceSet.from_interval(0.5, 1.0)


def test_coefficient_failure_surfaces_sample_point():
    from gdiffusion.errors import EvaluationError

    def exploding(t, x):
        raise ValueError("boom")

    c = CoefficientSet(n=2, d=1, b=exploding)
    with pytest.raises(EvaluationError, match="x="):
        run_check("B1", c, c, INTERVAL, DOM2)


# --- sequential reference engine --------------------------------------------
# The engine as it was before the search was batched: scalar residuals, one
# residual call per sample point, one pattern search per start, the starts
# one after another.  run_check must equal it bit for bit.

def ref_pair_residual(cX, cY, theta, i, t, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    bx, hx = cX.eval_b(t, x), cX.h_table(t, x)
    by, hy = cY.eval_b(t, y), cY.h_table(t, y)
    hx, hy = hx[..., i], hy[..., i]
    return float(bx[i]) - float(by[i]) + eval_G((hx + hx.T) - (hy + hy.T), theta)


def ref_direction_residual(cX, cY, theta, t, x, K, flip):
    x, K = np.asarray(x, dtype=float), np.asarray(K, dtype=float)
    lo, hi = (cX, cY) if not flip else (cY, cX)
    b_lo, h_lo = lo.eval_b(t, x), lo.h_table(t, x)
    b_hi, h_hi = hi.eval_b(t, x), hi.h_table(t, x)
    diff = h_hi + np.swapaxes(h_hi, 0, 1) - h_lo - np.swapaxes(h_lo, 0, 1)
    return float(np.dot(K, b_hi - b_lo)) + eval_G(diff @ K, theta)


def ref_violation(condition, cX, cY, theta, *point):
    sign, swap = _CONVENTIONS[condition]
    if condition in DIRECTION_CONDITIONS:
        return sign * ref_direction_residual(cX, cY, theta, *point, flip=swap)
    if swap:
        cX, cY = cY, cX
    return sign * ref_pair_residual(cX, cY, theta, *point)


def sigma_component(c, l, k):
    """The map x -> (sigma_l)_k(x) on points (..., n)."""
    return lambda t, x: c.sigma_matrix(t, x)[..., k, l]


def sigma_product(c, l, k, i, j):
    """The map x -> (sigma_l)_i(x) * (sigma_k)_j(x) on points (..., n)."""
    def product(t, x):
        s = c.sigma_matrix(t, x)
        return s[..., i, l] * s[..., j, k]
    return product


def ref_dependency_violation(func, t, x, x_prime):
    return abs(float(func(t, np.asarray(x_prime, dtype=float)))
               - float(func(t, np.asarray(x, dtype=float))))


def ref_draws(dom, tag, count, draw):
    for j in range(count):
        z = draw(_rng(dom.seed, tag, j))
        for t in dom.t_grid:
            yield t, z


@pytest.mark.parametrize("seed", [0, 11, 2**32 + 1, 2**130 + 5])
def test_draws_equal_the_per_sample_seed_sequence_streams(seed):
    # _draws seeds every sample in one pass; _rng builds the sample's own
    # SeedSequence((seed, tag, j)), the construction it replaces
    dom = SearchDomain(box=np.array([[-1.0, 2.0], [0.0, 1.0]]), t_grid=(0.0, 0.5), seed=seed)
    lo, hi = dom.box[:, 0], dom.box[:, 1]

    def draw(rng):
        return np.concatenate([_uniform(rng, lo, hi), rng.standard_normal(3)])

    for tag, count in ((1, 700), (11, 3), (4, 0)):
        (t,), z = _draws(dom, tag, count, draw)
        ref = list(ref_draws(dom, tag, count, draw))
        assert t.tolist() == [r[0] for r in ref]
        assert z.tobytes() == np.array([r[1] for r in ref]).reshape(z.shape).tobytes()


def test_draws_refuse_a_negative_seed():
    dom = SearchDomain(box=np.array([[-1.0, 2.0]]), seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        _rng(dom.seed, 1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        _draws(dom, 1, 2, lambda rng: rng.uniform(size=1))


def ref_pattern_search(objective, z0, lo, hi):
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


def ref_search(samples, restarts, objective, z_lo, z_hi):
    values = [s[0] for s in samples]
    best_v, context, z = samples[int(np.argmax(values))]
    refined = False
    if objective is None:
        return best_v, context, z, refined
    records, top = [], -np.inf
    for idx, v in enumerate(values):
        if v > top:
            records.append(samples[idx][1:])
            top = v
    for ctx, z0 in itertools.chain(records, restarts):
        v, z_ref = ref_pattern_search(lambda z, ctx=ctx: objective(ctx, z), z0, z_lo, z_hi)
        if v > best_v:
            best_v, context, z, refined = v, ctx, z_ref, True
    return best_v, context, z, refined


def ref_pair_condition(condition, cX, cY, theta, dom):
    n = cX.n
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    sign, _ = _CONVENTIONS[condition]

    def pair(i, z):
        y, u = z[:n], z[n:]
        x = lo + u * (y - lo) if sign > 0 else y + u * (hi - y)
        x[i] = y[i]
        return x, y

    def objective(context, z):
        i, t = context
        return ref_violation(condition, cX, cY, theta, i, t, *pair(i, z))

    def draw(rng):
        return np.concatenate([_uniform(rng, lo, hi), rng.uniform(size=n)])

    def draws(tag, count):
        return (((i, t), z) for t, z in ref_draws(dom, tag, count, draw) for i in range(n))

    samples = [(objective(context, z), context, z) for context, z in draws(1, dom.n_samples)]
    best_v, (i, t), z, _ = ref_search(samples, draws(9, dom.n_refine), objective,
                                      np.concatenate([lo, np.zeros(n)]),
                                      np.concatenate([hi, np.ones(n)]))
    x, y = pair(i, z)
    scale = max(abs(s[0]) for s in samples) + abs(best_v)
    witness = {"i": int(i), "t": float(t), "x": x.tolist(), "y": y.tolist(),
               "residual": float(sign * best_v)}
    return CheckReport(condition=condition, max_violation=float(best_v), witness=witness,
                       tolerance=_RESIDUAL_TOL * (1.0 + scale),
                       samples_evaluated=len(samples), box=dom.box.tolist())


def ref_direction_condition(condition, cX, cY, theta, dom):
    n = cX.n
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    sign, _ = _CONVENTIONS[condition]
    directions = np.abs(_rng(dom.seed, 4).standard_normal((_N_DIRECTIONS, n)))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    directions = np.concatenate([np.eye(n), directions])

    def unit(K):
        norm = float(np.linalg.norm(K))
        return K / norm if norm > 1e-12 else None

    def objective(t, z):
        K = unit(z[n:])
        return -np.inf if K is None else ref_violation(condition, cX, cY, theta, t, z[:n], K)

    def restart(rng):
        return np.concatenate([_uniform(rng, lo, hi), unit(np.abs(rng.standard_normal(n)))])

    samples = []
    for t, x in ref_draws(dom, 5, dom.n_samples, lambda rng: _uniform(rng, lo, hi)):
        for K in directions:
            v = ref_violation(condition, cX, cY, theta, t, x, K)
            samples.append((v, t, np.concatenate([x, K])))
    best_v, t, z, refined = ref_search(samples, ref_draws(dom, 11, dom.n_refine, restart),
                                       objective, np.concatenate([lo, np.zeros(n)]),
                                       np.concatenate([hi, np.ones(n)]))
    K = unit(z[n:]) if refined else z[n:]
    scale = max(abs(s[0]) for s in samples) + abs(best_v)
    witness = {"t": float(t), "x": z[:n].tolist(), "K": K.tolist(),
               "residual": float(sign * best_v)}
    return CheckReport(condition=condition, max_violation=float(best_v), witness=witness,
                       tolerance=_RESIDUAL_TOL * (1.0 + scale),
                       samples_evaluated=len(samples), box=dom.box.tolist())


def ref_dependency(func, allowed_coords, dom, condition):
    n = dom.dim
    allowed = sorted(set(int(c) for c in allowed_coords))
    free = [c for c in range(n) if c not in allowed]
    lo, hi = dom.box[:, 0], dom.box[:, 1]

    def perturbed(z):
        x_prime = z[n:].copy()
        x_prime[allowed] = z[:n][allowed]
        return x_prime

    def objective(t, z):
        return ref_dependency_violation(func, t, z[:n], perturbed(z))

    def draw(rng):
        return np.concatenate([_uniform(rng, lo, hi), _uniform(rng, lo, hi)])

    samples, scale = [], 0.0
    for t, z in ref_draws(dom, 2, dom.n_samples, draw):
        fx = float(func(t, z[:n]))
        scale = max(scale, abs(fx))
        samples.append((abs(float(func(t, perturbed(z))) - fx), t, z))
    best_v, t, z, _ = ref_search(samples, ref_draws(dom, 10, dom.n_refine, draw),
                                 objective if free else None,
                                 np.concatenate([lo, lo]), np.concatenate([hi, hi]))
    witness = {"t": float(t), "x": z[:n].tolist(), "x_prime": perturbed(z).tolist(),
               "allowed_coords": allowed}
    return CheckReport(condition=condition, max_violation=float(best_v), witness=witness,
                       tolerance=_EXACT_TOL * (1.0 + scale),
                       samples_evaluated=len(samples), box=dom.box.tolist())


def ref_audit(kind, cX, cY, dom):
    condition, tag, names, values = _AUDITS[kind]
    lo, hi = dom.box[:, 0], dom.box[:, 1]
    worst, witness, scale, evaluated = 0.0, None, 0.0, 0
    for t, x in ref_draws(dom, tag, min(dom.n_samples, 256), lambda rng: _uniform(rng, lo, hi)):
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


def ref_c1(c, dom, condition):
    parts = []
    for l, k, i, j in itertools.product(range(c.d), range(c.d), range(c.n), range(c.n)):
        if i != j and c.n == 2:
            continue
        rep = ref_dependency(sigma_product(c, l, k, i, j), {i, j}, dom, condition)
        parts.append(({"l": l, "k": k, "i": i, "j": j}, rep))
    return _merge_reports(condition, parts)


def reference_check(condition, cX, cY, theta, dom):
    """run_check on the sequential reference engine."""
    if cY is None or condition in ("C1", "C2", "C2'"):
        cY = cX
    if condition in PAIR_CONDITIONS:
        return ref_pair_condition(condition, cX, cY, theta, dom)
    if condition in DIRECTION_CONDITIONS:
        return ref_direction_condition(condition, cX, cY, theta, dom)
    if condition in ("C1", "D3"):
        return ref_c1(cX, dom, condition)
    if condition == "B2":
        parts = [({"kind": "sigma-shared"}, ref_audit("sigma-shared", cX, cY, dom))]
        for l, k in itertools.product(range(cX.d), range(cX.n)):
            rep = ref_dependency(sigma_component(cX, l, k), {k}, dom, "B2")
            parts.append(({"l": l, "k": k, "kind": "sigma-dependency"}, rep))
        return _merge_reports("B2", parts)
    assert condition == "D1"
    return _merge_reports("D1", [
        ({"kind": "product-equality"}, ref_audit("product-equality", cX, cY, dom)),
        ({"kind": "product-dependency"}, ref_c1(cX, dom, "D1")),
    ])


def truth_table():
    """The criterion-9 table of tests/test_acceptance.py: condition ->
    (satisfied instance, violated instance), each (cX, cY, theta, domain)."""
    theta = CovarianceSet.from_interval(0.25, 1.0)
    theta2 = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
    dom2 = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), n_samples=96,
                        n_refine=6, seed=31)
    shared_sigma = {"family": "per-coordinate",
                    "entries": [["expr:0.8 + 0.2*tanh(x_1)", "expr:0.8 + 0.2*tanh(x_1)"]]}
    offdiag = build_coefficients({"n": 2, "d": 1, "b": {"family": "offdiag-monotone"},
                                  "sigma": shared_sigma})
    offdiag_up = build_coefficients({"n": 2, "d": 1, "b": ["expr:x_2 + 1", "expr:x_1 + 1"],
                                     "sigma": shared_sigma})
    bad_drift = build_coefficients({"n": 2, "d": 1, "b": ["expr:0 - x_2", "expr:0"],
                                    "sigma": shared_sigma})
    cross_sigma = build_coefficients({"n": 2, "d": 1, "sigma": [["expr:x_2", "expr:1"]]})
    diag2 = build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                                "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]}})
    diag2_lowered = CoefficientSet(n=2, d=2, b=shifted(diag2.b, -0.5), sigma=diag2.sigma)
    diag2_raised = CoefficientSet(n=2, d=2, b=shifted(diag2.b, 0.5), sigma=diag2.sigma)
    scaled_sigma = build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                                       "sigma": {"family": "diag-sigma", "values": [2.0, 2.0]}})
    return {
        "B1": ((offdiag, offdiag_up, theta, dom2), (offdiag_up, offdiag, theta, dom2)),
        "B2": ((offdiag, offdiag, theta, dom2), (cross_sigma, cross_sigma, theta, dom2)),
        "C1": ((diag2, None, theta2, dom2), (cross_sigma, None, theta, dom2)),
        "C2": ((offdiag, None, theta, dom2), (bad_drift, None, theta, dom2)),
        "C2'": ((offdiag, None, theta, dom2), (bad_drift, None, theta, dom2)),
        "D1": ((diag2, diag2_lowered, theta2, dom2), (diag2, scaled_sigma, theta2, dom2)),
        "D2'": ((diag2, diag2_lowered, theta2, dom2), (diag2, diag2_raised, theta2, dom2)),
        "D5": ((diag2, diag2_lowered, theta2, dom2), (diag2, diag2_raised, theta2, dom2)),
    }


TRUTH_TABLE = truth_table()


H_CROSS = build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                              "sigma": [["expr:0.5 + 0.1*tanh(x_2)", 0.3],
                                        [0.2, "expr:0.8 + 0.1*arctan(x_1)"]],
                              "h": [[["expr:0.1*tanh(x_1)", 0.05], ["expr:0.02*x_2", 0.1]],
                                    [["expr:0.02*x_2", 0.1], [0.0, "expr:0.1*arctan(x_2)"]]]})
THETA_CROSS = CovarianceSet(generators=(np.array([[1.0, 0.3], [0.0, 0.6]]),
                                        np.array([[0.7, 0.0], [0.4, 1.1]])))


def slot_instances():
    """Instances of the dependency searches that the truth table does not
    reach: name -> (cX, cY, theta, domain)."""
    n3 = build_coefficients({"n": 3, "d": 2, "sigma": [
        ["expr:1 + 0.3*tanh(x_1)", "expr:0.2*x_1", 0.5],
        [0.4, "expr:0.8 + 0.1*arctan(x_2)", "expr:0.3 + 0.05*x_2*x_3"]]})
    in_time = build_coefficients({"n": 2, "d": 1,
                                  "sigma": [["expr:1 + t*x_2", "expr:0.5 + 0.1*t*tanh(x_2)"]]})
    in_time_bar = build_coefficients({"n": 2, "d": 1, "sigma": [["expr:1 + t*x_2", 0.5]]})
    h_cross_bar = CoefficientSet(n=2, d=2, b=shifted(H_CROSS.b, 0.1), sigma=H_CROSS.sigma)
    return {
        "n3": (n3, n3, INTERVAL, SearchDomain(box=np.array([[-1.5, 1.5]] * 3), n_samples=24,
                                               n_refine=2, seed=7)),
        "h-cross": (H_CROSS, h_cross_bar, THETA_CROSS,
                    SearchDomain(box=DOM2.box, n_samples=32, n_refine=2, seed=13)),
        "two-times": (in_time, in_time_bar, INTERVAL,
                      SearchDomain(box=DOM2.box, t_grid=(0.0, 0.5), n_samples=32, n_refine=2,
                                   seed=3)),
    }


# "<condition>-<instance>" -> (condition, instance)
ORACLE_CASES = {
    **{f"{condition}-{name}": (condition, instance) for condition, rows in TRUTH_TABLE.items()
       for name, instance in zip(("satisfied", "violated"), rows)},
    **{f"{condition}-{name}": (condition, instance) for name, instance in slot_instances().items()
       for condition in ("B2", "C1", "D1")},
}


def assert_same_report(got, want):
    assert got.max_violation == want.max_violation
    assert got.witness == want.witness
    assert got.tolerance == want.tolerance
    assert got.samples_evaluated == want.samples_evaluated


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_batched_search_equals_sequential_reference(case):
    condition, instance = ORACLE_CASES[case]
    assert_same_report(run_check(condition, *instance), reference_check(condition, *instance))


def time_dependent_pair():
    cx = build_coefficients({"n": 2, "d": 1,
                             "b": ["expr:x_2 - t*x_1", "expr:x_1 + t"],
                             "sigma": {"family": "constant", "matrix": [[1.0], [0.5]]}})
    return cx, CoefficientSet(n=2, d=1, b=shifted(cx.b, 0.2), sigma=cx.sigma)


@pytest.mark.parametrize("condition", ["B1", "D2", "D5", "D2'"])
def test_batched_search_equals_sequential_reference_over_times(condition):
    dom = SearchDomain(box=DOM2.box, t_grid=(0.0, 0.5), n_samples=40, n_refine=3, seed=4)
    cx, cy = time_dependent_pair()
    assert_same_report(run_check(condition, cx, cy, INTERVAL, dom),
                       reference_check(condition, cx, cy, INTERVAL, dom))


@pytest.mark.parametrize("condition", ["B1", "B2", "C1", "D5"])
def test_batched_search_equals_sequential_reference_without_restarts(condition):
    dom = SearchDomain(box=DOM2.box, n_samples=64, n_refine=0, seed=9)
    cx, cy, theta = monotone_case(condition if condition != "B2" else "C1")
    assert_same_report(run_check(condition, cx, cy, theta, dom),
                       reference_check(condition, cx, cy, theta, dom))


KERNEL_CASES = {
    "B1": TRUTH_TABLE["B1"][1][:3],
    "D5": TRUTH_TABLE["D5"][1][:3],
    "h-cross": (H_CROSS, CoefficientSet(n=2, d=2, b=shifted(H_CROSS.b, 0.1), sigma=H_CROSS.sigma),
                THETA_CROSS),
}


def random_stack(seed, n_points=200):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-2.0, 2.0, (2, n_points, 2))
    K = np.abs(rng.standard_normal((n_points, 2)))
    K /= np.linalg.norm(K, axis=1, keepdims=True)
    return x, y, K, rng.integers(0, 2, n_points)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_residual_kernels_match_single_points(case):
    # every row of a batched call equals the kernel called on that point alone
    cx, cy, theta = KERNEL_CASES[case]
    x, y, K, i = random_stack(1)
    pair = pair_residual(cx, cy, theta, i, 0.5, x, y)
    for flip in (False, True):
        direction = direction_residual(cx, cy, theta, 0.5, x, K, flip)
        assert [direction_residual(cx, cy, theta, 0.5, x[p], K[p], flip)
                for p in range(len(x))] == direction.tolist()
    assert [pair_residual(cx, cy, theta, i[p], 0.5, x[p], y[p])
            for p in range(len(x))] == pair.tolist()
    for func in (sigma_component(cx, 0, 1), sigma_product(cx, 0, 0, 1, 1)):
        gap = dependency_violation(func, 0, 0.5, x, y)
        assert [dependency_violation(func, 0, 0.5, x[p], y[p])
                for p in range(len(x))] == gap.tolist()
    # a table read at a per-row slot: each row equals that slot's scalar map
    shape = (cx.n, cx.d, cx.n, cx.d)
    slots = np.random.default_rng(3).integers(0, np.prod(shape), len(x))
    gap = dependency_violation(lambda t, x: _sigma_products(cx, t, x), slots, 0.5, x, y)
    assert [dependency_violation(sigma_product(cx, l, k, i, j), 0, 0.5, x[p], y[p])
            for p, (i, l, j, k) in enumerate(zip(*np.unravel_index(slots, shape)))] == \
        gap.tolist()


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_stacked_kernels_match_scalar_reference(case):
    # the matmul dot products and norms equal np.dot and np.linalg.norm per row
    cx, cy, theta = KERNEL_CASES[case]
    x, y, K, i = random_stack(2)
    for flip in (False, True):
        assert direction_residual(cx, cy, theta, 0.5, x, K, flip).tolist() == \
            [ref_direction_residual(cx, cy, theta, 0.5, x[p], K[p], flip) for p in range(len(x))]
    assert pair_residual(cx, cy, theta, i, 0.5, x, y).tolist() == \
        [ref_pair_residual(cx, cy, theta, i[p], 0.5, x[p], y[p]) for p in range(len(x))]
    assert (np.sqrt(_dot(K, K)) == [np.linalg.norm(k) for k in K]).all()


def test_map_failing_on_part_of_the_box_names_a_point_of_the_failing_batch(monkeypatch):
    from gdiffusion import config
    from gdiffusion.errors import EvaluationError
    from gdiffusion.experiments import dispatch

    batches = []

    def b(t, x):
        batches.append(np.array(x))
        if np.any(x[..., 0] > 1.0):
            raise ValueError("x_1 > 1")
        return np.zeros(x.shape)

    c = CoefficientSet(n=2, d=1, b=b)
    with pytest.raises(EvaluationError) as err:
        run_check("B1", c, c, INTERVAL, DOM2)
    failing = batches[-1].reshape(-1, 2)
    assert np.any(failing[:, 0] > 1.0)
    assert f"at t=0.0, x={failing[0].tolist()}, y=" in str(err.value)
    assert f"(first of a batch of {len(failing)}): x_1 > 1" in str(err.value)

    monkeypatch.setattr(config, "coefficients_from_config", lambda cfg: (c, None))
    report, code = dispatch("check", {"seed": 1, "theta": {"interval": [0.25, 1.0]},
                                      "coefficients": {"n": 2, "d": 1}, "condition": "B1",
                                      "domain": {"box": [[-2.0, 2.0], [-2.0, 2.0]]}})
    assert (report["status"], code) == ("evaluation-error", 2)
    assert "x_1 > 1" in report["results"]["error"]


@pytest.mark.parametrize("condition", ["B1", "D5"])
def test_batched_search_evaluates_only_the_points_of_the_sequential_search(condition):
    # frozen starts are not evaluated: the coefficient map sees exactly the
    # points that the start-by-start search visits
    seen = []
    base, _, theta = KERNEL_CASES[condition]

    def b(t, x):
        seen.extend(map(tuple, np.reshape(x, (-1, 2)).tolist()))
        return base.b(t, x)

    c = CoefficientSet(n=2, d=base.d, b=b, sigma=base.sigma)
    cy = CoefficientSet(n=2, d=base.d, b=shifted(base.b, 0.3), sigma=base.sigma)
    dom = SearchDomain(box=DOM2.box, n_samples=24, n_refine=2, seed=5)
    run_check(condition, c, cy, theta, dom)
    batched, seen[:] = set(seen), []
    reference_check(condition, c, cy, theta, dom)
    assert batched == set(seen)
