import numpy as np
import pytest

from gdiffusion.coefficients import (
    build_coefficients,
    remark_counterexample_pair,
    shifted,
)
from gdiffusion.conditions import (
    SearchDomain,
    check_B2,
    check_dependency,
    pair_residual,
    re_evaluate,
    run_check,
    sigma_product,
)
from gdiffusion.gfunction import CovarianceSet
from gdiffusion.sde import CoefficientSet

INTERVAL = CovarianceSet.from_interval(0.25, 1.0)

DOM2 = SearchDomain(box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), n_samples=160, n_refine=6, seed=11)


def offdiag_pair(delta):
    base = {"n": 2, "d": 1, "b": {"family": "offdiag-monotone"},
            "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]}}
    cx = build_coefficients(base)
    cy = CoefficientSet(n=2, d=1, b=shifted(cx.b, delta), sigma=cx.sigma,
                        label=f"offdiag+{delta}")
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
    rep = check_dependency(lambda t, x: float(x[0] ** 2), {0}, DOM2)
    assert rep.verdict == "satisfied-on-domain"
    assert rep.max_violation == 0.0


def test_dependency_violated_linear_leak():
    rep = check_dependency(lambda t, x: float(x[0] + 0.1 * x[1]), {0}, DOM2)
    assert rep.verdict == "violated"
    # perturbation span of x_2 is 4, so the max violation approaches 0.4
    assert rep.max_violation >= 0.1 * 4.0 - 1e-6
    x = np.array(rep.witness["x"])
    xp = np.array(rep.witness["x_prime"])
    assert x[0] == xp[0]


def test_dependency_constant_empty_support():
    rep = check_dependency(lambda t, x: 3.5, set(), DOM2)
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
        skipped = check_dependency(sigma_product(c, l, k, 0, 1), {0, 1}, DOM2)
        assert skipped.max_violation == 0.0


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
    rep = check_B2(c, c, DOM2)
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
    rep = check_B2(c, c, DOM2)
    assert rep.verdict == "violated"
    assert re_evaluate(rep, c, c, INTERVAL) == pytest.approx(rep.max_violation, abs=1e-12)


def test_b2_violated_not_shared():
    cx = build_coefficients({"n": 2, "d": 1,
                             "sigma": {"family": "constant", "matrix": [[1.0], [1.0]]}})
    cy = build_coefficients({"n": 2, "d": 1,
                             "sigma": {"family": "constant", "matrix": [[2.0], [2.0]]}})
    rep = check_B2(cx, cy, DOM2)
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
