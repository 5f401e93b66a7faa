import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("bench_pairs",
                                               os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# median 1.00, quartiles 0.9825 and 1.0175: an interquartile range of 0.035
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def synthetic_runs(parent, change):
    """The result lines of one workload's pairs, with one metric, wall_s."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(bench_pairs.SIDES, values):
            runs.append({"pair": pair, "workload": "crosscheck", "side": side, "seed": 0,
                         "trace": 0, "result": {"attempted": 4, "failed": 0, "metrics": {
                             "wall_s": {"value": value, "unit": "s"}}}})
    return runs


def shifted(by, ties=(), losses=()):
    """PARENT moved by `by`, except equal at the pairs `ties` and worse at `losses`."""
    return [p if i in ties else p + 0.05 if i in losses else p + by
            for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("change, better, expected", [
    (shifted(-0.2), "lower", True),
    (shifted(-0.2, ties=(3,)), "lower", True),                # 9/10, the tie for neither
    (shifted(-0.2, losses=(3,)), "lower", True),
    (shifted(-0.2, ties=(3, 7)), "lower", False),             # 8/10
    (shifted(-0.2, ties=(3,), losses=(7,)), "lower", False),
    (shifted(-0.02), "lower", False),                         # 10/10 but inside the IQR
    (shifted(-0.036), "lower", True),
    (shifted(0.2), "lower", False),
    (shifted(0.2), "higher", True),
    (shifted(-0.2), "higher", False),
], ids=["all-pairs", "one-tie", "one-loss", "two-ties", "tie-and-loss", "inside-iqr",
        "just-outside-iqr", "worse", "higher-is-better", "lower-when-higher-is-better"])
def test_a_gain_is_resolved_by_nine_tenths_of_the_pairs_and_the_parent_iqr(change, better,
                                                                             expected):
    summary = bench_pairs.summarize(synthetic_runs(PARENT, change), {"wall_s": better})
    entry = summary["crosscheck (seed 0)"]["wall_s"]
    assert entry["resolved"] is expected
    assert entry["parent"]["q3"] - entry["parent"]["q1"] == pytest.approx(0.035)


def test_a_gain_on_fewer_than_ten_pairs_is_unresolved():
    change = shifted(-0.2)
    summary = bench_pairs.summarize(synthetic_runs(PARENT[:9], change[:9]), {"wall_s": "lower"})
    entry = summary["crosscheck (seed 0)"]["wall_s"]
    assert entry["change_lower_in"] == "9/9" and entry["resolved"] is False
    summary = bench_pairs.summarize(synthetic_runs(PARENT + PARENT[:1], change + change[:1]),
                                    {"wall_s": "lower"})
    assert summary["crosscheck (seed 0)"]["wall_s"]["resolved"] is True


def test_only_the_metrics_with_a_direction_get_a_verdict():
    summary = bench_pairs.summarize(synthetic_runs(PARENT, shifted(-0.2)), {})
    assert "resolved" not in summary["crosscheck (seed 0)"]["wall_s"]


def test_the_directions_come_from_the_benchmark_declaration():
    better = bench_pairs.load_better()
    assert {"wall_s", "setup_s", "peak_rss_mb"} <= set(better)
    assert set(better.values()) <= {"lower", "higher"}


@pytest.mark.parametrize("change, better, bound, expected", [
    (shifted(0.2), "lower", 0.25, "not-worse"),              # inside the bound
    (shifted(0.3), "lower", 0.25, "worse"),
    (shifted(-0.2), "lower", 0.25, "not-worse"),
    (shifted(0.0), "lower", 0.02, "unresolved"),             # IQR 0.035 over the bound 0.02
    (shifted(-0.02), "lower", 0.02, "unresolved"),           # better, but the runs overlap
    (shifted(-0.2), "lower", 0.02, "not-worse"),             # every change run better
    (shifted(0.03), "lower", 0.02, "worse"),
    (shifted(-0.3), "higher", 0.25, "worse"),
    (shifted(0.3), "higher", 0.25, "not-worse"),
], ids=["inside-bound", "outside-bound", "better", "iqr-over-bound", "overlapping-gain",
        "separated-gain", "worse-despite-iqr", "higher-worse", "higher-better"])
def test_no_regression_is_judged_by_the_bound_and_the_parent_iqr(change, better, bound,
                                                                 expected):
    summary = bench_pairs.summarize(synthetic_runs(PARENT, change), {"wall_s": better},
                                    {"wall_s": bound})
    assert summary["crosscheck (seed 0)"]["wall_s"]["regression"] == expected


def test_a_metric_without_a_bound_gets_no_regression_verdict():
    summary = bench_pairs.summarize(synthetic_runs(PARENT, shifted(0.3)), {"wall_s": "lower"})
    assert "regression" not in summary["crosscheck (seed 0)"]["wall_s"]


def test_the_bounds_come_from_the_benchmark_declaration():
    bounds = bench_pairs.declared("bound")
    assert set(bounds) == set(bench_pairs.load_better())
    assert all(bound > 0 for bound in bounds.values())


def test_src_lines_counts_every_file_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("one\ntwo\n")
    (tmp_path / "src" / "b.py").write_text("three\n")
    (tmp_path / "tests.py").write_text("not counted\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 3


def traced_run(workload, side, metrics):
    return {"pair": None, "workload": workload, "side": side, "seed": 0, "trace": 1,
            "result": {"attempted": 2, "failed": 0, "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}}


def test_layers_keep_each_sides_exact_per_layer_values():
    runs = [
        traced_run("crosscheck", "parent", {"pde.stored_bytes": (9026909, "B"),
                                            "pde.node_levels": (1002500, "count"),
                                            "pde.trusted_node_share": (0.5, "ratio"),
                                            "pde.solve.self_s": (0.21, "s"),
                                            "pde.node_levels_per_s": (4.7e6, "1/s")}),
        traced_run("crosscheck", "change", {"pde.stored_bytes": (3609, "B"),
                                            "pde.node_levels": (0, "count"),
                                            "pde.trusted_node_share": (0.5, "ratio"),
                                            "pde.solve.self_s": (0.2, "s"),
                                            "sde.euler_march.path_steps": (None, "count")}),
        traced_run("pde-2d", "change", {"pde.stored_bytes": (119, "B")}),
    ]
    layer = bench_pairs.layers(runs)
    assert layer == {
        "crosscheck (seed 0)": {
            "pde.stored_bytes": {"unit": "B", "parent": 9026909, "change": 3609,
                                 "equal": False},
            "pde.node_levels": {"unit": "count", "parent": 1002500, "change": 0,
                                "equal": False},
            "pde.trusted_node_share": {"unit": "ratio", "parent": 0.5, "change": 0.5,
                                       "equal": True},
            "sde.euler_march.path_steps": {"unit": "count", "parent": None, "change": None,
                                           "equal": True},
        },
        "pde-2d (seed 0)": {"pde.stored_bytes": {"unit": "B", "parent": None, "change": 119,
                                                 "equal": False}},
    }
    assert bench_pairs.layers_differ(layer) == {
        "crosscheck (seed 0)": ["pde.stored_bytes", "pde.node_levels"],
        "pde-2d (seed 0)": ["pde.stored_bytes"],
    }
    # equal counts on both sides, as a change that claims no gain shows them
    same = [traced_run("comparison", side, {"scenario.apply_control.calls": (2000, "count"),
                                            "sde.euler_march.calls": (10, "count")})
            for side in bench_pairs.SIDES]
    assert bench_pairs.layers_differ(bench_pairs.layers(same)) == {"comparison (seed 0)": []}


def test_the_exact_units_are_those_the_benchmark_repeats_exactly():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert bench_pairs.EXACT_UNITS == run.EXACT_UNITS
