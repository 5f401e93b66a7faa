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
