"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench

* Drift guard: at the default seed the workloads' inputs equal the
  acceptance configs and the criterion-9 table in tests/test_acceptance.py,
  so an edit to either side shows here instead of silently changing what is
  measured.
* Tracing changes no result: a traced run's report is byte-identical to an
  untraced one, no expected layer is missing, and two traced runs at one seed
  give identical work counts.
"""

from __future__ import annotations

import ast
import copy
import importlib.util
import inspect
import json
import os
import sys
import textwrap
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def acceptance():
    spec = importlib.util.spec_from_file_location(
        "acceptance_reference", os.path.join(ROOT, "tests", "test_acceptance.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dispatched_inputs_equal_acceptance_configs(acceptance):
    assert workloads.Comparison.config(workloads.DEFAULT_SEED) == acceptance.COMPARISON_CONFIG
    assert workloads.Crosscheck.config(workloads.DEFAULT_SEED) == acceptance.FEYNMAN_CONFIG


def test_other_seeds_replace_only_the_input_seeds():
    for cls, paths in ((workloads.Comparison,
                        [("seed",), ("domain", "seed"), ("scenario", "controls", "seed")]),
                       (workloads.Crosscheck, [("seed",), ("scenario", "controls", "seed")])):
        default = cls.config(workloads.DEFAULT_SEED)
        other = cls.config(12345)
        assert other == cls.config(12345)
        stripped = [copy.deepcopy(default), copy.deepcopy(other)]
        for path in paths:
            values = []
            for cfg in stripped:
                node = cfg
                for key in path[:-1]:
                    node = node[key]
                values.append(node.pop(path[-1]))
            assert values[0] != values[1], path
        assert stripped[0] == stripped[1]


def _criterion_9_table(acceptance) -> dict:
    """Execute criterion 9 up to the assignment of its ``table``."""
    func = acceptance.test_criterion_09_checker_truth_table
    tree = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
    body = []
    for stmt in tree.body:
        body.append(stmt)
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "table" for t in stmt.targets):
            break
    else:
        pytest.fail("criterion 9 no longer assigns a `table`")
    namespace = dict(vars(acceptance))
    exec(compile(ast.Module(body=body, type_ignores=[]), "criterion_9", "exec"), namespace)
    return namespace["table"]


def _assert_same_coefficients(a, b) -> None:
    if a is None or b is None:
        assert a is b
        return
    assert (a.n, a.d, a.has_h, a.has_sigma) == (b.n, b.d, b.has_h, b.has_sigma)
    x = np.random.default_rng(0).uniform(-2.0, 2.0, size=(32, a.n))
    for t in (0.0, 0.7):
        assert np.array_equal(a.eval_b(t, x), b.eval_b(t, x))
        assert np.array_equal(a.sigma_matrix(t, x), b.sigma_matrix(t, x))
        if a.has_h:
            for l in range(a.d):
                for k in range(a.d):
                    assert np.array_equal(a.eval_h(l, k, t, x), b.eval_h(l, k, t, x))


def test_checker_table_matches_criterion_9(acceptance):
    reference = _criterion_9_table(acceptance)
    table = workloads.checker_table(workloads.DEFAULT_SEED)
    assert list(table) == list(reference)
    for name in reference:
        for ours, theirs in zip(table[name], reference[name], strict=True):
            cx, cy, theta, dom = ours
            ref_cx, ref_cy, ref_theta, ref_dom = theirs
            _assert_same_coefficients(cx, ref_cx)
            _assert_same_coefficients(cy, ref_cy)
            assert len(theta.covariances) == len(ref_theta.covariances)
            for s, ref_s in zip(theta.covariances, ref_theta.covariances):
                assert np.array_equal(s, ref_s)
            assert np.array_equal(dom.box, ref_dom.box)
            assert (dom.t_grid, dom.n_samples, dom.n_refine, dom.seed) == \
                (ref_dom.t_grid, ref_dom.n_samples, ref_dom.n_refine, ref_dom.seed)


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert sorted(workloads.WORKLOADS) == sorted(tracing.EXPECTED)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    reported.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert per_layer == reported


def test_layer_without_calls_is_missing_where_work_is_expected():
    values, missing = tracing.layer_metrics(tracing.Tracer("empty"), "pde-2d")
    assert missing == sorted(tracing.EXPECTED["pde-2d"])
    assert values["pde.solve.calls"]["value"] is None
    assert values["pde.node_levels_per_s"]["value"] is None
    assert values["gfunction.eval_G.calls"]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_keeps_reports_and_repeats_counts(workload):
    deadline = time.monotonic() + run.DEADLINE_S
    seed = 11
    plain = run.run_child(workload, seed, 0, False, deadline)
    traced = [run.run_child(workload, seed, 1, False, deadline) for _ in range(2)]
    for result in [plain] + traced:
        assert all(ok for _, ok in result["checks"]), result["checks"]
    assert plain["digest"] is not None
    assert [t["digest"] for t in traced] == [plain["digest"]] * 2
    assert traced[0]["missing"] == [] and traced[1]["missing"] == []
    for metric, entry in traced[0]["layers"].items():
        if entry["unit"] in run.EXACT_UNITS:
            assert traced[1]["layers"][metric] == entry, metric
    for name in tracing.EXPECTED[workload]:
        calls = [m for m, (unit, source, _) in tracing.METRICS.items()
                 if source == name and m.endswith(".calls")]
        for metric in calls:
            assert traced[0]["layers"][metric]["value"] > 0, metric
