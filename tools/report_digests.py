"""Pytest plugin: one digest line for every report a test run makes.

Run the tests with the plugin loaded, once on each tree to compare:

    PYTHONPATH=src:tools python -m pytest -q -p report_digests \
        --report-digests digests.txt tests/test_acceptance.py tests/test_cli.py \
        tests/test_conditions.py tests/test_pde.py

It wraps ``experiments.dispatch``, ``cli.dispatch``, ``CheckReport.to_dict``,
the grid checks ``pde.dominance_check`` and ``pde.monotonicity_check`` and
``pde.solve``, rebound in ``pde``, ``experiments`` and ``generator`` so that
direct calls from test modules are recorded too.  A grid check records
``asdict(report)``; a solve records ``{"solve": ...}`` with the sha256 of the
bytes of ``u`` and of ``argmax_index``, the ``trust_bounds`` and the
``scheme``, so that a change to the march shows array by array.  Both record
only when no other grid check or solve is running, so a call that another
one makes adds no line.  Each report they return adds one line
``<node id> TAB <call index> TAB <sha256> TAB <canonical JSON>`` to the file,
where the call index counts the reports of that test from 0, the canonical
JSON is ``json.dumps(report, sort_keys=True)`` with the ``timestamp`` key
removed and the pytest base temporary directory replaced by ``<tmp>``, and
the digest is taken over that JSON.  A report that names export files under
``results.csv`` or ``results.dump`` also carries, before it is hashed, an
``export_sha256`` object with the sha256 of each file's bytes as the run left
them, so an export that changes changes the line.  Two trees make the same
reports and exports exactly when ``diff`` finds the two files equal;
``tools/compare_reports.py`` lists the leaves that differ.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import pytest


def pytest_addoption(parser):
    parser.addoption("--report-digests", metavar="PATH", default=None,
                     help="write a sha256 line for every report the tests make")


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _solve_record(sol) -> dict:
    def sha256(array):
        return hashlib.sha256(array.tobytes()).hexdigest()

    return {"solve": {"u_sha256": sha256(sol.u), "argmax_index_sha256": sha256(sol.argmax_index),
                      "trust_bounds": sol.trust_bounds.tolist(), "scheme": sol.scheme}}


class _Recorder:
    def __init__(self, config, path: str):
        self.config = config
        self.path = path
        self.lines: list[str] = []
        self.node = "<collection>"
        self.index = 0
        self.depth = 0

    def record(self, report) -> None:
        if isinstance(report, dict):
            report = {k: v for k, v in report.items() if k != "timestamp"}
            results = report.get("results")
            exports = {key: _file_sha256(results[key]) for key in ("csv", "dump")
                       if isinstance(results, dict) and results.get(key)}
            if exports:
                report["export_sha256"] = exports
        text = json.dumps(report, sort_keys=True, default=repr)
        text = text.replace(str(self.config._tmp_path_factory.getbasetemp()), "<tmp>")
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.lines.append(f"{self.node}\t{self.index}\t{digest}\t{text}")
        self.index += 1

    def wrap(self, func, pick):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            self.record(pick(out))
            return out
        return wrapper

    def wrap_outermost(self, func, pick):
        """Like ``wrap``, but silent inside another such call."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.depth += 1
            try:
                out = func(*args, **kwargs)
            finally:
                self.depth -= 1
            if self.depth == 0:
                self.record(pick(out))
            return out
        return wrapper

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.node = item.nodeid
        self.index = 0

    def pytest_unconfigure(self, config):
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in self.lines))


def pytest_configure(config):
    path = config.getoption("--report-digests")
    if not path:
        return
    from gdiffusion import cli, experiments, generator, pde
    from gdiffusion.conditions import CheckReport

    recorder = _Recorder(config, path)
    experiments.dispatch = recorder.wrap(experiments.dispatch, lambda out: out[0])
    cli.dispatch = recorder.wrap(cli.dispatch, lambda out: out[0])
    CheckReport.to_dict = recorder.wrap(CheckReport.to_dict, lambda out: out)
    for name, pick in (("dominance_check", dataclasses.asdict),
                       ("monotonicity_check", dataclasses.asdict), ("solve", _solve_record)):
        wrapped = recorder.wrap_outermost(getattr(pde, name), pick)
        for module in (pde, experiments, generator):
            if hasattr(module, name):
                setattr(module, name, wrapped)
    config.pluginmanager.register(recorder, "report-digests-recorder")
