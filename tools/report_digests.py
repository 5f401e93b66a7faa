"""Pytest plugin: one digest line for every report a test run makes.

Run the tests with the plugin loaded, once on each tree to compare:

    PYTHONPATH=src:tools python -m pytest -q -p report_digests \
        --report-digests digests.txt tests/test_acceptance.py tests/test_cli.py \
        tests/test_conditions.py tests/test_pde.py

It wraps ``experiments.dispatch``, ``cli.dispatch``, ``CheckReport.to_dict``
and the grid checks ``pde.dominance_check`` and ``pde.monotonicity_check``,
rebound in ``pde`` and ``experiments`` so that direct calls from test modules
are recorded too; a grid check records ``asdict(report)``, and only when no
other grid check is running, so a check that another one calls adds no
line.  Each report they return adds one line
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

    def wrap_outermost(self, func):
        """Like ``wrap`` with ``asdict``, but silent inside another such call."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.depth += 1
            try:
                out = func(*args, **kwargs)
            finally:
                self.depth -= 1
            if self.depth == 0:
                self.record(dataclasses.asdict(out))
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
    from gdiffusion import cli, experiments, pde
    from gdiffusion.conditions import CheckReport

    recorder = _Recorder(config, path)
    experiments.dispatch = recorder.wrap(experiments.dispatch, lambda out: out[0])
    cli.dispatch = recorder.wrap(cli.dispatch, lambda out: out[0])
    CheckReport.to_dict = recorder.wrap(CheckReport.to_dict, lambda out: out)
    for name in ("dominance_check", "monotonicity_check"):
        wrapped = recorder.wrap_outermost(getattr(pde, name))
        setattr(pde, name, wrapped)
        setattr(experiments, name, wrapped)
    config.pluginmanager.register(recorder, "report-digests-recorder")
