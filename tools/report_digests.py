"""Pytest plugin: one digest line for every report a test run makes.

``tests/conftest.py`` loads it in every run of ``tests/``.  To write the
digest lines, once on each tree to compare:

    PYTHONPATH=src python -m pytest -q --report-digests digests.txt tests

(on a tree without that conftest, add ``-p report_digests`` and put
``tools`` on PYTHONPATH).

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
where the call index counts the reports of that test from 0.  A report that
a fixture wider than one test (module- or session-scoped) makes while it is
set up has ``<node id of its scope>::<fixture name>`` in place of the test's
node id, such as ``tests/test_acceptance.py::feynman_run``, so that it has
the same key whichever test sets the fixture up.  The canonical
JSON is ``json.dumps(report, sort_keys=True)`` with the ``timestamp`` key
removed, the pytest base temporary directory replaced by ``<tmp>`` and the
number of each test's directory under it by ``N`` (it depends on the tests
that ran before), and the digest is taken over that JSON.  A report that names export files under
``results.csv`` or ``results.dump`` also carries, before it is hashed, an
``export_sha256`` object with the sha256 of each file's bytes as the run left
them, so an export that changes changes the line.  Two trees make the same
reports and exports exactly when ``diff`` finds the two files equal;
``tools/compare_reports.py`` lists the leaves that differ.

The conftest also checks every run against a manifest of
``<node id> TAB <call index> TAB <sha256>`` lines (``install``).  At the end
of the session the run fails when a test that reached its call phase made a
report whose digest differs from its manifest line, no longer made a report
the manifest lists, or made one the manifest does not list; a fixture that
was set up counts as such a test.  Tests and fixtures that did not run are
not checked, so a subset run works.  ``--update-report-digests``
rewrites the manifest instead: the lines of the tests that ran are replaced
by this run's, and the others are kept.  The manifest's first line records
the Python and numpy versions it was made with; on any other version the
check is skipped, since floating-point results may differ there.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import re

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption("--report-digests", metavar="PATH", default=None,
                     help="write a sha256 line for every report the tests make")
    parser.addoption("--update-report-digests", action="store_true",
                     help="rewrite the report-digest manifest from this run")


def _versions() -> str:
    return f"# python={platform.python_version()} numpy={np.__version__}"


def _read_manifest(path) -> tuple[str, dict]:
    """(version line, (node id, call index) -> sha256) of a manifest; a missing
    one lists no report, so that every report fails the check."""
    if not os.path.exists(path):
        return _versions(), {}
    with open(path, encoding="utf-8") as fh:
        versions, *lines = fh.read().splitlines()
    entries = {}
    for line in lines:
        node, index, digest = line.split("\t")
        entries[(node, int(index))] = digest
    return versions, entries


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _solve_record(sol) -> dict:
    def sha256(array):
        return hashlib.sha256(array.tobytes()).hexdigest()

    return {"solve": {"u_sha256": sha256(sol.u), "argmax_index_sha256": sha256(sol.argmax_index),
                      "trust_bounds": sol.trust_bounds.tolist(), "scheme": sol.scheme}}


# a test's numbered directory under <tmp>, such as test_x_0: the number
# depends on which tests ran before it in the session
_NUMBERED_TMP = re.compile(r"(<tmp>/[^/\"']*?)\d+(?![\w.-])")


class _Recorder:
    def __init__(self, config, path, manifest):
        self.config = config
        self.path = path
        self.manifest = manifest
        self.lines: list[str] = []
        self.digests: dict = {}   # (node id, call index) -> sha256
        self.ran: set = set()     # node ids that reached their call phase, and fixture keys
        self.outcome: list[str] = []
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
        text = _NUMBERED_TMP.sub(r"\1N", text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.lines.append(f"{self.node}\t{self.index}\t{digest}\t{text}")
        self.digests[(self.node, self.index)] = digest
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

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        """Key the reports of a fixture set up once for many tests by the
        fixture, whichever test sets it up first."""
        if fixturedef.scope == "function":
            return (yield)
        outer = self.node, self.index
        key = f"{request.node.nodeid}::{fixturedef.argname}"
        self.node, self.index = key, 0
        try:
            value = yield
        finally:
            self.node, self.index = outer
        self.ran.add(key)
        return value

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.ran.add(report.nodeid)

    def pytest_sessionfinish(self, session):
        if not self.manifest:
            return
        versions, expected = _read_manifest(self.manifest)
        if self.config.getoption("--update-report-digests"):
            kept = {key: digest for key, digest in expected.items() if key[0] not in self.ran}
            entries = sorted({**kept, **self.digests}.items())
            with open(self.manifest, "w", encoding="utf-8") as fh:
                fh.write(_versions() + "\n")
                fh.write("".join(f"{node}\t{index}\t{digest}\n"
                                 for (node, index), digest in entries))
            self.outcome = [f"report digests: rewrote {self.manifest} ({len(entries)} lines)"]
            return
        if versions != _versions():
            self.outcome = [f"report digests: not checked, {self.manifest} was made with "
                            f"{versions[2:]}"]
            return
        for key, digest in sorted(self.digests.items()):
            if key not in expected:
                self.outcome.append(f"{key[0]} {key[1]}: a report the manifest does not list")
            elif expected[key] != digest:
                self.outcome.append(f"{key[0]} {key[1]}: the report changed")
        self.outcome += [f"{node} {index}: no longer made" for node, index in sorted(expected)
                         if node in self.ran and (node, index) not in self.digests]
        if self.outcome:
            self.outcome.append(f"report digests: {len(self.outcome)} reports differ from "
                                f"{self.manifest}; a changed report is a defect fix, named in "
                                "CHANGES.md, and --update-report-digests records it")
            if session.exitstatus == pytest.ExitCode.OK:
                session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        for line in self.outcome:
            terminalreporter.write_line(line)

    def pytest_unconfigure(self, config):
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in self.lines))


def pytest_configure(config):
    path = config.getoption("--report-digests")
    if path:
        install(config, path)


def install(config, path=None, manifest=None) -> None:
    """Record every report: write the lines to ``path`` when given, and check
    the run against ``manifest`` (or rewrite it) when given."""
    from gdiffusion import cli, experiments, generator, pde
    from gdiffusion.conditions import CheckReport

    recorder = _Recorder(config, path, manifest)
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
