"""Pytest plugin: one digest line for every report a test run makes.

Run the tests with the plugin loaded, once on each tree to compare:

    PYTHONPATH=src:tools python -m pytest -q -p report_digests \
        --report-digests digests.txt tests/test_acceptance.py tests/test_cli.py

It wraps ``experiments.dispatch``, ``cli.dispatch`` and
``CheckReport.to_dict``.  Each report they return adds one line
``<node id> TAB <call index> TAB <sha256>`` to the file, where the call index
counts the reports of that test from 0 and the digest is taken over
``json.dumps(report, sort_keys=True)`` with the ``timestamp`` key removed
and the pytest base temporary directory replaced by ``<tmp>``.  Two trees
make the same reports exactly when ``diff`` finds the two files equal.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest


def pytest_addoption(parser):
    parser.addoption("--report-digests", metavar="PATH", default=None,
                     help="write a sha256 line for every report the tests make")


class _Recorder:
    def __init__(self, config, path: str):
        self.config = config
        self.path = path
        self.lines: list[str] = []
        self.node = "<collection>"
        self.index = 0

    def record(self, report) -> None:
        if isinstance(report, dict):
            report = {k: v for k, v in report.items() if k != "timestamp"}
        text = json.dumps(report, sort_keys=True, default=repr)
        base = str(self.config._tmp_path_factory.getbasetemp())
        digest = hashlib.sha256(text.replace(base, "<tmp>").encode()).hexdigest()
        self.lines.append(f"{self.node}\t{self.index}\t{digest}")
        self.index += 1

    def wrap(self, func, pick):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
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
    from gdiffusion import cli, experiments
    from gdiffusion.conditions import CheckReport

    recorder = _Recorder(config, path)
    experiments.dispatch = recorder.wrap(experiments.dispatch, lambda out: out[0])
    cli.dispatch = recorder.wrap(cli.dispatch, lambda out: out[0])
    CheckReport.to_dict = recorder.wrap(CheckReport.to_dict, lambda out: out)
    config.pluginmanager.register(recorder, "report-digests-recorder")
