"""Every run of these tests checks its reports against report_digests.txt.

The recorder of tools/report_digests.py, loaded here by its file path,
records the sha256 of every report a test makes.  At the end of the session
the run fails when a test that ran made a report whose digest is not the one
the manifest lists for it (see that tool).  A report that changes on
purpose is a defect fix or an additive change named in CHANGES.md; rewrite
the manifest with

    PYTHONPATH=src python -m pytest -q --update-report-digests tests
"""

import importlib.util
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "report_digests.txt"

_spec = importlib.util.spec_from_file_location(
    "report_digests", HERE.parent / "tools" / "report_digests.py")
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def pytest_addoption(parser):
    report_digests.pytest_addoption(parser)


def pytest_configure(config):
    report_digests.install(config, config.getoption("--report-digests"), MANIFEST)
