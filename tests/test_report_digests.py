"""The report-digest check of tools/report_digests.py holds for a subset run."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_a_test_that_sets_up_shared_fixtures_alone_passes_the_digest_check(tmp_path, request):
    # criterion 10 is the first test of this run to request the module-scoped
    # fixtures of criteria 2, 4 and 8: their reports are keyed by the fixture
    if request.config.getoption("--update-report-digests"):
        pytest.skip("the manifest is being rewritten by this run")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--basetemp={tmp_path / 'inner'}",
         "tests/test_acceptance.py::test_criterion_10_determinism"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert "1 passed" in run.stdout, run.stdout[-3000:]
