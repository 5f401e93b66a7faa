"""The seed-0 reports of the four benchmark workloads keep their digests.

Each workload of perfbench/workloads.py runs once in process, as the
benchmark's child runs it, and the sha256 of its report must equal the value
recorded below, so a change that moves a bit of any workload's report fails
in tier-1, without a benchmark run.  Floating-point results may differ on
another Python or numpy, so the test runs only on the versions the digests
were recorded with and is skipped elsewhere.
"""

import importlib.util
import pathlib
import platform

import numpy as np
import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}
DIGESTS = {
    "comparison": "c57d4a78d5e8d4672f68db0c76459dad554b4cd46048c4080b6fd878f1011a22",
    "crosscheck": "bb06448707866fcf71b3c812a5c32136978c291a6e00813859e3230e4ce14d55",
    "pde-2d": "06989ca9afd50f5d2954209d008806325ebd583819a7713e1b4f97da231ed0aa",
    "checker": "6f35eefba6fb7c973249a7a810733acc07ce575cd9c38e5938ac95840bb9411f",
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif({"python": platform.python_version(), "numpy": np.__version__}
                    != RECORDED_WITH, reason=f"digests recorded with {RECORDED_WITH}")
@pytest.mark.parametrize("name", DIGESTS)
def test_seed_zero_report_digest_is_pinned(name):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    assert workloads.digest(workload.report(workload.run())) == DIGESTS[name]
