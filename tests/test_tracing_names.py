"""Every function and method that perfbench/tracing.py wraps must still exist,
and the condition searches must keep calling their residual kernels.

The traced benchmark binds its wrappers by name; a rename in the package
would otherwise surface only when the benchmark's own suite runs.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from gdiffusion import conditions
from gdiffusion.coefficients import build_coefficients
from gdiffusion.conditions import SearchDomain
from gdiffusion.gfunction import CovarianceSet

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_tracing()
    for _, home, attr, _ in tracing._FUNCTIONS:
        assert callable(getattr(home, attr, None)), f"{home.__name__}.{attr} is gone"
    for _, cls, attrs in tracing._METHODS:
        for attr in attrs:
            assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr} is gone"


KERNELS = {"B1": "pair_residual", "B2": "dependency_violation",
           "D5": "direction_residual", "C1": "dependency_violation",
           "D1": "dependency_violation", "D3": "dependency_violation"}


@pytest.mark.parametrize("condition", KERNELS)
def test_traced_kernels_are_called_through_the_module(condition, monkeypatch):
    # the tracer rebinds conditions.<kernel>; a search that bound the kernel
    # elsewhere would leave conditions.residual without calls in traced runs
    calls = {name: 0 for name in set(KERNELS.values())}
    for name in calls:
        def counted(*args, _kernel=getattr(conditions, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(conditions, name, counted)
    c = build_coefficients({"n": 2, "d": 2, "b": {"family": "arctan-coupling"},
                            "sigma": {"family": "diag-sigma", "values": [1.0, 1.0]}})
    theta = CovarianceSet(generators=(0.5 * np.eye(2), np.eye(2)))
    dom = SearchDomain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), n_samples=8, n_refine=1)
    conditions.run_check(condition, c, c, theta, dom)
    assert calls[KERNELS[condition]] >= 1
