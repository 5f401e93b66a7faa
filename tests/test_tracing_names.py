"""Every function and method that perfbench/tracing.py wraps, and every
attribute that perfbench reads from package objects, must still exist, and
the condition searches must keep calling their residual kernels.

The traced benchmark binds its wrappers by name; a rename in the package
would otherwise surface only when the benchmark's own suite runs.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from gdiffusion import conditions, pde
from gdiffusion.coefficients import build_coefficients
from gdiffusion.conditions import SearchDomain
from gdiffusion.functions import TestFunction
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


def test_attributes_perfbench_reads_exist():
    # workloads.py builds the pde-2d grid with Grid.regular and reads u and
    # trust_bounds; tracing.py counts u, argmax_index and trust_slices();
    # test_perfbench.py compares has_h and has_sigma
    c = build_coefficients({"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}})
    assert (c.has_h, c.has_sigma) == (False, True)
    grid = pde.Grid.regular([[-1.0, 1.0]], [5], horizon=0.1, n_levels=2)
    f = TestFunction(f=lambda x: x[..., 0], dim=1, name="identity")
    sol = pde.solve(c, CovarianceSet.from_interval(0.25, 1.0), f, grid)
    for attr in ("u", "argmax_index", "trust_bounds"):
        assert isinstance(getattr(sol, attr, None), np.ndarray), f"PDESolution.{attr} is gone"
    assert callable(getattr(sol, "trust_slices", None)), "PDESolution.trust_slices is gone"


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


def test_solve_reaches_the_stability_bound_through_the_module(monkeypatch):
    # the tracer rebinds pde.stability_bound, which pde-2d and crosscheck must
    # call; a solve that bound it elsewhere would leave the layer without calls
    calls = []

    def counted(*args, _bound=pde.stability_bound, **kwargs):
        calls.append(args)
        return _bound(*args, **kwargs)

    monkeypatch.setattr(pde, "stability_bound", counted)
    c = build_coefficients({"n": 1, "d": 1, "sigma": {"family": "constant", "matrix": [[1.0]]}})
    grid = pde.Grid.regular([[-2.0, 2.0]], [21], horizon=0.1, n_levels=20)
    f = TestFunction(f=lambda x: x[..., 0] ** 2, dim=1, name="square")
    sol = pde.solve(c, CovarianceSet.from_interval(0.25, 1.0), f, grid)
    assert len(calls) == 1
    assert sol.scheme["stability_bound"] == pde.stability_bound(*calls[0])
