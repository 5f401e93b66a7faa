"""Every function and method that perfbench/tracing.py wraps must still exist.

The traced benchmark binds its wrappers by name; a rename in the package
would otherwise surface only when the benchmark's own suite runs.
"""

import importlib.util
import pathlib

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
