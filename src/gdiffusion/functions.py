"""Smooth test functions with optional analytic derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class TestFunction:
    """Scalar function on R^dim used as initial data and generator argument.

    grad / hess are optional analytic derivatives (callables on a single
    point).  A function declared monotone is spot-audited on random ordered
    pairs at construction; a sampled decrease is a construction error.
    """

    __test__ = False  # noqa: RUF012 - keep pytest from collecting this as a test class

    f: object
    dim: int
    grad: object = None
    hess: object = None
    monotone: bool = False
    name: str = "f"

    def __post_init__(self) -> None:
        if self.monotone:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xF00D)))
            for _ in range(64):
                x = rng.uniform(-2.5, 2.5, size=self.dim)
                y = x + rng.uniform(0.0, 1.5, size=self.dim)
                if self.value(x) > self.value(y) + 1e-12:
                    raise ConfigError(
                        f"function {self.name!r} is declared monotone but decreases "
                        f"from {x.tolist()} to {y.tolist()}"
                    )

    def value(self, x) -> np.ndarray:
        """Evaluate on (..., dim) points, returning shape (...)."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.f(x), dtype=float)
        target = x.shape[:-1]
        if out.shape != target:
            out = np.broadcast_to(out, target).copy()
        return out
