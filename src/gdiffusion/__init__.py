"""Diffusions under volatility uncertainty: simulation, hypothesis checking,
and a worst-case PDE semigroup, cross-validated against each other."""

from .conditions import CheckReport, SearchDomain, run_check
from .functions import TestFunction
from .gfunction import CovarianceSet, argmax_sigma, eval_G, nondegeneracy_bound
from .generator import eval_generator, generator_limit_check
from .pde import Grid, PDESolution, dominance_check, monotonicity_check, semigroup_value, solve
from .scenario import VolatilityControl, apply_control, estimate_sublinear_expectation, noise_block
from .sde import CoefficientSet, SDETerminalFunctional, euler_march

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "SearchDomain",
    "CoefficientSet",
    "CovarianceSet",
    "Grid",
    "PDESolution",
    "SDETerminalFunctional",
    "TestFunction",
    "VolatilityControl",
    "apply_control",
    "argmax_sigma",
    "dominance_check",
    "estimate_sublinear_expectation",
    "euler_march",
    "eval_G",
    "eval_generator",
    "generator_limit_check",
    "monotonicity_check",
    "noise_block",
    "nondegeneracy_bound",
    "run_check",
    "semigroup_value",
    "solve",
]
