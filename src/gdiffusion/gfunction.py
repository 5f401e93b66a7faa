"""Volatility uncertainty sets and the sublinear function G.

The uncertainty about the covariance of the driving noise is modeled by a
finite family of volatility matrices ``gamma_m``; the induced covariance set
is ``{gamma_m @ gamma_m.T}``.  On symmetric matrices the worst-case function

    G(A) = 1/2 * max_m tr(A @ Sigma_m)

is sublinear, positively homogeneous and monotone in the semidefinite order.
A continuous covariance interval in one dimension is represented exactly by
its two endpoint generators, because the maximum of a linear function of
Sigma is attained at extreme points.

The family is stored once, as read-only (M, d, d) stacks.  ``eval_G`` and
``argmax_sigma`` take one matrix or a (..., d, d) stack and share one
contraction and one tie rule, ``_first_max`` (the lowest index wins), which
the PDE scheme's branch maximum also uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

# PSD validation: eigenvalues of gamma @ gamma.T may dip below zero by
# rounding noise; anything above this magnitude is a real input error.
PSD_TOLERANCE = 1e-10


def _symmetric(a) -> np.ndarray:
    """A matrix or a (..., d, d) stack, checked square and finite, then
    symmetrized via (A + A.T) / 2."""
    a = np.asarray(a, dtype=float)
    a = a.reshape(1, 1) if a.ndim == 0 else a
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("symmetric matrix entries must be finite")
    return (a + np.swapaxes(a, -1, -2)) / 2.0


@dataclass(frozen=True)
class CovarianceSet:
    """Finite family of volatility generators and their covariances.

    generators : the d x d matrices gamma_m, given as any sequence and stored
        as one read-only (M, d, d) array
    covariances : Sigma_m = gamma_m @ gamma_m.T, eigenvalue-clamped, stored
        as one read-only (M, d, d) array; may be supplied explicitly when the
        product would round (interval sets pin the exact endpoint variances)
    sigma_lower_sq / sigma_upper_sq : min/max of the eigenvalue range over
        the covariances (the variance envelope of the one-dimensional
        projections).
    """

    generators: np.ndarray
    covariances: np.ndarray = None
    sigma_lower_sq: float = field(init=False)
    sigma_upper_sq: float = field(init=False)

    def __post_init__(self) -> None:
        gens = [np.asarray(g, dtype=float) for g in self.generators]
        if not gens:
            raise DimensionMismatchError("at least one volatility generator is required")
        gens = [g.reshape(1, 1) if g.ndim == 0 else g for g in gens]
        d = gens[0].shape[0]
        given = self.covariances
        if given is not None and len(given) != len(gens):
            raise DimensionMismatchError("covariances must pair up with the generators")
        covs = []
        lo, hi = np.inf, -np.inf
        for m, g in enumerate(gens):
            if g.shape != (d, d):
                raise DimensionMismatchError(
                    f"every generator must be {d}x{d}, got shape {g.shape}"
                )
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("volatility generator entries must be finite")
            sigma = np.asarray(given[m], dtype=float) if given is not None else g @ g.T
            sigma = (sigma + sigma.T) / 2.0
            w, v = np.linalg.eigh(sigma)
            if np.min(w) < -PSD_TOLERANCE:
                raise NonFiniteError(
                    f"covariance has negative eigenvalue {np.min(w):.3e} beyond tolerance"
                )
            if np.min(w) < 0.0:
                w = np.clip(w, 0.0, None)
                sigma = (v * w) @ v.T
                sigma = (sigma + sigma.T) / 2.0
            covs.append(sigma)
            lo = min(lo, float(np.min(w)))
            hi = max(hi, float(np.max(w)))
        for name, stack in (("generators", np.stack(gens)), ("covariances", np.stack(covs))):
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)
        object.__setattr__(self, "sigma_lower_sq", max(lo, 0.0))
        object.__setattr__(self, "sigma_upper_sq", hi)

    @classmethod
    def from_interval(cls, sigma_lower_sq: float, sigma_upper_sq: float) -> "CovarianceSet":
        """One-dimensional set from a variance interval [lo, hi].

        Produces exactly the two endpoint generators sqrt(lo) and sqrt(hi),
        with the covariances pinned to lo and hi (no squaring roundoff);
        bang-bang endpoints realize the worst case of any linear criterion.
        """
        lo, hi = float(sigma_lower_sq), float(sigma_upper_sq)
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0 or hi < lo:
            raise NonFiniteError(f"invalid variance interval [{lo}, {hi}]")
        return cls(generators=(np.array([[np.sqrt(lo)]]), np.array([[np.sqrt(hi)]])),
                   covariances=(np.array([[lo]]), np.array([[hi]])))

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def n_generators(self) -> int:
        return len(self.generators)


def _first_max(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Max over the leading generator axis; writes its first argmax into the zeroed ``index``."""
    top = values[0]
    for g in range(1, len(values)):  # one pass; strict >: ties keep the lowest index
        higher = values[g] > top
        top = np.where(higher, values[g], top)
        np.copyto(index, g, where=higher)
    return top


def _worst_case(a, theta: CovarianceSet) -> tuple:
    """(G, first maximizing index) for a matrix or a (..., d, d) stack A."""
    a = _symmetric(a)
    if a.shape[-1] != theta.dim:
        raise DimensionMismatchError(
            f"matrix dim {a.shape[-1]} does not match covariance set dim {theta.dim}")
    index = np.zeros(a.shape[:-2], dtype=np.intp)
    return _first_max(0.5 * np.einsum("mij,...ij->m...", theta.covariances, a), index), index


def eval_G(a, theta: CovarianceSet):
    """Worst-case half-trace G(A) = 1/2 * max_m tr(A @ Sigma_m) of the
    symmetrized A: a float for one matrix, an array (...) for a (..., d, d)
    stack."""
    top = _worst_case(a, theta)[0]
    return float(top) if np.ndim(top) == 0 else top


def argmax_sigma(a, theta: CovarianceSet) -> tuple:
    """(index, covariance) attaining :func:`eval_G`, the lowest index on ties:
    (int, (d, d) array) for one matrix, arrays (...) and (..., d, d) for a
    (..., d, d) stack."""
    index = _worst_case(a, theta)[1]
    index = int(index) if index.ndim == 0 else index
    return index, theta.covariances[index]


def nondegeneracy_bound(theta: CovarianceSet) -> float:
    """Certified constant c with G(A) - G(B) >= c * tr(A - B) for A >= B.

    Equals half the smallest eigenvalue over the covariance family:
    G(A) - G(B) >= 1/2 tr((A-B) Sigma*) >= 1/2 lambda_min(Sigma*) tr(A-B)
    for the maximizer Sigma* of B and A - B positive semidefinite.
    Returns 0 when some covariance is singular.
    """
    lam = float(np.min(np.linalg.eigvalsh(theta.covariances)))
    return 0.5 * max(lam, 0.0)
