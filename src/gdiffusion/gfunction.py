"""Volatility uncertainty sets and the sublinear function G.

The uncertainty about the covariance of the driving noise is modeled by a
finite family of volatility matrices ``gamma_m``; the induced covariance set
is ``{gamma_m @ gamma_m.T}``.  On symmetric matrices the worst-case function

    G(A) = 1/2 * max_m tr(A @ Sigma_m)

is sublinear, positively homogeneous and monotone in the semidefinite order.
A continuous covariance interval in one dimension is represented exactly by
its two endpoint generators, because the maximum of a linear function of
Sigma is attained at extreme points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

# PSD validation: eigenvalues of gamma @ gamma.T may dip below zero by
# rounding noise; anything above this magnitude is a real input error.
PSD_TOLERANCE = 1e-10


class SymMatrix:
    """A real symmetric matrix; construction symmetrizes via (A + A.T) / 2."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        a = np.asarray(entries, dtype=float)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("symmetric matrix entries must be finite")
        self.entries = (a + a.T) / 2.0

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymMatrix({self.entries.tolist()})"


def _as_sym_entries(a) -> np.ndarray:
    if isinstance(a, SymMatrix):
        return a.entries
    return SymMatrix(a).entries


@dataclass(frozen=True)
class CovarianceSet:
    """Finite family of volatility generators and their covariances.

    generators : tuple of d x d arrays gamma_m
    covariances : Sigma_m = gamma_m @ gamma_m.T, eigenvalue-clamped; may be
        supplied explicitly when the product would round (interval sets pin
        the exact endpoint variances)
    sigma_lower_sq / sigma_upper_sq : min/max of the eigenvalue range over
        the covariances (the variance envelope of the one-dimensional
        projections).
    """

    generators: tuple
    covariances: tuple = None
    sigma_lower_sq: float = field(init=False)
    sigma_upper_sq: float = field(init=False)

    def __post_init__(self) -> None:
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        if not gens:
            raise DimensionMismatchError("at least one volatility generator is required")
        d = gens[0].shape[0] if gens[0].ndim else 1
        gens = tuple(g.reshape(1, 1) if g.ndim == 0 else g for g in gens)
        given = self.covariances
        if given is not None and len(given) != len(gens):
            raise DimensionMismatchError("covariances must pair up with the generators")
        covs = []
        lo, hi = np.inf, -np.inf
        for m, g in enumerate(gens):
            if g.ndim != 2 or g.shape != (d, d):
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
            sigma.setflags(write=False)
            covs.append(sigma)
            lo = min(lo, float(np.min(w)))
            hi = max(hi, float(np.max(w)))
        for g in gens:
            g.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "covariances", tuple(covs))
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
        return self.generators[0].shape[0]

    @property
    def n_generators(self) -> int:
        return len(self.generators)


def _check_compatible(a: np.ndarray, theta: CovarianceSet) -> None:
    if a.shape[0] != theta.dim:
        raise DimensionMismatchError(
            f"matrix dim {a.shape[0]} does not match covariance set dim {theta.dim}"
        )


def eval_G(a, theta: CovarianceSet) -> float:
    """Worst-case half-trace: G(A) = 1/2 * max_m tr(A @ Sigma_m).

    Deterministic: the maximum over the finite covariance family is taken
    with ties broken at the lowest index.
    """
    e = _as_sym_entries(a)
    _check_compatible(e, theta)
    values = [0.5 * float(np.tensordot(e, s, axes=2)) for s in theta.covariances]
    return max(values)


def argmax_sigma(a, theta: CovarianceSet) -> tuple[int, np.ndarray]:
    """Index and covariance attaining the maximum in :func:`eval_G`.

    Ties are broken at the lowest index, so the result is reproducible
    across runs and platforms.
    """
    e = _as_sym_entries(a)
    _check_compatible(e, theta)
    values = np.array([0.5 * np.tensordot(e, s, axes=2) for s in theta.covariances])
    idx = int(np.argmax(values))
    return idx, theta.covariances[idx]


def nondegeneracy_bound(theta: CovarianceSet) -> float:
    """Certified constant c with G(A) - G(B) >= c * tr(A - B) for A >= B.

    Equals half the smallest eigenvalue over the covariance family:
    G(A) - G(B) >= 1/2 tr((A-B) Sigma*) >= 1/2 lambda_min(Sigma*) tr(A-B)
    for the maximizer Sigma* of B and A - B positive semidefinite.
    Returns 0 when some covariance is singular.
    """
    lam = min(float(np.min(np.linalg.eigvalsh(s))) for s in theta.covariances)
    return 0.5 * max(lam, 0.0)
