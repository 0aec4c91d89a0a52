"""Covariance-kernel discretization and eigenvalue estimation.

The limiting distribution of the Cramer-von Mises statistic is a weighted
sum of chi-square(1) variables whose weights are the eigenvalues of a
covariance kernel on [0, 1]. Under a fully specified null the kernel is
the Brownian bridge kernel min(s,t) - s*t with eigenvalues 1/(pi*j)**2 in
closed form. With estimated parameters the kernel shrinks to

    rho(s, t) = min(s,t) - s*t - Psi(s)' I^{-1} Psi(t)

where Psi(s) is the parameter gradient of the model CDF at the s-quantile
and I is the per-observation information, estimated by -H/n from the
log-likelihood Hessian. Eigenvalues are estimated by discretizing the
kernel on the interior grid s_i = i/(m+1) and solving the matrix
eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigenSolverFailure, NonFiniteKernel, SingularInformation
from .mixture_model import MixtureParams, cdf_gradients, invert_cdf

__all__ = [
    "KernelMatrix",
    "EigenSpectrum",
    "grid_points",
    "build_q_matrix",
    "brownian_bridge_q",
    "eigen_spectrum",
    "simple_hypothesis_lambdas",
]

# Rows of the bridge term filled per step: its temporaries stay at
# _BRIDGE_ROWS-by-m instead of m-by-m.
_BRIDGE_ROWS = 64


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Kernel values on the interior grid, scaled by the quadrature weight.

    entries[i, j] = rho(s_i, s_j) / (m + 1) with s_i = i/(m+1). The grid
    spacing 1/(m+1) is the trapezoid weight of the interior nodes (the
    kernel vanishes on the boundary of the square, so the end corrections
    drop out). ``n_quantile_rounds`` counts the rounds of the array solver
    that found the fitted quantiles of the grid levels.
    """

    m: int
    entries: np.ndarray
    n_quantile_rounds: int = 0

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if self.m < 2:
            raise DomainError("grid size m must be at least 2")
        if e.shape != (self.m, self.m):
            raise DomainError("entries must be an m-by-m matrix")
        # both checks make m-by-m bool temporaries only, no float ones
        if not np.isfinite(e).all():
            raise NonFiniteKernel("kernel entries must be finite")
        if not np.array_equal(e, e.T):
            raise DomainError("kernel matrix must be symmetric")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalue estimates, sorted descending, with truncation diagnostics.

    The first ``n_retained`` (all positive) enter the p-value computation;
    ``trace_captured`` is their share of the total positive mass. Negative
    eigenvalues are discretization/estimation noise and are only counted.
    """

    lambdas: np.ndarray
    n_retained: int
    trace_captured: float
    n_negative: int
    min_eigenvalue: float

    @property
    def retained(self) -> np.ndarray:
        return self.lambdas[: self.n_retained]


def grid_points(m: int) -> np.ndarray:
    """Interior discretization grid i/(m+1), i = 1..m."""
    return np.arange(1, m + 1) / (m + 1.0)


def build_q_matrix(
    theta_hat: MixtureParams,
    hessian: np.ndarray,
    n: int,
    m: int,
) -> KernelMatrix:
    """Discretize the estimated kernel on the interior grid.

    The per-observation information is estimated by -H/n and must be
    positive definite (otherwise the fit was not a regular interior
    optimum and SingularInformation is raised). With its Cholesky factor
    L L' = -H/n, the correction Psi (-H/n)^{-1} Psi' is the Gram product
    R'R of R = L^{-1} Psi', so the m-by-m kernel is one buffer that is
    symmetric bit for bit. A non-finite entry raises NonFiniteKernel.

    Psi is the CDF gradient at the fitted quantiles of all m grid levels,
    found by one array inversion of the fitted CDF.
    """
    if m < 2:
        raise DomainError("grid size m must be at least 2")
    if n < 1:
        raise DomainError("sample size n must be at least 1")
    hessian = np.asarray(hessian, dtype=float)
    if hessian.shape != (5, 5):
        raise DomainError("hessian must be 5x5")
    info = -hessian / float(n)
    info = 0.5 * (info + info.T)
    try:
        chol = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise SingularInformation(
            "-H/n is not positive definite; the fit is not a regular interior optimum"
        ) from None

    s = grid_points(m)
    x, n_rounds = invert_cdf(s, theta_hat)
    r = np.linalg.solve(chol, cdf_gradients(x, theta_hat).T)
    r /= math.sqrt(m + 1.0)
    # (bridge - Psi C Psi') / (m + 1): R'R is numpy's symmetric rank-k
    # product, then negated and topped up with the bridge in place
    q = r.T @ r
    np.negative(q, out=q)
    _add_bridge(q, s)
    return KernelMatrix(m=m, entries=q, n_quantile_rounds=n_rounds)


def _add_bridge(q: np.ndarray, s: np.ndarray) -> None:
    """Add (min(s_i, s_j) - s_i * s_j) / (m + 1) to q, a block of rows at a time.

    Each entry comes from a commutative min and product, so the term is
    symmetric bit for bit.
    """
    m = s.size
    for i in range(0, m, _BRIDGE_ROWS):
        rows = s[i : i + _BRIDGE_ROWS]
        block = np.minimum.outer(rows, s)
        block -= np.outer(rows, s)
        block /= m + 1.0
        q[i : i + _BRIDGE_ROWS] += block


def brownian_bridge_q(m: int) -> KernelMatrix:
    """Discretized Brownian bridge kernel (the fully specified case)."""
    if m < 2:
        raise DomainError("grid size m must be at least 2")
    q = np.zeros((m, m))
    _add_bridge(q, grid_points(m))
    return KernelMatrix(m=m, entries=q)


def eigen_spectrum(q: KernelMatrix, tail_tolerance: float = 1e-4) -> EigenSpectrum:
    """All eigenvalues of the kernel matrix plus the retained head.

    Positive eigenvalues are kept until their cumulative sum reaches a
    (1 - tail_tolerance) share of the total positive mass; the discarded
    tail contributes at most that share to the limiting distribution.
    """
    if not 0.0 <= tail_tolerance < 1.0:
        raise DomainError("tail_tolerance must lie in [0, 1)")
    try:
        lam = np.linalg.eigvalsh(q.entries)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"eigendecomposition failed: {exc}") from exc
    positive = lam[lam > 0.0]
    if positive.size == 0:
        raise EigenSolverFailure("kernel matrix has no positive eigenvalues")
    total = float(np.sum(positive))
    cumulative = np.cumsum(positive)
    n_retained = int(np.searchsorted(cumulative, (1.0 - tail_tolerance) * total) + 1)
    n_retained = min(n_retained, positive.size)
    lam.setflags(write=False)
    return EigenSpectrum(
        lambdas=lam,
        n_retained=n_retained,
        trace_captured=float(cumulative[n_retained - 1] / total),
        n_negative=int(np.sum(lam < 0.0)),
        min_eigenvalue=float(lam[-1]),
    )


def simple_hypothesis_lambdas(k: int) -> np.ndarray:
    """First k eigenvalues 1/(pi*j)**2 of the Brownian bridge kernel."""
    if k < 1:
        raise DomainError("k must be at least 1")
    j = np.arange(1, k + 1)
    return 1.0 / (math.pi * j) ** 2
