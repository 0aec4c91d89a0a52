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

import ctypes
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, EigenSolverFailure, NonFiniteKernel, SingularInformation
from .estimation import _bundled_openblas
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
# LAPACKE's column-major layout: the kernel matrix is symmetric bit for bit,
# so its C-ordered buffer is already that layout and is not transposed.
_LAPACK_COL_MAJOR = 102


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Kernel on the interior grid, scaled by the quadrature weight, as its factor.

    The matrix is entries[i, j] = rho(s_i, s_j) / (m + 1) with s_i = i/(m+1):
    the bridge term (min(s_i, s_j) - s_i s_j) / (m + 1) minus R'R, where
    ``factor`` R has m columns (5 rows for the fitted kernel, none for the
    Brownian bridge). The grid spacing 1/(m+1) is the trapezoid weight of
    the interior nodes (the kernel vanishes on the boundary of the square,
    so the end corrections drop out). ``n_quantile_rounds`` counts the
    rounds of the array solver that found the fitted quantiles of the grid
    levels.
    """

    m: int
    factor: np.ndarray
    n_quantile_rounds: int = 0

    def __post_init__(self) -> None:
        r = np.array(self.factor, dtype=float)
        if self.m < 2:
            raise DomainError("grid size m must be at least 2")
        if r.ndim != 2 or r.shape[1] != self.m:
            raise DomainError("factor must be a matrix with m columns")
        # |(R'R)_ij| is at most the larger of the diagonal entries (R'R)_ii,
        # the squared column norms, so finite ones keep the matrix finite
        with np.errstate(over="ignore"):
            finite = np.isfinite(r).all() and np.isfinite(np.einsum("ij,ij->j", r, r)).all()
        if not finite:
            raise NonFiniteKernel("kernel entries must be finite")
        r.setflags(write=False)
        object.__setattr__(self, "factor", r)

    @property
    def entries(self) -> np.ndarray:
        """The m-by-m kernel matrix, newly allocated (8 m^2 bytes) on every access.

        R'R is numpy's symmetric rank-k product, then negated and topped up
        with the bridge in place, so the matrix is symmetric bit for bit.
        """
        r = self.factor
        q = r.T @ r
        np.negative(q, out=q)
        _add_bridge(q, grid_points(self.m))
        return q


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
    """Discretize the estimated kernel on the interior grid, as its factor.

    The per-observation information is estimated by -H/n and must be
    positive definite (otherwise the fit was not a regular interior
    optimum and SingularInformation is raised). With its Cholesky factor
    L L' = -H/n, the correction Psi (-H/n)^{-1} Psi' is the Gram product
    R'R of R = L^{-1} Psi', and the kernel keeps R (5 x m) alone; no m-by-m
    array is allocated. A non-finite R raises NonFiniteKernel.

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

    x, n_rounds = invert_cdf(grid_points(m), theta_hat)
    r = np.linalg.solve(chol, cdf_gradients(x, theta_hat).T)
    r /= math.sqrt(m + 1.0)
    return KernelMatrix(m=m, factor=r, n_quantile_rounds=n_rounds)


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
    return KernelMatrix(m=m, factor=np.zeros((0, m)))


@cache
def _dsyevd():
    """LAPACKE_dsyevd of the OpenBLAS bundled with numpy, or None where it has none.

    It is the routine ``np.linalg.eigvalsh`` calls, in the same library, so
    it gives the same eigenvalues bit for bit; called directly it works in
    place on a buffer the caller owns instead of on a copy.
    """
    solver = getattr(_bundled_openblas("numpy"), "scipy_LAPACKE_dsyevd64_", None)
    if solver is None:
        return None
    # int matrix_layout, char jobz, char uplo, int64 n, double *a, int64 lda,
    # double *w -> int64 info
    solver.argtypes = [
        ctypes.c_int,
        ctypes.c_char,
        ctypes.c_char,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_void_p,
    ]
    solver.restype = ctypes.c_int64
    return solver


def eigen_spectrum(q: KernelMatrix, tail_tolerance: float = 1e-4) -> EigenSpectrum:
    """All eigenvalues of the kernel matrix plus the retained head.

    The m-by-m matrix is built once, and the eigensolver (LAPACK's dsyevd,
    eigenvalues only) overwrites it in place. Positive eigenvalues are kept
    until their cumulative sum reaches a (1 - tail_tolerance) share of the
    total positive mass; the discarded tail contributes at most that share
    to the limiting distribution.
    """
    if not 0.0 <= tail_tolerance < 1.0:
        raise DomainError("tail_tolerance must lie in [0, 1)")
    # the solver overwrites a; it must be a C-ordered float64 buffer of its own
    a = np.require(q.entries, dtype=np.float64, requirements=["C", "W", "O"])
    solver = _dsyevd()
    if solver is None:
        try:
            lam = np.linalg.eigvalsh(a)
        except np.linalg.LinAlgError as exc:
            raise EigenSolverFailure(f"eigendecomposition failed: {exc}") from exc
    else:
        lam = np.empty(q.m)
        info = solver(_LAPACK_COL_MAJOR, b"N", b"L", q.m, a.ctypes.data, q.m, lam.ctypes.data)
        if info != 0:
            raise EigenSolverFailure(f"eigendecomposition failed: dsyevd info {info}")
    return _spectrum(lam, tail_tolerance)


def _spectrum(lam: np.ndarray, tail_tolerance: float) -> EigenSpectrum:
    """Sort the eigenvalues descending, count the negative ones and pick the retained head."""
    if not np.isfinite(lam).all():
        raise NonFiniteKernel("kernel eigenvalues must be finite")
    lam = np.sort(lam)[::-1].copy()
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
