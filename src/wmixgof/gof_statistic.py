"""Empirical-distribution-function statistics on the unit interval.

The probability integral transform maps a sample through the fitted CDF;
the Cramer-von Mises statistic measures its distance from uniformity, and
the Anderson-Darling statistic (with its fully-specified-case asymptotic
p-value) checks uniformity of simulated p-values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .mixture_model import MixtureParams, Sample, mixture_cdf

__all__ = ["pit", "cvm_statistic", "ad_statistic_uniform", "ad_uniformity_pvalue"]


def pit(sample: Sample, theta: MixtureParams) -> np.ndarray:
    """Transform each observation through the mixture CDF.

    Monotonicity of the CDF preserves the sample order, so the result is
    the ordered array z_i = F(x_i, theta).
    """
    return mixture_cdf(sample.values, theta)


def cvm_statistic(z) -> float:
    """Cramer-von Mises statistic of transforms z in [0, 1], sorted here.

    W2 = sum_i (z_i - (2i-1)/(2n))**2 + 1/(12n), which equals
    n * Int (F_n - F)**2 dF for the ordered transforms z_i. Minimized, at
    1/(12n), when the z_i sit exactly on the uniform plotting positions.
    """
    z = np.sort(np.asarray(z, dtype=float).ravel())
    if z.size == 0:
        raise DomainError("transformed sample must be nonempty")
    if not np.all(np.isfinite(z)) or z[0] < 0.0 or z[-1] > 1.0:
        raise DomainError("transformed values must lie in [0, 1]")
    n = z.size
    positions = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return float(np.sum((z - positions) ** 2) + 1.0 / (12.0 * n))


def ad_statistic_uniform(u) -> float:
    """Anderson-Darling statistic for uniformity on (0, 1).

    A2 = -n - (1/n) sum_i (2i-1) * [log u_(i) + log(1 - u_(n+1-i))] over
    the sorted values. Permutation-invariant; the input is sorted here.
    Values must lie in [0, 1]. They are clipped to [1e-12, 1 - 1e-12], so
    that exact 0 and 1 keep the logs finite; clipping this far out is
    invisible at any realistic count of values.
    """
    v = np.sort(np.asarray(u, dtype=float).ravel())
    if v.size == 0:
        raise DomainError("need at least one value")
    if not np.all(np.isfinite(v)) or v[0] < 0.0 or v[-1] > 1.0:
        raise DomainError("values must lie in [0, 1]")
    v = np.clip(v, 1e-12, 1.0 - 1e-12)
    n = v.size
    weights = 2.0 * np.arange(1, n + 1) - 1.0
    s = float(np.sum(weights * (np.log(v) + np.log1p(-v[::-1]))))
    return -n - s / n


def ad_uniformity_pvalue(a2: float) -> float:
    """Upper-tail p-value of A2 under the fully-specified-case limit.

    Uses the Marsaglia & Marsaglia (2004) approximation of the asymptotic
    CDF, accurate to a few units in the fifth decimal over the relevant
    range.
    """
    return float(min(max(1.0 - _ad_asymptotic_cdf(float(a2)), 0.0), 1.0))


def _ad_asymptotic_cdf(z: float) -> float:
    if z <= 0.0:
        return 0.0
    if z < 2.0:
        poly = 2.00012 + (
            0.247105 - (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * z) * z) * z) * z
        ) * z
        return math.exp(-1.2337141 / z) / math.sqrt(z) * poly
    poly = 1.0776 - (
        2.30695 - (0.43424 - (0.082433 - (0.008056 - 0.0003146 * z) * z) * z) * z
    ) * z
    return math.exp(-math.exp(poly))
