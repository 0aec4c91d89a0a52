"""Two-component Weibull mixture distribution.

Density, distribution function, quantile, parameter derivatives and
sampling for the five-parameter family on x > 0

    F(x) = p * (1 - exp(-(x/beta1)**alpha1))
         + (1 - p) * (1 - exp(-(x/beta2)**alpha2))

with shapes alpha1, alpha2 > 0, scales beta1, beta2 > 0 and mixing
proportion p in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "MixtureParams",
    "Sample",
    "mixture_pdf",
    "mixture_cdf",
    "invert_cdf",
    "cdf_gradients",
    "sample_mixture",
]

# Stopping width and iteration caps of quantile inversion.
_QUANTILE_EPS = 5e-6
_MAX_SECANT_ITER = 200
_MAX_BISECT_ITER = 300
# Residual threshold paired with the step-width stopping rule so the
# returned point also satisfies |F(x) - t| well below the round-trip budget.
_RESIDUAL_TOL = 1e-10
# Beyond exp(709) the power (x/beta)**alpha overflows a double; the survival
# factor exp(-(x/beta)**alpha) underflows to zero much earlier, so every term
# carrying it is exactly zero there.
_EXP_OVERFLOW = 709.0


@dataclass(frozen=True)
class MixtureParams:
    """Parameter vector (alpha1, alpha2, beta1, beta2, p) of the mixture.

    Components are kept in a canonical order (beta1 <= beta2, ties broken
    by alpha1 <= alpha2) so that the two relabelings of the same mixture
    compare equal; the constructor swaps components, and the mixing
    proportion with them, when needed.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    p: float

    def __post_init__(self) -> None:
        vals = {}
        for name in ("alpha1", "alpha2", "beta1", "beta2", "p"):
            vals[name] = float(getattr(self, name))
            object.__setattr__(self, name, vals[name])
        if not all(math.isfinite(v) for v in vals.values()):
            raise DomainError("mixture parameters must be finite")
        if min(self.alpha1, self.alpha2, self.beta1, self.beta2) <= 0.0:
            raise DomainError("shape and scale parameters must be strictly positive")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError("mixing proportion must lie in [0, 1]")
        if (self.beta1, self.alpha1) > (self.beta2, self.alpha2):
            a1, b1, a2, b2 = self.alpha2, self.beta2, self.alpha1, self.beta1
            object.__setattr__(self, "alpha1", a1)
            object.__setattr__(self, "beta1", b1)
            object.__setattr__(self, "alpha2", a2)
            object.__setattr__(self, "beta2", b2)
            object.__setattr__(self, "p", 1.0 - self.p)

    def as_array(self) -> np.ndarray:
        """Parameters as the array (alpha1, alpha2, beta1, beta2, p)."""
        return np.array([self.alpha1, self.alpha2, self.beta1, self.beta2, self.p])

    @classmethod
    def from_array(cls, arr) -> "MixtureParams":
        a1, a2, b1, b2, p = np.asarray(arr, dtype=float)
        return cls(a1, a2, b1, b2, p)


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered batch of strictly positive observations.

    Values are sorted ascending on construction. ``label`` carries free-form
    provenance (file name, generator seed, ...) and plays no numeric role.
    """

    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        v = np.sort(np.asarray(self.values, dtype=float).ravel())
        if v.size == 0:
            raise DomainError("sample must contain at least one observation")
        if not np.all(np.isfinite(v)):
            raise DomainError("sample values must be finite")
        if v[0] <= 0.0:
            raise DomainError("sample values must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _as_positive(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("x must be strictly positive and finite")
    return arr


def _weibull_logpower(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """alpha * log(x / beta), the log of u = (x/beta)**alpha."""
    return alpha * np.log(x / beta)


def mixture_pdf(x, theta: MixtureParams):
    """Mixture density p*f1 + (1-p)*f2 at x > 0.

    Accepts a scalar or an array; returns a float for scalar input.
    """
    arr = _as_positive(x)
    with np.errstate(over="ignore", under="ignore"):
        d = theta.p * _weibull_pdf(arr, theta.alpha1, theta.beta1) + (
            1.0 - theta.p
        ) * _weibull_pdf(arr, theta.alpha2, theta.beta2)
    return float(d) if np.ndim(x) == 0 else d


def _weibull_pdf(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    logx = np.log(x / beta)
    u = np.exp(alpha * logx)
    return (alpha / beta) * np.exp((alpha - 1.0) * logx - u)


def mixture_cdf(x, theta: MixtureParams):
    """Mixture distribution function at x > 0.

    Accepts a scalar or an array; returns a float for scalar input.
    """
    c = _cdf(_as_positive(x), theta)
    return float(c) if np.ndim(x) == 0 else c


def _cdf(x: np.ndarray, theta: MixtureParams) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        return theta.p * _weibull_cdf(x, theta.alpha1, theta.beta1) + (
            1.0 - theta.p
        ) * _weibull_cdf(x, theta.alpha2, theta.beta2)


def _weibull_cdf(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    u = np.exp(_weibull_logpower(x, alpha, beta))
    return -np.expm1(-u)


def invert_cdf(levels, theta: MixtureParams) -> tuple[np.ndarray, int]:
    """Invert the mixture CDF at a 1-D array of levels in (0, 1) at once.

    Returns the quantiles and the number of levels that needed bisection.
    The single-component quantiles beta_i * (-log(1-t))**(1/alpha_i) start
    a secant iteration that runs on all levels in lockstep; in practice
    they bracket the root. A level leaves the iteration once two
    consecutive points are within ``_QUANTILE_EPS`` and the residual is
    negligible. Levels whose secant cycles or leaves (0, inf) are finished
    together by a bisection on a geometrically grown bracket.
    """
    t = np.asarray(levels, dtype=float)
    if t.ndim != 1 or not np.all((t > 0.0) & (t < 1.0)):
        raise DomainError("quantile levels must lie strictly inside (0, 1)")

    w = -np.log1p(-t)
    x0 = theta.beta1 * w ** (1.0 / theta.alpha1)
    x1 = theta.beta2 * w ** (1.0 / theta.alpha2)
    x1 = np.where(x0 == x1, x0 * (1.0 + 1e-6), x1)

    x = np.empty_like(t)
    solved = np.zeros(t.size, dtype=bool)
    idx = np.arange(t.size)
    a, b = x0, x1
    ga, gb = _cdf(a, theta) - t, _cdf(b, theta) - t
    for _ in range(_MAX_SECANT_ITER):
        if idx.size == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c = (a * gb - b * ga) / (gb - ga)
        # levels whose secant gives up drop out here and go to bisection
        go = (gb != ga) & np.isfinite(c) & (c > 0.0)
        idx, a, b, ga, gb, c = idx[go], a[go], b[go], ga[go], gb[go], c[go]
        gc = _cdf(c, theta) - t[idx]
        done = (np.abs(c - b) < _QUANTILE_EPS) & (np.abs(gc) < _RESIDUAL_TOL)
        x[idx[done]] = c[done]
        solved[idx[done]] = True
        go = ~done
        idx, a, ga, b, gb = idx[go], b[go], gb[go], c[go], gc[go]

    bisect = np.flatnonzero(~solved)
    if bisect.size:
        x[bisect] = _bisect_quantiles(t[bisect], x0[bisect], x1[bisect], theta)
    x.setflags(write=False)
    return x, int(bisect.size)


def _bisect_quantiles(
    t: np.ndarray, x0: np.ndarray, x1: np.ndarray, theta: MixtureParams
) -> np.ndarray:
    """Bisection at every level at once, each with its own bracket."""

    def g(x, i):
        return _cdf(x, theta) - t[i]

    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    glo, ghi = _cdf(lo, theta) - t, _cdf(hi, theta) - t
    for _ in range(_MAX_BISECT_ITER):
        i = np.flatnonzero(glo > 0.0)
        if i.size == 0:
            break
        hi[i], ghi[i] = lo[i], glo[i]
        lo[i] *= 0.5
        glo[i] = g(lo[i], i)
    else:
        raise ConvergenceError("could not bracket the quantile from below")
    for _ in range(_MAX_BISECT_ITER):
        i = np.flatnonzero(ghi < 0.0)
        if i.size == 0:
            break
        lo[i], glo[i] = hi[i], ghi[i]
        hi[i] *= 2.0
        ghi[i] = g(hi[i], i)
    else:
        raise ConvergenceError("could not bracket the quantile from above")

    mid = 0.5 * (lo + hi)
    active = np.ones(t.size, dtype=bool)
    solved = np.zeros(t.size, dtype=bool)
    for _ in range(_MAX_BISECT_ITER):
        i = np.flatnonzero(active)
        if i.size == 0:
            break
        mid[i] = 0.5 * (lo[i] + hi[i])
        # a bracket at floating-point resolution stops its level
        inside = (lo[i] < mid[i]) & (mid[i] < hi[i])
        active[i[~inside]] = False
        i = i[inside]
        gm = g(mid[i], i)
        below = gm < 0.0
        lo[i[below]] = mid[i[below]]
        hi[i[~below]] = mid[i[~below]]
        done = (hi[i] - lo[i] < _QUANTILE_EPS) & (np.abs(gm) <= _RESIDUAL_TOL)
        active[i[done]] = False
        solved[i[done]] = True
    rest = np.flatnonzero(~solved)
    if np.any(np.abs(g(mid[rest], rest)) > 1e-8):
        raise ConvergenceError("quantile inversion did not converge")
    return mid


def cdf_gradients(x, theta: MixtureParams) -> np.ndarray:
    """Gradient of the mixture CDF with respect to all five parameters.

    With u_i = (x/beta_i)**alpha_i and weights p1 = p, p2 = 1 - p:

        dF/dalpha_i = p_i * u_i * log(x/beta_i) * exp(-u_i)
        dF/dbeta_i  = -p_i * (alpha_i/beta_i) * u_i * exp(-u_i)
        dF/dp       = exp(-u_2) - exp(-u_1)

    Accepts a scalar or an array of points x > 0; the last axis of the
    result runs over (alpha1, alpha2, beta1, beta2, p).
    """
    xv = _as_positive(x)
    da1, db1, e1 = _component_partials(xv, theta.alpha1, theta.beta1)
    da2, db2, e2 = _component_partials(xv, theta.alpha2, theta.beta2)
    p, q = theta.p, 1.0 - theta.p
    return np.stack([p * da1, q * da2, p * db1, q * db2, e2 - e1], axis=-1)


def _component_partials(x: np.ndarray, alpha: float, beta: float):
    """(dF/dalpha, dF/dbeta, survival) for one Weibull component, weight 1."""
    logx = np.log(x / beta)
    t = alpha * logx
    # past the overflow point every term carries exp(-u) == 0
    inside = t <= _EXP_OVERFLOW
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.exp(np.where(inside, t, 0.0))
        su = np.exp(-u)
        da = u * logx * su
        db = -(alpha / beta) * u * su
    return np.where(inside, da, 0.0), np.where(inside, db, 0.0), np.where(inside, su, 0.0)


def sample_mixture(theta: MixtureParams, n: int, rng_seed: int) -> Sample:
    """Draw n independent observations from the mixture, sorted ascending.

    Each draw picks component 1 with probability p and inverts the
    component CDF as beta * (-log U)**(1/alpha). Deterministic for a fixed
    seed.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = np.random.default_rng(rng_seed)
    take_first = rng.random(n) < theta.p
    u = rng.random(n)
    u[u == 0.0] = np.finfo(float).tiny  # keep -log(u) finite
    e = -np.log(u)
    draws = np.where(
        take_first,
        theta.beta1 * e ** (1.0 / theta.alpha1),
        theta.beta2 * e ** (1.0 / theta.alpha2),
    )
    return Sample(draws)
