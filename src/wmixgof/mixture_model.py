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
    "mixture_cdf",
    "invert_cdf",
    "cdf_gradients",
    "sample_mixture",
]

# Quantile inversion stops a level once |F(x) - t| <= _RESIDUAL_TOL, well
# inside the round-trip budget. Geometric bisection alone halves a bracket's
# log-width each round and brings 60-decade brackets to that bound in about
# 40 rounds, so the cap leaves room for slow Newton steps.
_RESIDUAL_TOL = 1e-10
_MAX_QUANTILE_ROUNDS = 100


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


class _Components:
    """Both Weibull components at the points x, stacked on a leading axis of 2.

    The weights (p, 1 - p), shapes, scales, lx = log(x/beta) and u = exp(alpha * lx).
    """

    def __init__(self, x: np.ndarray, theta: MixtureParams) -> None:
        rows = [[theta.p, 1.0 - theta.p], [theta.alpha1, theta.alpha2], [theta.beta1, theta.beta2]]
        self.w, self.alpha, self.beta = np.reshape(rows, (3, 2) + (1,) * np.ndim(x))
        with np.errstate(over="ignore", divide="ignore"):
            self.lx = np.log(x / self.beta)
            self.u = np.exp(self.alpha * self.lx)

    def cdf(self) -> np.ndarray:
        return np.sum(self.w * -np.expm1(-self.u), axis=0)

    def pdf(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            f = (self.alpha / self.beta) * np.exp((self.alpha - 1.0) * self.lx - self.u)
            return np.sum(self.w * f, axis=0)


def mixture_cdf(x, theta: MixtureParams):
    """Mixture distribution function at x > 0, of a scalar or an array."""
    return _Components(_as_positive(x), theta).cdf()


def invert_cdf(levels, theta: MixtureParams) -> tuple[np.ndarray, int]:
    """Invert the mixture CDF at a 1-D array of levels in (0, 1) at once.

    Returns the quantiles and the number of solver rounds. Since F is a
    p-weighted average of the component CDFs, the component quantiles
    beta_i * (-log(1-t))**(1/alpha_i) bracket the root at level t. Each
    round evaluates F and f at every unfinished level, from one pass over
    the components, shrinks the bracket to the side of the root and takes
    the Newton step when it lands strictly inside the bracket and moves the
    point at most half as far, in log scale, as the round before moved it,
    which is what the geometric midpoint does each round; else it takes the
    midpoint. Brackets can span tens of decades when a shape is small, and
    creeping Newton steps there would take more rounds than bisection alone.
    """
    t = np.asarray(levels, dtype=float)
    if t.ndim != 1 or not np.all((t > 0.0) & (t < 1.0)):
        raise DomainError("quantile levels must lie strictly inside (0, 1)")

    w = -np.log1p(-t)
    q1 = theta.beta1 * w ** (1.0 / theta.alpha1)
    q2 = theta.beta2 * w ** (1.0 / theta.alpha2)
    lo, hi = np.minimum(q1, q2), np.maximum(q1, q2)
    x = np.sqrt(lo) * np.sqrt(hi)
    # log-distance the point moved in the last round; the first Newton step
    # may go as far as half the initial bracket
    moved = np.log(hi) - np.log(lo)
    out = np.empty_like(t)
    idx = np.arange(t.size)
    for rounds in range(1, _MAX_QUANTILE_ROUNDS + 1):
        c = _Components(x, theta)
        g = c.cdf() - t[idx]
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = x - g / c.pdf()
        # sqrt(lo) * sqrt(hi) cannot overflow where lo * hi could
        mid = np.sqrt(lo) * np.sqrt(hi)
        # a bracket at floating-point resolution ends its level
        resolved = (lo >= mid) | (mid >= hi)
        if np.any(resolved & (np.abs(g) > 1e-8)):
            raise ConvergenceError("quantile inversion did not converge")
        done = resolved | (np.abs(g) <= _RESIDUAL_TOL)
        out[idx[done]] = x[done]
        go = ~done
        if not np.any(go):
            out.setflags(write=False)
            return out, rounds
        idx, lo, hi, x, moved = idx[go], lo[go], hi[go], x[go], moved[go]
        step, mid = step[go], mid[go]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = (lo < step) & (step < hi) & (np.abs(np.log(step / x)) <= 0.5 * moved)
        step = np.where(newton, step, mid)
        moved, x = np.abs(np.log(step / x)), step
    raise ConvergenceError(
        f"quantile inversion did not converge in {_MAX_QUANTILE_ROUNDS} rounds"
    )


def cdf_gradients(x, theta: MixtureParams) -> np.ndarray:
    """Gradient of the mixture CDF with respect to all five parameters.

    With u_i = (x/beta_i)**alpha_i and weights p1 = p, p2 = 1 - p:

        dF/dalpha_i = p_i * u_i * log(x/beta_i) * exp(-u_i)
        dF/dbeta_i  = -p_i * (alpha_i/beta_i) * u_i * exp(-u_i)
        dF/dp       = exp(-u_2) - exp(-u_1)

    Accepts a scalar or an array of points x > 0; the last axis of the
    result runs over (alpha1, alpha2, beta1, beta2, p).
    """
    c = _Components(_as_positive(x), theta)
    # Both partials carry u * exp(-u) <= 1/e, formed first: scaling u by
    # log(x/beta) or alpha/beta before exp(-u) overflows for spiky shapes.
    with np.errstate(over="ignore", invalid="ignore"):
        su = np.exp(-c.u)
        usu = c.u * su
        # where u or exp(-u) is 0, usu is 0 or nan (u overflowed): both partials vanish
        kept = usu > 0.0
        da = c.w * np.where(kept, usu * c.lx, 0.0)
        db = c.w * np.where(kept, -(c.alpha / c.beta) * usu, 0.0)
    return np.stack([*da, *db, su[1] - su[0]], axis=-1)


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
