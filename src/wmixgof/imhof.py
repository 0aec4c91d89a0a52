"""Tail probability of a positively weighted sum of chi-square(1) variables.

Implements Imhof's (1961) characteristic-function inversion for
S = sum_j lambda_j Z_j**2 with independent standard normal Z_j,
specialized to one degree of freedom and zero noncentrality:

    P(S > x) = 1/2 + (1/pi) * Int_0^inf sin(theta(u)) / (u * rho(u)) du
    theta(u) = 0.5 * sum_j arctan(lambda_j * u) - 0.5 * x * u
    rho(u)   = prod_j (1 + lambda_j**2 * u**2) ** 0.25

The integral is truncated where a rigorous remainder bound drops below
half the tolerance and evaluated by adaptive Simpson quadrature over
batches of panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure

__all__ = ["WeightedChiSquare", "imhof_tail"]

# Batched integrand evaluations are chunked so lambda-by-node work arrays
# stay within a few tens of megabytes.
_CHUNK_BUDGET = 4_000_000
_MAX_NODES = 6_000_000
_MAX_ROUNDS = 64


@dataclass(frozen=True, eq=False)
class WeightedChiSquare:
    """Weights of independent chi-square(1) terms, sorted descending."""

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        lam = np.sort(np.asarray(self.lambdas, dtype=float).ravel())[::-1].copy()
        if lam.size == 0:
            raise DomainError("need at least one weight")
        if not np.all(np.isfinite(lam)) or lam[-1] <= 0.0:
            raise DomainError("weights must be strictly positive and finite")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


def imhof_tail(dist: WeightedChiSquare, x: float, tol: float = 1e-6) -> float:
    """P(sum_j lambda_j chi2_1 > x), clamped to [0, 1].

    The truncation point and the quadrature each receive half of ``tol``.
    Raises QuadratureFailure if the panel budget is exhausted first.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError("x must be strictly positive and finite")
    if not tol > 0.0:
        raise DomainError("tol must be positive")

    # The tail probability is invariant under joint rescaling of the
    # weights and x; normalizing by the largest weight keeps the truncation
    # point well scaled even for tiny spectra.
    scale = float(dist.lambdas[0])
    lam = dist.lambdas / scale
    xs = x / scale

    half = 0.5 * tol
    upper = _truncation_point(lam, xs, half)
    integral = _integrate(lam, xs, upper, half * math.pi)
    return float(min(max(0.5 + integral / math.pi, 0.0), 1.0))


def _log_rho(lam: np.ndarray, u: float) -> float:
    return 0.25 * float(np.sum(np.log1p((lam * u) ** 2)))


def _truncation_point(lam: np.ndarray, x: float, bound: float) -> float:
    """Smallest convenient U with remainder of the inversion integral <= bound.

    Two rigorous bounds are combined. The modulus bound uses
    (1 + a**2)**0.25 >= sqrt(a) on any prefix of the descending weights:

        (1/pi) * Int_U^inf du / (u * rho(u))
            <= (2 / (pi * r)) * U**(-r/2) / prod_{j<=r} sqrt(lambda_j).

    For few weights that U explodes, so a cancellation bound is used as
    well: beyond u* = sqrt(2 * sum(1/lambda) / x) the phase derivative
    stays below -x/4, the integrand alternates over half-periods with
    decreasing weight, and the remainder is at most one half-period:

        remainder <= (1/pi) * (pi / (x/4)) / (U * rho(U)) = 4 / (x * U * rho(U)).
    """
    r = np.arange(1.0, lam.size + 1.0)
    csum = np.cumsum(np.log(lam))
    log_u = (2.0 / r) * (math.log(2.0 / math.pi) - np.log(r) - math.log(bound) - 0.5 * csum)
    u_modulus = float(np.exp(np.min(log_u)))

    u_star = 2.0 * math.sqrt(float(np.sum(1.0 / lam)) / x)
    u_osc = max(u_star, 1.0)
    # on the log scale: for a small x, u_star is large and rho(u_star)
    # overflows a double
    log_target = math.log(4.0 / (x * bound))
    for _ in range(200):
        if math.log(u_osc) + _log_rho(lam, u_osc) >= log_target or u_osc >= u_modulus:
            break
        u_osc *= 2.0
    return min(u_modulus, u_osc)


def _integrand_factory(lam: np.ndarray, x: float):
    lam_sum = float(np.sum(lam))
    k = lam.size

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        small = u < 1e-8
        out[small] = 0.5 * (lam_sum - x)  # removable singularity at u = 0
        big = u[~small]
        vals = np.empty_like(big)
        step = max(1, _CHUNK_BUDGET // max(k, 1))
        with np.errstate(over="ignore"):  # exp(log_rho) -> inf just flushes to 0
            for start in range(0, big.size, step):
                ub = big[start : start + step]
                a = lam[:, None] * ub[None, :]
                theta = 0.5 * np.sum(np.arctan(a), axis=0) - 0.5 * x * ub
                log_rho = 0.25 * np.sum(np.log1p(a * a), axis=0)
                vals[start : start + step] = np.sin(theta) / (ub * np.exp(log_rho))
        out[~small] = vals
        return out

    return integrand


def _integrate(lam: np.ndarray, x: float, upper: float, tol: float) -> float:
    """Adaptive Simpson on [0, upper], panels refined in vectorized batches.

    Initial panels track the oscillation of the integrand (phase rate is at
    most (sum(lambda) + x) / 2); each panel is accepted when the standard
    |S2 - S1| / 15 estimate fits its proportional share of ``tol``.
    """
    f = _integrand_factory(lam, x)
    phase = 0.5 * (float(np.sum(lam)) + x) * upper
    n0 = int(min(max(32, math.ceil(phase / math.pi) + 8), 1 << 17))

    edges = np.linspace(0.0, upper, 2 * n0 + 1)
    fx = f(edges)
    a, m, b = edges[0:-1:2], edges[1::2], edges[2::2]
    fa, fm, fb = fx[0:-1:2], fx[1::2], fx[2::2]
    s1 = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    result = 0.0
    nodes = edges.size
    for _ in range(_MAX_ROUNDS):
        if a.size == 0:
            return result
        am = 0.5 * (a + m)
        mb = 0.5 * (m + b)
        fam = f(am)
        fmb = f(mb)
        nodes += 2 * am.size
        left = (m - a) / 6.0 * (fa + 4.0 * fam + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * fmb + fb)
        s2 = left + right
        err = (s2 - s1) / 15.0
        ok = np.abs(err) <= tol * (b - a) / upper
        result += float(np.sum(s2[ok] + err[ok]))
        keep = ~ok
        if not np.any(keep):
            return result
        if nodes > _MAX_NODES:
            raise QuadratureFailure(
                f"node budget exhausted with {int(np.sum(keep))} panels above tolerance"
            )
        a, fa = np.concatenate([a[keep], m[keep]]), np.concatenate([fa[keep], fm[keep]])
        b, fb = np.concatenate([m[keep], b[keep]]), np.concatenate([fm[keep], fb[keep]])
        m, fm = np.concatenate([am[keep], mb[keep]]), np.concatenate([fam[keep], fmb[keep]])
        s1 = np.concatenate([left[keep], right[keep]])
    raise QuadratureFailure("panel refinement did not converge")
