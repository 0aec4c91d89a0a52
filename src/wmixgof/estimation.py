"""Maximum-likelihood estimation of the two-component Weibull mixture.

Likelihood surfaces of Weibull mixtures are flat over wide regions and
often multimodal, so the fitter runs several deterministic and seeded
starting points. Each start alternates an EM update of the mixing
proportion with L-BFGS-B steps on the log shapes and scales, then
polishes all five parameters jointly; positivity is enforced by working
in log coordinates with the mixing proportion on a logistic scale.

The starts run in lockstep. L-BFGS-B is driven through scipy's
reverse-communication routine ``setulb``, so each start is a generator
that yields the parameter vector it needs evaluated next. The fitter
gathers the pending vectors of all unfinished starts into one
(starts x n) array, computes log-likelihood, score and mean
responsibility for every row in one pass, and sends each start its row.
A row's values do not depend on the other rows, and the driver repeats
``scipy.optimize.minimize(method="L-BFGS-B")`` step for step, so every
start takes exactly the iterates it would take on its own.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np
from scipy.optimize._lbfgsb import setulb
from scipy.special import expit, gammaln, logit

from .errors import AllStartsFailed, DomainError, NonFiniteHessian, TooFewObservations
from .mixture_model import MixtureParams, Sample

__all__ = ["FitConfig", "FitResult", "log_likelihood", "fit_mle", "hessian_at"]

# Mixing proportions this close to {0, 1} disqualify a start: the
# composite-hypothesis kernel needs an interior, regular optimum.
_P_ADMISSIBLE = (0.001, 0.999)
# Looser band that merely flags a near-degenerate mixture in diagnostics.
_P_FLAG = (0.05, 0.95)
# Box for log shapes/scales and the logit proportion during optimization;
# wide enough for any plausible data scale, narrow enough to stop walks
# along flat likelihood ridges.
_ETA_BOUND = 12.0
_LOGIT_BOUND = 13.8
_BOX4 = np.full(4, _ETA_BOUND)
_BOX5 = np.array([_ETA_BOUND] * 4 + [_LOGIT_BOUND])
_EM_CYCLES = 4
_HUGE_NLL = 1e18
# L-BFGS-B settings of scipy.optimize.minimize that the driver reproduces:
# memory, line-search steps per iteration, evaluation budget.
_LBFGSB_M = 10
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the multi-start fitter.

    ``tolerance`` scales with the sample size: the fit counts as converged
    when the score max-norm is below tolerance * n.
    """

    n_starts: int = 10
    tolerance: float = 1e-6
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise DomainError("n_starts must be at least 1")
        if self.tolerance <= 0.0 or self.max_iterations < 1:
            raise DomainError("tolerance must be positive and max_iterations >= 1")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a multi-start maximum-likelihood fit.

    ``best_of_likelihoods`` lists the local optima of the admissible
    (interior) starts in start order; the reported ``log_likelihood`` is
    their maximum. Starts that ended on the mixing boundary are counted in
    ``n_boundary_starts`` instead. ``boundary_proximity`` flags a reported
    proportion outside [0.05, 0.95].
    """

    theta_hat: MixtureParams
    log_likelihood: float
    hessian: np.ndarray
    converged: bool
    n_starts_used: int
    best_of_likelihoods: list = field(default_factory=list)
    n_boundary_starts: int = 0
    boundary_proximity: bool = False


def _logaddexp2way(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Elementwise log(exp(t1) + exp(t2)), tolerating -inf in both slots."""
    hi = np.maximum(t1, t2)
    with np.errstate(invalid="ignore"):
        out = hi + np.log1p(np.exp(-np.abs(t1 - t2)))
    return np.where(np.isfinite(hi), out, hi)


def _masked_dot(w: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Row sums of w * factor, treating w == 0 terms as exactly zero.

    Where a component density underflows the factor can be infinite while
    the weight is exactly zero; those terms contribute nothing. Rows with
    such terms are summed over their positive weights only, so each row
    sum is the one its positive terms alone would give.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        prod = w * factor
        out = np.sum(prod, axis=1)
        positive = w > 0.0
        for i in np.flatnonzero(~np.all(positive, axis=1)):
            out[i] = np.sum(prod[i, positive[i]])
    return out


def _evaluate(x: np.ndarray, thetas: np.ndarray) -> tuple:
    """Log-likelihood, score and mean responsibility at each parameter row.

    ``thetas`` is a (k, 5) array of rows (a1, a2, b1, b2, p). Returns the
    total log-likelihood per row (-inf where it is not finite), the (k, 5)
    gradient of the total log-likelihood with respect to (a1, a2, b1, b2, p),
    and the mean first-component responsibility per row. Per-row scalar
    logs are taken with ``math`` and every reduction runs along a row, so a
    row's values do not depend on the other rows.
    """
    a1, a2, b1, b2 = (thetas[:, j : j + 1] for j in range(4))
    c1, c2, lp, lq = np.array(
        [
            (
                math.log(ra1 / rb1),
                math.log(ra2 / rb2),
                math.log(rp) if rp > 0.0 else -math.inf,
                math.log1p(-rp) if rp < 1.0 else -math.inf,
            )
            for ra1, ra2, rb1, rb2, rp in thetas.tolist()
        ]
    ).T[:, :, None]
    l1 = np.log(x / b1)
    l2 = np.log(x / b2)
    with np.errstate(over="ignore"):
        u1 = np.exp(a1 * l1)
        u2 = np.exp(a2 * l2)
    lf1 = c1 + (a1 - 1.0) * l1 - u1
    lf2 = c2 + (a2 - 1.0) * l2 - u2
    t1 = lp + lf1
    t2 = lq + lf2
    lse = _logaddexp2way(t1, t2)
    ll = np.sum(lse, axis=1)
    ll[~np.isfinite(ll)] = -math.inf

    with np.errstate(invalid="ignore"):
        w1 = np.exp(t1 - lse)  # responsibilities p*f1/f and (1-p)*f2/f
        w2 = np.exp(t2 - lse)
        r1 = np.exp(lf1 - lse)  # density ratios f1/f and f2/f
        r2 = np.exp(lf2 - lse)
    resp = np.mean(np.where(np.isfinite(w1), w1, 0.5), axis=1)
    w1 = np.where(np.isfinite(w1), w1, 0.0)
    w2 = np.where(np.isfinite(w2), w2, 0.0)
    r1 = np.where(np.isfinite(r1), r1, 0.0)
    r2 = np.where(np.isfinite(r2), r2, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        ta1 = 1.0 / a1 + l1 * (1.0 - u1)
        tb1 = (a1 / b1) * (u1 - 1.0)
        ta2 = 1.0 / a2 + l2 * (1.0 - u2)
        tb2 = (a2 / b2) * (u2 - 1.0)
    score = np.empty((thetas.shape[0], 5))
    score[:, 0] = _masked_dot(w1, ta1)
    score[:, 1] = _masked_dot(w2, ta2)
    score[:, 2] = _masked_dot(w1, tb1)
    score[:, 3] = _masked_dot(w2, tb2)
    score[:, 4] = np.sum(r1 - r2, axis=1)
    return ll, score, resp


def log_likelihood(theta: MixtureParams, sample: Sample) -> float:
    """Total log-likelihood of the sample, safeguarded against underflow.

    Per-point densities are assembled on the log scale (log-sum-exp over
    the two components); if a point's density still underflows to zero the
    function returns -inf rather than raising.
    """
    return float(_evaluate(sample.values, theta.as_array()[None, :])[0][0])


def _to_eta(th: np.ndarray) -> np.ndarray:
    eta = np.empty(5)
    eta[:4] = np.log(th[:4])
    eta[4] = logit(min(max(th[4], 1e-6), 1.0 - 1e-6))
    return np.clip(eta, -_BOX5, _BOX5)


def _from_eta(eta: np.ndarray) -> np.ndarray:
    th = np.empty(5)
    th[:4] = np.exp(eta[:4])
    th[4] = float(expit(eta[4]))
    return th


def _nll_eta(eta: np.ndarray):
    """Negative log-likelihood and gradient in the five eta coordinates.

    A generator: yields the parameter row to evaluate, receives
    (log-likelihood, score, responsibility mean) and returns (f, gradient).
    """
    th = _from_eta(eta)
    ll, score, _ = yield th
    if not math.isfinite(ll):
        return _HUGE_NLL, np.zeros(5)
    jac = np.concatenate([th[:4], [th[4] * (1.0 - th[4])]])
    return -ll, -score * jac


def _nll_eta4(eta4: np.ndarray, p: float):
    """As _nll_eta over the log shapes and scales, with p held fixed."""
    th = np.concatenate([np.exp(eta4), [p]])
    ll, score, _ = yield th
    if not math.isfinite(ll):
        return _HUGE_NLL, np.zeros(4)
    # Far out on a flat ridge the score times the parameter can overflow;
    # the infinite gradient is what L-BFGS-B is meant to see there.
    with np.errstate(over="ignore"):
        return -ll, -(score[:4] * th[:4])


def _lbfgsb(
    objective, x0: np.ndarray, box: np.ndarray, maxiter: int, ftol: float, gtol: float = 1e-5
):
    """Minimize over the box |x_i| <= box_i with L-BFGS-B, as a generator.

    Repeats the loop of scipy 1.17's ``minimize(method="L-BFGS-B")`` around
    ``setulb`` with its defaults (m=10, maxls=20, maxfun=15000): x0 is
    clipped to the box, a point equal to the last evaluated one is not
    evaluated again, and the run stops once the iteration count reaches
    ``maxiter``. Each evaluation is delegated to the generator
    ``objective(x)``. Returns (x, f) as minimize reports them.
    """
    n = x0.size
    m = _LBFGSB_M
    lower, upper = -box, box
    x = np.array(np.clip(x0, lower, upper), dtype=np.float64)
    nbd = np.full(n, 2, dtype=np.int32)
    f = 0.0
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = ftol / np.finfo(float).eps
    x_eval = None
    n_evaluations = 0
    n_iterations = 0
    while True:
        g = g.astype(np.float64)
        setulb(
            m, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
            _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:  # FG: evaluate f and g at x
            if x_eval is None or not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f_eval, g_eval = yield from objective(x_eval)
                n_evaluations += 1
            f, g = f_eval, g_eval
        elif task[0] == 1:  # NEW_X: an iteration finished
            n_iterations += 1
            if n_iterations >= maxiter:
                task[0], task[1] = 5, 504
            elif n_evaluations > _LBFGSB_MAXFUN:
                task[0], task[1] = 5, 502
        else:
            return x, f


def _fit_start(theta0: np.ndarray, max_iterations: int):
    """One start's schedule, as a generator over parameter rows to evaluate.

    Up to four EM cycles (mean responsibility for p, then L-BFGS-B on the
    four log shapes and scales), then L-BFGS-B on all five coordinates.
    Receives (log-likelihood, score, responsibility mean) for each row it
    yields; returns the final (theta, log-likelihood).
    """
    eta = _to_eta(theta0)
    ll_prev = -math.inf
    for _ in range(_EM_CYCLES):
        _, _, resp = yield _from_eta(eta)
        p_new = min(max(resp, 1e-6), 1.0 - 1e-6)
        eta[4] = float(logit(p_new))
        eta[:4], nll = yield from _lbfgsb(
            partial(_nll_eta4, p=p_new), eta[:4], _BOX4, maxiter=25, ftol=1e-12
        )
        ll = -float(nll)
        if ll - ll_prev <= 1e-9 * (1.0 + abs(ll)):
            break
        ll_prev = ll
    eta, nll = yield from _lbfgsb(
        _nll_eta, eta, _BOX5, maxiter=max_iterations, ftol=1e-13, gtol=1e-9
    )
    return _from_eta(eta), -float(nll)


def _optimize_starts(x: np.ndarray, starts: list, config: FitConfig) -> list:
    """Run every start to its local optimum in lockstep: (theta, ll) per start.

    Each round evaluates the rows that all unfinished starts are waiting on
    as one batch and sends each start its own row.
    """
    runs = [_fit_start(theta0, config.max_iterations) for theta0 in starts]
    results = [None] * len(runs)
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        order = list(pending)
        ll, score, resp = _evaluate(x, np.array([pending[i] for i in order]))
        for i, ll_i, score_i, resp_i in zip(order, ll.tolist(), score, resp.tolist()):
            try:
                pending[i] = runs[i].send((ll_i, score_i, resp_i))
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


@contextmanager
def _one_scipy_blas_thread():
    """Hold scipy's bundled OpenBLAS at one thread, then restore its count.

    ``setulb`` calls BLAS on vectors of four or five entries, yet scipy's
    OpenBLAS hands them to its thread pool, and the pool's threads go on
    spinning after the fit and slow whatever runs next. The iterates do
    not depend on the thread count. Where scipy has no bundled OpenBLAS
    this does nothing.
    """
    threads = _scipy_openblas_threads()
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@cache
def _scipy_openblas_threads():
    """(get, set) thread-count functions of scipy's bundled OpenBLAS, or None."""
    import ctypes
    import os

    import scipy

    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    try:
        names = [n for n in os.listdir(libs) if n.startswith("libscipy_openblas")]
    except OSError:
        return None
    if len(names) != 1:
        return None
    lib = ctypes.CDLL(os.path.join(libs, names[0]))
    try:
        get_threads, set_threads = (
            lib.scipy_openblas_get_num_threads,
            lib.scipy_openblas_set_num_threads,
        )
    except AttributeError:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def _moment_weibull(x: np.ndarray) -> tuple:
    """Rough single-Weibull shape/scale from the first two moments."""
    m = float(np.mean(x))
    s = float(np.std(x))
    if s <= 0.0:
        alpha = 20.0
    else:
        alpha = float(np.clip((s / m) ** -1.086, 0.15, 60.0))
    beta = m / math.exp(gammaln(1.0 + 1.0 / alpha))
    return alpha, beta


def _starting_points(x: np.ndarray, config: FitConfig) -> list:
    n = x.size
    starts = []
    for q in (0.3, 0.5, 0.7):
        k = min(max(int(round(q * n)), 2), n - 2)
        a_lo, b_lo = _moment_weibull(x[:k])
        a_hi, b_hi = _moment_weibull(x[k:])
        starts.append(np.array([a_lo, a_hi, b_lo, b_hi, q]))
    a, b = _moment_weibull(x)
    starts.append(np.array([a, 1.5 * a, 0.75 * b, 1.25 * b, 0.5]))
    rng = np.random.default_rng(config.seed)
    while len(starts) < config.n_starts:
        base = starts[len(starts) % 4]
        jitter = np.exp(rng.normal(0.0, 0.35, size=4))
        pj = float(np.clip(base[4] + rng.normal(0.0, 0.15), 0.05, 0.95))
        starts.append(np.concatenate([base[:4] * jitter, [pj]]))
    return starts[: config.n_starts]


def fit_mle(sample: Sample, config: FitConfig | None = None) -> FitResult:
    """Best interior local maximum of the likelihood over all starts.

    Raises TooFewObservations below 20 points and AllStartsFailed when
    every start diverged or finished with the mixing proportion outside
    [0.001, 0.999]. Deterministic for a fixed (sample, config) pair.
    """
    config = config or FitConfig()
    if sample.n < 20:
        raise TooFewObservations(
            f"need at least 20 observations for a five-parameter fit, got {sample.n}"
        )
    x = sample.values
    starts = _starting_points(x, config)
    admissible = []
    n_boundary = 0
    with _one_scipy_blas_thread():
        optima = _optimize_starts(x, starts, config)
    for th, ll in optima:
        if not math.isfinite(ll):
            n_boundary += 1
            continue
        if _P_ADMISSIBLE[0] <= th[4] <= _P_ADMISSIBLE[1]:
            admissible.append((th, ll))
        else:
            n_boundary += 1
    if not admissible:
        raise AllStartsFailed(
            f"all {len(starts)} starts diverged or ended on the mixing boundary"
        )
    th_best, ll_best = max(admissible, key=lambda item: item[1])
    theta_hat = MixtureParams.from_array(th_best)
    grad = _evaluate(x, theta_hat.as_array()[None, :])[1][0]
    converged = bool(np.max(np.abs(grad)) < config.tolerance * sample.n)
    hess = hessian_at(theta_hat, sample)
    return FitResult(
        theta_hat=theta_hat,
        log_likelihood=ll_best,
        hessian=hess,
        converged=converged,
        n_starts_used=len(starts),
        best_of_likelihoods=[ll for _, ll in admissible],
        n_boundary_starts=n_boundary,
        boundary_proximity=not (_P_FLAG[0] <= theta_hat.p <= _P_FLAG[1]),
    )


def hessian_at(theta: MixtureParams, sample: Sample) -> np.ndarray:
    """Hessian of the total log-likelihood at theta.

    Central finite differences of the analytic score, step
    h_j = max(1e-5, 1e-5 * |theta_j|) per coordinate (shrunk if needed to
    stay inside the parameter space), symmetrized. The ten shifted
    parameter rows are evaluated as one batch.
    """
    if not 0.0 < theta.p < 1.0:
        raise DomainError("Hessian requires an interior mixing proportion")
    th = theta.as_array()
    h = np.maximum(1e-5, 1e-5 * np.abs(th))
    h[:4] = np.minimum(h[:4], 0.49 * th[:4])
    h[4] = min(h[4], 0.49 * min(theta.p, 1.0 - theta.p))
    rows = np.repeat(th[None, :], 10, axis=0)
    for j in range(5):
        rows[2 * j, j] += h[j]
        rows[2 * j + 1, j] -= h[j]
    score = _evaluate(sample.values, rows)[1]
    hess = (score[0::2] - score[1::2]).T / (2.0 * h)
    if not np.all(np.isfinite(hess)):
        raise NonFiniteHessian("a second-derivative entry is not finite")
    return 0.5 * (hess + hess.T)
