"""Maximum-likelihood estimation of the two-component Weibull mixture.

Likelihood surfaces of Weibull mixtures are flat over wide regions and
often multimodal, so the fitter runs several deterministic and seeded
starting points. Each start alternates an EM update of the mixing
proportion with L-BFGS-B steps on the log shapes and scales, then
polishes all five parameters jointly; positivity is enforced by working
in log coordinates with the mixing proportion on a logistic scale.

The starts run in lockstep. L-BFGS-B is driven through scipy's
reverse-communication routine ``setulb``, so each start is a generator
that yields the parameter row it needs evaluated next. Each round
evaluates the pending rows of all unfinished starts in one (starts x n)
pass, forms every row's objective and gradient from its log-likelihood
and score at once, and sends each start its own.
The pass starts from log x, taken once for all rounds, and costs four
transcendentals per point and row: (x/b)^a for each component, then one
exp and one log1p. A row's values do not depend on the other rows, and
the lockstep loop repeats ``scipy.optimize.minimize(method="L-BFGS-B")``
step for step, so every start takes exactly the iterates it would take on
its own.

The special functions the fitter needs beside ``setulb`` come from
``math``: the logistic function and its inverse for the mixing proportion,
and ``lgamma`` for the moment starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .errors import AllStartsFailed, DomainError, NonFiniteHessian, TooFewObservations
from .mixture_model import MixtureParams, Sample

__all__ = ["FitConfig", "FitResult", "fit_mle", "hessian_at"]


def _expit(t: float) -> float:
    """Logistic function; equal to scipy.special.expit bit for bit on the logit box."""
    return 1.0 / (1.0 + math.exp(-t))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


# Mixing proportions this close to {0, 1} disqualify a start: the
# composite-hypothesis kernel needs an interior, regular optimum.
_P_ADMISSIBLE = (0.001, 0.999)
# Looser band that merely flags a near-degenerate mixture in diagnostics.
_P_FLAG = (0.05, 0.95)
# A fitted shape above this flags a spike: a component squeezed onto a few
# nearly equal observations.
_SPIKE_SHAPE = 20.0
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
        if not 0.0 < self.tolerance < math.inf or self.max_iterations < 1:
            raise DomainError("tolerance must be positive and finite and max_iterations >= 1")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a multi-start maximum-likelihood fit.

    ``best_of_likelihoods`` lists the local optima of the admissible
    (interior) starts in start order; the reported ``log_likelihood`` is
    their maximum. Starts that failed, on the mixing boundary or at the
    objective's sentinel (a non-finite log-likelihood), are counted in
    ``n_boundary_starts`` instead. ``boundary_proximity`` flags a reported
    proportion outside [0.05, 0.95]. ``n_rounds`` counts the lockstep
    evaluation rounds of all starts and ``n_evaluations`` the parameter rows
    they evaluated.
    """

    theta_hat: MixtureParams
    log_likelihood: float
    hessian: np.ndarray
    converged: bool
    n_starts_used: int
    best_of_likelihoods: list = field(default_factory=list)
    n_boundary_starts: int = 0
    boundary_proximity: bool = False
    n_rounds: int = 0
    n_evaluations: int = 0

    @property
    def spike(self) -> bool:
        """Whether a fitted shape exceeds 20; it explains a result, never filters one."""
        return max(self.theta_hat.alpha1, self.theta_hat.alpha2) > _SPIKE_SHAPE


def _evaluate(logx: np.ndarray, thetas: np.ndarray) -> tuple:
    """Log-likelihood, score and mean responsibility at each parameter row.

    ``logx`` is the log of the sample in the fit's unit, and ``thetas`` a
    (k, 5) array of rows (a1, a2, b1, b2, p) with positive shapes and scales
    and p in (0, 1): the fitter's p is a logistic of a clipped logit, and
    ``_score_and_hessian`` rejects any other. Returns the total
    log-likelihood per row (-inf where it is not finite), the (k, 5)
    gradient of the total log-likelihood with respect to (a1, a2, b1, b2,
    p), and the mean first-component responsibility per row.

    A point costs four transcendentals. With lx = log x - log b and
    u = exp(a lx) per component, the terms t_c = log p_c + log f_c give
    e = exp(-|t1 - t2|) and log f = max(t1, t2) + log1p(e). The weights
    p_c f_c / f are 1/(1 + e) and e/(1 + e), by the sign of t1 - t2, and the
    ratios f_c / f are w_c / p_c, so the p score is one weighted sum of the
    weights. Where t1 and t2 are both -inf the weights are nan: such a point
    counts 0 in the score and 0.5 in the responsibility. The shape and scale
    scores sum the weights times 1/a + lx (1 - u) and (a/b)(u - 1).

    Both components pass each elementwise step together, as (2, k, n)
    arrays. Per-row scalars are taken with ``math`` and every reduction runs
    along a contiguous row, so a row's values do not depend on the other
    rows. These arrays are planes of one (10, k, n) block, allocated once
    per call: with a fresh array per step, the allocator returned the pages
    and faulted them in again on every round, which cost about a third of a
    fit at n=1000.
    """
    k, n = thetas.shape[0], logx.size
    columns = [
        (
            math.log(b1), math.log(b2), a1, a2, a1 - 1.0, a2 - 1.0,
            math.log(a1 / b1), math.log(a2 / b2), math.log(p), math.log1p(-p),
            1.0 / a1, 1.0 / a2, -a1 / b1, -a2 / b2, 1.0 / p, -1.0 / (1.0 - p),
        )
        for a1, a2, b1, b2, p in thetas.tolist()
    ]
    # per component and row: log b, a, a - 1, log(a/b), log p_c, 1/a, -a/b
    # and the p-score coefficient +-1/p_c
    log_b, a, a_1, log_ab, log_p, inv_a, neg_ab, p_coef = np.array(columns).T.reshape(8, 2, k, 1)
    planes = np.empty((10, k, n))
    lx, u, t, w = planes[0:2], planes[2:4], planes[4:6], planes[6:8]
    lse, e = planes[8], planes[9]
    score = np.empty((5, k))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(logx, log_b, out=lx)
        np.multiply(a, lx, out=u)
        np.exp(u, out=u)
        np.multiply(a_1, lx, out=t)
        t += log_ab
        t -= u
        t += log_p
        t1, t2 = t
        first = t1 >= t2
        np.maximum(t1, t2, out=lse)
        # min - max is -|t1 - t2| exactly, and nan where both are -inf
        np.minimum(t1, t2, out=e)
        e -= lse
        np.exp(e, out=e)
        lse += np.log1p(e, out=t1)
        ll = lse.sum(axis=1)
        # the weight pair (1/(1 + e), e/(1 + e)), in t's planes
        np.add(1.0, e, out=t1)
        np.divide(1.0, t1, out=t1)
        np.multiply(e, t1, out=t2)
        np.copyto(w, t[::-1])
        np.copyto(w, t, where=first)
        resp = w[0].sum(axis=1)
        not_finite = ~np.isfinite(ll)
        if not_finite.any():
            # nan weights arise only where log f is nan
            for i in np.flatnonzero(not_finite):
                nan = np.isnan(w[0, i])
                resp[i] = np.where(nan, 0.5, w[0, i]).sum()
                w[:, i, nan] = 0.0
            ll[not_finite] = -math.inf
        np.einsum("ckn,ck->k", w, p_coef[..., 0], out=score[4])
        # the score factors 1/a + lx (1 - u) and (a/b)(u - 1), in place
        np.subtract(1.0, u, out=u)
        lx *= u
        lx += inv_a
        u *= neg_ab
        sums = score[:4].reshape(2, 2, k)
        factors = planes[0:4].reshape(2, 2, k, n)
        np.einsum("ckn,fckn->fck", w, factors, out=sums)
        # Where a density underflows, the weight is exactly 0 while its
        # factor can be infinite: such sums count the positive-weight terms.
        for f, c, i in zip(*np.nonzero(~np.isfinite(sums))):
            keep = w[c, i] > 0.0
            sums[f, c, i] = np.einsum("n,n->", w[c, i, keep], factors[f, c, i, keep])
    return ll, score.T, resp / n


def _to_eta(th: np.ndarray) -> np.ndarray:
    eta = np.empty(5)
    eta[:4] = np.log(th[:4])
    eta[4] = _logit(min(max(th[4], 1e-6), 1.0 - 1e-6))
    return np.clip(eta, -_BOX5, _BOX5)


def _from_eta(eta: np.ndarray, p: float | None = None) -> np.ndarray:
    """The parameter row at eta, or at the log shapes and scales eta[:4] with p given."""
    th = np.empty(5)
    np.exp(eta[:4], out=th[:4])
    th[4] = _expit(eta[4]) if p is None else p
    return th


def _lbfgsb(
    x0: np.ndarray, box: np.ndarray, maxiter: int, ftol: float, gtol: float = 1e-5, p=None
):
    """Minimize over the box |x_i| <= box_i with L-BFGS-B, as a generator.

    Repeats the loop of scipy 1.17's ``minimize(method="L-BFGS-B")`` around
    ``setulb`` with its defaults (m=10, maxls=20, maxfun=15000): x0 is
    clipped to the box, a point equal to the last evaluated one is not
    evaluated again, and the run stops once the iteration count reaches
    ``maxiter``. Each point x is yielded as its parameter row
    ``_from_eta(x, p)``, with p held fixed when given, and the generator
    receives that row's (f, g, responsibility mean), of which it uses
    g[:x0.size]. Returns (x, f) as minimize reports them.
    """
    setulb = _native.setulb()
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
        setulb(
            m, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
            _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:  # FG: evaluate f and g at x
            # Lists compare as np.array_equal does: -0.0 equals 0.0, NaN
            # equals nothing.
            if x.tolist() != x_eval:
                x_eval = x.tolist()
                f_eval, g_eval, _ = yield _from_eta(x, p)
                n_evaluations += 1
            f, g = f_eval, g_eval[:n]
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
    Receives (f, g, responsibility mean) for each row it yields, as
    ``_optimize_starts`` forms them; returns the final (theta, log-likelihood).
    """
    eta = _to_eta(theta0)
    ll_prev = -math.inf
    for _ in range(_EM_CYCLES):
        _, _, resp = yield _from_eta(eta)
        p_new = min(max(resp, 1e-6), 1.0 - 1e-6)
        eta[4] = _logit(p_new)
        eta[:4], nll = yield from _lbfgsb(eta[:4], _BOX4, maxiter=25, ftol=1e-12, p=p_new)
        ll = -float(nll)
        if ll - ll_prev <= 1e-9 * (1.0 + abs(ll)):
            break
        ll_prev = ll
    eta, nll = yield from _lbfgsb(eta, _BOX5, maxiter=max_iterations, ftol=1e-13, gtol=1e-9)
    return _from_eta(eta), -float(nll)


def _optimize_starts(logx: np.ndarray, starts: list, config: FitConfig) -> tuple:
    """Run every start to its local optimum in lockstep.

    Each round evaluates the rows that all unfinished starts are waiting on
    as one batch and forms every row's objective f = -ll and gradient
    g = -score * (a1, a2, b1, b2, p (1 - p)) in eta coordinates at once,
    with (1e18, 0) where ll is not finite. Each start is sent its own
    (f, g, responsibility mean). Returns the (theta, ll) of each start, the
    number of rounds and the number of rows evaluated.
    """
    runs = [_fit_start(theta0, config.max_iterations) for theta0 in starts]
    results = [None] * len(runs)
    n_rounds = n_evaluations = 0
    # Far out on a flat ridge the score times the parameter can overflow;
    # the infinite gradient is what L-BFGS-B is meant to see there.
    with np.errstate(over="ignore"):
        pending = {i: next(run) for i, run in enumerate(runs)}
        while pending:
            order = list(pending)
            n_rounds += 1
            n_evaluations += len(order)
            thetas = np.array([pending[i] for i in order])
            ll, score, resp = _evaluate(logx, thetas)
            # d theta / d eta: the shapes and scales, and p (1 - p)
            thetas[:, 4] *= 1.0 - thetas[:, 4]
            g = np.multiply(-score, thetas, order="C")
            finite = np.isfinite(ll)
            g[~finite] = 0.0
            f = np.where(finite, -ll, _HUGE_NLL)
            for i, f_i, g_i, resp_i in zip(order, f.tolist(), g, resp.tolist()):
                try:
                    pending[i] = runs[i].send((f_i, g_i, resp_i))
                except StopIteration as done:
                    results[i] = done.value
                    del pending[i]
    return results, n_rounds, n_evaluations


def _moment_weibull(x: np.ndarray) -> tuple:
    """Rough single-Weibull shape/scale from the first two moments."""
    m = float(np.mean(x))
    s = float(np.std(x))
    if s <= 0.0:
        alpha = 20.0
    else:
        alpha = float(np.clip((s / m) ** -1.086, 0.15, 60.0))
    beta = m / math.exp(math.lgamma(1.0 + 1.0 / alpha))
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
    every start was left at the objective's sentinel (a non-finite
    log-likelihood) or finished with the mixing proportion outside
    [0.001, 0.999]. Deterministic for a fixed (sample, config) pair. The
    fit runs on the sample divided by ``_unit(sample)``, and ``hessian`` is
    ``hessian_at(theta_hat, sample)``.
    """
    config = config or FitConfig()
    if sample.n < 20:
        raise TooFewObservations(
            f"need at least 20 observations for a five-parameter fit, got {sample.n}"
        )
    unit = _unit(sample)
    x = sample.values / unit
    logx = np.log(x)
    starts = _starting_points(x, config)
    # setulb calls BLAS on vectors of four or five entries, yet scipy's
    # OpenBLAS hands them to its thread pool, whose threads go on spinning
    # after the fit and slow whatever runs next. The iterates do not depend
    # on the thread count.
    with _native.one_blas_thread("scipy"):
        optima, n_rounds, n_evaluations = _optimize_starts(logx, starts, config)
    # a start left where the log-likelihood is not finite reports -_HUGE_NLL
    admissible = [
        (th, ll)
        for th, ll in optima
        if ll > -_HUGE_NLL and _P_ADMISSIBLE[0] <= th[4] <= _P_ADMISSIBLE[1]
    ]
    if not admissible:
        raise AllStartsFailed(
            f"all {len(starts)} starts diverged or ended on the mixing boundary"
        )
    th_best, ll_best = max(admissible, key=lambda item: item[1])
    # Back to the data's unit: the scales by unit, each density by 1/unit.
    theta_hat = MixtureParams.from_array(th_best * [1.0, 1.0, unit, unit, 1.0])
    ll_shift = sample.n * math.log(unit)
    grad, hess = _score_and_hessian(theta_hat, logx, unit)
    converged = bool(np.max(np.abs(grad)) < config.tolerance * sample.n)
    return FitResult(
        theta_hat=theta_hat,
        log_likelihood=ll_best - ll_shift,
        hessian=hess,
        converged=converged,
        n_starts_used=len(starts),
        best_of_likelihoods=[ll - ll_shift for _, ll in admissible],
        n_boundary_starts=len(optima) - len(admissible),
        boundary_proximity=not (_P_FLAG[0] <= theta_hat.p <= _P_FLAG[1]),
        n_rounds=n_rounds,
        n_evaluations=n_evaluations,
    )


def _unit(sample: Sample) -> float:
    """The fit's unit: the power of two 256**k nearest the middle observation.

    The box on the log scales and the Hessian's step floor are not unit-free.
    """
    octets = round(math.log2(sample.values[sample.n // 2]) / 8)
    return math.ldexp(1.0, 8 * min(max(octets, -127), 127))


def hessian_at(theta: MixtureParams, sample: Sample) -> np.ndarray:
    """Hessian of the total log-likelihood at theta; at a fit's theta_hat, the fit's ``hessian``.

    Central differences of the analytic score in the fit's unit, step
    h_j = max(1e-5, 1e-5 * |theta_j|) per coordinate (shrunk if needed to
    stay inside the parameter space), symmetrized and mapped to the data's unit.
    """
    unit = _unit(sample)
    return _score_and_hessian(theta, np.log(sample.values / unit), unit)[1]


def _score_and_hessian(theta: MixtureParams, logx: np.ndarray, unit: float) -> tuple:
    """Score in the fit's unit, where ``fit_mle`` tests it, and ``hessian_at``'s Hessian.

    theta and its ten shifted rows are evaluated as one batch on ``logx``,
    the log of the sample divided by ``unit``, with theta's scales divided
    by ``unit``.
    """
    if not 0.0 < theta.p < 1.0:
        raise DomainError("Hessian requires an interior mixing proportion")
    per_unit = np.array([1.0, 1.0, 1.0 / unit, 1.0 / unit, 1.0])
    th = theta.as_array() * per_unit
    h = np.maximum(1e-5, 1e-5 * np.abs(th))
    h[:4] = np.minimum(h[:4], 0.49 * th[:4])
    h[4] = min(h[4], 0.49 * min(theta.p, 1.0 - theta.p))
    rows = np.repeat(th[None, :], 11, axis=0)
    for j in range(5):
        rows[2 * j + 1, j] += h[j]
        rows[2 * j + 2, j] -= h[j]
    score = _evaluate(logx, rows)[1]
    hess = (score[1::2] - score[2::2]).T / (2.0 * h)
    with np.errstate(over="ignore"):
        hess = per_unit[:, None] * (0.5 * (hess + hess.T)) * per_unit
    if not np.all(np.isfinite(hess)):
        raise NonFiniteHessian("a second-derivative entry is not finite")
    return score[0], hess
