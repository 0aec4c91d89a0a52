import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad
from scipy.optimize import minimize

from wmixgof import (
    AllStartsFailed,
    DomainError,
    FitConfig,
    MixtureParams,
    NonFiniteHessian,
    Sample,
    TooFewObservations,
    fit_mle,
    gof_test,
    hessian_at,
    sample_mixture,
)
import wmixgof._native as _native
import wmixgof.estimation as estimation
from wmixgof.mixture_model import invert_cdf, mixture_cdf, mixture_pdf
from wmixgof.simulation import _replication_seeds
from conftest import _fresh_interpreter_output, _outputs_under_blas_threads


def log_likelihood(theta, sample):
    """Total log-likelihood of the sample, as the fitter evaluates it (-inf on underflow)."""
    return float(estimation._evaluate(np.log(sample.values), theta.as_array()[None, :])[0][0])


def double_difference_hessian(theta, sample, rel_step=3e-4):
    """Hessian from second differences of the log-likelihood alone."""
    base = theta.as_array()
    h = rel_step * np.maximum(1.0, np.abs(base))
    h[4] = min(h[4], 0.49 * min(base[4], 1 - base[4]))

    def ll(arr):
        return log_likelihood(MixtureParams.from_array(arr), sample)

    out = np.empty((5, 5))
    f0 = ll(base)
    for j in range(5):
        for k in range(j, 5):
            if j == k:
                plus, minus = base.copy(), base.copy()
                plus[j] += h[j]
                minus[j] -= h[j]
                out[j, j] = (ll(plus) - 2 * f0 + ll(minus)) / h[j] ** 2
            else:
                pp, pm, mp, mm = (base.copy() for _ in range(4))
                pp[j] += h[j]
                pp[k] += h[k]
                pm[j] += h[j]
                pm[k] -= h[k]
                mp[j] -= h[j]
                mp[k] += h[k]
                mm[j] -= h[j]
                mm[k] -= h[k]
                out[j, k] = out[k, j] = (ll(pp) - ll(pm) - ll(mp) + ll(mm)) / (4 * h[j] * h[k])
    return out


class TestLogLikelihood:
    def test_unit_exponential_point(self):
        theta = MixtureParams(1, 1, 1, 1, 0.5)
        assert log_likelihood(theta, Sample([1.0])) == pytest.approx(-1.0, rel=1e-12)

    def test_single_weibull_at_scale(self):
        # equal components are one Weibull for any p; the likelihood takes
        # p in (0, 1) only, where the fitter keeps it
        beta = 2.5
        theta = MixtureParams(1, 1, beta, beta, 0.5)
        assert log_likelihood(theta, Sample([beta])) == pytest.approx(
            math.log(1 / beta) - 1, rel=1e-12
        )

    def test_matches_entropy_integral(self, populations):
        # quadrature oracle: E[log f] and Var[log f] under the model
        theta = populations[0].theta
        hi = float(invert_cdf(np.array([1 - 1e-10]), theta)[0][0])
        mean_lf, _ = quad(
            lambda x: mixture_pdf(x, theta) * math.log(mixture_pdf(x, theta)), 0, hi, limit=200
        )
        second, _ = quad(
            lambda x: mixture_pdf(x, theta) * math.log(mixture_pdf(x, theta)) ** 2,
            0,
            hi,
            limit=200,
        )
        sd = math.sqrt(second - mean_lf**2)
        n = 200
        sample = sample_mixture(theta, n, rng_seed=316)
        ll = log_likelihood(theta, sample)
        assert abs(ll - n * mean_lf) < 3 * math.sqrt(n) * sd

    def test_underflow_returns_sentinel(self):
        theta = MixtureParams(80, 80, 1e-3, 1e-3, 0.5)
        assert log_likelihood(theta, Sample([1e4])) == -math.inf

    def test_sums_over_observations(self, populations):
        theta = populations[1].theta
        sample = sample_mixture(theta, 30, rng_seed=3)
        total = sum(log_likelihood(theta, Sample([v])) for v in sample.values)
        assert log_likelihood(theta, sample) == pytest.approx(total, rel=1e-10)


class TestFitMle:
    def test_recovers_well_separated_truth(self, populations):
        truth = populations[4].theta
        sample = sample_mixture(truth, 1000, rng_seed=1002)
        fit = fit_mle(sample, FitConfig(seed=2))
        err = np.abs(fit.theta_hat.as_array() - truth.as_array())
        assert np.all(err < 0.15)
        assert fit.converged

    def test_deterministic(self, populations):
        sample = sample_mixture(populations[1].theta, 120, rng_seed=77)
        config = FitConfig(seed=5)
        a = fit_mle(sample, config)
        b = fit_mle(sample, config)
        assert a.theta_hat == b.theta_hat
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.hessian, b.hessian)
        assert a.best_of_likelihoods == b.best_of_likelihoods

    def test_degenerate_truth_flags_rather_than_fails(self):
        theta = MixtureParams(2, 2, 3, 3, 1.0)
        sample = sample_mixture(theta, 300, rng_seed=60)
        fit = fit_mle(sample, FitConfig(seed=6))
        grid = np.linspace(0.2, 8.0, 200)
        sup = np.max(np.abs(mixture_cdf(grid, fit.theta_hat) - mixture_cdf(grid, theta)))
        assert sup < 0.05
        p = fit.theta_hat.p
        assert fit.boundary_proximity == (p < 0.05 or p > 0.95)

    def test_reported_likelihood_dominates_all_local_optima(self, fitted_pop2):
        _, fit = fitted_pop2
        assert fit.best_of_likelihoods
        assert all(ll <= fit.log_likelihood + 1e-9 for ll in fit.best_of_likelihoods)

    def test_canonical_output(self, fitted_pop1):
        _, fit = fitted_pop1
        t = fit.theta_hat
        assert (t.beta1, t.alpha1) <= (t.beta2, t.alpha2)

    def test_converged_means_small_score(self, fitted_pop3):
        sample, fit = fitted_pop3
        if fit.converged:
            grad = estimation._evaluate(np.log(sample.values), fit.theta_hat.as_array()[None, :])[1][0]
            assert np.max(np.abs(grad)) < 1e-6 * sample.n

    def test_too_few_observations(self, populations):
        sample = sample_mixture(populations[0].theta, 19, rng_seed=1)
        with pytest.raises(TooFewObservations):
            fit_mle(sample)

    def test_all_starts_failed(self, populations, monkeypatch):
        def boundary_starts(x, starts, config):
            return [(np.array([1.0, 1.0, 1.0, 1.0, 1e-6]), -1.0) for _ in starts], 1, len(starts)

        monkeypatch.setattr(estimation, "_optimize_starts", boundary_starts)
        sample = sample_mixture(populations[0].theta, 50, rng_seed=2)
        with pytest.raises(AllStartsFailed):
            fit_mle(sample, FitConfig(n_starts=3))

    @staticmethod
    def _sentinel_start(sample):
        """A start whose row has a -inf log-likelihood in the fit's unit.

        Shapes 5000 and scales below every observation overflow (x/b)**a at
        every point: the objective reads its sentinel there with a zero
        gradient, so the start never leaves that point.
        """
        x = sample.values / estimation._unit(sample)
        dead = np.array([5000.0, 5000.0, 0.5 * x[0], 0.5 * x[0], 0.5])
        assert estimation._evaluate(np.log(x), dead[None, :])[0][0] == -math.inf
        return dead

    def test_a_start_left_at_the_sentinel_fails(self, populations, monkeypatch):
        sample = sample_mixture(populations[0].theta, 100, rng_seed=3)
        dead = self._sentinel_start(sample)
        monkeypatch.setattr(estimation, "_starting_points", lambda x, config: [dead])
        with pytest.raises(AllStartsFailed):
            fit_mle(sample)

    def test_a_start_left_at_the_sentinel_is_counted_not_kept(self, populations, monkeypatch):
        sample = sample_mixture(populations[0].theta, 100, rng_seed=3)
        config = FitConfig(n_starts=4, seed=3)
        dead = self._sentinel_start(sample)
        fit = fit_mle(sample, config)
        starting_points = estimation._starting_points
        monkeypatch.setattr(
            estimation, "_starting_points", lambda x, config: starting_points(x, config) + [dead]
        )
        with_dead = fit_mle(sample, config)
        assert with_dead.n_boundary_starts == fit.n_boundary_starts + 1
        assert with_dead.best_of_likelihoods == fit.best_of_likelihoods
        assert with_dead.theta_hat == fit.theta_hat

    @pytest.mark.parametrize(
        "factor, tol",
        [(f, 1e-6) for f in (1e-6, 1e-4, 1e3, 1e5, 1e6, 1e8)] + [(2.0**24, 1e-12), (2.0**-24, 1e-12)],
    )
    def test_p_value_does_not_depend_on_the_unit(self, populations, factor, tol):
        # The family is closed under scaling and W2 does not change under it.
        # Fitted in the data's unit, the sample times 1e5 gave a spike fit with
        # p = 6.8e-11, and times 1e6 or 1e8 raised; the log-scale box and the
        # Hessian's absolute step floor depend on the unit.
        sample = sample_mixture(populations[4].theta, 300, rng_seed=7)
        unit = gof_test(sample, 1, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = gof_test(Sample(sample.values * factor), 1, 200)
        assert abs(scaled.p_value - unit.p_value) <= tol
        if math.frexp(factor)[0] == 0.5:
            # a power-of-two unit leaves the fit exact up to the unit
            assert scaled.fit.theta_hat.as_array().tobytes() == (
                unit.fit.theta_hat.as_array() * [1.0, 1.0, factor, factor, 1.0]
            ).tobytes()
            assert scaled.fit.log_likelihood == unit.fit.log_likelihood - 300 * math.log(factor)
            d = np.array([1.0, 1.0, 1.0 / factor, 1.0 / factor, 1.0])
            assert scaled.fit.hessian.tobytes() == (d[:, None] * unit.fit.hessian * d).tobytes()

    def test_units_at_the_ends_of_the_float_range(self, populations):
        # A median above 2**1020 rounds to a scale of 2**1024, which is not
        # a float; at 1e-300 the Hessian overflows once mapped back.
        values = sample_mixture(populations[4].theta, 300, rng_seed=7).values
        fit = fit_mle(Sample(values * 5e306), FitConfig(seed=1))
        assert fit.theta_hat.beta2 > 1e306
        with pytest.raises(NonFiniteHessian):
            fit_mle(Sample(values * 1e-300), FitConfig(seed=1))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FitConfig(n_starts=0)
        with pytest.raises(DomainError):
            FitConfig(tolerance=0.0)
        with pytest.raises(DomainError):
            FitConfig(tolerance=math.nan)
        with pytest.raises(DomainError):
            FitConfig(seed=-1)


class TestHessian:
    def test_negative_diagonal_at_maximum(self, fitted_pop2):
        _, fit = fitted_pop2
        assert np.all(np.diag(fit.hessian) < 0)

    def test_exactly_symmetric(self, fitted_pop1):
        _, fit = fitted_pop1
        assert np.array_equal(fit.hessian, fit.hessian.T)

    @pytest.mark.parametrize("fixture", ["fitted_pop1", "fitted_pop2", "fitted_pop3"])
    def test_matches_double_differences(self, fixture, request):
        sample, fit = request.getfixturevalue(fixture)
        direct = hessian_at(fit.theta_hat, sample)
        oracle = double_difference_hessian(fit.theta_hat, sample)
        scale = np.linalg.norm(oracle)
        assert np.linalg.norm(direct - oracle) < 1e-4 * scale

    @pytest.mark.parametrize("factor", [1.0, 2.0**24, 2.0**-24, 1e-6, 1e-3, 1e3, 1e6])
    def test_equals_the_fits_hessian_in_any_unit(self, populations, factor):
        # Both run on the sample divided by the fit's unit. Evaluated in the
        # data's unit instead, hessian_at was 18% off the fit's at 1e-6.
        sample = Sample(sample_mixture(populations[0].theta, 300, rng_seed=7).values * factor)
        fit = fit_mle(sample, FitConfig(seed=1))
        assert hessian_at(fit.theta_hat, sample).tobytes() == fit.hessian.tobytes()

    def test_requires_interior_p(self, populations):
        theta = MixtureParams(2, 2, 3, 3, 1.0)
        sample = sample_mixture(theta, 50, rng_seed=9)
        with pytest.raises(DomainError):
            hessian_at(theta, sample)


# Reference fitter: the multi-start fit as it ran before the starts were
# batched, one scipy.optimize.minimize call per L-BFGS-B run and one
# parameter vector per evaluation. ``row`` maps a parameter vector to its
# (log-likelihood, score, responsibility mean). Evaluated through single-row
# ``_evaluate`` calls, the lockstep fitter must reproduce it bit for bit; a
# scipy release that changes how setulb communicates with its caller breaks
# this comparison first. Evaluated in the old 1-D arithmetic below, it is the
# optimum oracle of the seeded corpus.


def _ref_terms(x, th):
    a1, a2, b1, b2, p = th
    l1 = np.log(x / b1)
    l2 = np.log(x / b2)
    with np.errstate(over="ignore"):
        u1 = np.exp(a1 * l1)
        u2 = np.exp(a2 * l2)
    lf1 = math.log(a1 / b1) + (a1 - 1.0) * l1 - u1
    lf2 = math.log(a2 / b2) + (a2 - 1.0) * l2 - u2
    t1 = (math.log(p) if p > 0.0 else -math.inf) + lf1
    t2 = (math.log1p(-p) if p < 1.0 else -math.inf) + lf2
    return lf1, lf2, t1, t2, _ref_logaddexp(t1, t2), u1, u2, l1, l2


def _ref_logaddexp(t1, t2):
    """Elementwise log(exp(t1) + exp(t2)), tolerating -inf in both slots."""
    hi = np.maximum(t1, t2)
    with np.errstate(invalid="ignore"):
        out = hi + np.log1p(np.exp(-np.abs(t1 - t2)))
    return np.where(np.isfinite(hi), out, hi)


def _ref_loglik(x, th):
    total = float(np.sum(_ref_terms(x, th)[4]))
    return total if math.isfinite(total) else -math.inf


def _ref_masked_dot(w, factor):
    mask = w > 0.0
    return float(np.sum(w[mask] * factor[mask])) if np.any(mask) else 0.0


def _ref_score(x, th):
    lf1, lf2, t1, t2, lse, u1, u2, l1, l2 = _ref_terms(x, th)
    a1, a2, b1, b2, _ = th
    with np.errstate(invalid="ignore", over="ignore"):
        w1, w2, r1, r2 = (np.exp(t - lse) for t in (t1, t2, lf1, lf2))
        w1, w2, r1, r2 = (np.where(np.isfinite(v), v, 0.0) for v in (w1, w2, r1, r2))
        ta1 = 1.0 / a1 + l1 * (1.0 - u1)
        tb1 = (a1 / b1) * (u1 - 1.0)
        ta2 = 1.0 / a2 + l2 * (1.0 - u2)
        tb2 = (a2 / b2) * (u2 - 1.0)
        return np.array(
            [
                _ref_masked_dot(w1, ta1),
                _ref_masked_dot(w2, ta2),
                _ref_masked_dot(w1, tb1),
                _ref_masked_dot(w2, tb2),
                float(np.sum(r1 - r2)),
            ]
        )


def _ref_responsibility_mean(x, th):
    _, _, t1, _, lse, *_ = _ref_terms(x, th)
    with np.errstate(invalid="ignore"):
        w1 = np.exp(t1 - lse)
    return float(np.mean(np.where(np.isfinite(w1), w1, 0.5)))


def _old_arithmetic(x):
    """``row`` of the reference fitter in the 1-D arithmetic of the old ``_evaluate``."""
    return lambda th: (_ref_loglik(x, th), _ref_score(x, th), _ref_responsibility_mean(x, th))


def _single_rows(x):
    """``row`` of the reference fitter through one-row ``_evaluate`` calls."""
    logx = np.log(x)

    def row(th):
        ll, score, resp = estimation._evaluate(logx, th[None, :])
        return float(ll[0]), score[0], float(resp[0])

    return row


def _ref_nll_eta(eta, row):
    th = estimation._from_eta(eta)
    ll, score, _ = row(th)
    if not math.isfinite(ll):
        return estimation._HUGE_NLL, np.zeros(5)
    jac = np.concatenate([th[:4], [th[4] * (1.0 - th[4])]])
    return -ll, -score * jac


def _ref_nll_eta4(eta4, row, p):
    th = np.concatenate([np.exp(eta4), [p]])
    ll, score, _ = row(th)
    if not math.isfinite(ll):
        return estimation._HUGE_NLL, np.zeros(4)
    with np.errstate(over="ignore"):
        return -ll, -(score[:4] * th[:4])


def _ref_optimize_start(row, theta0, config):
    """(theta, log-likelihood, parameter vectors evaluated) of one start."""
    n_evaluations = 0
    eta = estimation._to_eta(theta0)
    bounds4 = [(-estimation._ETA_BOUND, estimation._ETA_BOUND)] * 4
    bounds5 = bounds4 + [(-estimation._LOGIT_BOUND, estimation._LOGIT_BOUND)]
    ll_prev = -math.inf
    for _ in range(estimation._EM_CYCLES):
        resp = row(estimation._from_eta(eta))[2]
        n_evaluations += 1
        p_new = min(max(resp, 1e-6), 1.0 - 1e-6)
        eta[4] = estimation._logit(p_new)
        res = minimize(
            _ref_nll_eta4,
            eta[:4],
            args=(row, p_new),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds4,
            options={"maxiter": 25, "ftol": 1e-12},
        )
        eta[:4] = res.x
        n_evaluations += res.nfev
        ll = -float(res.fun)
        if ll - ll_prev <= 1e-9 * (1.0 + abs(ll)):
            break
        ll_prev = ll
    res = minimize(
        _ref_nll_eta,
        eta,
        args=(row,),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds5,
        options={"maxiter": config.max_iterations, "ftol": 1e-13, "gtol": 1e-9},
    )
    return estimation._from_eta(res.x), -float(res.fun), n_evaluations + res.nfev


def _ref_fit(sample, config, row):
    """(theta_hat, log-likelihood, hessian, local optima, boundary starts, converged,
    lockstep rounds, parameter vectors evaluated).

    Run in lockstep, the starts take one round per vector they evaluate.
    """
    x = sample.values
    admissible, n_boundary, per_start = [], 0, []
    for theta0 in estimation._starting_points(x, config):
        th, ll, n_evaluations = _ref_optimize_start(row, theta0, config)
        per_start.append(n_evaluations)
        if ll > -estimation._HUGE_NLL and 0.001 <= th[4] <= 0.999:
            admissible.append((th, ll))
        else:
            n_boundary += 1
    th_best, ll_best = max(admissible, key=lambda item: item[1])
    theta_hat = MixtureParams.from_array(th_best)
    th = theta_hat.as_array()
    converged = bool(np.max(np.abs(row(th)[1])) < config.tolerance * sample.n)
    h = np.maximum(1e-5, 1e-5 * np.abs(th))
    h[:4] = np.minimum(h[:4], 0.49 * th[:4])
    h[4] = min(h[4], 0.49 * min(th[4], 1.0 - th[4]))
    hess = np.empty((5, 5))
    for j in range(5):
        tp, tm = th.copy(), th.copy()
        tp[j] += h[j]
        tm[j] -= h[j]
        hess[:, j] = (row(tp)[1] - row(tm)[1]) / (2.0 * h[j])
    hess = 0.5 * (hess + hess.T)
    optima = [ll for _, ll in admissible]
    return theta_hat, ll_best, hess, optima, n_boundary, converged, max(per_start), sum(per_start)


_EQUIVALENCE_CASES = [(pop, n, 700 + 10 * pop + n // 100) for pop in range(5) for n in (100, 300)]
_EQUIVALENCE_CASES.append((2, 1000, 799))


class TestLockstepMatchesPerStartMinimize:
    @pytest.mark.parametrize("pop_index, n, seed", _EQUIVALENCE_CASES)
    def test_bit_identical_fit(self, populations, pop_index, n, seed):
        sample = sample_mixture(populations[pop_index].theta, n, rng_seed=seed)
        config = FitConfig(seed=seed)
        fit = fit_mle(sample, config)
        theta_hat, ll, hess, optima, n_boundary, converged, n_rounds, n_evaluations = _ref_fit(
            sample, config, _single_rows(sample.values)
        )
        assert fit.theta_hat.as_array().tobytes() == theta_hat.as_array().tobytes()
        assert fit.log_likelihood == ll
        assert fit.hessian.tobytes() == hess.tobytes()
        assert fit.best_of_likelihoods == optima
        assert fit.n_boundary_starts == n_boundary
        assert fit.converged == converged
        assert (fit.n_rounds, fit.n_evaluations) == (n_rounds, n_evaluations)

    def test_batched_rows_match_single_rows(self, fitted_pop2):
        sample, fit = fitted_pop2
        x = sample.values
        rows = fit.theta_hat.as_array() * np.exp(np.linspace(-0.4, 0.4, 35).reshape(7, 5))
        # p in (0, 1) is _evaluate's contract; 1e-6 and 1 - 1e-6 are the
        # ends of the fitter's clip of p
        rows[:, 4] = np.linspace(0.0, 1.0, 7)
        rows[[0, 6], 4] = (1e-6, 1.0 - 1e-6)
        # A very large shape makes one component's weight exactly 0 at some
        # points but not at others, through an underflowing density (50) or
        # an overflowing (x/b)**a (2000).
        spiky = np.repeat(fit.theta_hat.as_array()[None, :], 4, axis=0)
        spiky[[0, 1], 0] = (50.0, 2000.0)
        spiky[[2, 3], 1] = (50.0, 2000.0)
        rows = np.vstack([rows, spiky])
        partial, overflow = set(), set()
        for i, row in enumerate(spiky, start=7):
            lf1, lf2, t1, t2, lse, u1, u2, *_ = _ref_terms(x, row)
            with np.errstate(invalid="ignore"):
                zeros = [np.exp(t - lse) == 0.0 for t in (t1, t2)]
            if any(0 < np.sum(z) < x.size for z in zeros):
                partial.add(i)
            if np.any(np.isinf(u1)) or np.any(np.isinf(u2)):
                overflow.add(i)
        assert partial == {7, 8, 9, 10}
        assert overflow == {8, 10}
        ll, score, resp = estimation._evaluate(np.log(x), rows)
        single = _single_rows(x)
        for i, row in enumerate(rows):
            ll_i, score_i, resp_i = single(row)
            assert ll[i] == ll_i
            assert score[i].tobytes() == score_i.tobytes()
            assert resp[i] == resp_i
        # The old 1-D arithmetic, as an oracle on every row, the extreme p,
        # spiky and overflowing ones included: log(x/b) per row and ten
        # transcendentals per point move each value by rounding alone.
        # Measured: log-likelihood within 6e-16 relative; score within 5e-12
        # of the row's largest entry and responsibility within 3e-13
        # relative, both on the a1 = 2000 row, where a * lx scales the
        # rounding of lx.
        for i, row in enumerate(rows):
            assert ll[i] == pytest.approx(_ref_loglik(x, row), rel=1e-14, abs=0.0)
            ref = _ref_score(x, row)
            assert np.max(np.abs(score[i] - ref)) <= 1e-10 * np.max(np.abs(ref))
            assert resp[i] == pytest.approx(_ref_responsibility_mean(x, row), rel=1e-11, abs=0.0)


def test_round_forms_each_rows_objective_and_gradient(populations, monkeypatch):
    # One round of four rows on the sample of replication 96 of seed
    # 191203423, where the fitter's four-coordinate gradient overflows.
    # Each row's (f, g) must be the reference objective's bit for bit.
    s_sample, _ = _replication_seeds(191203423, 96)
    x = sample_mixture(populations[1].theta, 100, s_sample).values
    row = _single_rows(x)
    eta5 = estimation._to_eta(populations[1].theta.as_array())
    # (eta, p): p is None for a five-coordinate row and held fixed otherwise
    cases = {
        "underflow": (np.array([12.0, 12.0, 0.0, 0.0, 0.0]), None),
        "spike": (np.log([798.3760994871054, 115.77975681521512, 0.019744619629136026,
                          0.013810539697063738]), 0.2104052502284595),
        "em": (eta5[:4] + 0.1, 0.3),
        "polish": (eta5, None),
    }
    received = {}

    def one_row(name, max_iterations):
        received[name] = yield estimation._from_eta(*cases[name])

    monkeypatch.setattr(estimation, "_fit_start", one_row)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, n_rounds, _ = estimation._optimize_starts(np.log(x), list(cases), FitConfig())
        assert n_rounds == 1
        for name, (eta, p) in cases.items():
            f, g, resp = received[name]
            if p is None:
                f_ref, g_ref = _ref_nll_eta(eta, row)
            else:
                f_ref, g_ref = _ref_nll_eta4(eta, row, p)
                g = g[:4]
            assert f == f_ref, name
            assert g.tobytes() == g_ref.tobytes(), name
            assert resp == row(estimation._from_eta(eta, p))[2], name
    assert received["underflow"][0] == estimation._HUGE_NLL
    assert np.isinf(received["spike"][1][:4]).any()


# (population, n, seed): two samples per population at n=100, one at n=1000.
_OPTIMUM_CASES = [(pop, 100, 510 + 10 * pop + j) for pop in range(5) for j in range(2)]
_OPTIMUM_CASES += [(pop, 1000, 560 + pop) for pop in range(5)]


def test_fits_reach_the_optimum_of_the_old_arithmetic(populations):
    # The fitter's arithmetic moves its iterates in the last bits, so on a
    # flat surface a start may end on another local optimum. The reported
    # fit must not end below the reference fitter's, run in the old 1-D
    # arithmetic, by more than perfbench's worse-optimum band of 1e-6 n.
    for pop_index, n, seed in _OPTIMUM_CASES:
        sample = sample_mixture(populations[pop_index].theta, n, rng_seed=seed)
        config = FitConfig(seed=seed)
        reference = _ref_fit(sample, config, _old_arithmetic(sample.values))[1]
        assert fit_mle(sample, config).log_likelihood >= reference - 1e-6 * n, (pop_index, n, seed)


_FIT_SCRIPT = """
import sys
import numpy as np
from wmixgof import FitConfig, benchmark_populations, fit_mle, sample_mixture
pops = benchmark_populations()
for pop_index, seed in ((0, 31), (1, 32), (4, 33)):
    sample = sample_mixture(pops[pop_index].theta, 100, rng_seed=seed)
    fit = fit_mle(sample, FitConfig(seed=seed))
    arrays = (
        fit.theta_hat.as_array(),
        np.array([fit.log_likelihood, fit.n_boundary_starts, fit.converged], dtype=float),
        fit.hessian,
        np.array(fit.best_of_likelihoods),
    )
    sys.stdout.write(" ".join(a.tobytes().hex() for a in arrays) + "\\n")
"""


_KERNEL_SCRIPT = """
import hashlib
import sys
from wmixgof import FitConfig, benchmark_populations, build_q_matrix, fit_mle, sample_mixture
from wmixgof.kernel_eigen import grid_points
from wmixgof.mixture_model import cdf_gradients, invert_cdf
pops = benchmark_populations()
for pop_index, seed in ((0, 41), (2, 42), (4, 43)):
    sample = sample_mixture(pops[pop_index].theta, 300, rng_seed=seed)
    fit = fit_mle(sample, FitConfig(seed=seed))
    x, _ = invert_cdf(grid_points(1000), fit.theta_hat)
    psi = cdf_gradients(x, fit.theta_hat)
    q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 1000)
    digests = (hashlib.sha256(a.tobytes()).hexdigest() for a in (psi, q.entries))
    sys.stdout.write(" ".join(digests) + "\\n")
"""


def test_fits_identical_across_blas_thread_counts():
    outputs = _outputs_under_blas_threads(_FIT_SCRIPT)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


def test_kernels_identical_across_blas_thread_counts():
    outputs = _outputs_under_blas_threads(_KERNEL_SCRIPT)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


_MEMORY_SCRIPT = """
from wmixgof import FitConfig, benchmark_populations, build_q_matrix, eigen_spectrum, fit_mle
from wmixgof import sample_mixture


def status_kb(field):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])


sample = sample_mixture(benchmark_populations()[4].theta, 300, rng_seed=5)
fit = fit_mle(sample, FitConfig(seed=5))
eigen_spectrum(build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 200))
before = status_kb("VmRSS")
eigen_spectrum(build_q_matrix(fit.theta_hat, fit.hessian, sample.n, {m}))
print(1024 * (status_kb("VmHWM") - before))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_kernel_build_and_solve_hold_one_matrix():
    # After a warm-up at m=200, building and solving at m=1500 may raise the
    # high-water mark of resident memory by little more than the one m-by-m
    # matrix the eigensolver works on. A dense kernel plus eigvalsh's copy
    # of it raises it by about two.
    m = 1500
    rise = int(_fresh_interpreter_output(_MEMORY_SCRIPT.format(m=m)))
    assert rise <= 1.3 * 8 * m * m


def test_lbfgsb_runs_on_one_scipy_blas_thread(monkeypatch, fitted_pop1):
    threads = _native.blas_threads("scipy")
    if threads is None:
        pytest.skip("scipy has no bundled OpenBLAS here")
    get_threads, set_threads = threads
    outer = get_threads()
    seen = []
    original = estimation._evaluate

    def recording(x, rows):
        seen.append(get_threads())
        return original(x, rows)

    monkeypatch.setattr(estimation, "_evaluate", recording)
    sample, fit = fitted_pop1
    set_threads(2)
    try:
        again = fit_mle(sample, FitConfig(seed=21))
        assert get_threads() == 2
    finally:
        set_threads(outer)
    assert seen[0] == 1
    assert again.theta_hat.as_array().tobytes() == fit.theta_hat.as_array().tobytes()


def test_cli_import_leaves_scipy_packages_and_process_pool_unimported():
    # The scipy package __init__s cost about 0.45 s of every fresh
    # interpreter, the process pool about 11 ms; only run_study's workers
    # need the pool.
    unused = ("scipy.optimize", "scipy.special", "multiprocessing", "concurrent.futures")
    script = f"import sys, wmixgof.cli\nprint([m for m in {unused!r} if m in sys.modules])"
    assert _fresh_interpreter_output(script) == "[]\n"
    # scipy and the fitter's compiled L-BFGS-B module load on the first fit,
    # so a study with known parameters loads neither; the special functions
    # come from math, so scipy.special's ufuncs stay unloaded after a fit.
    fitter = ("scipy", "scipy.optimize._lbfgsb")
    script = f"""
import sys, wmixgof.cli
from wmixgof import FitConfig, benchmark_populations, fit_mle, run_study, sample_mixture
population = benchmark_populations()[4]
run_study(population, 2, 100, 3, estimate_parameters=False)
print([m for m in {fitter!r} if m in sys.modules])
fit_mle(sample_mixture(population.theta, 100, rng_seed=3), FitConfig(seed=3))
print([m for m in {fitter!r} if m not in sys.modules])
print("scipy.special._special_ufuncs" in sys.modules)
"""
    assert _fresh_interpreter_output(script) == "[]\n[]\nFalse\n"
    # The eigensolver is numpy's own LAPACK, so a test run does not import
    # scipy.linalg either.
    script = """
import sys
from wmixgof import benchmark_populations, gof_test, sample_mixture
sample = sample_mixture(benchmark_populations()[4].theta, 100, rng_seed=3)
gof_test(sample, 3, 50)
print("scipy.linalg" in sys.modules)
"""
    assert _fresh_interpreter_output(script) == "False\n"


_NEAR = np.concatenate([np.linspace(c - 1e-3, c + 1e-3, 2001) for c in (0.3, 0.65)])


@pytest.mark.parametrize(
    "name, ours, x",
    [
        # the logit box
        ("expit", estimation._expit, np.linspace(-13.8, 13.8, 200001)),
        # _to_eta's clip of p, with dense points around two start proportions
        ("logit", estimation._logit, np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 200001), _NEAR])),
        # 1 + 1/alpha over _moment_weibull's clip of the shape
        ("gammaln", math.lgamma, 1.0 + 1.0 / np.linspace(0.15, 60.0, 200001)),
    ],
    ids=["expit", "logit", "gammaln"],
)
def test_math_special_functions_match_scipy_special(name, ours, x):
    values, theirs = np.array([ours(v) for v in x.tolist()]), getattr(scipy.special, name)(x)
    if name == "expit":
        assert values.tobytes() == theirs.tobytes()
    else:
        # logit differs from scipy in the last bits on a quarter of these
        # points, gammaln on nearly all. The bound is relative, and absolute
        # below 1: at their zeros (p = 0.5, 1 + 1/alpha = 2) both values are
        # rounding noise, which no relative bound holds.
        assert values == pytest.approx(theirs, rel=4e-15, abs=4e-15)


def test_missing_scipy_extension_names_its_path():
    path = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    with pytest.raises(ImportError, match=re.escape(path)):
        _native._scipy_extension("optimize", "_no_such_module")
