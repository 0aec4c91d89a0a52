import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

import wmixgof.imhof as imhof
from wmixgof import (
    DomainError,
    FitConfig,
    QuadratureFailure,
    WeightedChiSquare,
    benchmark_populations,
    build_q_matrix,
    cvm_statistic,
    eigen_spectrum,
    fit_mle,
    gof_test,
    imhof_tail,
    pit,
    sample_mixture,
    simple_hypothesis_lambdas,
)
from wmixgof.kernel_eigen import brownian_bridge_q
from wmixgof.simulation import _replication_seeds
from conftest import _outputs_under_blas_threads


def monte_carlo_tail(lambdas, x, n_draws, seed):
    """Empirical tail frequency of sum_j lambda_j chi2_1 from fresh draws."""
    rng = np.random.default_rng(seed)
    acc = np.zeros(n_draws)
    for lam in lambdas:
        acc += lam * rng.chisquare(1, n_draws)
    return float(np.mean(acc > x))


class TestWeightedChiSquare:
    def test_sorts_descending(self):
        d = WeightedChiSquare([0.2, 1.0, 0.5])
        assert list(d.lambdas) == [1.0, 0.5, 0.2]

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(DomainError):
            WeightedChiSquare([])
        with pytest.raises(DomainError):
            WeightedChiSquare([0.5, 0.0])


class TestImhofTail:
    def test_single_weight_five_percent_point(self):
        p = imhof_tail(WeightedChiSquare([1.0]), chi2.isf(0.05, 1))
        assert p == pytest.approx(0.05, abs=1e-4)

    def test_scale_equivariance(self):
        p = imhof_tail(WeightedChiSquare([2.0]), 2 * chi2.isf(0.05, 1))
        assert p == pytest.approx(0.05, abs=1e-4)

    def test_single_weight_matches_chi_square(self):
        # one weight makes the modulus U explode, so U comes from the
        # cancellation bound; the error includes the truncation share
        one = WeightedChiSquare([1.0])
        for x in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 9.0, 10.0, 40.0):
            assert abs(imhof_tail(one, x) - chi2.sf(x, 1)) <= 1e-6
        for x in (1e-6, 1e-3, 0.1):
            assert abs(imhof_tail(one, x, 1e-9) - chi2.sf(x, 1)) <= 1e-9

    def test_classical_cvm_five_percent_point(self):
        lam = WeightedChiSquare(simple_hypothesis_lambdas(100))
        assert imhof_tail(lam, 0.461) == pytest.approx(0.05, abs=0.005)

    def test_monotone_decreasing_in_x(self, rng):
        lam = WeightedChiSquare(rng.random(8) + 0.05)
        xs = np.linspace(0.05, 20.0, 40)
        tails = [imhof_tail(lam, float(x)) for x in xs]
        assert np.all(np.diff(tails) <= 1e-9)

    def test_limits_at_extreme_arguments(self, rng):
        for _ in range(5):
            k = int(rng.integers(1, 21))
            lam = WeightedChiSquare(rng.random(k) * 0.999 + 0.001)
            total = float(np.sum(lam.lambdas))
            assert imhof_tail(lam, 1e-8 * total) > 1.0 - 1e-4
            assert imhof_tail(lam, 100.0 * total) < 1e-4

    def test_agrees_with_monte_carlo(self, rng):
        # smaller sibling of the acceptance-level oracle comparison
        for trial in range(3):
            k = int(rng.integers(1, 21))
            lam = np.asarray(rng.random(k) * 0.999 + 0.001)
            draws_seed = 1000 + trial
            x = float(np.sum(lam)) * 0.8
            mc = monte_carlo_tail(lam, x, 200_000, draws_seed)
            p = imhof_tail(WeightedChiSquare(lam), x)
            assert p == pytest.approx(mc, abs=0.008)

    def test_two_weights_against_exact_convolution(self):
        # lambda = (2, 1): P(2*A + B > x) with A, B ~ chi2_1 has a closed
        # form via conditioning; integrate numerically to high precision
        from scipy.integrate import quad

        lam = WeightedChiSquare([2.0, 1.0])

        def tail(x):
            val, _ = quad(
                lambda a: chi2.pdf(a, 1) * chi2.sf(max(x - 2 * a, 0.0), 1), 0, x / 2, limit=200
            )
            return val + chi2.sf(x / 2, 1)

        for x in (1.0, 3.0, 6.0, 10.0):
            assert imhof_tail(lam, x) == pytest.approx(tail(x), abs=1e-5)

    def test_smallest_statistic_on_a_thousand_weights(self):
        # W2 = 1/(12n) is the least value at n=1000; at the truncation
        # search's start, rho(u) of these weights overflows a double
        spectrum = eigen_spectrum(brownian_bridge_q(1000), tail_tolerance=0.0)
        p = imhof_tail(WeightedChiSquare(spectrum.retained), 1 / 12000)
        assert 1.0 - 1e-6 < p <= 1.0

    def test_rejects_bad_arguments(self):
        d = WeightedChiSquare([1.0])
        with pytest.raises(DomainError):
            imhof_tail(d, 0.0)
        with pytest.raises(DomainError):
            imhof_tail(d, -1.0)
        with pytest.raises(DomainError):
            imhof_tail(d, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            imhof_tail(d, 1.0, tol=math.inf)

    def test_result_inside_unit_interval(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 15))
            lam = WeightedChiSquare(rng.random(k) + 1e-3)
            x = float(rng.random() * 3 * np.sum(lam.lambdas) + 1e-6)
            assert 0.0 <= imhof_tail(lam, x) <= 1.0


def quad_reference(dist, x, tol=1e-6):
    """imhof_tail's p-value with scipy's QUADPACK on its integrand over [0, U].

    U is imhof_tail's own truncation point, so the two differ only by
    quadrature error.
    """
    lam = dist.lambdas / dist.lambdas[0]
    xs = x / dist.lambdas[0]
    upper = imhof._truncation_point(lam, xs, 0.5 * tol)
    val, _ = quad(
        lambda u: imhof._integrand(lam, xs, np.array([u]))[0],
        0.0, upper, epsabs=1e-12, epsrel=0.0, limit=10000,
    )
    return 0.5 + val / math.pi


def known_parameter_statistics(count):
    """W2 of seeded n=100 samples at their true parameters: the known-parameter statistic."""
    pops = benchmark_populations()
    out = []
    for i in range(count):
        theta = pops[i % 5].theta
        out.append(cvm_statistic(pit(sample_mixture(theta, 100, rng_seed=300 + i), theta)))
    return out


def fitted_cases(fits):
    """(weights, W2) of each fit's retained m=200 spectrum, at its own W2 and two more."""
    cases = []
    for sample, fit in fits:
        q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 200)
        dist = WeightedChiSquare(eigen_spectrum(q, 1e-4).retained)
        w2 = cvm_statistic(pit(sample, fit.theta_hat))
        cases += [(dist, x) for x in (w2, 0.05, 0.25)]
    return cases


def study_replication_case():
    """Replication 597 of seed 191203423 (population 3, n=100, m=200), as run_study runs it.

    Adaptive Simpson missed this p-value by 8.5e-7, beyond its 5e-7 share.
    """
    s_sample, s_fit = _replication_seeds(191203423, 597)
    sample = sample_mixture(benchmark_populations()[2].theta, 100, s_sample)
    outcome = gof_test(sample, s_fit, 200)
    return WeightedChiSquare(outcome.spectrum.retained), outcome.w2


def bridge_1000_cases():
    dist = WeightedChiSquare(eigen_spectrum(brownian_bridge_q(1000), tail_tolerance=0.0).retained)
    return [(dist, x) for x in (1 / 12000, 1e-3, 0.5)]


def fitted_1000_case():
    """(weights, W2) of a population-5 fit at n=1000 with its retained m=1000 spectrum."""
    sample = sample_mixture(benchmark_populations()[4].theta, 1000, rng_seed=55)
    fit = fit_mle(sample, FitConfig(seed=55))
    q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 1000)
    dist = WeightedChiSquare(eigen_spectrum(q, 1e-4).retained)
    return dist, cvm_statistic(pit(sample, fit.theta_hat))


def counted_passes(monkeypatch):
    """Patch the integrand so each call appends to the list's last count."""
    passes = []
    integrand = imhof._integrand

    def counting(lam, x, u):
        passes[-1] += 1
        return integrand(lam, x, u)

    monkeypatch.setattr(imhof, "_integrand", counting)
    return passes


class TestTruncationPoint:
    def test_modulus_bound_chosen_on_the_benchmarks_spectra(self, fitted_pop1):
        # U below u* = 2 sqrt(sum(1/lambda) / x) can only be the modulus
        # bound, since the cancellation bound starts at max(u*, 1)
        bridge = WeightedChiSquare(simple_hypothesis_lambdas(100))
        cases = [(bridge, x) for x in known_parameter_statistics(5)]
        cases += fitted_cases([fitted_pop1])[:1]
        for dist, x in cases:
            lam = dist.lambdas / dist.lambdas[0]
            xs = x / dist.lambdas[0]
            u_star = 2.0 * math.sqrt(float(np.sum(1.0 / lam)) / xs)
            assert imhof._truncation_point(lam, xs, 0.5e-6) < u_star


class TestQuadrature:
    def test_matches_quadpack_on_the_chains_spectra(self, fitted_pop1, fitted_pop2, fitted_pop3):
        bridge = WeightedChiSquare(simple_hypothesis_lambdas(100))
        cases = [(bridge, x) for x in known_parameter_statistics(20)]
        cases += fitted_cases([fitted_pop1, fitted_pop2, fitted_pop3])
        cases.append(study_replication_case())
        cases += bridge_1000_cases()
        worst = max(abs(imhof_tail(d, x) - quad_reference(d, x)) for d, x in cases)
        assert worst <= 1e-7

    def test_random_weights_within_the_quadrature_share(self):
        # criterion 2's draws: 1 to 20 weights, x at quantiles of the sum;
        # one weight is checked against chi2.sf, whose error includes the
        # truncation share
        tol = 1e-6
        rng = np.random.default_rng(20240801)
        for _ in range(10):
            k = int(rng.integers(1, 21))
            lam = rng.random(k) * 0.999 + 0.001
            draws = (rng.chisquare(1, (10_000, k)) * lam).sum(axis=1)
            dist = WeightedChiSquare(lam)
            for q in (0.1, 0.5, 0.9):
                x = float(np.quantile(draws, q))
                p = imhof_tail(dist, x, tol)
                reference = chi2.sf(x / lam[0], 1) if k == 1 else quad_reference(dist, x, tol)
                assert abs(p - reference) <= tol / 2

    def test_matches_quadpack_where_the_rate_bound_is_tight(self):
        # |theta'| <= max(x, sum(lambda) - x) / 2 is tightest at
        # x = sum(lambda) / 2; far above sum(lambda) (p near 1e-8) the phase
        # turns fastest, and well below lambda_1 the integral is nearly all
        # in the graded panels at the origin
        fitted, _ = fitted_1000_case()
        spectra = [
            (WeightedChiSquare(simple_hypothesis_lambdas(100)), 3.397),
            (fitted, 0.1798),
            (WeightedChiSquare(np.geomspace(1.0, 1e-6, 30)), 35.01),
        ]
        for dist, far in spectra:
            lam = dist.lambdas
            for x in (float(np.sum(lam)) / 2, far, lam[0] / 100):
                assert abs(imhof_tail(dist, x) - quad_reference(dist, x)) <= 1e-7
            assert 5e-9 < imhof_tail(dist, far) < 2e-8

    def test_random_spectra_of_up_to_fifty_weights(self):
        # 1 to 50 weights, uniform or spanning up to six decades, x at the
        # extreme and middle quantiles of the sum; one weight is checked
        # against chi2.sf, whose error includes the truncation share
        tol = 1e-6
        rng = np.random.default_rng(20261020)
        for i in range(10):
            k = int(rng.integers(1, 51))
            if i % 2:
                lam = np.exp(rng.uniform(math.log(1e-6), 0.0, k))
            else:
                lam = rng.random(k) * 0.999 + 0.001
            draws = (rng.chisquare(1, (10_000, k)) * lam).sum(axis=1)
            dist = WeightedChiSquare(lam)
            for q in (0.001, 0.5, 0.999):
                x = float(np.quantile(draws, q))
                p = imhof_tail(dist, x, tol)
                if k == 1:
                    assert abs(p - chi2.sf(x / lam[0], 1)) <= tol / 2
                else:
                    assert abs(p - quad_reference(dist, x, tol)) <= 1e-7

    def test_tight_tolerance_on_the_bridge_weights(self):
        # At tol=1e-12 a bisected panel's share of the tolerance falls below
        # the rounding of its K15 and G7 sums; without qk15's rounding floor
        # x = 3.5 and 4.25 ran out of refinement rounds on this grid
        tol = 1e-12
        bridge = WeightedChiSquare(simple_hypothesis_lambdas(100))
        for x in np.arange(50, 91) / 20:
            assert abs(imhof_tail(bridge, x, tol) - quad_reference(bridge, x, tol)) <= tol / 2

    def test_few_integrand_passes_on_the_bridge_weights(self, monkeypatch):
        # the graded panels at the origin leave nothing to bisect there;
        # from W2 of about 0.17 the first uniform panels still bisect once
        passes = counted_passes(monkeypatch)
        bridge = WeightedChiSquare(simple_hypothesis_lambdas(100))
        stats = known_parameter_statistics(100)
        for x in stats:
            passes.append(0)
            imhof_tail(bridge, x)
        assert max(passes) <= 2
        assert all(n == 1 for x, n in zip(stats, passes) if x < 0.15)

    def test_few_integrand_passes_on_fitted_spectra(
        self, monkeypatch, fitted_pop1, fitted_pop2, fitted_pop3
    ):
        passes = counted_passes(monkeypatch)
        cases = fitted_cases([fitted_pop1, fitted_pop2, fitted_pop3])
        for dist, x in cases:
            passes.append(0)
            imhof_tail(dist, x)
        assert max(passes) <= 2
        # each fit's own W2 comes first in its three cases
        assert passes[::3] == [1, 1, 1]

    def test_fitted_p_value_identical_across_blas_thread_counts(self, tmp_path):
        # The quadrature reduces with np.sum, never with BLAS. The weights
        # are computed here once, since the eigensolver's last bits move
        # with the thread count.
        dist, w2 = fitted_1000_case()
        path = tmp_path / "weights.npy"
        np.save(path, dist.lambdas)
        script = (
            "import numpy as np\n"
            "from wmixgof import WeightedChiSquare, imhof_tail\n"
            f"print(imhof_tail(WeightedChiSquare(np.load({str(path)!r})), {w2!r}).hex())\n"
        )
        outputs = _outputs_under_blas_threads(script)
        assert outputs[0] == outputs[1] != ""

    def test_exhausted_node_budget_raises(self, monkeypatch):
        monkeypatch.setattr(imhof, "_MAX_NODES", 10)
        with pytest.raises(QuadratureFailure, match="node budget exhausted") as info:
            imhof_tail(WeightedChiSquare(simple_hypothesis_lambdas(100)), 0.2)
        assert info.value.stage == "kernel"
