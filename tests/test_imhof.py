import numpy as np
import pytest
from scipy.stats import chi2

from wmixgof import (
    DomainError,
    WeightedChiSquare,
    eigen_spectrum,
    imhof_tail,
    simple_hypothesis_lambdas,
)
from wmixgof.kernel_eigen import brownian_bridge_q


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
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 9.0):
            p = imhof_tail(WeightedChiSquare([1.0]), x)
            assert p == pytest.approx(chi2.sf(x, 1), abs=2e-6)

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

    def test_result_inside_unit_interval(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 15))
            lam = WeightedChiSquare(rng.random(k) + 1e-3)
            x = float(rng.random() * 3 * np.sum(lam.lambdas) + 1e-6)
            assert 0.0 <= imhof_tail(lam, x) <= 1.0
