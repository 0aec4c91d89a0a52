import numpy as np
import pytest
from scipy.integrate import quad

from wmixgof import (
    DegenerateInput,
    DomainError,
    FitConfig,
    MixtureParams,
    Sample,
    ad_statistic_uniform,
    ad_uniformity_pvalue,
    cvm_statistic,
    fit_mle,
    pit,
    sample_mixture,
)
from wmixgof.gof_statistic import _ad_asymptotic_cdf
from wmixgof.mixture_model import invert_cdf


def w2_by_quadrature(z):
    """n * Int (F_n - F)**2 dF evaluated as an integral over the unit interval.

    After the probability integral transform the model CDF is the identity
    and the EDF of the transformed points is a step function, so the
    statistic is n * Int_0^1 (G_n(u) - u)**2 du with G_n the EDF of z.
    """
    z = np.sort(np.asarray(z, dtype=float))
    n = z.size

    def integrand(u):
        return (np.searchsorted(z, u, side="right") / n - u) ** 2

    total, _ = quad(integrand, 0.0, 1.0, points=list(z), limit=200)
    return n * total


class TestPit:
    def test_median_point_maps_to_half(self, populations):
        theta = populations[1].theta
        x, _ = invert_cdf(np.array([0.5]), theta)
        z = pit(Sample(x), theta)
        assert z[0] == pytest.approx(0.5, abs=1e-5)

    def test_true_parameters_give_uniform_transforms(self, populations):
        theta = populations[1].theta
        sample = sample_mixture(theta, 5000, rng_seed=91)
        z = pit(sample, theta)
        assert ad_uniformity_pvalue(ad_statistic_uniform(z)) > 0.01

    def test_fitted_transforms_strictly_interior(self, populations):
        theta = populations[3].theta
        sample = sample_mixture(theta, 200, rng_seed=404)
        fit = fit_mle(sample, FitConfig(seed=4))
        z = pit(sample, fit.theta_hat)
        assert z[0] > 0.0 and z[-1] < 1.0

    def test_preserves_order(self, populations):
        sample = sample_mixture(populations[0].theta, 100, rng_seed=8)
        z = pit(sample, populations[0].theta)
        assert np.all(np.diff(z) >= 0)


class TestCvmStatistic:
    def test_rejects_values_outside_unit_interval(self):
        for z in ([0.5, 1.2], [-0.1, 0.5], [0.5, np.nan], []):
            with pytest.raises(DomainError):
                cvm_statistic(z)

    def test_sorts_its_input(self):
        assert cvm_statistic([0.9, 0.1, 0.5]) == cvm_statistic([0.1, 0.5, 0.9])

    def test_plotting_positions_reach_lower_bound(self):
        n = 17
        z = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        assert cvm_statistic(z) == pytest.approx(1 / (12 * n), rel=1e-12)

    def test_single_midpoint(self):
        assert cvm_statistic([0.5]) == pytest.approx(1 / 12, rel=1e-12)

    def test_two_point_hand_value(self):
        expected = 0.15**2 + 0.15**2 + 1 / 24
        assert cvm_statistic([0.1, 0.9]) == pytest.approx(expected, rel=1e-12)

    def test_never_below_lower_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            z = np.sort(rng.random(n))
            assert cvm_statistic(z) >= 1 / (12 * n) - 1e-15

    def test_matches_quadrature_of_integral_definition(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 21))
            z = np.sort(rng.random(n))
            direct = w2_by_quadrature(z)
            assert cvm_statistic(z) == pytest.approx(direct, abs=1e-6)


class TestAdStatistic:
    def test_evenly_spaced_is_small(self):
        u = np.arange(1, 101) / 101.0
        a2 = ad_statistic_uniform(u)
        assert a2 < 0.5
        assert ad_uniformity_pvalue(a2) > 0.5

    def test_clustered_is_large(self):
        u = np.linspace(0.001, 0.099, 50)
        a2 = ad_statistic_uniform(u)
        assert a2 > 10.0
        assert ad_uniformity_pvalue(a2) < 0.001

    def test_permutation_invariant(self, rng):
        u = rng.random(60)
        shuffled = rng.permutation(u)
        assert ad_statistic_uniform(u) == pytest.approx(ad_statistic_uniform(shuffled), rel=1e-12)

    def test_degenerate_endpoints_raise(self):
        with pytest.raises(DegenerateInput):
            ad_statistic_uniform([0.0, 0.5])
        with pytest.raises(DegenerateInput):
            ad_statistic_uniform([0.5, 1.0])

    def test_rejects_values_outside_unit_interval(self):
        for u in ([0.5, 1.5], []):
            with pytest.raises(DomainError):
                ad_statistic_uniform(u)


class TestAdPvalue:
    def test_five_percent_point(self):
        # classical asymptotic 5% critical value of the statistic
        assert ad_uniformity_pvalue(2.492) == pytest.approx(0.05, abs=1e-3)

    def test_continuous_at_branch_point(self):
        eps = 1e-9
        assert abs(_ad_asymptotic_cdf(2.0 - eps) - _ad_asymptotic_cdf(2.0 + eps)) < 2e-4

    def test_monotone_decreasing(self):
        grid = np.linspace(0.05, 8.0, 200)
        p = np.array([ad_uniformity_pvalue(a) for a in grid])
        assert np.all(np.diff(p) <= 1e-12)

    def test_extremes_clamped(self):
        assert ad_uniformity_pvalue(0.0) == 1.0
        assert ad_uniformity_pvalue(100.0) == 0.0
