import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmixgof import DomainError, MixtureParams, Sample, sample_mixture
from wmixgof.mixture_model import cdf_gradients, invert_cdf, mixture_cdf, mixture_pdf


def quantile(t, theta):
    """The mixture quantile at one level, through the array inversion."""
    x, _ = invert_cdf(np.array([t]), theta)
    return float(x[0])


PARAM_NAMES = ["alpha1", "alpha2", "beta1", "beta2", "p"]

thetas = st.builds(
    MixtureParams,
    alpha1=st.floats(0.5, 8.0),
    alpha2=st.floats(0.5, 8.0),
    beta1=st.floats(0.2, 10.0),
    beta2=st.floats(0.2, 10.0),
    p=st.floats(0.0, 1.0),
)


class TestMixtureParams:
    def test_canonical_ordering_swaps_components(self):
        theta = MixtureParams(2, 3, 3, 0.9, 0.5)
        assert (theta.alpha1, theta.alpha2, theta.beta1, theta.beta2) == (3, 2, 0.9, 3)

    def test_swap_flips_mixing_proportion(self):
        theta = MixtureParams(2, 3, 3, 0.9, 0.3)
        assert theta.p == pytest.approx(0.7)

    def test_tie_broken_by_shape(self):
        theta = MixtureParams(5, 1, 2, 2, 0.25)
        assert (theta.alpha1, theta.alpha2) == (1, 5)
        assert theta.p == pytest.approx(0.75)

    def test_relabeling_compares_equal(self):
        assert MixtureParams(2, 3, 3, 0.9, 0.3) == MixtureParams(3, 2, 0.9, 3, 0.7)

    def test_rejects_nonpositive_shape_or_scale(self):
        with pytest.raises(DomainError):
            MixtureParams(0.0, 1, 1, 1, 0.5)
        with pytest.raises(DomainError):
            MixtureParams(1, 1, -2, 1, 0.5)

    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(DomainError):
            MixtureParams(1, 1, 1, 1, 1.5)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(DomainError):
            MixtureParams(math.inf, 1, 1, 1, 0.5)

    def test_degenerate_p_accepted(self):
        assert MixtureParams(1, 1, 1, 1, 1.0).p in (0.0, 1.0)

    def test_array_round_trip(self):
        theta = MixtureParams(1.5, 3, 2, 4, 0.5)
        assert MixtureParams.from_array(theta.as_array()) == theta


class TestSample:
    def test_sorts_values(self):
        s = Sample([3.0, 1.0, 2.0])
        assert np.all(np.diff(s.values) >= 0)
        assert s.n == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Sample([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Sample([])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Sample([1.0, math.nan])


class TestMixturePdf:
    def test_exponential_special_case(self):
        # p = 1 with unit shape and scale is the Exp(1) density
        assert mixture_pdf(1.0, MixtureParams(1, 1, 1, 1, 1.0)) == pytest.approx(
            math.exp(-1), rel=1e-12
        )

    def test_identical_components_collapse(self):
        alpha, beta = 2.5, 1.7
        theta = MixtureParams(alpha, alpha, beta, beta, 0.5)
        assert mixture_pdf(beta, theta) == pytest.approx(alpha / beta * math.exp(-1), rel=1e-12)

    def test_matches_cdf_derivative(self, populations):
        # central finite difference of the CDF is the independent oracle
        theta = populations[0].theta
        h = 1e-6
        fd = (mixture_cdf(2.0 + h, theta) - mixture_cdf(2.0 - h, theta)) / (2 * h)
        assert mixture_pdf(2.0, theta) == pytest.approx(fd, abs=1e-6)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            mixture_pdf(0.0, MixtureParams(1, 1, 1, 1, 0.5))
        with pytest.raises(DomainError):
            mixture_pdf(-1.0, MixtureParams(1, 1, 1, 1, 0.5))

    def test_vectorized_matches_scalar(self):
        theta = MixtureParams(1.5, 3, 2, 4, 0.5)
        xs = np.array([0.5, 1.0, 2.0])
        vec = mixture_pdf(xs, theta)
        assert vec == pytest.approx([mixture_pdf(float(x), theta) for x in xs])


class TestMixtureCdf:
    def test_single_weibull_at_scale(self):
        theta = MixtureParams(2, 2, 3, 3, 1.0)
        assert mixture_cdf(3.0, theta) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_vanishes_at_origin(self):
        theta = MixtureParams(1.5, 3, 2, 4, 0.5)
        assert mixture_cdf(1e-12, theta) < 1e-10

    def test_two_term_evaluation(self, populations):
        theta = populations[0].theta  # stored canonically: (3, 2, 0.9, 3, 0.5)
        expected = 0.5 * (1 - math.exp(-((3.0 / 0.9) ** 3))) + 0.5 * (1 - math.exp(-1.0))
        assert mixture_cdf(3.0, theta) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(theta=thetas, x1=st.floats(0.01, 20.0), x2=st.floats(0.01, 20.0))
    def test_nondecreasing(self, theta, x1, x2):
        lo, hi = sorted((x1, x2))
        assert mixture_cdf(lo, theta) <= mixture_cdf(hi, theta) + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.5, 8.0),
        beta=st.floats(0.2, 10.0),
        other_alpha=st.floats(0.5, 8.0),
        other_beta=st.floats(0.2, 10.0),
        x=st.floats(0.05, 20.0),
    )
    def test_degenerate_mixture_reproduces_single_weibull(
        self, alpha, beta, other_alpha, other_beta, x
    ):
        theta = MixtureParams(alpha, other_alpha, beta, other_beta, 1.0)
        # canonicalization may relabel the active component to slot 2
        a, b = (
            (theta.alpha1, theta.beta1) if theta.p == 1.0 else (theta.alpha2, theta.beta2)
        )
        single = -math.expm1(-((x / b) ** a))
        assert abs(mixture_cdf(x, theta) - single) < 1e-12


class TestMixtureQuantile:
    def test_single_weibull_inversion(self):
        theta = MixtureParams(2, 2, 3, 3, 1.0)
        assert quantile(1 - math.exp(-1), theta) == pytest.approx(3.0, abs=1e-6)

    def test_identical_components_median(self):
        alpha, beta = 1.7, 2.4
        theta = MixtureParams(alpha, alpha, beta, beta, 0.5)
        assert quantile(0.5, theta) == pytest.approx(
            beta * math.log(2) ** (1 / alpha), abs=1e-6
        )

    def test_round_trip_population3(self, populations):
        theta = populations[2].theta
        for t in (0.01, 0.1, 0.5, 0.9, 0.99):
            x = quantile(t, theta)
            assert mixture_cdf(x, theta) == pytest.approx(t, abs=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(theta=thetas, t=st.floats(0.001, 0.999))
    def test_round_trip_property(self, theta, t):
        x = quantile(t, theta)
        assert abs(mixture_cdf(x, theta) - t) < 1e-5

    def test_rejects_t_outside_unit_interval(self):
        theta = MixtureParams(1, 1, 1, 1, 0.5)
        for t in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                quantile(t, theta)

    def test_extreme_levels(self, populations):
        theta = populations[4].theta
        for t in (1e-8, 1 - 1e-8):
            x = quantile(t, theta)
            assert x > 0 and abs(mixture_cdf(x, theta) - t) < 1e-5


class TestCdfGradient:
    def test_matches_finite_differences(self, populations):
        theta = populations[1].theta
        h = 1e-6
        base = theta.as_array()
        for x in (0.5, 1.0, 2.0, 5.0):
            grad = cdf_gradients(x, theta)
            for j in range(5):
                plus, minus = base.copy(), base.copy()
                plus[j] += h
                minus[j] -= h
                fd = (
                    mixture_cdf(x, MixtureParams.from_array(plus))
                    - mixture_cdf(x, MixtureParams.from_array(minus))
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6)

    def test_p_derivative_vanishes_for_identical_components(self):
        theta = MixtureParams(2, 2, 3, 3, 0.4)
        assert cdf_gradients(1.7, theta)[4] == 0.0

    def test_shape_derivative_vanishes_at_scale(self):
        theta = MixtureParams(2, 3, 1.5, 4, 0.5)
        assert cdf_gradients(1.5, theta)[0] == 0.0

    def test_scale_derivatives_nonpositive(self, populations):
        theta = populations[3].theta
        for x in (0.2, 1.0, 3.0, 8.0):
            g = cdf_gradients(x, theta)
            assert g[2] <= 0.0 and g[3] <= 0.0

    def test_finite_in_far_tails(self, populations):
        theta = populations[4].theta
        for x in (1e-6, 1e3):
            assert np.all(np.isfinite(cdf_gradients(x, theta)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        log_shapes=st.tuples(*[st.floats(math.log(0.2), math.log(2000.0))] * 2),
        log_scales=st.tuples(*[st.floats(-6.0, 6.0)] * 2),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        drawn=st.lists(st.floats(min_value=5e-324, max_value=np.finfo(float).max), max_size=20),
    )
    def test_finite_for_spiky_shapes(self, log_shapes, log_scales, p, drawn):
        # Besides the drawn points, each component's power
        # u = (x/beta)**alpha runs through exp(-750) .. exp(750), where u
        # times alpha/beta or log(x/beta) used to overflow before exp(-u)
        # brought it down: a shape of 1700 made a fitted kernel all nan.
        theta = MixtureParams(*np.exp(log_shapes), *np.exp(log_scales), p)
        t = np.linspace(-750.0, 750.0, 6001)
        with np.errstate(over="ignore", under="ignore"):
            x = np.concatenate(
                [
                    theta.beta1 * np.exp(t / theta.alpha1),
                    theta.beta2 * np.exp(t / theta.alpha2),
                    drawn,
                ]
            )
        x = x[np.isfinite(x) & (x > 0.0)]
        assert np.all(np.isfinite(cdf_gradients(x, theta)))


class TestSampleMixture:
    def test_deterministic_for_fixed_seed(self, populations):
        theta = populations[2].theta
        a = sample_mixture(theta, 50, rng_seed=7)
        b = sample_mixture(theta, 50, rng_seed=7)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_mixture_matches_single_weibull(self):
        theta = MixtureParams(2, 2, 3, 3, 1.0)
        s = sample_mixture(theta, 10000, rng_seed=11)
        grid = np.sort(s.values)
        ecdf = np.arange(1, s.n + 1) / s.n
        ks = np.max(np.abs(ecdf - mixture_cdf(grid, theta)))
        assert ks < 0.05

    def test_mixing_fraction_matches_p(self, populations):
        # components of the well-separated population barely overlap, so
        # classifying draws at the density crossing recovers the labels
        theta = populations[4].theta
        s = sample_mixture(theta, 10000, rng_seed=5)
        fraction = float(np.mean(s.values < 2.2))
        assert abs(fraction - 0.5) < 0.015

    def test_output_sorted_and_positive(self, populations):
        s = sample_mixture(populations[0].theta, 200, rng_seed=3)
        assert np.all(np.diff(s.values) >= 0)
        assert s.values[0] > 0

    def test_rejects_nonpositive_n(self, populations):
        with pytest.raises(DomainError):
            sample_mixture(populations[0].theta, 0, rng_seed=1)


class TestPdfNormalization:
    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
    def test_density_integrates_to_one(self, populations, index):
        theta = populations[index].theta
        hi = quantile(1 - 1e-8, theta)
        grid = np.linspace(1e-9, hi, 40001)
        total = np.trapezoid(mixture_pdf(grid, theta), grid)
        assert total == pytest.approx(1.0, abs=1e-4)
