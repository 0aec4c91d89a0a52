import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmixgof import (
    DomainError,
    FitConfig,
    MixtureParams,
    NonFiniteKernel,
    SingularInformation,
    WeightedChiSquare,
    build_q_matrix,
    cvm_statistic,
    eigen_spectrum,
    fit_mle,
    imhof_tail,
    pit,
    sample_mixture,
    simple_hypothesis_lambdas,
)
from wmixgof.kernel_eigen import KernelMatrix, brownian_bridge_q, grid_points
from wmixgof.mixture_model import cdf_gradients, invert_cdf, mixture_cdf
import wmixgof.estimation as estimation
import wmixgof.kernel_eigen as kernel_eigen
import wmixgof.mixture_model as mixture_model


def bridge_eigen_errors(m, count=10):
    spec = eigen_spectrum(brownian_bridge_q(m), tail_tolerance=0.0)
    exact = simple_hypothesis_lambdas(count)
    return np.abs(spec.lambdas[:count] - exact) / exact


def psi(levels, theta):
    """Psi at each level: the CDF gradient at the fitted quantile, one row per level."""
    x, _ = invert_cdf(np.asarray(levels, dtype=float), theta)
    return cdf_gradients(x, theta)


# Reference: the per-point scalar path that build_q_matrix ran before the
# whole grid was inverted at once (one secant, then bisection if the secant
# gives up, then the scalar CDF gradient, for each level in turn). It stops
# a level once two secant points are within _REF_EPS, which the array
# solver does not ask.

_REF_EPS = 5e-6


def _ref_cdf(x, theta):
    def component(alpha, beta):
        return float(-np.expm1(-np.exp(alpha * np.log(np.float64(x) / beta))))

    with np.errstate(over="ignore", under="ignore"):
        return theta.p * component(theta.alpha1, theta.beta1) + (1.0 - theta.p) * component(
            theta.alpha2, theta.beta2
        )


def _ref_quantile(t, theta, eps=_REF_EPS, max_iter=200):
    """(quantile, whether the secant handed the level to bisection)."""

    def g(x):
        return _ref_cdf(x, theta) - t

    w = -math.log1p(-t)
    x0 = theta.beta1 * w ** (1.0 / theta.alpha1)
    x1 = theta.beta2 * w ** (1.0 / theta.alpha2)
    if x0 == x1:
        x1 = x0 * (1.0 + 1e-6)
    a, b = x0, x1
    ga, gb = g(a), g(b)
    for _ in range(max_iter):
        if gb == ga:
            break
        c = (a * gb - b * ga) / (gb - ga)
        if not math.isfinite(c) or c <= 0.0:
            break
        gc = g(c)
        if abs(c - b) < eps and abs(gc) < 1e-10:
            return c, False
        a, ga = b, gb
        b, gb = c, gc
    return _ref_bisect(g, x0, x1, eps), True


def _ref_bisect(g, x0, x1, eps):
    lo, hi = min(x0, x1), max(x0, x1)
    glo, ghi = g(lo), g(hi)
    for _ in range(300):
        if glo <= 0.0:
            break
        hi, ghi = lo, glo
        lo *= 0.5
        glo = g(lo)
    else:
        raise AssertionError("reference could not bracket from below")
    for _ in range(300):
        if ghi >= 0.0:
            break
        lo, glo = hi, ghi
        hi *= 2.0
        ghi = g(hi)
    else:
        raise AssertionError("reference could not bracket from above")
    mid = 0.5 * (lo + hi)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        gm = g(mid)
        if gm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < eps and abs(gm) <= 1e-10:
            return mid
    assert abs(g(mid)) <= 1e-8
    return mid


def _ref_cdf_gradient(x, theta):
    def partials(alpha, beta):
        logx = math.log(x / beta)
        t = alpha * logx
        if t > 709.0:
            return 0.0, 0.0, 0.0
        u = math.exp(t)
        su = math.exp(-u)
        return u * logx * su, -(alpha / beta) * u * su, su

    da1, db1, e1 = partials(theta.alpha1, theta.beta1)
    da2, db2, e2 = partials(theta.alpha2, theta.beta2)
    p, q = theta.p, 1.0 - theta.p
    return np.array([p * da1, q * da2, p * db1, q * db2, e2 - e1])


def _ref_kernel(theta, hessian, n, m, max_iter=200):
    """(quantiles, Psi, kernel entries, levels sent to bisection), level by level."""
    s = grid_points(m)
    x = np.empty(m)
    psi_rows = np.empty((m, 5))
    n_bisected = 0
    for i in range(m):
        x[i], bisected = _ref_quantile(float(s[i]), theta, max_iter=max_iter)
        n_bisected += bisected
        psi_rows[i] = _ref_cdf_gradient(x[i], theta)
    info = -np.asarray(hessian, dtype=float) / float(n)
    info = 0.5 * (info + info.T)
    bridge = np.minimum.outer(s, s) - np.outer(s, s)
    q = (bridge - psi_rows @ np.linalg.inv(info) @ psi_rows.T) / (m + 1.0)
    return x, psi_rows, 0.5 * (q + q.T), n_bisected


def _p_value(entries, w2):
    spectrum = kernel_eigen._spectrum(np.linalg.eigvalsh(entries), 1e-4)
    return imhof_tail(WeightedChiSquare(spectrum.retained), w2)


# A huge information makes the correction Psi' I^{-1} Psi vanish.
_VANISHING_CORRECTION = -1e30 * np.eye(5)


class TestPsiAt:
    def test_vanishes_toward_boundaries(self, populations):
        theta = populations[1].theta
        assert np.all(np.abs(psi([1e-6, 1 - 1e-6], theta)) < 1e-3)

    def test_p_component_vanishes_where_component_cdfs_cross(self, populations):
        theta = populations[0].theta  # components (3, 0.9) and (2, 3)
        # (x/0.9)^3 = (x/3)^2  =>  x = 0.9^3 * 9 / ... solved directly:
        x_cross = (theta.beta1**theta.alpha1 / theta.beta2**theta.alpha2) ** (
            1.0 / (theta.alpha1 - theta.alpha2)
        )
        s_cross = mixture_cdf(x_cross, theta)
        assert abs(psi([s_cross], theta)[0, 4]) < 1e-6

    def test_composes_quantile_and_gradient(self, populations):
        theta = populations[2].theta
        x, _ = _ref_quantile(0.5, theta)
        expected = _ref_cdf_gradient(x, theta)
        assert psi([0.5], theta)[0] == pytest.approx(expected, abs=1e-6)

    def test_rejects_boundary_levels(self, populations):
        with pytest.raises(DomainError):
            psi([0.0, 0.5], populations[0].theta)
        with pytest.raises(DomainError):
            psi([0.5, 1.0], populations[0].theta)


class TestRhoHat:
    def test_zero_correction_gives_brownian_bridge(self, populations):
        theta = populations[1].theta
        m = 9
        q = build_q_matrix(theta, _VANISHING_CORRECTION, 1, m)
        assert q.entries == pytest.approx(brownian_bridge_q(m).entries, rel=1e-12)

    def test_center_value(self, populations):
        q = build_q_matrix(populations[0].theta, _VANISHING_CORRECTION, 1, 3)
        assert q.entries[1, 1] * 4 == pytest.approx(0.25)

    def test_symmetric_on_fitted_parameters(self, fitted_pop2, rng):
        sample, fit = fitted_pop2
        inv_info = np.linalg.inv(-fit.hessian / sample.n)
        levels = rng.random((10, 2)) * 0.98 + 0.01
        rows = psi(levels.ravel(), fit.theta_hat).reshape(10, 2, 5)
        for (s, t), (ps, pt) in zip(levels, rows):
            left = min(s, t) - s * t - ps @ inv_info @ pt
            right = min(t, s) - t * s - pt @ inv_info @ ps
            assert abs(left - right) < 1e-10


class TestBuildQMatrix:
    def test_simple_hypothesis_leading_eigenvalue(self):
        spec = eigen_spectrum(brownian_bridge_q(500), tail_tolerance=0.0)
        assert abs(spec.lambdas[0] - 1 / math.pi**2) < 1e-4

    def test_symmetric(self, fitted_pop1):
        sample, fit = fitted_pop1
        q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 60)
        assert np.array_equal(q.entries, q.entries.T)

    def test_composite_eigenvalues_dominated_by_simple(self, fitted_pop1):
        # subtracting a positive semidefinite correction can only shrink
        # the quadratic form, so eigenvalues drop pointwise
        sample, fit = fitted_pop1
        m = 120
        composite = np.linalg.eigvalsh(
            build_q_matrix(fit.theta_hat, fit.hessian, sample.n, m).entries
        )[::-1]
        simple = np.linalg.eigvalsh(brownian_bridge_q(m).entries)[::-1]
        assert np.all(composite <= simple + 1e-8)

    def test_psi_evaluated_once_per_grid_point(self, fitted_pop1, monkeypatch):
        # one array inversion covers all m grid levels, each exactly once
        sample, fit = fitted_pop1
        calls = []
        original = kernel_eigen.invert_cdf

        def counting(levels, theta):
            calls.append(np.array(levels))
            return original(levels, theta)

        monkeypatch.setattr(kernel_eigen, "invert_cdf", counting)
        m = 40
        build_q_matrix(fit.theta_hat, fit.hessian, sample.n, m)
        assert len(calls) == 1
        assert np.array_equal(calls[0], grid_points(m))

    def test_singular_information_raises(self, fitted_pop1):
        sample, fit = fitted_pop1
        with pytest.raises(SingularInformation):
            build_q_matrix(fit.theta_hat, np.eye(5), sample.n, 20)

    def test_rejects_small_grid(self, fitted_pop1):
        sample, fit = fitted_pop1
        with pytest.raises(DomainError):
            build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 1)

    def test_peak_memory_is_no_matrix_at_m_1000(self, fits_n1000):
        # The build keeps the 5-by-m factor and allocates no m-by-m array
        # (8 MB); it peaks at about 0.15 MB. Filling the kernel in one
        # buffer peaked at 9.2 MB, and forming (-H/n)^{-1} densely at 24.1 MB.
        sample, fit = fits_n1000[0]
        tracemalloc.start()
        try:
            build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6


@pytest.fixture(scope="module")
def fits_n1000(populations):
    """One n=1000 fit per population; the reference bisects on populations 4 and 5."""
    out = {}
    for index, spec in enumerate(populations):
        seed = 810 + index
        sample = sample_mixture(spec.theta, 1000, rng_seed=seed)
        out[index] = (sample, fit_mle(sample, FitConfig(seed=seed)))
    return out


class TestArrayInversionMatchesScalarLoop:
    @pytest.mark.parametrize("m", [200, 1000])
    @pytest.mark.parametrize("pop_index", range(5))
    def test_matches_reference(self, fits_n1000, pop_index, m):
        # The array solver stops on the residual alone, so the quantiles move
        # within |F(x) - t| <= 1e-10 of the reference's: measured up to
        # 4.7e-8 relative, kernel entries 5.8e-13 and p-values 1.3e-10.
        sample, fit = fits_n1000[pop_index]
        theta = fit.theta_hat
        x_ref, _, q_ref, _ = _ref_kernel(theta, fit.hessian, sample.n, m)
        s = grid_points(m)
        x, n_rounds = invert_cdf(s, theta)
        q = build_q_matrix(theta, fit.hessian, sample.n, m)
        assert q.n_quantile_rounds == n_rounds <= mixture_model._MAX_QUANTILE_ROUNDS
        assert np.max(np.abs(mixture_cdf(x, theta) - s)) <= 1e-10
        assert np.all(np.abs(x - x_ref) <= 1e-6 * x_ref)
        assert np.max(np.abs(q.entries - q_ref)) <= 1e-11
        w2 = cvm_statistic(pit(sample, theta))
        assert abs(_p_value(q.entries, w2) - _p_value(q_ref, w2)) <= 1e-9

    def test_midpoint_only_converges(self, fits_n1000, monkeypatch):
        # an infinite density makes every Newton step land on the bracket
        # end it starts from, so each round takes the geometric midpoint
        _, fit = fits_n1000[1]
        theta = fit.theta_hat
        s = grid_points(200)
        monkeypatch.setattr(mixture_model, "_pdf", lambda x, theta: np.full_like(x, np.inf))
        x, n_rounds = invert_cdf(s, theta)
        assert n_rounds <= mixture_model._MAX_QUANTILE_ROUNDS
        assert np.max(np.abs(mixture_cdf(x, theta) - s)) <= 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        log_shapes=st.tuples(*[st.floats(math.log(0.2), math.log(80.0))] * 2),
        log_scales=st.tuples(*[st.floats(-6.0, 6.0)] * 2),
        p=st.floats(0.001, 0.999),
    )
    def test_component_quantiles_bracket_the_root(self, log_shapes, log_scales, p):
        theta = MixtureParams(*np.exp(log_shapes), *np.exp(log_scales), p)
        s = grid_points(1000)
        w = -np.log1p(-s)
        q1 = theta.beta1 * w ** (1.0 / theta.alpha1)
        q2 = theta.beta2 * w ** (1.0 / theta.alpha2)
        # F is below t at the lower component quantile and above it at the
        # upper one, up to the rounding of F
        assert np.all(mixture_cdf(np.minimum(q1, q2), theta) - s <= 1e-13)
        assert np.all(mixture_cdf(np.maximum(q1, q2), theta) - s >= -1e-13)
        x, _ = invert_cdf(s, theta)
        assert np.max(np.abs(mixture_cdf(x, theta) - s)) <= 1e-10


class TestEigenSpectrum:
    def test_simple_hypothesis_first_five(self):
        rel = bridge_eigen_errors(500, count=5)
        assert np.all(rel < 1e-4)

    def test_diagonal_matrix_sorted(self):
        m = 3
        spec = kernel_eigen._spectrum(np.array([3.0, 1.0, 2.0]) / m, tail_tolerance=0.0)
        assert spec.lambdas == pytest.approx(np.array([3.0, 2.0, 1.0]) / m)

    def test_trace_identity(self, fitted_pop2):
        sample, fit = fitted_pop2
        q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 80)
        spec = eigen_spectrum(q, tail_tolerance=0.0)
        assert float(np.sum(spec.lambdas)) == pytest.approx(float(np.trace(q.entries)), abs=1e-8)

    def test_negative_eigenvalues_counted_not_retained(self):
        spec = kernel_eigen._spectrum(np.array([1.0, -0.1]), tail_tolerance=1e-4)
        assert spec.n_negative == 1
        assert spec.min_eigenvalue == pytest.approx(-0.1)
        assert np.all(spec.retained > 0)

    def test_truncation_respects_tail_tolerance(self):
        q = brownian_bridge_q(200)
        spec = eigen_spectrum(q, tail_tolerance=0.05)
        assert spec.n_retained < 200
        assert spec.trace_captured >= 0.95

    def test_rejects_non_finite_eigenvalues(self):
        with pytest.raises(NonFiniteKernel):
            kernel_eigen._spectrum(np.array([1.0, np.nan]), tail_tolerance=1e-4)

    def test_solver_is_numpys_own_lapack(self):
        if estimation._bundled_openblas("numpy") is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        assert kernel_eigen._dsyevd() is not None

    @pytest.mark.parametrize("m", [200, 1000])
    @pytest.mark.parametrize("pop_index", [1, 4])
    def test_bit_identical_to_eigvalsh_with_and_without_the_binding(
        self, fits_n1000, monkeypatch, pop_index, m
    ):
        sample, fit = fits_n1000[pop_index]
        q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, m)
        expected = np.linalg.eigvalsh(q.entries)[::-1].tobytes()
        assert eigen_spectrum(q).lambdas.tobytes() == expected
        monkeypatch.setattr(kernel_eigen, "_dsyevd", lambda: None)
        assert eigen_spectrum(q).lambdas.tobytes() == expected

    def test_nystrom_errors_shrink_with_grid(self):
        errors = [np.max(bridge_eigen_errors(m)) for m in (50, 100, 200, 500)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < coarse * 1.1


class TestSimpleHypothesisLambdas:
    def test_first_value(self):
        assert simple_hypothesis_lambdas(1)[0] == pytest.approx(0.1013212, abs=1e-7)

    def test_first_three(self):
        lam = simple_hypothesis_lambdas(3)
        expected = [1 / math.pi**2, 1 / (4 * math.pi**2), 1 / (9 * math.pi**2)]
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_partial_sum_approaches_basel_limit(self):
        assert float(np.sum(simple_hypothesis_lambdas(10000))) == pytest.approx(1 / 6, abs=1e-4)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(DomainError):
            simple_hypothesis_lambdas(0)


class TestKernelMatrixType:
    def test_rejects_wrong_shape(self):
        for shape in [(3,), (5, 2), (1, 5, 3)]:
            with pytest.raises(DomainError):
                KernelMatrix(m=3, factor=np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteKernel):
            KernelMatrix(m=2, factor=np.array([[1.0, bad]]))

    def test_rejects_overflowing_gram_product(self):
        with pytest.raises(NonFiniteKernel):
            KernelMatrix(m=2, factor=np.array([[1e200, 1.0]]))

    def test_factor_is_read_only(self):
        q = KernelMatrix(m=2, factor=np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            q.factor[0, 0] = 3.0

    def test_leaves_the_callers_factor_writable(self):
        f = np.zeros((5, 10))
        q = KernelMatrix(10, f)
        f[0, 0] = 1.0
        assert q.factor[0, 0] == 0.0

    def test_entries_are_bridge_minus_gram_product(self):
        r = np.array([[0.1, -0.2, 0.3], [0.05, 0.0, -0.1]])
        s = grid_points(3)
        bridge = (np.minimum.outer(s, s) - np.outer(s, s)) / 4.0
        q = KernelMatrix(m=3, factor=r)
        assert q.entries == pytest.approx(bridge - r.T @ r, abs=1e-16)
        # each access is a new buffer that the caller may overwrite
        first = q.entries
        first[:] = 0.0
        assert not np.array_equal(q.entries, first)
