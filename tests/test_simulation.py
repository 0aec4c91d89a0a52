import concurrent.futures
import os
import sys
import warnings

import numpy as np
import pytest

from wmixgof import (
    AllStartsFailed,
    DomainError,
    FitConfig,
    MixtureParams,
    NonFiniteHessian,
    PopulationSpec,
    StudyAborted,
    TooFewObservations,
    WeightedChiSquare,
    benchmark_populations,
    build_q_matrix,
    cvm_statistic,
    eigen_spectrum,
    fit_mle,
    gof_test,
    imhof_tail,
    pit,
    run_study,
    sample_mixture,
)
import wmixgof._native as _native
import wmixgof.imhof as imhof
import wmixgof.kernel_eigen as kernel_eigen
import wmixgof.simulation as simulation
from conftest import _outputs_under_blas_threads


def scipy_loaded():
    return "scipy" in sys.modules


def assert_same_study(a, b):
    assert np.array_equal(a.p_values, b.p_values)
    assert (
        a.n_failed_fits,
        a.n_spike_fits,
        a.max_quantile_rounds,
        a.ad_statistic,
        a.ad_p_value,
    ) == (
        b.n_failed_fits,
        b.n_spike_fits,
        b.max_quantile_rounds,
        b.ad_statistic,
        b.ad_p_value,
    )


class TestBenchmarkPopulations:
    def test_five_rows(self):
        assert len(benchmark_populations()) == 5

    def test_row_five_values(self):
        theta = benchmark_populations()[4].theta
        assert (theta.alpha1, theta.alpha2, theta.beta1, theta.beta2, theta.p) == (
            2.0,
            8.0,
            1.0,
            4.0,
            0.5,
        )

    def test_all_rows_equal_mixing(self):
        assert all(spec.theta.p == 0.5 for spec in benchmark_populations())

    def test_first_row_stored_canonically_with_label(self):
        spec = benchmark_populations()[0]
        theta = spec.theta
        assert (theta.beta1, theta.beta2) == (0.9, 3.0)
        assert (theta.alpha1, theta.alpha2) == (3.0, 2.0)
        assert spec.label == "population 1"


class TestGofTest:
    def test_outcome_matches_the_layer_calls(self, populations):
        sample = sample_mixture(populations[4].theta, 300, rng_seed=8)
        config = FitConfig(seed=3)
        outcome = gof_test(sample, 3, 200)
        fit = fit_mle(sample, config)
        q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 200)
        spectrum = eigen_spectrum(q, 1e-4)
        w2 = cvm_statistic(pit(sample, fit.theta_hat))
        assert outcome.fit.theta_hat == fit.theta_hat
        assert outcome.w2 == w2
        assert np.array_equal(outcome.spectrum.lambdas, spectrum.lambdas)
        assert outcome.spectrum.n_retained == spectrum.n_retained
        assert outcome.p_value == imhof_tail(WeightedChiSquare(spectrum.retained), w2, 1e-6)
        assert outcome.n_quantile_rounds == q.n_quantile_rounds

    def test_study_replication_is_one_test(self, populations):
        spec = populations[4]
        study = run_study(spec, 1, 60, seed=21, grid_size=50, first_rep=3)
        s_sample, s_fit = simulation._replication_seeds(21, 3)
        sample = sample_mixture(spec.theta, 60, s_sample)
        outcome = gof_test(sample, s_fit, 50)
        assert study.p_values.tolist() == [outcome.p_value]


class TestRunStudy:
    def test_deterministic_known_theta(self, populations):
        a = run_study(populations[0], 50, 100, seed=5, estimate_parameters=False)
        b = run_study(populations[0], 50, 100, seed=5, estimate_parameters=False)
        assert np.array_equal(a.p_values, b.p_values)
        assert a.ad_statistic == b.ad_statistic

    def test_max_quantile_rounds_over_replications(self, populations):
        spec = populations[4]
        study = run_study(spec, 3, 60, seed=21, grid_size=50)
        rounds = []
        for rep in range(3):
            s_sample, s_fit = simulation._replication_seeds(21, rep)
            sample = sample_mixture(spec.theta, 60, s_sample)
            rounds.append(gof_test(sample, s_fit, 50).n_quantile_rounds)
        assert study.max_quantile_rounds == max(rounds) > 1
        known = run_study(spec, 3, 60, seed=21, estimate_parameters=False)
        assert known.max_quantile_rounds == 0

    def test_deterministic_estimated(self, populations):
        kwargs = dict(grid_size=50, estimate_parameters=True)
        a = run_study(populations[4], 3, 60, seed=9, **kwargs)
        b = run_study(populations[4], 3, 60, seed=9, **kwargs)
        assert np.array_equal(a.p_values, b.p_values)

    def test_single_replication_reports_no_ad(self, populations):
        res = run_study(populations[4], 1, 60, seed=4, grid_size=50)
        assert res.p_values.size + res.n_failed_fits == 1
        assert res.ad_statistic is None
        assert res.ad_p_value is None

    def test_p_values_inside_unit_interval(self, populations):
        res = run_study(populations[4], 5, 60, seed=14, grid_size=50)
        assert np.all((res.p_values >= 0) & (res.p_values <= 1))
        assert np.all(np.diff(res.p_values) >= 0)

    def test_known_theta_pipeline_close_to_uniform(self, populations):
        res = run_study(populations[1], 200, 100, seed=33, estimate_parameters=False)
        assert res.n_failed_fits == 0
        assert res.ad_p_value > 0.01

    def test_failed_fits_counted_and_study_aborts(self, populations, monkeypatch):
        def always_fails(sample, config):
            raise AllStartsFailed("forced failure")

        monkeypatch.setattr(simulation, "fit_mle", always_fails)
        with pytest.raises(StudyAborted):
            run_study(populations[0], 5, 50, seed=1, grid_size=50)

    def test_occasional_failures_are_recorded(self, populations, monkeypatch):
        real_fit = simulation.fit_mle
        calls = {"n": 0}

        def flaky(sample, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise AllStartsFailed("forced failure")
            return real_fit(sample, config)

        monkeypatch.setattr(simulation, "fit_mle", flaky)
        res = run_study(populations[4], 10, 60, seed=21, grid_size=50)
        assert res.n_failed_fits == 1
        assert res.p_values.size == 9

    def test_validates_arguments(self, populations):
        with pytest.raises(DomainError):
            run_study(populations[0], 0, 100, seed=1)
        with pytest.raises(DomainError):
            run_study(populations[0], 10, 19, seed=1)
        with pytest.raises(DomainError):
            run_study(populations[0], 10, 100, seed=1, processes=0)
        with pytest.raises(DomainError):
            run_study(populations[0], 10, 100, seed=-1)
        with pytest.raises(DomainError):
            run_study(populations[0], 10, 100, seed=1, first_rep=-1)

    def test_replication_seeds_order_insensitive(self):
        first = simulation._replication_seeds(123, 7)
        again = simulation._replication_seeds(123, 7)
        other = simulation._replication_seeds(123, 8)
        assert first == again
        assert first != other

    def test_windowed_runs_pool_to_the_sequential_run(self, populations):
        kwargs = dict(seed=31, estimate_parameters=False)
        full = run_study(populations[1], 40, 80, **kwargs)
        lo = run_study(populations[1], 25, 80, **kwargs)
        hi = run_study(populations[1], 15, 80, first_rep=25, **kwargs)
        pooled = np.sort(np.concatenate([lo.p_values, hi.p_values]))
        assert np.array_equal(pooled, full.p_values)
        assert_same_study(run_study(populations[1], 40, 80, processes=2, **kwargs), full)
        fitted = dict(seed=9, grid_size=50)
        assert_same_study(
            run_study(populations[4], 5, 60, processes=2, **fitted),
            run_study(populations[4], 5, 60, **fitted),
        )

    # At n=20 some fits of this nearly one-component population leave -H/n
    # indefinite, and build_q_matrix's positive-definiteness gate fails them
    # (SingularInformation); ROADMAP item 1, the expected information at the
    # fit, stays positive definite and passes that gate. Seed 4 fails
    # replication 14: 1 of replications 10-17, so the study stands, although
    # 1 of 4 in the second of two windows. Seed 1 fails replication 5: 1 of
    # replications 2-5, so the study aborts, although the first of two
    # windows has no failure.
    @pytest.mark.parametrize("seed, first_rep, n_reps", [(4, 10, 8), (1, 2, 4)], ids=["4", "1"])
    def test_process_count_keeps_failures_and_the_abort_decision(self, seed, first_rep, n_reps):
        spec = PopulationSpec(MixtureParams(2.0, 2.0, 1.0, 3.0, 0.001))
        kwargs = dict(grid_size=30, first_rep=first_rep)
        outcomes = []
        for processes in (1, 2):
            try:
                outcomes.append(run_study(spec, n_reps, 20, seed, processes=processes, **kwargs))
            except StudyAborted as exc:
                outcomes.append(str(exc))
        if seed == 1:
            assert outcomes == ["1 of 4 replications failed; configuration looks broken"] * 2
        else:
            assert outcomes[0].n_failed_fits == 1
            assert_same_study(*outcomes)

    @pytest.mark.parametrize("error", [NonFiniteHessian, TooFewObservations])
    def test_fit_stage_errors_count_as_failures(self, populations, monkeypatch, error):
        real_fit = simulation.fit_mle
        calls = {"n": 0}

        def flaky(sample, config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise error("forced failure")
            return real_fit(sample, config)

        monkeypatch.setattr(simulation, "fit_mle", flaky)
        res = run_study(populations[4], 5, 60, seed=21, grid_size=50)
        assert res.n_failed_fits == 1
        assert res.p_values.size == 4

    def test_non_finite_kernel_counts_as_a_failure(self, populations, monkeypatch):
        real_gradients = kernel_eigen.cdf_gradients
        calls = {"n": 0}

        def nan_once(x, theta):
            calls["n"] += 1
            grad = real_gradients(x, theta)
            return np.full_like(grad, np.nan) if calls["n"] == 1 else grad

        monkeypatch.setattr(kernel_eigen, "cdf_gradients", nan_once)
        res = run_study(populations[4], 5, 60, seed=21, grid_size=50)
        assert res.n_failed_fits == 1
        assert res.p_values.size == 4

    def test_exhausted_quadrature_budget_counts_as_a_failure(self, populations, monkeypatch):
        real_tail = simulation.imhof_tail
        calls = {"n": 0}

        def starved_once(dist, x):
            calls["n"] += 1
            with monkeypatch.context() as patch:
                if calls["n"] == 1:
                    patch.setattr(imhof, "_MAX_NODES", 10)
                return real_tail(dist, x)

        whole = run_study(populations[4], 5, 60, seed=21, estimate_parameters=False)
        monkeypatch.setattr(simulation, "imhof_tail", starved_once)
        res = run_study(populations[4], 5, 60, seed=21, estimate_parameters=False, processes=1)
        assert res.n_failed_fits == 1
        assert set(res.p_values.tolist()) < set(whole.p_values.tolist())
        assert res.p_values.size == 4

    def test_spike_fit_is_counted_not_dropped(self, populations):
        # replication 187 fits alpha1 = 1700.75 and used to abort the study
        res = run_study(populations[1], 1, 300, 0, first_rep=187)
        assert res.p_values.size == 1
        assert (res.n_failed_fits, res.n_spike_fits) == (0, 1)
        assert res.p_values[0] == pytest.approx(0.358, abs=1e-3)

    def test_unstaged_errors_propagate(self, populations, monkeypatch):
        def broken(sample, config):
            raise DomainError("not a replication failure")

        monkeypatch.setattr(simulation, "fit_mle", broken)
        with pytest.raises(DomainError):
            run_study(populations[4], 5, 60, seed=21, grid_size=50)

    def test_overflowing_score_raises_no_warning(self, populations):
        # Replication 96 of this seed walks onto a flat ridge where the
        # four-coordinate gradient overflows; the fit must stay silent and
        # give the same p-value every time. The secant-plus-bisection
        # quantile solver gave 0.7197759499073867; the bracketed Newton
        # solver stops on the residual alone and moves it by 8.0e-12. The
        # Gram-form kernel, from the Cholesky factor of -H/n instead of its
        # inverse, moves it by another 2.7e-15, and Gauss-Kronrod panels in
        # place of adaptive Simpson in the Imhof integral by 1.9e-11. The
        # likelihood evaluated from log x - log b, with the weights and
        # ratios taken from exp(-|t1 - t2|), moves the fit in its last bits
        # and the p-value by 5.0e-8. Imhof panels sized by the exact phase-rate
        # bound and graded at the origin move it by 3.3e-16, and the kernel
        # formed as one product of two thin factors by 2.2e-16.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_study(populations[1], 1, 100, 191203423, first_rep=96)
        assert res.p_values.tolist() == [0.7197759996701268]

    def test_workers_run_blas_on_one_thread(self, populations, monkeypatch):
        numpy_blas = _native.blas_threads("numpy")
        if numpy_blas is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        get_threads, set_threads = numpy_blas
        seen = []

        class Probing(concurrent.futures.ProcessPoolExecutor):
            # probes a worker after the windows have run in the pool
            def __exit__(self, *exc):
                seen.append(self.submit(scipy_loaded).result(timeout=120))
                return super().__exit__(*exc)

        environ = dict(os.environ)
        study = (populations[4], 6, 300, 5)
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", Probing)
            pooled = run_study(*study, grid_size=300, processes=2)
            run_study(populations[4], 4, 100, 1, estimate_parameters=False, processes=2)
        # a worker that never fits never loads scipy
        assert seen == [True, False]
        inside = []
        real_sample = simulation.sample_mixture

        def recording(*args):
            inside.append(get_threads())
            return real_sample(*args)

        monkeypatch.setattr(simulation, "sample_mixture", recording)
        outer = get_threads()
        set_threads(2)
        try:
            alone = run_study(*study, grid_size=300)
            after = get_threads()
        finally:
            set_threads(outer)
        # From about m=300 the eigenvalues move in their last bits with the
        # BLAS thread count. A window holds numpy's OpenBLAS at one thread
        # wherever it runs, so the pooled windows equal one process whose
        # outer count is 2, and that count comes back after the window.
        assert inside == [1] * 6
        assert after == 2
        assert_same_study(pooled, alone)
        assert dict(os.environ) == environ

    def test_study_identical_across_blas_thread_counts(self):
        # At m=1000 the eigensolve's last bits move with the BLAS thread
        # count; the study's windows pin it, so its p-values do not move.
        script = (
            "from wmixgof import benchmark_populations, run_study\n"
            "study = run_study(benchmark_populations()[4], 3, 300, 5, grid_size=1000)\n"
            "print(study.p_values.size, study.p_values.tobytes().hex())\n"
        )
        outputs = _outputs_under_blas_threads(script)
        assert outputs[0].startswith("3 ")
        assert outputs[0] == outputs[1]
