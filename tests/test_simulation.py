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
    benchmark_populations,
    run_study,
)
import wmixgof.simulation as simulation


def assert_same_study(a, b):
    assert np.array_equal(a.p_values, b.p_values)
    assert (a.n_failed_fits, a.ad_statistic, a.ad_p_value) == (
        b.n_failed_fits,
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


class TestRunStudy:
    def test_deterministic_known_theta(self, populations):
        a = run_study(populations[0], 50, 100, seed=5, estimate_parameters=False)
        b = run_study(populations[0], 50, 100, seed=5, estimate_parameters=False)
        assert np.array_equal(a.p_values, b.p_values)
        assert a.ad_statistic == b.ad_statistic

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

    # With one L-BFGS-B iteration, some fits of this nearly one-component
    # population leave -H/n indefinite. Seed 4 fails replications 11, 14 and
    # 16: 15% of the study, so it stands, although 30% of the second of two
    # windows. Seed 1 fails 6 of 20 and aborts.
    @pytest.mark.parametrize("seed", [4, 1])
    def test_process_count_keeps_failures_and_the_abort_decision(self, seed):
        spec = PopulationSpec(MixtureParams(2.0, 2.0, 1.0, 3.0, 0.001))
        kwargs = dict(grid_size=30, fit_config=FitConfig(n_starts=1, max_iterations=1))
        outcomes = []
        for processes in (1, 2):
            try:
                outcomes.append(run_study(spec, 20, 20, seed, processes=processes, **kwargs))
            except StudyAborted as exc:
                outcomes.append(str(exc))
        if seed == 1:
            assert outcomes == ["6 of 20 replications failed; configuration looks broken"] * 2
        else:
            assert outcomes[0].n_failed_fits == 3
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

    def test_unstaged_errors_propagate(self, populations, monkeypatch):
        def broken(sample, config):
            raise DomainError("not a replication failure")

        monkeypatch.setattr(simulation, "fit_mle", broken)
        with pytest.raises(DomainError):
            run_study(populations[4], 5, 60, seed=21, grid_size=50)

    def test_overflowing_score_raises_no_warning(self, populations):
        # Replication 96 of this seed walks onto a flat ridge where the
        # four-coordinate gradient overflows; the fit must stay silent and
        # give the same p-value every time. The per-point scalar kernel gave
        # 0.7197759499073868; the array kernel's vector log and exp put it
        # one ulp lower.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_study(populations[1], 1, 100, 191203423, first_rep=96)
        assert res.p_values.tolist() == [0.7197759499073867]
