import json

import numpy as np
import pytest
from click.testing import CliRunner

from wmixgof import (
    AllStartsFailed,
    FitConfig,
    NonFiniteHessian,
    Sample,
    benchmark_populations,
    build_q_matrix,
    fit_mle,
    gof_test,
    run_study,
    sample_mixture,
)
from wmixgof.cli import main, read_observations, DataFileError
import wmixgof.cli as cli
import wmixgof.estimation as estimation
import wmixgof.imhof as imhof
import wmixgof.kernel_eigen as kernel_eigen
import wmixgof.mixture_model as mixture_model
import wmixgof.simulation as simulation
from wmixgof.mixture_model import invert_cdf
from wmixgof.simulation import _replication_seeds


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pop5_file(tmp_path):
    sample = sample_mixture(benchmark_populations()[4].theta, 1000, rng_seed=55)
    path = tmp_path / "pop5.txt"
    path.write_text("\n".join(repr(float(v)) for v in sample.values) + "\n")
    return str(path)


class TestReadObservations:
    def test_plain_lines_with_comments(self, tmp_path):
        path = tmp_path / "data.txt"
        # a UTF-8 byte-order mark before the first line is not part of its value
        for text in ("# header comment\n1.5\n2.5  # trailing\n\n3.5\n", "\ufeff1.5\n2.5\n3.5\n"):
            path.write_text(text, encoding="utf-8")
            assert list(read_observations(str(path))) == [1.5, 2.5, 3.5]

    def test_single_column_csv_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        for text in ("value\n1.0,\n2.0,\n", "\ufeffvalue\n1.0,\n2.0,\n"):
            path.write_text(text, encoding="utf-8")
            assert list(read_observations(str(path))) == [1.0, 2.0]

    def test_nonpositive_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n-3.0\n")
        with pytest.raises(DataFileError, match="line 3"):
            read_observations(str(path))

    def test_junk_mid_file_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\noops\n")
        with pytest.raises(DataFileError, match="line 2"):
            read_observations(str(path))

    def test_two_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(DataFileError, match="single column"):
            read_observations(str(path))

    def test_missing_file(self):
        with pytest.raises(DataFileError):
            read_observations("/nonexistent/file.txt")


class TestCmdTest:
    def test_end_to_end(self, runner, pop5_file):
        result = runner.invoke(main, ["test", "-i", pop5_file, "--seed", "3"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert 0.001 < report["p_value"] <= 1.0
        assert report["input"]["n"] == 1000
        assert report["statistic"]["w2"] > 1 / 12000
        assert report["fit"]["converged"] is True
        assert report["eigenvalues"]["n_retained"] == len(report["eigenvalues"]["retained"])
        assert report["config"]["grid_size"] == 500
        assert report["version"]

    def test_reports_the_library_chain_bit_for_bit(self, runner, pop5_file):
        result = runner.invoke(main, ["test", "-i", pop5_file, "--seed", "3", "-m", "100"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        outcome = gof_test(Sample(read_observations(pop5_file)), 3, 100)
        assert report["p_value"] == outcome.p_value
        assert report["statistic"]["w2"] == outcome.w2
        assert report["fit"]["log_likelihood"] == outcome.fit.log_likelihood

    def test_identical_invocations_byte_identical(self, runner, pop5_file):
        args = ["test", "-i", pop5_file, "--seed", "3", "-m", "100"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_nonpositive_value_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(["1.0"] * 30) + "\n-2.0\n")
        result = runner.invoke(main, ["test", "-i", str(path)])
        assert result.exit_code == 2
        assert "error: parse:" in result.output
        assert "line 31" in result.output

    @pytest.mark.parametrize("command", ["fit", "test"])
    @pytest.mark.parametrize(
        "text", ["# comment only\n\n# another\n", "value\n"], ids=["comments", "header"]
    )
    def test_file_without_observations_exits_2(self, runner, tmp_path, command, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        result = runner.invoke(main, [command, "-i", str(path)])
        assert result.exit_code == 2
        assert f"error: parse: no observations found in {path}" in result.output

    def test_too_few_observations_exits_3(self, runner, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("\n".join(str(v) for v in np.linspace(1, 2, 10)) + "\n")
        result = runner.invoke(main, ["test", "-i", str(path)])
        assert result.exit_code == 3
        assert "error: fit:" in result.output

    def test_missing_file_exits_2(self, runner):
        result = runner.invoke(main, ["test", "-i", "/no/such/file"])
        assert result.exit_code == 2

    def test_undecodable_file_exits_2(self, runner, tmp_path):
        # UTF-16 opens with the bytes ff fe, which UTF-8 cannot start with
        path = tmp_path / "utf16.txt"
        path.write_text("1.0\n2.0\n", encoding="utf-16")
        result = runner.invoke(main, ["test", "-i", str(path)])
        assert result.exit_code == 2
        assert "error: parse:" in result.output
        assert "at byte 0" in result.output

    def test_output_file(self, runner, pop5_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["test", "-i", pop5_file, "--seed", "3", "-m", "100", "-o", str(out)]
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "test"

    def test_reports_quantile_rounds(self, runner, pop5_file):
        result = runner.invoke(main, ["test", "-i", pop5_file, "--seed", "3", "-m", "200"])
        assert result.exit_code == 0
        diagnostics = json.loads(result.output)["diagnostics"]
        sample = Sample(read_observations(pop5_file))
        fit = fit_mle(sample, FitConfig(seed=3))
        q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, 200)
        assert 1 < q.n_quantile_rounds <= mixture_model._MAX_QUANTILE_ROUNDS
        assert diagnostics == {"quantile_rounds": q.n_quantile_rounds}

    def test_quantile_inversion_failure_exits_4(self, runner, pop5_file, monkeypatch):
        # one round cannot bring every grid level within the residual bound
        monkeypatch.setattr(mixture_model, "_MAX_QUANTILE_ROUNDS", 1)
        result = runner.invoke(main, ["test", "-i", pop5_file, "--seed", "3", "-m", "50"])
        assert result.exit_code == 4
        assert "error: kernel: quantile inversion did not converge in 1 rounds" in result.output

    def test_evenly_spaced_quantiles_at_m_1000(self, runner, tmp_path):
        # the sample sits on the fitted quantiles, so W2 is near its least
        # value 1/(12n) and the p-value near 1
        levels = (np.arange(1000) + 0.5) / 1000
        x, _ = invert_cdf(levels, benchmark_populations()[4].theta)
        path = tmp_path / "even.txt"
        path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
        result = runner.invoke(main, ["test", "-i", str(path), "-m", "1000"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["p_value"] > 0.999

    def test_spike_fit_gives_a_p_value(self, runner, tmp_path):
        # Replication 187 of population 2 at n=300, seed 0, fits a spike
        # (alpha1 = 1700.75) that does not converge; its kernel used to be
        # all nan and the command exited 1 with a traceback.
        s_sample, s_fit = _replication_seeds(0, 187)
        sample = sample_mixture(benchmark_populations()[1].theta, 300, s_sample)
        path = tmp_path / "spike.txt"
        path.write_text("\n".join(repr(float(v)) for v in sample.values) + "\n")
        result = runner.invoke(main, ["test", "-i", str(path), "--seed", str(s_fit), "-m", "200"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["fit"]["alpha1"] == pytest.approx(1700.75, abs=0.01)
        assert report["fit"]["spike"] is True
        assert report["fit"]["converged"] is False
        assert report["p_value"] == pytest.approx(0.358, abs=1e-3)

    def test_lognormal_misfit_rejected_in_clear_majority(self, runner, tmp_path):
        rejections = 0
        for s in range(5):
            rng = np.random.default_rng(900 + s)
            path = tmp_path / f"lognormal{s}.txt"
            path.write_text(
                "\n".join(repr(float(v)) for v in np.exp(rng.normal(size=1000))) + "\n"
            )
            result = runner.invoke(
                main, ["test", "-i", str(path), "--seed", str(s), "-m", "200"]
            )
            assert result.exit_code == 0
            rejections += json.loads(result.output)["p_value"] < 0.05
        assert rejections >= 3


class TestCmdFit:
    def test_reports_parameters(self, runner, pop5_file):
        result = runner.invoke(main, ["fit", "-i", pop5_file, "--seed", "2"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        fit = report["fit"]
        assert fit["beta1"] <= fit["beta2"]
        assert 0.0 <= fit["p"] <= 1.0
        assert fit["log_likelihood"] > -10000
        assert fit["spike"] is False


class TestCmdSimulate:
    def test_needs_population_or_theta(self, runner):
        result = runner.invoke(main, ["simulate", "--n-reps", "1"])
        assert result.exit_code == 2
        both = ["simulate", "--n-reps", "1", "--population", "5", "--theta", "2,8,1,4,0.5"]
        result = runner.invoke(main, both)
        assert result.exit_code == 2
        assert "exactly one of --population and --theta" in result.output

    def test_population_index_selects_row(self, runner):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--population",
                "5",
                "--n-reps",
                "2",
                "--sample-size",
                "60",
                "-m",
                "50",
                "--seed",
                "4",
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        pop = report["population"]
        assert (pop["alpha1"], pop["alpha2"], pop["beta1"], pop["beta2"], pop["p"]) == (
            2.0,
            8.0,
            1.0,
            4.0,
            0.5,
        )
        assert len(report["p_values"]) + report["n_failed_fits"] == 2
        assert report["n_spike_fits"] == 0
        assert 1 < report["max_quantile_rounds"] <= mixture_model._MAX_QUANTILE_ROUNDS

    def test_report_round_trips(self, runner, tmp_path):
        out = tmp_path / "study.json"
        args = [
            "simulate",
            "--theta",
            "2,8,1,4,0.5",
            "--n-reps",
            "2",
            "--sample-size",
            "60",
            "-m",
            "50",
            "--seed",
            "4",
            "-o",
            str(out),
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        written = json.loads(out.read_text())
        streamed = json.loads(runner.invoke(main, args[:-2]).output)
        assert written == streamed

    def test_bad_theta_exits_2(self, runner):
        result = runner.invoke(main, ["simulate", "--theta", "1,2,3", "--n-reps", "1"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["simulate", "--theta", "0,1,1,1,0.5", "--n-reps", "1"])
        assert result.exit_code == 2
        assert "invalid --theta" in result.output

    def test_process_count_leaves_the_report_unchanged(self, runner):
        args = ["simulate", "--population", "5", "--n-reps", "4", "--sample-size", "60"]
        args += ["-m", "50", "--seed", "4", "--processes"]
        one = runner.invoke(main, args + ["1"])
        two = runner.invoke(main, args + ["2"])
        assert one.exit_code == two.exit_code == 0
        assert '"processes": 2' in two.output
        assert two.output.replace('"processes": 2', '"processes": 1') == one.output
        study = run_study(benchmark_populations()[4], 4, 60, 4, grid_size=50)
        assert json.loads(one.output)["p_values"] == study.p_values.tolist()


class TestCmdEigenCheck:
    def test_ten_rows_with_small_errors(self, runner):
        result = runner.invoke(main, ["eigen-check", "-m", "500"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert len(report["rows"]) == 10
        assert report["rows"][0]["relative_error"] < 1e-3
        assert all(row["relative_error"] < 1e-3 for row in report["rows"])
        small = runner.invoke(main, ["eigen-check", "-m", "5"])
        assert small.exit_code == 0
        assert [row["j"] for row in json.loads(small.output)["rows"]] == [1, 2, 3, 4, 5]

    def test_errors_shrink_with_refinement(self, runner):
        coarse = json.loads(runner.invoke(main, ["eigen-check", "-m", "50"]).output)
        fine = json.loads(runner.invoke(main, ["eigen-check", "-m", "500"]).output)
        worst = lambda rep: max(r["relative_error"] for r in rep["rows"])  # noqa: E731
        assert worst(fine) < worst(coarse)


class TestExitCodes:
    @pytest.mark.parametrize("args", [["fit"], ["test", "-m", "50"]], ids=["fit", "test"])
    def test_non_finite_hessian_exits_3(self, runner, pop5_file, monkeypatch, args):
        def non_finite(*_):
            raise NonFiniteHessian("forced")

        monkeypatch.setattr(estimation, "_score_and_hessian", non_finite)
        result = runner.invoke(main, args + ["-i", pop5_file])
        assert result.exit_code == 3
        assert "error: fit: forced" in result.output

    def test_non_finite_kernel_exits_4(self, runner, pop5_file, monkeypatch):
        monkeypatch.setattr(
            kernel_eigen, "cdf_gradients", lambda x, theta: np.full((x.size, 5), np.nan)
        )
        result = runner.invoke(main, ["test", "-i", pop5_file, "-m", "50"])
        assert result.exit_code == 4
        assert "error: kernel: kernel entries must be finite" in result.output

    def test_aborted_study_exits_3(self, runner, monkeypatch):
        def always_fails(sample, config):
            raise AllStartsFailed("forced failure")

        monkeypatch.setattr(simulation, "fit_mle", always_fails)
        args = ["simulate", "--population", "1", "--n-reps", "3", "-m", "20"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "error: simulate: 3 of 3 replications failed" in result.output

    def test_exhausted_quadrature_budget_exits_4(self, runner, pop5_file, monkeypatch):
        monkeypatch.setattr(imhof, "_MAX_NODES", 10)
        result = runner.invoke(main, ["test", "-i", pop5_file, "-m", "50"])
        assert result.exit_code == 4
        assert "error: kernel: node budget exhausted" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["test", "-m", "1"],
            ["eigen-check", "-m", "1"],
            ["fit", "--seed", "-1"],
            ["simulate", "--population", "1", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_option_exits_2(self, runner, pop5_file, args):
        inputs = ["-i", pop5_file] if args[0] in ("fit", "test") else []
        result = runner.invoke(main, args + inputs)
        assert result.exit_code == 2
        assert "Invalid value for" in result.output
        assert f"'{args[-2]}'" in result.output

    @pytest.mark.parametrize(
        "args",
        [["fit"], ["test"], ["simulate", "--population", "1"], ["eigen-check"]],
        ids=lambda args: args[0],
    )
    def test_output_in_a_missing_directory_exits_2_before_the_run(
        self, runner, pop5_file, tmp_path, monkeypatch, args
    ):
        def must_not_run(*_, **__):
            raise AssertionError("the run started")

        for name in ("fit_mle", "gof_test", "run_study", "eigen_spectrum"):
            monkeypatch.setattr(cli, name, must_not_run)
        output = tmp_path / "missing" / "r.json"
        inputs = ["-i", pop5_file] if args[0] in ("fit", "test") else []
        result = runner.invoke(main, args + inputs + ["-o", str(output)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "Invalid value for '--output'" in result.output
        assert "Traceback" not in result.output
        assert not output.exists() and not output.parent.exists()


class TestConfigEcho:
    FIT = ["input", "seed"]
    KERNEL = ["grid_size"]

    @pytest.mark.parametrize(
        "args, keys",
        [
            (["fit", "-i", "{data}"], FIT),
            (["test", "-i", "{data}", "-m", "50"], FIT + KERNEL),
            (
                ["simulate", "--population", "5", "--n-reps", "1", "--sample-size", "60", "-m", "50"],
                FIT[1:] + KERNEL + ["n_reps", "sample_size", "population", "theta", "processes"],
            ),
            (["eigen-check", "-m", "50"], ["grid_size"]),
        ],
        ids=["fit", "test", "simulate", "eigen-check"],
    )
    def test_keys_in_order(self, runner, pop5_file, args, keys):
        result = runner.invoke(main, [a.format(data=pop5_file) for a in args])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        # every report opens with the same header, named for its command
        assert list(report)[:3] == ["command", "version", "config"]
        assert report["command"] == args[0]
        assert list(report["config"]) == keys


class TestOptionSet:
    # The fitter runs at FitConfig's defaults; only the seed varies, and only
    # by --seed.
    @pytest.mark.parametrize(
        "args, option",
        [
            (["test", "--n-starts", "3"], "--n-starts"),
            (["fit", "--tolerance", "1e-3"], "--tolerance"),
            (["simulate", "--population", "1", "--max-iterations", "5"], "--max-iterations"),
            (["--config", "f.json", "eigen-check"], "--config"),
        ],
        ids=["test --n-starts", "fit --tolerance", "simulate --max-iterations", "--config"],
    )
    def test_fitter_and_config_options_exit_2(self, runner, pop5_file, args, option):
        inputs = ["-i", pop5_file] if args[0] in ("fit", "test") else []
        result = runner.invoke(main, args + inputs)
        assert result.exit_code == 2
        assert f"No such option '{option}'" in result.output

    def test_seed_is_not_read_from_the_environment(self, runner, pop5_file):
        result = runner.invoke(main, ["fit", "-i", pop5_file], env={"WMIXGOF_SEED": "17"})
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["config"]["seed"] == 0
