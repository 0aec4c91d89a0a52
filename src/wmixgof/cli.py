"""Command-line interface: fit, test, simulate and eigen-check.

Every command writes a JSON report (stdout or --output) that echoes the
effective configuration and the package version, so any number in a
report can be reproduced from the report alone. Exit codes are stable:
0 success, 2 parse/usage failure, 3 fit failure, 4 kernel or tail-
probability failure, each with a one-line ``error: <stage>: <reason>``
on stderr.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__
from .errors import DomainError, StudyAborted, WmixgofError
from .estimation import FitConfig, FitResult, fit_mle
from .kernel_eigen import brownian_bridge_q, eigen_spectrum, simple_hypothesis_lambdas
from .mixture_model import MixtureParams, Sample
from .simulation import PopulationSpec, benchmark_populations, gof_test, run_study

EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_KERNEL = 4
_STAGE_EXITS = {"fit": EXIT_FIT, "kernel": EXIT_KERNEL}

# Parameters echoed under another name in a report's config section.
_ECHO_NAMES = {"input_path": "input", "theta_text": "theta"}


class DataFileError(Exception):
    """A data file could not be parsed into positive observations."""


def read_observations(path: str) -> np.ndarray:
    """Read one observation per line; '#' starts a comment.

    A single-column CSV is accepted too: a trailing comma is ignored and
    one non-numeric header line at the top is skipped.
    """
    values = []
    header_allowed = True
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataFileError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [f for f in line.replace(",", " ").split() if f]
            if len(fields) != 1:
                raise DataFileError(f"line {lineno}: expected a single column, got {line!r}")
            try:
                v = float(fields[0])
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise DataFileError(f"line {lineno}: not a number: {fields[0]!r}") from None
            header_allowed = False
            if not np.isfinite(v) or v <= 0.0:
                raise DataFileError(
                    f"line {lineno}: observations must be positive and finite, got {fields[0]}"
                )
            values.append(v)
    if not values:
        raise DataFileError(f"no observations found in {path}")
    return np.asarray(values)


def _fail(code: int, stage: str, message: str) -> None:
    click.echo(f"error: {stage}: {message}", err=True)
    sys.exit(code)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fit_section(fit: FitResult) -> dict:
    theta = fit.theta_hat
    return {
        "alpha1": theta.alpha1,
        "alpha2": theta.alpha2,
        "beta1": theta.beta1,
        "beta2": theta.beta2,
        "p": theta.p,
        "log_likelihood": fit.log_likelihood,
        "converged": fit.converged,
        "n_starts_used": fit.n_starts_used,
        "n_boundary_starts": fit.n_boundary_starts,
        "boundary_proximity": fit.boundary_proximity,
        "spike": fit.spike,
        "local_optima_log_likelihoods": list(fit.best_of_likelihoods),
        "n_rounds": fit.n_rounds,
        "n_evaluations": fit.n_evaluations,
    }


def _parse_theta(text: str) -> MixtureParams:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 5:
        raise click.UsageError("--theta needs five numbers: alpha1,alpha2,beta1,beta2,p")
    try:
        return MixtureParams(*(float(p) for p in parts))
    except (ValueError, DomainError) as exc:
        raise click.UsageError(f"invalid --theta: {exc}") from exc


def _config_echo() -> dict:
    """The running command's effective parameters, in declaration order."""
    ctx = click.get_current_context()
    return {
        _ECHO_NAMES.get(p.name, p.name): ctx.params[p.name]
        for p in ctx.command.params
        if p.name != "output"
    }


def _options(*options):
    """Apply click options so that they are declared, and echoed, in the given order."""

    def decorate(f):
        for option in reversed(options):
            f = option(f)
        return f

    return decorate


class _FiniteRange(click.FloatRange):
    """A float range that also rejects nan and infinities.

    nan compares false with both bounds, so a plain FloatRange lets it through.
    """

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{number} is not a finite number.", param, ctx)
        return number


_POSITIVE = _FiniteRange(min=0.0, min_open=True)

seed_option = click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    envvar="WMIXGOF_SEED",
    help="Master seed (env: WMIXGOF_SEED).",
)
output_option = click.option(
    "--output", "-o", type=click.Path(dir_okay=False), default=None, help="Write the JSON report here instead of stdout."
)
input_option = click.option("--input", "-i", "input_path", required=True, type=click.Path())
fit_options = _options(
    click.option("--n-starts", type=click.IntRange(min=1), default=10, show_default=True),
    click.option("--tolerance", type=_POSITIVE, default=1e-6, show_default=True),
    click.option("--max-iterations", type=click.IntRange(min=1), default=200, show_default=True),
)


def grid_option(default: int):
    return click.option(
        "--grid-size", "-m", type=click.IntRange(min=2), default=default, show_default=True
    )


class _Commands(click.Group):
    """Turns an error of the fit or kernel stage into its exit code and one line on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WmixgofError as exc:
            if exc.stage is None:
                raise
            _fail(_STAGE_EXITS[exc.stage], exc.stage, str(exc))


@click.group(cls=_Commands, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file with per-command option defaults; flags override it.",
)
@click.pass_context
def main(ctx, config_path):
    """Goodness-of-fit testing for two-component Weibull mixtures."""
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                defaults = json.load(fh)
            except ValueError as exc:
                raise click.UsageError(f"--config {config_path}: not valid JSON: {exc}") from None
        if not isinstance(defaults, dict) or not all(
            isinstance(v, dict) for v in defaults.values()
        ):
            raise click.UsageError(
                f"--config {config_path}: expected a JSON object mapping commands to option objects"
            )
        ctx.default_map = defaults


def _read_sample(input_path: str) -> Sample:
    try:
        return Sample(read_observations(input_path), label=input_path)
    except DataFileError as exc:
        _fail(EXIT_PARSE, "parse", str(exc))


@main.command("fit")
@input_option
@output_option
@seed_option
@fit_options
def cmd_fit(input_path, output, seed, n_starts, tolerance, max_iterations):
    """Fit the mixture by maximum likelihood and report the parameters."""
    sample = _read_sample(input_path)
    fit = fit_mle(sample, FitConfig(n_starts, tolerance, max_iterations, seed))
    report = {
        "command": "fit",
        "version": __version__,
        "config": _config_echo(),
        "input": {"path": input_path, "n": sample.n},
        "fit": _fit_section(fit),
    }
    _emit(report, output)


@main.command("test")
@input_option
@output_option
@seed_option
@fit_options
@grid_option(500)
def cmd_test(input_path, output, seed, n_starts, tolerance, max_iterations, grid_size):
    """Run the full goodness-of-fit test on a data file.

    Fits the mixture, transforms the sample through the fitted CDF,
    computes the Cramer-von Mises statistic, estimates the covariance
    kernel eigenvalues and converts the statistic to an approximate
    p-value.
    """
    sample = _read_sample(input_path)
    config = FitConfig(n_starts, tolerance, max_iterations, seed)
    outcome = gof_test(sample, config, grid_size)
    spectrum = outcome.spectrum
    report = {
        "command": "test",
        "version": __version__,
        "config": _config_echo(),
        "input": {"path": input_path, "n": sample.n},
        "fit": _fit_section(outcome.fit),
        "statistic": {"w2": outcome.w2},
        "eigenvalues": {
            "n_retained": spectrum.n_retained,
            "trace_captured": spectrum.trace_captured,
            "n_negative": spectrum.n_negative,
            "min_eigenvalue": spectrum.min_eigenvalue,
            "retained": [float(v) for v in spectrum.retained],
        },
        "p_value": outcome.p_value,
        "diagnostics": {"quantile_rounds": outcome.n_quantile_rounds},
    }
    _emit(report, output)


@main.command("simulate")
@output_option
@seed_option
@fit_options
@grid_option(200)
@click.option("--n-reps", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--sample-size", type=click.IntRange(min=20), default=100, show_default=True)
@click.option(
    "--population",
    type=click.IntRange(1, 5),
    default=None,
    help="Benchmark population index (1..5).",
)
@click.option("--theta", "theta_text", default=None, help="Explicit alpha1,alpha2,beta1,beta2,p.")
@click.option(
    "--processes",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Worker processes; the report does not depend on it.",
)
def cmd_simulate(
    output,
    seed,
    n_starts,
    tolerance,
    max_iterations,
    grid_size,
    n_reps,
    sample_size,
    population,
    theta_text,
    processes,
):
    """Monte Carlo uniformity study of the approximate p-values."""
    if (population is None) == (theta_text is None):
        raise click.UsageError("provide exactly one of --population and --theta")
    if theta_text is not None:
        spec = PopulationSpec(theta=_parse_theta(theta_text), label="custom")
    else:
        spec = benchmark_populations()[population - 1]
    try:
        result = run_study(
            spec,
            n_reps,
            sample_size,
            seed,
            grid_size=grid_size,
            fit_config=FitConfig(n_starts, tolerance, max_iterations),
            processes=processes,
        )
    except StudyAborted as exc:
        _fail(EXIT_FIT, "simulate", str(exc))
    theta = spec.theta
    report = {
        "command": "simulate",
        "version": __version__,
        "config": _config_echo(),
        "population": {
            "label": spec.label,
            "alpha1": theta.alpha1,
            "alpha2": theta.alpha2,
            "beta1": theta.beta1,
            "beta2": theta.beta2,
            "p": theta.p,
        },
        "n_reps": n_reps,
        "sample_size": sample_size,
        "grid_size": grid_size,
        "n_failed_fits": result.n_failed_fits,
        "n_spike_fits": result.n_spike_fits,
        "max_quantile_rounds": result.max_quantile_rounds,
        "ad_statistic": result.ad_statistic,
        "ad_p_value": result.ad_p_value,
        "rejection_rate_5pct": float(np.mean(result.p_values < 0.05)),
        "p_values": [float(v) for v in result.p_values],
    }
    _emit(report, output)


@main.command("eigen-check")
@output_option
@grid_option(500)
def cmd_eigen_check(output, grid_size):
    """Compare discretized Brownian bridge eigenvalues to 1/(pi*j)**2."""
    spectrum = eigen_spectrum(brownian_bridge_q(grid_size))
    k = min(10, grid_size)
    exact = simple_hypothesis_lambdas(k)
    rows = []
    for j in range(k):
        estimate = float(spectrum.lambdas[j])
        rows.append(
            {
                "j": j + 1,
                "estimate": estimate,
                "exact": float(exact[j]),
                "relative_error": abs(estimate - exact[j]) / exact[j],
            }
        )
    report = {
        "command": "eigen-check",
        "version": __version__,
        "config": _config_echo(),
        "rows": rows,
    }
    _emit(report, output)


if __name__ == "__main__":
    main()
