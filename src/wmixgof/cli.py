"""Command-line interface: fit, test, simulate and eigen-check.

Every command writes a JSON report (stdout or --output) that echoes the
effective configuration and the package version, so any number in a
report can be reproduced from the report alone. Exit codes are stable:
0 success, 2 parse/usage failure, 3 fit or study failure, 4 kernel or tail-
probability failure, each with a one-line ``error: <stage>: <reason>``
on stderr.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click
import numpy as np

from . import __version__
from .errors import DomainError, WmixgofError
from .estimation import FitConfig, FitResult, fit_mle
from .kernel_eigen import brownian_bridge_q, eigen_spectrum, simple_hypothesis_lambdas
from .mixture_model import MixtureParams, Sample
from .simulation import PopulationSpec, benchmark_populations, gof_test, run_study

_STAGE_EXITS = {"parse": 2, "fit": 3, "simulate": 3, "kernel": 4}

# Parameters echoed under another name in a report's config section.
_ECHO_NAMES = {"input_path": "input", "theta_text": "theta"}


class DataFileError(WmixgofError):
    """A data file could not be parsed into positive observations."""

    stage = "parse"


def read_observations(path: str) -> np.ndarray:
    """Read one observation per line; '#' starts a comment.

    A single-column CSV is accepted too: a trailing comma is ignored and
    one non-numeric header line at the top is skipped.
    """
    values = []
    header_allowed = True
    try:
        with open(path, "rb") as fh:
            # decoded whole, so an error's offset counts from the file's start;
            # utf-8-sig drops a byte-order mark, which would hide the first value
            lines = fh.read().decode("utf-8-sig").splitlines()
    except OSError as exc:
        raise DataFileError(f"cannot open {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataFileError(
            f"cannot decode {path} as UTF-8 at byte {exc.start}: {exc.reason}"
        ) from None
    for lineno, raw in enumerate(lines, start=1):
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


def _emit(sections: dict) -> None:
    """Write the running command's JSON report to --output, or to stdout.

    The report opens with the command's name, the version and the effective
    parameters in declaration order, then holds ``sections``.
    """
    ctx = click.get_current_context()
    config = {
        _ECHO_NAMES.get(p.name, p.name): ctx.params[p.name]
        for p in ctx.command.params
        if p.name != "output"
    }
    report = {"command": ctx.info_name, "version": __version__, "config": config, **sections}
    text = json.dumps(report, indent=2) + "\n"
    if output := ctx.params["output"]:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fit_section(fit: FitResult) -> dict:
    return {
        **dataclasses.asdict(fit.theta_hat),
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


def _output_directory(ctx, param, value):
    """Fail before the run if the report could not be created at --output."""
    folder = os.path.dirname(value or "") or "."
    if value and not os.path.exists(value) and not os.access(folder, os.W_OK | os.X_OK):
        why = "is not writable" if os.path.isdir(folder) else "does not exist"
        raise click.BadParameter(f"directory {folder!r} {why}")
    return value


seed_option = click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    help="Master seed.",
)
output_option = click.option(
    "--output", "-o", type=click.Path(dir_okay=False, writable=True), default=None,
    callback=_output_directory, help="Write the JSON report here instead of stdout.",
)
input_option = click.option("--input", "-i", "input_path", required=True, type=click.Path())


def grid_option(default: int):
    return click.option(
        "--grid-size", "-m", type=click.IntRange(min=2), default=default, show_default=True
    )


class _Commands(click.Group):
    """Turns a staged error into its exit code and one line on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WmixgofError as exc:
            if exc.stage is None:
                raise
            click.echo(f"error: {exc.stage}: {exc}", err=True)
            sys.exit(_STAGE_EXITS[exc.stage])


@click.group(cls=_Commands, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
def main():
    """Goodness-of-fit testing for two-component Weibull mixtures."""


@main.command("fit")
@input_option
@output_option
@seed_option
def cmd_fit(input_path, output, seed):
    """Fit the mixture by maximum likelihood and report the parameters."""
    sample = Sample(read_observations(input_path))
    fit = fit_mle(sample, FitConfig(seed=seed))
    _emit({"input": {"path": input_path, "n": sample.n}, "fit": _fit_section(fit)})


@main.command("test")
@input_option
@output_option
@seed_option
@grid_option(500)
def cmd_test(input_path, output, seed, grid_size):
    """Run the full goodness-of-fit test on a data file.

    Fits the mixture, transforms the sample through the fitted CDF,
    computes the Cramer-von Mises statistic, estimates the covariance
    kernel eigenvalues and converts the statistic to an approximate
    p-value.
    """
    sample = Sample(read_observations(input_path))
    outcome = gof_test(sample, seed, grid_size)
    spectrum = outcome.spectrum
    _emit({
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
    })


@main.command("simulate")
@output_option
@seed_option
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
def cmd_simulate(output, seed, grid_size, n_reps, sample_size, population, theta_text, processes):
    """Monte Carlo uniformity study of the approximate p-values."""
    if (population is None) == (theta_text is None):
        raise click.UsageError("provide exactly one of --population and --theta")
    if theta_text is not None:
        spec = PopulationSpec(theta=_parse_theta(theta_text), label="custom")
    else:
        spec = benchmark_populations()[population - 1]
    result = run_study(spec, n_reps, sample_size, seed, grid_size=grid_size, processes=processes)
    _emit({
        "population": {"label": spec.label, **dataclasses.asdict(spec.theta)},
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
    })


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
    _emit({"rows": rows})


if __name__ == "__main__":
    main()
