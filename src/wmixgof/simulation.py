"""The goodness-of-fit test and its Monte Carlo calibration.

``gof_test`` runs the test's one chain: fit, transform, statistic, kernel
eigenvalues, tail probability. If the approximate p-values are valid,
p-values computed on samples drawn from the null model must be uniform on
[0, 1]. The study repeats the chain on seeded samples and applies an
Anderson-Darling uniformity test to the collected p-values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _native
from .errors import DomainError, StudyAborted, WmixgofError
from .estimation import FitConfig, FitResult, fit_mle
from .gof_statistic import ad_statistic_uniform, ad_uniformity_pvalue, cvm_statistic, pit
from .imhof import WeightedChiSquare, imhof_tail
from .kernel_eigen import EigenSpectrum, build_q_matrix, eigen_spectrum, simple_hypothesis_lambdas
from .mixture_model import MixtureParams, Sample, sample_mixture

__all__ = [
    "GofOutcome",
    "PopulationSpec",
    "StudyResult",
    "benchmark_populations",
    "gof_test",
    "run_study",
]

# Exact p-values of 0 or 1 cannot enter the Anderson-Darling logs; clipping
# this far out is invisible at any realistic replication count.
_P_CLIP = 1e-12

# Closed-form Brownian bridge weights used when the parameters are known.
_N_SIMPLE_LAMBDAS = 100


@dataclass(frozen=True)
class PopulationSpec:
    """A named mixture population used as the sampling truth."""

    theta: MixtureParams
    label: str = ""


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Collected p-values of one study plus the uniformity verdict.

    ``p_values`` holds one entry per successful replication, sorted
    ascending; replications whose fit or kernel stage failed are only
    counted. ``n_spike_fits`` counts the successful replications whose fit
    is a spike (``FitResult.spike``); their p-values stay in.
    ``max_quantile_rounds`` is the largest ``GofOutcome.n_quantile_rounds``
    of the successful replications, 0 with known parameters. The
    Anderson-Darling fields are None when fewer than two p-values are
    available.
    """

    p_values: np.ndarray
    n_failed_fits: int
    n_spike_fits: int
    max_quantile_rounds: int
    ad_statistic: float | None
    ad_p_value: float | None


def benchmark_populations() -> list[PopulationSpec]:
    """Five reference populations, from poorly to well separated components."""
    rows = [
        (2.0, 3.0, 3.0, 0.9, 0.5),
        (1.5, 3.0, 2.0, 4.0, 0.5),
        (1.0, 3.0, 2.0, 4.0, 0.5),
        (2.0, 4.0, 0.5, 3.0, 0.5),
        (2.0, 8.0, 1.0, 4.0, 0.5),
    ]
    return [
        PopulationSpec(theta=MixtureParams(*row), label=f"population {i}")
        for i, row in enumerate(rows, start=1)
    ]


def _replication_seeds(seed: int, rep: int) -> tuple:
    """Counter-based per-replication seeds: independent and order-insensitive."""
    child = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    s_sample, s_fit = child.generate_state(2, dtype=np.uint64)
    return int(s_sample), int(s_fit)


@dataclass(frozen=True, eq=False)
class GofOutcome:
    """What one goodness-of-fit test produced, from the fit to the p-value.

    ``n_quantile_rounds`` counts the rounds of the solver that found the
    fitted quantiles of the kernel grid.
    """

    fit: FitResult
    w2: float
    spectrum: EigenSpectrum
    p_value: float
    n_quantile_rounds: int


def gof_test(sample: Sample, seed: int, grid_size: int) -> GofOutcome:
    """Test the sample against the two-component Weibull mixture family.

    Fits the mixture at ``FitConfig``'s defaults with start seed ``seed``,
    computes the Cramer-von Mises statistic of the transformed sample and
    takes its p-value from the eigenvalues of the kernel estimated at the
    fit on ``grid_size`` levels, truncated and integrated at the defaults of
    ``eigen_spectrum`` and ``imhof_tail``: the setting the studies calibrate.
    """
    fit = fit_mle(sample, FitConfig(seed=seed))
    w2 = cvm_statistic(pit(sample, fit.theta_hat))
    q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, grid_size)
    spectrum = eigen_spectrum(q)
    p_value = imhof_tail(WeightedChiSquare(spectrum.retained), w2)
    return GofOutcome(fit, w2, spectrum, p_value, q.n_quantile_rounds)


def _study_window(
    population: PopulationSpec,
    sample_size: int,
    seed: int,
    grid_size: int,
    estimate_parameters: bool,
    first: int,
    count: int,
) -> tuple[list[float], int, int, int]:
    """Replications [first, first + count): p-values, failures, spike fits, most quantile rounds.

    A replication fails when its fit or kernel stage raises; any other
    error propagates. The window runs numpy's bundled OpenBLAS on one
    thread, so its eigenvalues, whose last bits move with the thread count
    from about ``grid_size=300``, do not depend on where it runs; the count
    is restored afterwards.
    """
    known_lambdas = None
    if not estimate_parameters:
        known_lambdas = WeightedChiSquare(simple_hypothesis_lambdas(_N_SIMPLE_LAMBDAS))
    p_values = []
    n_failed = n_spike = max_rounds = 0
    with _native.one_blas_thread("numpy"):
        for rep in range(first, first + count):
            s_sample, s_fit = _replication_seeds(seed, rep)
            sample = sample_mixture(population.theta, sample_size, s_sample)
            try:
                if estimate_parameters:
                    outcome = gof_test(sample, s_fit, grid_size)
                    p_values.append(outcome.p_value)
                    n_spike += outcome.fit.spike
                    max_rounds = max(max_rounds, outcome.n_quantile_rounds)
                else:
                    w2 = cvm_statistic(pit(sample, population.theta))
                    p_values.append(imhof_tail(known_lambdas, w2))
            except WmixgofError as exc:
                if exc.stage is None:
                    raise
                n_failed += 1
    return p_values, n_failed, n_spike, max_rounds


def run_study(
    population: PopulationSpec,
    n_reps: int,
    sample_size: int,
    seed: int,
    *,
    grid_size: int = 200,
    estimate_parameters: bool = True,
    first_rep: int = 0,
    processes: int = 1,
) -> StudyResult:
    """Run the full test pipeline n_reps times on samples from the population.

    Each replication samples, fits by maximum likelihood, computes the
    statistic, builds the kernel matrix at the fitted parameters and
    converts the statistic to a p-value, through ``gof_test`` with a fit
    seed drawn per replication. Replications whose fit or kernel
    stage fails are recorded and skipped; StudyAborted is raised when more
    than 20% fail. With ``estimate_parameters=False`` the known population
    parameters and the closed-form Brownian bridge eigenvalues are used
    instead, isolating the statistic and tail-probability machinery from
    estimation.

    Replication seeds are derived from (seed, replication index) alone, so
    the replications [first_rep, first_rep + n_reps) can be split into
    windows: with ``processes > 1`` each window runs in its own spawned
    worker. Every window, in a worker or in this process, runs numpy's
    bundled OpenBLAS on one thread and restores its count afterwards
    (``fit_mle`` does the same with scipy's, so a known-parameter study
    never loads scipy). The p-values therefore depend on neither the
    process count nor the BLAS thread count: the pooled result equals that
    of one sequential run bit for bit. ``processes=1`` runs in this process
    and starts no pool; a script that asks for more needs the usual
    ``if __name__ == "__main__":`` guard.
    """
    if n_reps < 1:
        raise DomainError("n_reps must be at least 1")
    if sample_size < 20:
        raise DomainError("sample_size must be at least 20")
    if seed < 0:
        raise DomainError("seed must be nonnegative")
    if first_rep < 0:
        raise DomainError("first_rep must be nonnegative")
    if processes < 1:
        raise DomainError("processes must be at least 1")
    window = partial(
        _study_window,
        population,
        sample_size,
        seed,
        grid_size,
        estimate_parameters,
    )
    if processes == 1:
        parts = [window(first_rep, n_reps)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        per = -(-n_reps // processes)
        firsts = range(first_rep, first_rep + n_reps, per)
        counts = [min(per, first_rep + n_reps - f) for f in firsts]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=len(firsts), mp_context=context) as pool:
            parts = list(pool.map(window, firsts, counts))
    p_lists, failed, spikes, rounds = zip(*parts)
    n_failed = sum(failed)
    if n_failed > 0.2 * n_reps:
        raise StudyAborted(
            f"{n_failed} of {n_reps} replications failed; configuration looks broken"
        )

    p_arr = np.sort(np.asarray([p for ps in p_lists for p in ps], dtype=float))
    ad_stat = ad_pval = None
    if p_arr.size >= 2:
        ad_stat = ad_statistic_uniform(np.clip(p_arr, _P_CLIP, 1.0 - _P_CLIP))
        ad_pval = ad_uniformity_pvalue(ad_stat)
    p_arr.setflags(write=False)
    return StudyResult(
        p_values=p_arr,
        n_failed_fits=n_failed,
        n_spike_fits=sum(spikes),
        max_quantile_rounds=max(rounds),
        ad_statistic=ad_stat,
        ad_p_value=ad_pval,
    )
