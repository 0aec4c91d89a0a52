"""The three benchmark workloads: their inputs, their ops and their traced chains.

Every workload draws its ops from a fixed pool of inputs. Pool entry ``j``
is fully determined by ``j``; the workload seed only picks the pool offset
where a run starts, so a committed reference (``reference/<workload>.json``,
recorded once per pool entry) covers every seed. An op is one ``run_study``
replication in the study workloads and one ``wmixgof test`` command in the
CLI workload.

The untraced op calls only the stable entry points ``run_study`` and
``cli.main``. The traced op calls the same public layer functions, in the
same order and with the same inputs and seeds, as ``run_study`` and
``cmd_test`` do, with a span around each layer call.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, replace

import numpy as np

from wmixgof import (
    FitConfig,
    Sample,
    WeightedChiSquare,
    WmixgofError,
    __version__,
    benchmark_populations,
    build_q_matrix,
    cli,
    cvm_statistic,
    eigen_spectrum,
    fit_mle,
    hessian_at,
    imhof_tail,
    pit,
    run_study,
    sample_mixture,
    simple_hypothesis_lambdas,
)
from wmixgof.cli import read_observations

# Master seed of every pool; pool entry j is replication j of this seed.
MASTER_SEED = 1912_03423


def replication_seeds(seed: int, rep: int) -> tuple:
    """(sample seed, fit seed) of replication ``rep``, as run_study derives them.

    The traced chain must feed the fitter the seeds run_study uses; the
    traced run checks this by comparing p-values bit for bit.
    """
    child = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    s_sample, s_fit = child.generate_state(2, dtype=np.uint64)
    return int(s_sample), int(s_fit)


@dataclass
class OpRecord:
    """What one op produced; ``status`` is "ok" or the failure class."""

    index: int
    status: str = "ok"
    stage: str = ""
    p_value: float | None = None
    log_likelihood: float | None = None
    w2: float | None = None


class Workload:
    """Base class: a pool of inputs, an untraced op and a traced op."""

    name = ""
    pool_size = 0
    sample_size = 0

    # Most timed ops one run may make; None when inputs cost nothing to make.
    max_ops = None
    # Layer charged with the op's own time between layer calls.
    glue_layer = "simulation"
    # (layer, lowest share of an op) the traced run is predicted to show.
    dominant = ("", 0.0)
    # (sample, fit) of the last traced op, for the extra hessian_at call.
    _last_fit = None

    def setup(self, seed: int, workdir: str, reference: list) -> None:
        """Pick the pool offset of this seed and make the run's inputs.

        Pool entries whose chain raised at the reference commit have no
        reference row and are left out.
        """
        self.reference = reference
        self.usable = [j for j, row in enumerate(reference) if isinstance(row, list)]
        self.start = random.Random(f"{self.name}:{seed}").randrange(len(self.usable))

    def index(self, k: int) -> int:
        """Pool index of timed op ``k``; op -1 is the warm-up."""
        return self.usable[(self.start + k) % len(self.usable)]

    def run(self, index: int) -> OpRecord:
        raise NotImplementedError

    def traced(self, index: int, tracer) -> OpRecord:
        raise NotImplementedError

    def refit(self, index: int) -> OpRecord:
        """The op's fit log-likelihood, for ops that report none; here, none."""
        return OpRecord(index)

    def fitted_chain(self, rec: OpRecord, sample, config, tracer) -> tuple:
        """Fit, PIT and W2, kernel, eigenvalues and Imhof, as run_study and cmd_test call them.

        Fills ``rec`` stage by stage and returns (fit, spectrum); a
        WmixgofError propagates to the caller.
        """
        span = tracer.span
        self._last_fit = None
        with span("estimation.fit_mle"):
            fit = fit_mle(sample, config)
        tracer.count_fit(fit)
        rec.log_likelihood = fit.log_likelihood
        self._last_fit = (sample, fit)
        with span("gof_statistic.pit_cvm"):
            rec.w2 = cvm_statistic(pit(sample, fit.theta_hat))
        with span("kernel_eigen.build_q_matrix"):
            q = build_q_matrix(fit.theta_hat, fit.hessian, sample.n, self.grid_size)
        with span("kernel_eigen.eigen_spectrum"):
            spectrum = eigen_spectrum(q, 1e-4)
        tracer.count_kernel(q, spectrum)
        with span("imhof.imhof_tail"):
            weights = WeightedChiSquare(spectrum.retained)
            rec.p_value = imhof_tail(weights, rec.w2, 1e-6)
        tracer.count("imhof.imhof_tail.n_weights", weights.lambdas.size)
        return fit, spectrum

    def hessian_extra(self, tracer) -> None:
        """Time hessian_at at the last traced fit, as its own call outside the op."""
        if self._last_fit is not None:
            sample, fit = self._last_fit
            with tracer.span("estimation.hessian_at"):
                hessian_at(fit.theta_hat, sample)


class Study(Workload):
    """One run_study replication per op; the populations cycle 1..5."""

    estimate_parameters = True
    grid_size = 200

    def __init__(self):
        self.populations = benchmark_populations()

    def population(self, index: int):
        return self.populations[index % len(self.populations)]

    def run(self, index: int) -> OpRecord:
        try:
            result = run_study(
                self.population(index),
                1,
                self.sample_size,
                MASTER_SEED,
                grid_size=self.grid_size,
                estimate_parameters=self.estimate_parameters,
                first_rep=index,
            )
        except WmixgofError as exc:
            return OpRecord(index, type(exc).__name__, "study")
        return OpRecord(index, p_value=float(result.p_values[0]))


class StudyN100(Study):
    name = "study-n100"
    pool_size = 600
    sample_size = 100
    dominant = ("estimation", 0.80)

    def refit(self, index: int) -> OpRecord:
        """The fit of one op, outside any timing, for the reference checks."""
        s_sample, s_fit = replication_seeds(MASTER_SEED, index)
        sample = sample_mixture(self.population(index).theta, self.sample_size, s_sample)
        try:
            fit = fit_mle(sample, FitConfig(seed=s_fit))
        except WmixgofError as exc:
            return OpRecord(index, type(exc).__name__, "fit")
        return OpRecord(index, log_likelihood=fit.log_likelihood)

    def traced(self, index: int, tracer) -> OpRecord:
        span = tracer.span
        rec = OpRecord(index)
        s_sample, s_fit = replication_seeds(MASTER_SEED, index)
        with span("mixture_model.sample_mixture"):
            sample = sample_mixture(self.population(index).theta, self.sample_size, s_sample)
        try:
            self.fitted_chain(rec, sample, replace(FitConfig(), seed=s_fit), tracer)
        except WmixgofError as exc:
            rec.status, rec.stage = type(exc).__name__, "chain"
        return rec


class StudyKnown(Study):
    name = "study-known"
    pool_size = 4096
    sample_size = 100
    estimate_parameters = False
    dominant = ("imhof", 0.60)

    def population(self, index: int):
        return self.populations[0]

    def traced(self, index: int, tracer) -> OpRecord:
        span = tracer.span
        rec = OpRecord(index)
        theta = self.population(index).theta
        with span("kernel_eigen.simple_hypothesis_lambdas"):
            weights = WeightedChiSquare(simple_hypothesis_lambdas(100))
        s_sample, _ = replication_seeds(MASTER_SEED, index)
        with span("mixture_model.sample_mixture"):
            sample = sample_mixture(theta, self.sample_size, s_sample)
        try:
            with span("gof_statistic.pit_cvm"):
                rec.w2 = cvm_statistic(pit(sample, theta))
            with span("imhof.imhof_tail"):
                rec.p_value = imhof_tail(weights, rec.w2, 1e-6)
            tracer.count("imhof.imhof_tail.n_weights", weights.lambdas.size)
        except WmixgofError as exc:
            rec.status, rec.stage = type(exc).__name__, "chain"
        return rec


class TestN1000M1000(Workload):
    """One ``wmixgof test -m 1000`` per op, each on its own n=1000 data file."""

    name = "test-n1000-m1000"
    pool_size = 300
    # Ops share no inputs, so one run makes at most one pass over the pool.
    max_ops = 200
    glue_layer = "cli"
    dominant = ("kernel_eigen", 0.40)
    sample_size = 1000
    grid_size = 1000
    _STAGES = {2: "parse", 3: "fit", 4: "kernel"}

    def __init__(self):
        self.populations = benchmark_populations()
        self.workdir = ""

    def input_seeds(self, index: int) -> tuple:
        """(sample seed, --seed of the command) of pool entry ``index``."""
        child = np.random.SeedSequence(entropy=MASTER_SEED, spawn_key=(1000, index))
        s_sample, s_cmd = child.generate_state(2, dtype=np.uint32)
        return int(s_sample), int(s_cmd)

    def path(self, index: int) -> str:
        return os.path.join(self.workdir, f"obs-{index}.txt")

    def write_input(self, index: int) -> None:
        s_sample, _ = self.input_seeds(index)
        theta = self.populations[index % len(self.populations)].theta
        values = sample_mixture(theta, self.sample_size, s_sample).values
        with open(self.path(index), "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(repr, values.tolist())) + "\n")

    def setup(self, seed: int, workdir: str, reference: list) -> None:
        super().setup(seed, workdir, reference)
        self.workdir = workdir
        for k in range(-1, self.max_ops):
            self.write_input(self.index(k))

    def args(self, index: int, output: str) -> list:
        _, s_cmd = self.input_seeds(index)
        return ["test", "-i", self.path(index), "-o", output, "--seed", str(s_cmd),
                "-m", str(self.grid_size)]

    def run(self, index: int) -> OpRecord:
        output = os.path.join(self.workdir, "report.json")
        try:
            cli.main(self.args(index, output), standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                return OpRecord(index, f"exit-{exc.code}", self._STAGES.get(exc.code, "cli"))
        with open(output, encoding="utf-8") as fh:
            report = json.load(fh)
        return OpRecord(
            index,
            p_value=report["p_value"],
            log_likelihood=report["fit"]["log_likelihood"],
            w2=report["statistic"]["w2"],
        )

    def traced(self, index: int, tracer) -> OpRecord:
        span = tracer.span
        rec = OpRecord(index)
        path = self.path(index)
        _, s_cmd = self.input_seeds(index)
        with span("cli.read_observations"):
            data = read_observations(path)
        sample = Sample(data, label=path)
        config = FitConfig(n_starts=10, tolerance=1e-6, max_iterations=200, seed=s_cmd)
        try:
            fit, spectrum = self.fitted_chain(rec, sample, config, tracer)
        except WmixgofError as exc:
            rec.status, rec.stage = type(exc).__name__, "chain"
            return rec
        with span("cli.report"):
            theta = fit.theta_hat
            report = {
                "command": "test",
                "version": __version__,
                "config": {"input": path, "seed": s_cmd, "grid_size": self.grid_size},
                "input": {"path": path, "n": sample.n},
                "fit": {
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
                    "local_optima_log_likelihoods": list(fit.best_of_likelihoods),
                },
                "statistic": {"w2": rec.w2},
                "eigenvalues": {
                    "n_retained": spectrum.n_retained,
                    "trace_captured": spectrum.trace_captured,
                    "n_negative": spectrum.n_negative,
                    "min_eigenvalue": spectrum.min_eigenvalue,
                    "retained": [float(v) for v in spectrum.retained],
                },
                "p_value": rec.p_value,
            }
            with open(os.path.join(self.workdir, "traced-report.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report, indent=2) + "\n")
        return rec


WORKLOADS = {cls.name: cls for cls in (StudyN100, TestN1000M1000, StudyKnown)}


def load_reference(directory: str, name: str) -> list:
    with open(os.path.join(directory, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def check_op(rec: OpRecord, ref: list, n: int) -> str:
    """"ok", or the reason the op counts as failed against its reference row.

    ``ref`` is [log-likelihood or None, W2, p-value] from the reference
    commit. A log-likelihood higher than the reference by more than the
    band is a better fit and may move the p-value.
    """
    if rec.status != "ok":
        return rec.status
    p = rec.p_value
    if p is None or not math.isfinite(p) or not 0.0 <= p <= 1.0:
        return "p-out-of-range"
    ref_ll, _, ref_p = ref
    band = 1e-6 * n
    if ref_ll is not None and rec.log_likelihood is not None:
        if rec.log_likelihood < ref_ll - band:
            return "worse-optimum"
        if rec.log_likelihood > ref_ll + band:
            return "ok"
    if abs(p - ref_p) > 1e-3:
        return "check-mismatch"
    return "ok"
