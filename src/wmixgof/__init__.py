"""Goodness-of-fit testing for two-component Weibull mixtures.

A Cramer-von Mises test with estimated parameters: the sample is fitted
by maximum likelihood, transformed through the fitted CDF, and the
statistic's null distribution is approximated by a weighted sum of
chi-square(1) variables whose weights are eigenvalue estimates of the
estimated covariance kernel, with tail probabilities from Imhof's method.
"""

__version__ = "0.1.0"

from .errors import (
    AllStartsFailed,
    ConvergenceError,
    DomainError,
    EigenSolverFailure,
    NonFiniteHessian,
    NonFiniteKernel,
    QuadratureFailure,
    SingularInformation,
    StudyAborted,
    TooFewObservations,
    WmixgofError,
)
from .estimation import FitConfig, FitResult, fit_mle, hessian_at
from .gof_statistic import ad_statistic_uniform, ad_uniformity_pvalue, cvm_statistic, pit
from .imhof import WeightedChiSquare, imhof_tail
from .kernel_eigen import build_q_matrix, eigen_spectrum, simple_hypothesis_lambdas
from .mixture_model import MixtureParams, Sample, sample_mixture
from .simulation import (
    GofOutcome,
    PopulationSpec,
    StudyResult,
    benchmark_populations,
    gof_test,
    run_study,
)

__all__ = [
    "__version__",
    "AllStartsFailed",
    "ConvergenceError",
    "DomainError",
    "EigenSolverFailure",
    "FitConfig",
    "FitResult",
    "GofOutcome",
    "MixtureParams",
    "NonFiniteHessian",
    "NonFiniteKernel",
    "PopulationSpec",
    "QuadratureFailure",
    "Sample",
    "SingularInformation",
    "StudyAborted",
    "StudyResult",
    "TooFewObservations",
    "WeightedChiSquare",
    "WmixgofError",
    "ad_statistic_uniform",
    "ad_uniformity_pvalue",
    "benchmark_populations",
    "build_q_matrix",
    "cvm_statistic",
    "eigen_spectrum",
    "fit_mle",
    "gof_test",
    "hessian_at",
    "imhof_tail",
    "pit",
    "run_study",
    "sample_mixture",
    "simple_hypothesis_lambdas",
]
