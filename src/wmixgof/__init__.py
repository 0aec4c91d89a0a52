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
    DegenerateInput,
    DomainError,
    EigenSolverFailure,
    NonFiniteHessian,
    QuadratureFailure,
    SingularInformation,
    StudyAborted,
    TooFewObservations,
    WmixgofError,
)
from .estimation import FitConfig, FitResult, fit_mle, hessian_at, log_likelihood
from .gof_statistic import (
    TransformedSample,
    ad_statistic_uniform,
    ad_uniformity_pvalue,
    cvm_statistic,
    pit,
)
from .imhof import WeightedChiSquare, imhof_tail
from .kernel_eigen import (
    EigenSpectrum,
    KernelMatrix,
    brownian_bridge_q,
    build_q_matrix,
    eigen_spectrum,
    simple_hypothesis_lambdas,
)
from .mixture_model import (
    GradF,
    MixtureParams,
    Sample,
    cdf_gradient,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
    sample_mixture,
)
from .simulation import PopulationSpec, StudyResult, benchmark_populations, run_study

__all__ = [
    "__version__",
    "AllStartsFailed",
    "ConvergenceError",
    "DegenerateInput",
    "DomainError",
    "EigenSolverFailure",
    "EigenSpectrum",
    "FitConfig",
    "FitResult",
    "GradF",
    "KernelMatrix",
    "MixtureParams",
    "NonFiniteHessian",
    "PopulationSpec",
    "QuadratureFailure",
    "Sample",
    "SingularInformation",
    "StudyAborted",
    "StudyResult",
    "TooFewObservations",
    "TransformedSample",
    "WeightedChiSquare",
    "WmixgofError",
    "ad_statistic_uniform",
    "ad_uniformity_pvalue",
    "benchmark_populations",
    "brownian_bridge_q",
    "build_q_matrix",
    "cdf_gradient",
    "cvm_statistic",
    "eigen_spectrum",
    "fit_mle",
    "hessian_at",
    "imhof_tail",
    "log_likelihood",
    "mixture_cdf",
    "mixture_pdf",
    "mixture_quantile",
    "pit",
    "run_study",
    "sample_mixture",
    "simple_hypothesis_lambdas",
]
