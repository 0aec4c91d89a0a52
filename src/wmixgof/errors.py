"""Exception types raised across the package.

``stage`` names the step of the test chain an error stops: ``"fit"`` for
the maximum-likelihood fit (Hessian included), ``"kernel"`` for the kernel,
its eigenvalues and the tail probability, and None for errors in the
arguments or the study as a whole. A study counts a replication with a
staged error as failed; the command line maps the stage to its exit code.
"""


class WmixgofError(Exception):
    """Base class for all package-specific errors."""

    stage: str | None = None


class DomainError(WmixgofError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(WmixgofError):
    """Quantile inversion failed to converge within its iteration budget."""

    stage = "kernel"


class TooFewObservations(WmixgofError):
    """Sample too small for a five-parameter maximum-likelihood fit."""

    stage = "fit"


class AllStartsFailed(WmixgofError):
    """Every optimization start diverged or ended on the mixing boundary."""

    stage = "fit"


class NonFiniteHessian(WmixgofError):
    """A Hessian entry failed to evaluate to a finite number."""

    stage = "fit"


class DegenerateInput(WmixgofError, ValueError):
    """Input contains values at which a statistic is undefined."""


class SingularInformation(WmixgofError):
    """The estimated information matrix is not positive definite."""

    stage = "kernel"


class EigenSolverFailure(WmixgofError):
    """Eigendecomposition of the kernel matrix failed."""

    stage = "kernel"


class QuadratureFailure(WmixgofError):
    """Numerical integration could not meet the requested tolerance."""

    stage = "kernel"


class StudyAborted(WmixgofError):
    """Too many replications failed for the study result to be trusted."""
