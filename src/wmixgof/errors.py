"""Exception types raised across the package.

``stage`` names the step an error stops: ``"parse"`` for reading a data
file (the command line's ``DataFileError``), ``"fit"`` for the
maximum-likelihood fit (Hessian included), ``"kernel"`` for the kernel,
its eigenvalues and the tail probability, ``"simulate"`` for a study that
aborts as a whole, and None for errors in the arguments. A study counts a
replication with a staged error as failed (only fit and kernel errors can
arise inside one); the command line maps the stage to its exit code.
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
    """Every optimization start ended at the objective's sentinel or on the mixing boundary."""

    stage = "fit"


class NonFiniteHessian(WmixgofError):
    """A Hessian entry failed to evaluate to a finite number."""

    stage = "fit"


class NonFiniteKernel(WmixgofError):
    """A computed kernel entry is not a finite number."""

    stage = "kernel"


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

    stage = "simulate"
