"""Exception hierarchy shared across the package: the class decides the outcome
(a ConfigurationError exits 2, a SolverFailure skips its sample)."""


class LandscapeLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(LandscapeLabError):
    """Inconsistent geometry or experiment parameters."""


class LawValidationError(ConfigurationError):
    """A disorder law violates its invariants (point mass, bad simplex, ...)."""


class GridMismatchError(ConfigurationError):
    """A field was handed to an operator living on a different grid."""


class SolverFailure(LandscapeLabError):
    """One solve failed; the sample loop skips its sample."""


class SingularOperatorError(SolverFailure):
    """The assembled operator has a zero mode (periodic, no mass, no potential)."""


class SolverNonConvergenceError(SolverFailure):
    """CG ran out of iterations or stalled above its tolerance."""


class PositivityError(SolverFailure):
    """A solution that must be positive came back nonpositive."""


class FitError(LandscapeLabError):
    """Not enough usable bins for a decay fit."""


class ExperimentError(LandscapeLabError):
    """Too many per-sample failures inside a Monte Carlo experiment."""
