"""Exception hierarchy shared across the package."""


class LandscapeLabError(Exception):
    """Base class for all package errors."""


class LawValidationError(LandscapeLabError):
    """A disorder law violates its invariants (point mass, bad simplex, ...)."""


class ConfigurationError(LandscapeLabError):
    """Inconsistent geometry or experiment parameters."""


class GridMismatchError(LandscapeLabError):
    """A field was handed to an operator living on a different grid."""


class SingularOperatorError(LandscapeLabError):
    """The assembled operator has a zero mode (periodic, no mass, no potential)."""


class SolverNonConvergenceError(LandscapeLabError):
    """CG ran out of iterations or stalled above its tolerance."""


class PositivityError(LandscapeLabError):
    """A solution that must be positive came back nonpositive."""


class FitError(LandscapeLabError):
    """Not enough usable bins for a decay fit."""


class ExperimentError(LandscapeLabError):
    """Too many per-sample failures inside a Monte Carlo experiment."""
