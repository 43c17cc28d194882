"""Exception hierarchy shared across the package: the class decides the outcome
(a ConfigurationError exits 2, a SolverFailure skips its sample), and the one
rule for an index into a box, ``box_index``."""

import numpy as np


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


def box_index(index, shape, what: str) -> tuple:
    """index (a scalar is a 1-tuple) as a tuple of Python ints, one per axis of
    shape, each in [0, n); any other index, a non-integral one too (never
    truncated), raises ConfigurationError naming what."""
    try:
        a = np.atleast_1d(index)
    except ValueError:   # ragged, e.g. ((1, 2), 3): not 1-d, so rejected below
        a = np.empty((0, 0))
    if (a.ndim != 1 or a.size != len(shape) or a.dtype.kind not in "iuf"
            or not np.all((a == np.floor(a)) & (a >= 0) & (a < shape))):
        raise ConfigurationError(f"{what} {index} is not an index into shape {tuple(shape)}")
    return tuple(int(c) for c in a.tolist())
