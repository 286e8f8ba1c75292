"""Exception hierarchy shared by all renyi_bounds modules.

Public functions never raise bare ValueError; callers can catch
RenyiBoundsError to handle everything from this package, or the
specific subclasses below.
"""


class RenyiBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RenyiBoundsError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class DivergenceDetected(RenyiBoundsError):
    """An integral failed the tail decay test and is judged divergent."""


class MaxSubdivisionsExceeded(RenyiBoundsError):
    """Adaptive quadrature hit its subdivision budget before the tolerance."""


class InvalidMomentOrder(RenyiBoundsError, ValueError):
    """Moment orders violate p < 1/r - 1 < q (or p < 1 < q for MI bounds)."""


class MomentDiverges(RenyiBoundsError):
    """A required absolute moment is infinite for the given distribution."""


class OptimizerNoConverge(RenyiBoundsError):
    """The gap search found no start with a finite gap, or could not
    converge from it (see entropy_bounds._newton), or the entropy is too
    large for bound - h_r to resolve the gap to its 1e-4 target."""


class Infeasible(RenyiBoundsError, ValueError):
    """Gap parametrization violates its feasibility condition."""


class UnsupportedOperation(RenyiBoundsError):
    """Operation not available for this family / channel combination."""
