"""Semantic exception hierarchy.

Callers that need to distinguish failure classes (the CLI maps them to
exit codes) should catch these instead of bare ValueError.
"""


class BintabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BintabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateMarginError(DomainError):
    """A univariate margin is 0 or 1, so a correlation is undefined."""


class UnsupportedTargetError(DomainError):
    """A dependence target cannot be formed (infinite or undefined odds ratio)."""


class InfeasibleTargetsError(BintabError):
    """Margin/moment targets violate the Frechet bounds for some pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class EmptyFeasibleSetError(BintabError):
    """The feasible polytope is empty.

    ``certificate`` names the constraint row whose insertion emptied the
    cone during enumeration, when that information is available.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotInPolytopeError(BintabError):
    """A pmf admits no convex representation over the given vertex set.

    ``best_residual`` is the max-norm residual of the renormalized
    nonnegative least-squares fit, not a proven minimum over all convex
    combinations.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class TableParseError(BintabError, ValueError):
    """A document is malformed, or a file cannot be read or written.  ``cell`` is the offending cell index."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class DimensionMismatchError(DomainError):
    """Operands have incompatible dimensions."""
