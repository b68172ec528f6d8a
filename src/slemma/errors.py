"""Exceptions shared across the toolkit."""


class SlemmaError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SlemmaError):
    """Vector or matrix sizes do not agree with the declared dimension."""


class DomainError(SlemmaError):
    """A function was evaluated outside its domain (division by zero, log
    of a value <= 0, sqrt of a negative number, 0 to a negative power or a
    negative base to a fractional one).  Carries the offending
    subexpression text."""

    def __init__(self, message, subexpression=None):
        super().__init__(message)
        self.subexpression = subexpression


class NotConverged(SlemmaError):
    """An iterative routine hit its iteration limit or the eigensolver
    reported a failure."""


class NumericalBreakdown(SlemmaError):
    """A computation cannot be trusted: a pivot on `solve_lp`'s tableau
    was too small to trust, `solve_lp`'s dual (phase 1) or primal (phase
    2) simplex hit its iteration limit, the active set of the certificate
    search's master LP found no leaving row, met a pivot too small to
    trust or hit its exchange cap, a matrix handed to the eigensolver has
    a non-finite entry, or a quadratic function's data is not finite or
    its Q + Q.T would overflow."""
