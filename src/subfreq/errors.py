"""Exception types shared across the package."""


class SubfreqError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SubfreqError, ValueError):
    """Vector or matrix dimensions do not agree with the group/operator spec."""


class NonSkewSymmetric(SubfreqError, ValueError):
    """A structure matrix J_l is not exactly skew-symmetric."""


class NotHType(SubfreqError, ValueError):
    """Operation requires a group of Heisenberg type."""


class NonPositiveLambda(SubfreqError, ValueError):
    """Dilation parameter must be strictly positive."""


class OriginSingularity(SubfreqError, ZeroDivisionError):
    """Quantity is singular (or undefined) at the group identity."""


class IndexOutOfRange(SubfreqError, IndexError):
    """Vector-field index outside 1..m (or 1..k)."""


class NonIntegerAlpha(SubfreqError, TypeError):
    """Symbolic operation requires a positive integer exponent alpha."""


class ResolutionTooSmall(SubfreqError, ValueError):
    """Quadrature resolution below the supported minimum."""


class ResolutionTooLarge(SubfreqError, ValueError):
    """Quadrature rule at this resolution would exceed the node limit."""


class ZeroHeight(SubfreqError, ArithmeticError):
    """Boundary height H(r) vanished; the function is zero on the ball."""


class DiscrepancyNonzero(SubfreqError, ValueError):
    """Functional requires vanishing discrepancy but the input has some."""


class DiscrepancyUnknown(SubfreqError, ValueError):
    """Functional needs the discrepancy of an input that does not carry it."""


class ZeroDenominator(SubfreqError, ArithmeticError):
    """Denominator of a requested ratio vanished."""


class NoConvergence(SubfreqError, RuntimeError):
    """Iterative solver failed to reach the requested tolerance."""

    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class BadGrid(SubfreqError, ValueError):
    """Grid shape or box unsuitable for the finite-difference solver."""


class InsufficientSamples(SubfreqError, ValueError):
    """Monte-Carlo estimate requested with too few (effective) samples."""


class ParseError(SubfreqError, ValueError):
    """Input file failed to parse or validate."""
