"""Exception types shared across the package; `json_int` and `json_number`,
which read an integer or a finite number field of an input file or raise
ParseError, and `parsing`, the one error path of the input-file readers."""

import math
from contextlib import contextmanager


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
    """Boundary height H(r) <= 0: the function vanishes on the sphere S_r."""


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


class IntegerOverflow(SubfreqError, OverflowError):
    """An exact integer matrix does not fit the int64 arithmetic of the kernel."""


class PrimesExhausted(SubfreqError, ArithmeticError):
    """The modular kernel ran out of primes before its result was certified."""


class ParseError(SubfreqError, ValueError):
    """Input file failed to parse or validate."""


def json_int(value, what, minimum=None):
    """value if it is a JSON integer (not a bool, not a float) of at least
    `minimum`; otherwise ParseError naming the field `what`."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParseError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def json_number(value, what):
    """value if it is a finite JSON number (an integer or a float, not a
    bool); otherwise ParseError naming the field `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value!r}")
    return value


@contextmanager
def parsing(what):
    """Read an input file inside the block: a malformed value (KeyError,
    TypeError, ValueError, or ZeroDivisionError from a "p/0" entry) raises
    ParseError("bad <what>: ..."), and a typed SubfreqError passes unchanged."""
    try:
        yield
    except SubfreqError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {what}: {exc}") from exc
