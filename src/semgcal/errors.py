"""Exception types shared across the package, and the integer and real checks
of every config."""

import math
import numbers


class SemgCalError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SemgCalError, ValueError):
    """An array has the wrong shape, channel count or column count."""


class ParameterError(SemgCalError, ValueError):
    """A configuration value is outside its valid range."""


class EmptyInputError(SemgCalError, ValueError):
    """The input stream is too short for the requested operation."""


class DataError(SemgCalError, ValueError):
    """Dataset content violates a contract (missing class, too few examples, ...)."""


class NumericError(SemgCalError, ArithmeticError):
    """Numerical failure: NaN gradients, singular covariance, zero-variance effect."""


class UsageError(SemgCalError, RuntimeError):
    """API misuse, e.g. backward through a detached graph or a missing domain head."""


class ParseError(SemgCalError, ValueError):
    """Malformed dataset file; the message carries file and line."""


def check_int(name: str, value, minimum: int | None) -> None:
    """Raise ParameterError unless `value` is an int, not a bool, and at least
    `minimum` (None: no lower bound)."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")


def check_real(name: str, value, low: float | None = None, high: float | None = None,
               strict: bool = False) -> None:
    """Raise ParameterError unless `value` is a finite real number (an int or
    float, not a bool) in [low, high], or in (low, high) when `strict`. A
    bound of None is no bound."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok:
        try:
            v = float(value)
        except OverflowError:  # an int too large for a float
            ok = False
        else:
            ok = (math.isfinite(v)
                  and (low is None or (v > low if strict else v >= low))
                  and (high is None or (v < high if strict else v <= high)))
    if not ok:
        lo = "(-inf" if low is None else f"{'(' if strict else '['}{low}"
        hi = "inf)" if high is None else f"{high}{')' if strict else ']'}"
        raise ParameterError(f"{name} must be a finite number in {lo}, {hi}, got {value!r}")
