"""Exception types shared across the package, and the integer check of every
config."""


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
