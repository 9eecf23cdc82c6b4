"""Exception types shared across the package, and the type checks that
validate JSON-sourced fields before they reach numpy."""

import math


class SpilltestError(Exception):
    """Base class for all package errors."""


class ValidationError(SpilltestError, ValueError):
    """An input violates a documented precondition."""


class ParseError(ValidationError):
    """A file could not be parsed; message carries the offending line number."""


class InfeasibleError(ValidationError):
    """Requested parameters admit no valid solution."""


class CheckFailure(SpilltestError):
    """A verification check ran to completion and its assertion failed."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
