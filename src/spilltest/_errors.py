"""Exception types shared across the package."""


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

