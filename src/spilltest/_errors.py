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


def field_error(path, line: int, row, kinds: dict) -> ValidationError:
    """The error naming the file, the line and the first field of ``row``
    (name to text, None when missing) that ``kinds`` (name to ``int`` or
    ``float``) cannot convert."""
    for name, kind in kinds.items():
        text = row.get(name)
        try:
            kind(text)
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            shown = "is missing" if text is None else f"{text!r} is not {what}"
            return ValidationError(f"{path}: line {line}: {name} {shown}")
    return ValidationError(f"{path}: line {line}: malformed row")
