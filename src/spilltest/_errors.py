"""Exception types shared across the package, the one reader of the JSON
inputs (design counts, block-model specs, study configs, oracle designs), the
one check of their number fields and the one check of a seed."""

import json
import math
from dataclasses import MISSING, fields

import numpy as np


class SpilltestError(Exception):
    """Base class for all package errors."""


class ValidationError(SpilltestError, ValueError):
    """An input violates a documented precondition."""


class ParseError(ValidationError):
    """A file could not be parsed; message carries the offending line number."""


class CheckFailure(SpilltestError):
    """A verification check ran to completion and its assertion failed."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:  # math.isfinite raises on an int beyond the float range
        return (isinstance(value, (float, np.floating)) or _is_int(value)) and math.isfinite(value)
    except OverflowError:
        return False


def check_fields(record, what: str) -> None:
    """Refuse a field of the dataclass ``record`` that does not match its
    annotation, read as written (``from __future__ import annotations``): an
    ``int`` takes a Python or numpy integer, a ``float`` a finite real number
    and a ``tuple[float, ...]`` a list or tuple of them, and none a bool.
    Numpy scalars are stored as Python numbers, so that records serialize.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "int" and not _is_int(value):
            raise ValidationError(f"{what} {f.name}={value!r} is not an integer")
        if f.type == "float" and not _is_finite(value):
            raise ValidationError(f"{what} {f.name}={value!r} is not a finite number")
        if f.type == "tuple[float, ...]":
            if not isinstance(value, (list, tuple)) or not all(map(_is_finite, value)):
                raise ValidationError(f"{what} {f.name}={value!r} is not a list of finite numbers")
            object.__setattr__(record, f.name, tuple(map(_python, value)))
        elif f.type in ("int", "float"):
            object.__setattr__(record, f.name, _python(value))


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that is not a non-negative integer: ``None`` would draw
    fresh entropy, and numpy's generators cannot take a negative one."""
    if not _is_int(seed):
        raise ValidationError(f"{name}={seed!r} is not an integer")
    if seed < 0:
        raise ValidationError(f"{name}={seed} is negative")


def _python(value):
    return value.item() if isinstance(value, np.generic) else value


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        raise ValueError(f"repeated key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return obj


def read_json(data: str | bytes, what: str) -> dict:
    """Decode ``data`` (text, or bytes in UTF-8, -16 or -32) as one JSON
    object with no key repeated at any depth."""
    try:
        payload = json.loads(data, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError or a repeated key
        raise ParseError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return payload


def build_record(cls, payload, what: str, **given):
    """The dataclass ``cls`` from ``payload``, a decoded JSON object, and
    the fields ``given`` besides. Names a missing field or an unknown key."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object")
    known = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    missing = [n for n, required in known.items() if required and n not in payload.keys() | given.keys()]
    if missing:
        raise ValidationError(f"{what} is missing {', '.join(missing)}")
    unknown = sorted(payload.keys() - known)
    if unknown:
        raise ValidationError(f"bad {what} fields: unknown {', '.join(map(repr, unknown))}")
    try:
        return cls(**payload, **given)
    except TypeError as exc:
        raise ValidationError(f"bad {what} fields: {exc}") from exc
