"""The package's CSV tables: one validated reader and one writer, both
working on whole columns.

A table is UTF-8 CSV in the excel dialect (comma-separated, fields
optionally double-quoted, rows ended by CRLF, LF or CR). Its first record is
a header of distinct column names; every later non-blank record is a row
with exactly as many fields as the header. One column holds ids: their
values must be ``0..n-1``, each once, in any row order. The reader returns
each requested column reordered by id.

Column kinds, and the text each accepts (surrounding whitespace allowed):

- ``ID`` and ``INT``: a decimal integer of ASCII digits with an optional sign,
  within int64;
- ``BIT``: an ``INT`` equal to 0 or 1;
- ``FLOAT``: a decimal number (optional exponent) of ASCII digits, finite;
- a dict of words: one of its keys in any letter case, under 8 characters
  with the padding; the column holds the key's value.

Rows are parsed in bulk by ``np.loadtxt``. Only when that finds a fault does
the reader read the rows one at a time, to raise the error of the first
faulty row with its line and field.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from pathlib import Path

import numpy as np

from ._errors import ValidationError

ID = "id"
INT = "int"
BIT = "bit"
FLOAT = "float"

_DTYPES = {ID: np.int64, INT: np.int64, BIT: np.int64, FLOAT: np.float64}
# Word columns are read as fixed-width strings; a value that fills the width
# may have been cut short, so it is rejected.
_WORD_WIDTH = 8
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")
_FLOAT_RE = re.compile(
    r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)\s*",
    re.IGNORECASE,
)
_INT64 = np.iinfo(np.int64)
# Characters that no number or word field holds: neither ASCII nor whitespace.
_FOREIGN = re.compile(r"[^\x00-\x7f\s]")


def _text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None


def _split_header(text: str) -> tuple[list[str] | None, int]:
    """The header fields (None for an empty file) and the offset at which
    the rows begin."""
    buffer = io.StringIO(text, newline="")
    fields = next(csv.reader(buffer), None)
    return fields, buffer.tell()


def read_header(path: str | Path) -> list[str] | None:
    """The header of the table at ``path``; None for an empty file."""
    path = Path(path)
    return _split_header(_text(path))[0]


def read_id_table(path: str | Path, kinds: dict, empty: str) -> dict[str, np.ndarray]:
    """Read the columns named in ``kinds`` (name to kind; the first is the id
    column) from the table at ``path``, each reordered by id.

    Raises:
        ValidationError: On a header without the named columns or with a
            repeated name, no rows (message ``empty``), a malformed or
            out-of-range field, a row of the wrong width, a repeated id or
            ids that are not ``0..n-1``; the message names the file and, for
            a fault in one row, its line and field.
    """
    path = Path(path)
    text = _text(path)
    header, start = _split_header(text)
    if header is None or not set(kinds) <= set(header):
        raise ValidationError(f"{path}: expected header {','.join(kinds)}")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: repeated column name in header {','.join(header)}")
    body = text[start:]
    # np.loadtxt ends rows at LF or CRLF; csv also ends them at a lone CR.
    if body.count("\r") != body.count("\r\n"):
        body = body.replace("\r\n", "\n").replace("\r", "\n")
    if not body.isascii():
        # np.loadtxt reads some non-ASCII letters in an integer field as
        # digits (numpy 2.4 reads "\u01fe" as 462) and crashes on some past
        # U+7FFFF, so the bulk parse sees "?", which every kind rejects, in
        # their place.
        body = _FOREIGN.sub("?", body)
    # Columns not asked for are read as one character and dropped.
    dtype = [(f"f{i}", _dtype(kinds.get(name))) for i, name in enumerate(header)]
    with warnings.catch_warnings():
        # Older numpy reads "1.0" into an integer column with a warning;
        # numpy 2 rejects it, as int() does.
        warnings.simplefilter("error", DeprecationWarning)
        # A table without rows is reported below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(
                io.StringIO(body), dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
        except (ValueError, DeprecationWarning) as exc:
            raise _first_bad_row(path, text, header, kinds, str(exc)) from None
    if len(rows) == 0:
        raise ValidationError(f"{path}: {empty}")

    columns: dict[str, np.ndarray] = {}
    faulty = np.zeros(len(rows), dtype=bool)
    for name, kind in kinds.items():
        values = rows[f"f{header.index(name)}"]
        if kind == FLOAT:
            faulty |= ~np.isfinite(values)
        elif kind == BIT:
            faulty |= (values != 0) & (values != 1)
            values = values.astype(np.int8)
        elif isinstance(kind, dict):
            values, unknown = _words(values, kind)
            faulty |= unknown
        columns[name] = values
    id_name = next(iter(kinds))
    ids = columns[id_name]
    n = len(ids)
    in_range = ids.min() >= 0 and ids.max() < n
    if in_range:
        repeated = bool(np.any(np.bincount(ids, minlength=n) != 1))
    else:
        ordered = np.sort(ids)
        repeated = bool(np.any(ordered[1:] == ordered[:-1]))
    if repeated or faulty.any():
        raise _first_bad_row(path, text, header, kinds, "no faulty row found")
    if not in_range:
        raise _gap_error(path, id_name, ids)
    out = {}
    for name, values in columns.items():
        out[name] = np.empty_like(values)
        out[name][ids] = values
    return out


def _dtype(kind) -> object:
    if kind is None:
        return "U1"
    if isinstance(kind, dict):
        return f"U{_WORD_WIDTH}"
    return _DTYPES[kind]


def _words(values: np.ndarray, words: dict) -> tuple[np.ndarray, np.ndarray]:
    """Map a word column onto the dict's values; also return the mask of
    rows holding no word of the dict."""
    out = np.zeros(len(values), dtype=np.int8)
    unknown = np.ones(len(values), dtype=bool)
    for word, code in words.items():
        exact = values == word
        out[exact] = code
        unknown &= ~exact
    if unknown.any():
        # Padded or capitalized words; anything else stays unknown.
        odd = np.flatnonzero(unknown)
        texts = values[odd]
        normalized = np.char.lower(np.char.strip(texts))
        short = np.char.str_len(texts) < _WORD_WIDTH
        for word, code in words.items():
            hit = odd[short & (normalized == word)]
            out[hit] = code
            unknown[hit] = False
    return out, unknown


def _gap_error(path: Path, id_name: str, ids: np.ndarray) -> ValidationError:
    noun = id_name.removesuffix("_id")
    lowest = int(ids.min())
    if lowest < 0:
        return ValidationError(f"{path}: {noun} ids are not contiguous from 0: {id_name} {lowest}")
    # The first ten ids absent from 0..max(ids) are all below len(ids) + 10.
    candidates = np.arange(min(int(ids.max()) + 1, len(ids) + 10))
    missing = candidates[~np.isin(candidates, ids)][:10]
    return ValidationError(
        f"{path}: {noun} ids are not contiguous from 0: missing {missing.tolist()}"
    )


def _parse(text: str | None, kind) -> int | float:
    """The value of one field, or ValueError when ``kind`` rejects it."""
    if text is None:
        raise ValueError("missing")
    if kind == FLOAT:
        if not _FLOAT_RE.fullmatch(text):
            raise ValueError(text)
        return float(text)
    if not _INT_RE.fullmatch(text) or not _INT64.min <= int(text) <= _INT64.max:
        raise ValueError(text)
    return int(text)


def _first_bad_row(path: Path, text: str, header: list[str], kinds: dict, fallback: str) -> ValidationError:
    """The error of the first row, in file order, that the bulk parse
    rejects: its word fields, then its numbers, its width, its bits, a
    repeated id and non-finite numbers, in that order."""
    id_name = next(iter(kinds))
    positions = {name: header.index(name) for name in kinds}
    seen: set[int] = set()
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)  # the header
    for fields in reader:
        if not fields:
            continue
        row = {name: fields[i] if i < len(fields) else None for name, i in positions.items()}
        where = f"{path}: line {reader.line_num}:"
        for name, kind in kinds.items():
            if isinstance(kind, dict):
                word = row[name] or ""
                if word.strip().lower() not in kind or len(word) >= _WORD_WIDTH:
                    return ValidationError(f"{where} unknown {name} {row[name]!r}")
        values = {}
        for name, kind in kinds.items():
            if isinstance(kind, dict):
                continue
            try:
                values[name] = _parse(row[name], kind)
            except ValueError:
                what = "a number" if kind == FLOAT else "an integer"
                shown = "is missing" if row[name] is None else f"{row[name]!r} is not {what}"
                return ValidationError(f"{where} {name} {shown}")
        if len(fields) != len(header):
            return ValidationError(f"{where} expected {len(header)} fields, got {len(fields)}")
        for name, kind in kinds.items():
            if kind == BIT and values[name] not in (0, 1):
                return ValidationError(f"{where} {name} {row[name]!r} is not 0 or 1")
        key = values[id_name]
        if key in seen:
            return ValidationError(f"{where} duplicate {id_name} {key}")
        seen.add(key)
        for name, kind in kinds.items():
            if kind == FLOAT and not np.isfinite(values[name]):
                return ValidationError(
                    f"{where} non-finite {name} {row[name]!r} for {id_name} {key}"
                )
    return ValidationError(f"{path}: malformed table: {fallback}")


def write_table(path: str | Path, header: list[str], columns: list[list], row_format: str) -> None:
    """Write ``header`` and one row per position of ``columns`` (equal-length
    lists of Python values), each row ``row_format`` applied to the row's
    values, with CRLF line ends as ``csv.writer`` writes them. The values
    must need no quoting."""
    width, rows = len(columns), len(columns[0])
    flat: list = [None] * (width * rows)
    for k, column in enumerate(columns):
        flat[k::width] = column
    text = ",".join(header) + "\r\n" + (row_format * rows) % tuple(flat)
    Path(path).write_bytes(text.encode("utf-8"))
