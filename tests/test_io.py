"""The bulk file readers and writers against the row-by-row ones they replaced.

The old readers and writers are kept below as private references. On
generated files the new reader must return identical arrays, or raise the
same exception class with the old message's substance. The only inputs it
may treat differently carry one of the features listed in ``NEW_REJECTS``
(it rejects them, and the old reader either accepted them or crashed), and
blank rows in a covariates file (skipped, as every other table skips them;
the old covariates reader rejected them).
"""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spilltest import (
    Clustering,
    DesignCounts,
    Graph,
    ParseError,
    SpilltestError,
    ValidationError,
    hierarchical_assign,
    stratified_hierarchical_assign,
)
from spilltest.assign import ARM_CBR, ARM_CR, load_assignment_vectors, save_assignment
from spilltest.cli import _load_covariates
from spilltest.graph import load_edge_list, save_edge_list
from spilltest.outcomes import load_outcomes
from spilltest.partition import (
    Stratification,
    load_clustering,
    load_stratification,
    save_clustering,
    save_stratification,
)

# ---------------------------------------------------------------------------
# The row-by-row readers and writers, as they were before the bulk ones.
# ---------------------------------------------------------------------------

_OLD_HEADER_RE = re.compile(r"^N\s*=\s*(\d+)$")


def _old_field_error(path, line, row, kinds):
    for name, kind in kinds.items():
        text = row.get(name)
        try:
            kind(text)
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            shown = "is missing" if text is None else f"{text!r} is not {what}"
            return ValidationError(f"{path}: line {line}: {name} {shown}")
    return ValidationError(f"{path}: line {line}: malformed row")


def _old_load_edge_list(path):
    pairs = []
    declared_n = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            header = _OLD_HEADER_RE.match(line)
            if header:
                declared_n = int(header.group(1))
                continue
            tokens = line.replace(",", " ").split()
            if len(tokens) != 2:
                raise ParseError(f"{path}:{lineno}: expected two unit ids, got {line!r}")
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer unit id in {line!r}") from None
            if i < 0 or j < 0:
                raise ValidationError(f"{path}:{lineno}: negative unit id in {line!r}")
            if i == j:
                raise ValidationError(f"{path}:{lineno}: self-loop on unit {i}")
            pairs.append((i, j))
    max_id = max((max(p) for p in pairs), default=-1)
    if declared_n is None:
        if max_id < 0:
            raise ValidationError(f"{path}: no edges and no N=<int> header")
        num_units = max_id + 1
    else:
        if max_id >= declared_n:
            raise ValidationError(f"{path}: unit id {max_id} outside declared N={declared_n}")
        num_units = declared_n
    # The file is named here too, as in every other refusal.
    if num_units < 1:
        raise ValidationError(f"{path}: graph needs at least one unit, got N={num_units}")
    return Graph.from_edges(num_units, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def _old_save_edge_list(graph, path):
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"N={graph.num_units}\n")
        for i in range(graph.num_units):
            for j in graph.neighbors(i):
                if i < j:
                    fh.write(f"{i} {j}\n")


def _old_id_rows(path, columns, label):
    """The shared loop of the old clustering and stratification readers."""
    id_name, value_name = columns
    rows = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not {id_name, value_name} <= set(reader.fieldnames or ()):
            raise ValidationError(f"{path}: expected header {id_name},{value_name}")
        for row in reader:
            try:
                key, value = int(row[id_name]), int(row[value_name])
            except (TypeError, ValueError):
                raise _old_field_error(
                    path, reader.line_num, row, {id_name: int, value_name: int}
                ) from None
            if key in rows:
                raise ValidationError(f"{path}: duplicate {id_name} {key}")
            rows[key] = value
    if not rows:
        raise ValidationError(f"{path}: {label}")
    n = max(rows) + 1
    if len(rows) != n:
        noun = id_name.split("_")[0]
        raise ValidationError(f"{path}: {noun} ids are not contiguous from 0")
    out = np.empty(n, dtype=np.int64)
    for key, value in rows.items():
        out[key] = value
    return out


def _old_load_clustering(path):
    return Clustering.from_assignment(_old_id_rows(path, ("unit_id", "cluster_id"), "empty clustering"))


def _old_load_stratification(path):
    stratum_of = _old_id_rows(path, ("cluster_id", "stratum_id"), "empty stratification")
    return Stratification(stratum_of)


def _old_load_assignment_vectors(path):
    rows = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"unit_id", "arm", "treatment"} <= set(reader.fieldnames or ()):
            raise ValidationError(f"{path}: expected header unit_id,arm,treatment")
        for row in reader:
            arm_text = (row["arm"] or "").strip().lower()
            if arm_text not in ("cr", "cbr"):
                raise ValidationError(f"{path}: unknown arm {row['arm']!r}")
            try:
                unit, z = int(row["unit_id"]), int(row["treatment"])
            except (TypeError, ValueError):
                raise _old_field_error(
                    path, reader.line_num, row, {"unit_id": int, "treatment": int}
                ) from None
            if unit in rows:
                raise ValidationError(f"{path}: duplicate unit_id {unit}")
            rows[unit] = (ARM_CR if arm_text == "cr" else ARM_CBR, z)
    if not rows:
        raise ValidationError(f"{path}: no assignments")
    n = max(rows) + 1
    if len(rows) != n:
        raise ValidationError(f"{path}: unit ids are not contiguous from 0")
    unit_arm = np.empty(n, dtype=np.int8)
    treatment = np.empty(n, dtype=np.int8)
    for unit, (w, z) in rows.items():
        unit_arm[unit] = w
        treatment[unit] = z
    return unit_arm, treatment


def _old_load_outcomes(path):
    rows = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"unit_id", "y"} <= set(reader.fieldnames or ()):
            raise ValidationError(f"{path}: expected header unit_id,y")
        for row in reader:
            try:
                unit = int(row["unit_id"])
                value = float(row["y"])
            except (TypeError, ValueError):
                raise _old_field_error(path, reader.line_num, row, {"unit_id": int, "y": float}) from None
            if unit in rows:
                raise ValidationError(f"{path}: duplicate unit_id {unit}")
            if not math.isfinite(value):
                raise ValidationError(f"{path}: non-finite outcome {row['y']!r} for unit {unit}")
            rows[unit] = value
    if not rows:
        raise ValidationError(f"{path}: no outcomes")
    n = max(rows) + 1
    if len(rows) != n:
        missing = sorted(set(range(n)) - set(rows))[:10]
        raise ValidationError(f"{path}: missing outcomes for units {missing}")
    y = np.empty(n, dtype=np.float64)
    for i, value in rows.items():
        y[i] = value
    return y


def _old_load_covariates(path):
    """The old ``stratify --covariates`` reader, up to the matrix it built."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "cluster_id":
            raise ValidationError(f"{path}: first column must be cluster_id")
        kinds = {"cluster_id": int, **{name: float for name in header[1:]}}
        rows = []
        for r in reader:
            if len(r) != len(header):
                raise ValidationError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields, got {len(r)}"
                )
            try:
                rows.append((int(r[0]), [float(v) for v in r[1:]]))
            except ValueError:
                raise _old_field_error(path, reader.line_num, dict(zip(header, r)), kinds) from None
    covariates = np.asarray([vals for _, vals in sorted(rows)], dtype=np.float64)
    # The checks cluster_features ran on the matrix next.
    if not np.all(np.isfinite(covariates)):
        raise ValidationError("covariates must be finite")
    return covariates


def _old_save_id_rows(path, header, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _old_save_assignment(assignments, path):
    if not isinstance(assignments, list):
        assignments = [assignments]
    rows = []
    for a in assignments:
        for local, unit in enumerate(a.unit_ids):
            arm = "cr" if a.unit_arm[local] == ARM_CR else "cbr"
            rows.append((int(unit), arm, int(a.treatment[local])))
    rows.sort()
    _old_save_id_rows(path, ["unit_id", "arm", "treatment"], rows)


# ---------------------------------------------------------------------------
# Generated tables.
# ---------------------------------------------------------------------------

# Features the new readers reject on purpose, by table.
NEW_REJECTS = {
    "all": {
        "underscore_digits",  # int("1_0") is 10
        "unicode_digits",  # int("٣") is 3
        "big_int",  # beyond int64: the old readers crashed or mis-read
        "negative_id",  # the old readers could fill the dense vector with garbage
        "wide_row",  # more fields than the header: the old readers ignored them
        "short_row_extra",  # fewer fields, all named columns present
        "repeated_header",  # csv.DictReader took the last column of the name
        "padded_word",  # a word padded to 8 characters or more
    },
    "assignment": {"bad_bit"},  # treatment 2 used to count as control
    # The old covariates reader did not check ids, and built an empty
    # matrix from a file without rows that a later step rejected.
    "covariates": {"duplicate", "gap", "empty"},
}

TABLES = {
    "clusters": ("unit_id", {"cluster_id": "int"}),
    "strata": ("cluster_id", {"stratum_id": "int"}),
    "assignment": ("unit_id", {"arm": "arm", "treatment": "bit"}),
    "outcomes": ("unit_id", {"y": "float"}),
    "covariates": ("cluster_id", {"x": "float", "w": "float"}),
}

READERS = {
    "clusters": (load_clustering, _old_load_clustering, lambda c: (c.assignment,)),
    "strata": (load_stratification, _old_load_stratification, lambda s: (s.stratum_of,)),
    "assignment": (load_assignment_vectors, _old_load_assignment_vectors, lambda v: v),
    "outcomes": (load_outcomes, _old_load_outcomes, lambda y: (y,)),
    "covariates": (_load_covariates, _old_load_covariates, lambda m: (m,)),
}

INT_FORMS = ["{}", " {}", "{} ", "+{}", "0{}", '"{}"', '" {}"', "\t{}"]
FLOAT_FORMS = ["{!r}", " {!r}", '"{!r}"', "{!r} "]
ARM_FORMS = ["{}", "{} ", " {}", '"{}"', "upper", "title"]
EXTRA_VALUES = ["", "a", "hello world", '"quoted, comma"', '"a""b"', "ä", 'a"b', "7"]
MALFORMED = ["abc", "", "1.5", "1e3", "--1", "0x10", "1 2", '1"2"', '"1"2"3"', "nan(1)", "\x00"]
NONFINITE = ["nan", "inf", "-inf", "1e999", "-Infinity", "NaN"]


def _format(value, kind, draw):
    if kind == "float":
        return draw(st.sampled_from(FLOAT_FORMS)).format(value)
    if kind == "arm":
        form = draw(st.sampled_from(ARM_FORMS))
        if form in ("upper", "title"):
            return getattr(value, form)()
        return form.format(value)
    return draw(st.sampled_from(INT_FORMS)).format(value)


@st.composite
def tables(draw, name):
    id_name, values = TABLES[name]
    features = set()
    n = draw(st.integers(1, 7))
    # Every column of a covariates file is a covariate.
    extras = [] if name == "covariates" else draw(
        st.lists(st.sampled_from(["note", "x2", "z"]), max_size=2, unique=True)
    )
    header = [id_name, *values, *extras]
    header = draw(st.permutations(header))
    rows = []
    for i in range(n):
        row = {id_name: _format(i, "int", draw)}
        for col, kind in values.items():
            if kind == "int":
                # Small values, so that most clusterings have no empty cluster.
                row[col] = _format(draw(st.integers(0, max(0, i // 2))), kind, draw)
            elif kind == "float":
                value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
                row[col] = _format(value, kind, draw)
            elif kind == "bit":
                row[col] = _format(draw(st.sampled_from([0, 1])), kind, draw)
            else:
                row[col] = _format(draw(st.sampled_from(["cr", "cbr"])), kind, draw)
        for col in extras:
            row[col] = draw(st.sampled_from(EXTRA_VALUES))
        rows.append(row)
    order = draw(st.permutations(range(n)))
    records = [[rows[i][col] for col in header] for i in order]

    fault = draw(st.sampled_from([
        None, None, None, "malformed", "duplicate", "gap", "nonfinite", "bad_arm", "bad_bit",
        "short_row", "short_row_extra", "wide_row", "blank_ws_line", "underscore_digits",
        "unicode_digits", "big_int", "negative_id", "padded_word", "repeated_header", "empty",
        "missing_column",
    ]))
    target = draw(st.integers(0, len(records) - 1))
    typed = [col for col in header if col == id_name or col in values]
    if fault == "malformed":
        col = draw(st.sampled_from(typed))
        records[target][header.index(col)] = draw(st.sampled_from(MALFORMED))
    elif fault == "duplicate":
        records.append(list(records[target]))
        features.add(fault)
    elif fault == "gap" and n > 1:
        del records[order.index(draw(st.integers(0, n - 2)))]
        features.add(fault)
    elif fault == "nonfinite" and "float" in values.values():
        col = next(c for c, k in values.items() if k == "float")
        records[target][header.index(col)] = draw(st.sampled_from(NONFINITE))
    elif fault == "bad_arm" and "arm" in values.values():
        records[target][header.index("arm")] = draw(st.sampled_from(["x", "crr", "c r", "", "çr"]))
    elif fault == "bad_bit" and "bit" in values.values():
        records[target][header.index("treatment")] = draw(st.sampled_from(["2", "-1", "7"]))
        features.add(fault)
    elif fault == "short_row":
        cut = draw(st.integers(0, len(header) - 1))
        records[target] = records[target][:cut]
        if cut == 0:
            features.add("blank_line")
            # A blank row is skipped, or, at the end, reads as the final
            # line ending: either way its id is gone from the table.
            if not any(records):
                features.add("empty")
            elif order[target] < n - 1:
                features.add("gap")
        elif all(header.index(c) < cut for c in typed):
            features.add("short_row_extra")
    elif fault == "short_row_extra" and extras:
        last = max(header.index(c) for c in typed)
        if last < len(header) - 1:
            records[target] = records[target][: last + 1]
            features.add(fault)
    elif fault == "wide_row":
        records[target] = records[target] + ["5"]
        features.add(fault)
    elif fault == "blank_ws_line":
        records.insert(target, [" "])
    elif fault in ("underscore_digits", "unicode_digits", "big_int", "negative_id"):
        # Each goes where the old reader read it as a number the new one
        # would not: any number column, an integer one, or the ids.
        kinds = {id_name: "id", **values}
        allowed = {"underscore_digits": ("id", "int", "bit", "float"), "unicode_digits": ("id", "int", "bit", "float"),
                   "big_int": ("id", "int", "bit"), "negative_id": ("id",)}[fault]
        if fault == "big_int" and name == "outcomes":
            allowed = ()  # the old outcomes reader would build range(10**20)
        columns = [c for c in typed if kinds[c] in allowed]
        if columns:
            text = {"underscore_digits": "0_0", "unicode_digits": "٠",
                    "big_int": "99999999999999999999", "negative_id": "-1"}[fault]
            records[target][header.index(draw(st.sampled_from(columns)))] = text
            features.add(fault)
    elif fault == "padded_word" and "arm" in values.values():
        records[target][header.index("arm")] = "   cr   "
        features.add(fault)
    elif fault == "repeated_header" and extras:
        header = header + [extras[0]]
        records = [r + ["1"] for r in records]
        features.add(fault)
    elif fault == "empty":
        records = []
        features.add(fault)
    elif fault == "missing_column":
        header = [c for c in header if c != draw(st.sampled_from(typed))]

    lines = [",".join(header)] + [",".join(r) for r in records]
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
        features.add("blank_line")
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text, features


def _message_keys(message):
    """Substrings of an old reader's message that the new message must hold."""
    body = message.split(": ", 1)[1] if ": " in message else message
    forms = [
        (r"non-finite outcome (.*) for unit (\d+)$", lambda m: ["non-finite", m[1], f"unit_id {m[2]}"]),
        (r"missing outcomes for units (\[.*\])$", lambda m: ["not contiguous from 0", f"missing {m[1]}"]),
        (r"line \d+: expected \d+ fields", lambda m: []),  # covariates: a short row names its field
        (r"covariates must be finite", lambda m: ["non-finite"]),
    ]
    for pattern, keys in forms:
        match = re.search(pattern, body)
        if match:
            return keys(match)
    return [body]


def _run(reader, path):
    try:
        return reader(path), None
    except Exception as exc:  # the old readers could crash with any error
        return None, exc


def _check_reader(name, path, text, features):
    new_reader, old_reader, arrays = READERS[name]
    new, new_exc = _run(new_reader, path)
    old, old_exc = _run(old_reader, path)
    rejects = (NEW_REJECTS["all"] | NEW_REJECTS.get(name, set())) & features
    if new_exc is None:
        if old_exc is not None and name == "covariates" and "blank_line" in features:
            # Blank rows are skipped; the rest must read as it did.
            stripped = path.with_suffix(".stripped")
            lines = re.split(r"\r\n|\r|\n", text)
            kept = lines[:1] + [line for line in lines[1:] if line]
            stripped.write_text("\n".join(kept) + "\n", encoding="utf-8")
            old, old_exc = _run(old_reader, stripped)
        assert old_exc is None, f"accepted what the old reader rejected: {old_exc!r}"
        assert not rejects, f"accepted a file with {rejects}"
        for got, want in zip(arrays(new), arrays(old), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        return
    assert isinstance(new_exc, ValidationError), repr(new_exc)
    if old_exc is None:
        assert rejects, f"rejected what the old reader accepted: {new_exc!r}"
        return
    if rejects or not isinstance(old_exc, SpilltestError):
        return
    assert type(new_exc) is type(old_exc)
    for key in _message_keys(str(old_exc)):
        assert key in str(new_exc), (str(old_exc), str(new_exc))


@pytest.mark.parametrize("name", list(TABLES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_readers_match_row_by_row_readers(tmp_path, name, data):
    text, features = data.draw(tables(name))
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_reader(name, path, text, features)


# ---------------------------------------------------------------------------
# Generated edge lists.
# ---------------------------------------------------------------------------

EDGE_REJECTS = {
    "underscore_digits", "unicode_digits", "unicode_header", "unicode_header_space", "unicode_space", "big_int",
    "unicode_header_pad", "unicode_header_indent", "unicode_comment_indent",
}


@st.composite
def edge_lists(draw):
    features = set()
    n = draw(st.integers(2, 9))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        sep = draw(st.sampled_from([" ", "\t", ",", ", ", ",,", "  "]))
        pad = draw(st.sampled_from(["", " ", "\t", ","]))
        lines.append(f"{pad}{draw(st.sampled_from(['{}', '+{}', '0{}'])).format(i)}{sep}{j}{pad}")
    if draw(st.booleans()):
        declared = draw(st.integers(0, n + 1))
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["N={}", "N = {}", " N= {} ", "N={}\t"])).format(declared))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["# comment", "  # indented, with 1 2", "", "   ", "#N=3"])))
    fault = draw(st.sampled_from([
        None, None, "three", "one", "word", "negative", "inline_comment", "float", "header_junk",
        "underscore_digits", "unicode_digits", "unicode_header", "unicode_header_space", "unicode_space",
        "unicode_header_pad", "unicode_header_indent", "unicode_comment_indent", "big_int", "bad_utf8",
    ]))
    at = draw(st.integers(0, len(lines)))
    bad = {
        "three": "1 2 3", "one": "4", "word": "a b", "negative": "-1 2", "inline_comment": "1 2 # c",
        "float": "1.0 2", "header_junk": "N=3 4", "underscore_digits": "1_0 2",
        "unicode_digits": "١ 2", "unicode_header": "N=٣", "unicode_header_space": "N\u00a0=3",
        "unicode_space": "1 2",
        # Only ASCII whitespace pads a line, so a no-break space starts no
        # header or comment.
        "unicode_header_pad": "N=3\u00a0", "unicode_header_indent": "\u00a0N=3",
        "unicode_comment_indent": "\u00a0# x",
        "big_int": "99999999999999999999 1",
    }.get(fault)
    if bad is not None:
        lines.insert(at, bad)
        features.add(fault)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode("utf-8")
    if fault == "bad_utf8":
        data = data + b"\xff\xfe 1\n"
    return data, features


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=edge_lists())
def test_edge_list_reader_matches_line_by_line_reader(tmp_path, data):
    data, features = data
    path = tmp_path / "g.edges"
    path.write_bytes(data)
    new, new_exc = _run(load_edge_list, path)
    old, old_exc = _run(_old_load_edge_list, path)
    if new_exc is None:
        assert old_exc is None, f"accepted what the old reader rejected: {old_exc!r}"
        assert not features & EDGE_REJECTS
        assert new.num_units == old.num_units
        assert np.array_equal(new.adjacency_indptr, old.adjacency_indptr)
        assert np.array_equal(new.adjacency_indices, old.adjacency_indices)
        return
    assert isinstance(new_exc, ValidationError), repr(new_exc)
    if old_exc is None:
        assert features & EDGE_REJECTS, f"rejected what the old reader accepted: {new_exc!r}"
        return
    if features & EDGE_REJECTS or not isinstance(old_exc, SpilltestError):
        return
    assert type(new_exc) is type(old_exc)
    assert str(new_exc) == str(old_exc)


# ---------------------------------------------------------------------------
# Writers: identical bytes.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)).filter(lambda p: p[0] != p[1]), max_size=60),
    st.integers(0, 2**31),
)
def test_writers_match_row_by_row_writers(tmp_path, n, pairs, seed):
    pairs = [(i % n, j % n) for i, j in pairs if i % n != j % n]
    graph = Graph.from_edges(n, pairs)
    save_edge_list(graph, tmp_path / "new.edges")
    _old_save_edge_list(graph, tmp_path / "old.edges")
    assert (tmp_path / "new.edges").read_bytes() == (tmp_path / "old.edges").read_bytes()

    rng = np.random.default_rng(seed)
    clustering = Clustering.from_assignment(np.repeat(rng.permutation(8), 2))
    save_clustering(clustering, tmp_path / "new_c.csv")
    _old_save_id_rows(tmp_path / "old_c.csv", ["unit_id", "cluster_id"],
                      [[i, int(c)] for i, c in enumerate(clustering.assignment)])
    assert (tmp_path / "new_c.csv").read_bytes() == (tmp_path / "old_c.csv").read_bytes()

    strat = Stratification(rng.permutation(np.repeat([0, 1], 4)))
    save_stratification(strat, tmp_path / "new_s.csv")
    _old_save_id_rows(tmp_path / "old_s.csv", ["cluster_id", "stratum_id"],
                      [[c, int(s)] for c, s in enumerate(strat.stratum_of)])
    assert (tmp_path / "new_s.csv").read_bytes() == (tmp_path / "old_s.csv").read_bytes()

    for assignments in (
        stratified_hierarchical_assign(clustering, strat, seed=seed),
        hierarchical_assign(clustering, DesignCounts.symmetric(16, 8), seed=seed),
    ):
        save_assignment(assignments, tmp_path / "new_a.csv")
        _old_save_assignment(assignments, tmp_path / "old_a.csv")
        assert (tmp_path / "new_a.csv").read_bytes() == (tmp_path / "old_a.csv").read_bytes()


# ---------------------------------------------------------------------------
# Examples.
# ---------------------------------------------------------------------------


def test_table_reader_accepts_any_row_order_and_quoting(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text('note,treatment,arm,unit_id\r\n"x, y",1,CBR,1\r\n\r\n,"0", cr ,0\r\n')
    unit_arm, treatment = load_assignment_vectors(path)
    assert unit_arm.tolist() == [ARM_CR, ARM_CBR]
    assert treatment.tolist() == [0, 1]


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,cr,1\n1,cr,2\n", "line 3: treatment '2' is not 0 or 1"),
        ("0,cr,1\n1,cbr,0,9\n", "line 3: expected 3 fields, got 4"),
        ("0,cr,1\n1,xx,0\n", "line 3: unknown arm 'xx'"),
        ("0,cr,1\n0,cr,0\n", "line 3: duplicate unit_id 0"),
        ("1,cr,1\n2,cr,0\n", "unit ids are not contiguous from 0: missing [0]"),
        ("0,cr,1\n-1,cr,0\n", "unit ids are not contiguous from 0: unit_id -1"),
    ],
)
def test_table_reader_names_line_and_field(tmp_path, body, message):
    path = tmp_path / "a.csv"
    path.write_text("unit_id,arm,treatment\n" + body)
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_assignment_vectors(path)


@pytest.mark.parametrize("letter", ["\u01fe", "\U00080000"])
def test_table_reader_rejects_letters_in_integer_fields(tmp_path, letter):
    # np.loadtxt reads "\u01fe" in an integer field as 462 and crashes on
    # "\U00080000"; in a 500-unit clustering, either in place of unit id 462
    # must be named as the faulty field.
    path = tmp_path / "c.csv"
    rows = [f"{i},{i // 2}" for i in range(500)]
    rows[462] = f"{letter},231"
    path.write_text("unit_id,cluster_id\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"line 464: unit_id {letter!r} is not an integer")):
        load_clustering(path)


def test_edge_list_header_takes_ascii_digits_only(tmp_path, capsys):
    # "N=" and an Arabic-Indic three: unit ids are ASCII digits, and so is N.
    from spilltest.cli import main

    path = tmp_path / "g.edges"
    path.write_text("N=\u0663\n0 1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1: expected two unit ids"):
        load_edge_list(path)
    out_clusters, out_metrics = tmp_path / "c.csv", tmp_path / "m.json"
    args = ["cluster", "--edges", path, "--clusters", 1, "--seed", 1,
            "--out-clusters", out_clusters, "--out-metrics", out_metrics]
    assert main([str(a) for a in args]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out_clusters.exists()


def test_edge_list_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# c\nN=4\n0 1\r\n2,3\n1 1\n")
    with pytest.raises(ValidationError, match=":5: self-loop on unit 1"):
        load_edge_list(path)
    path.write_text("0 1\n1 2 # tail\n")
    with pytest.raises(ParseError, match=":2: expected two unit ids"):
        load_edge_list(path)

