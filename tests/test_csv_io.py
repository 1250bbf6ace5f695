"""Columnar CSV I/O: the block parser against the row-at-a-time reference,
byte identity of the writers, strict boolean reads, round-trip invariants."""

import csv
import io
import itertools
import logging
import math
import os
import re
import string
import tempfile
import threading
import tracemalloc
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import PROPERTIES, make_schema, read_labels
from oracles.csv_row_oracle import ingest as row_ingest
from privmine import (
    Attribute,
    Dataset,
    Schema,
    ingest_csv,
    itemset_label,
    load_schema,
    read_boolean_csv,
    write_boolean_csv,
    write_csv,
)
from privmine import schema as schema_module
from privmine.schema import BLOCK_ROWS, MISSING_TOKENS, BooleanDataset

# ---------------------------------------------------------------------------
# differential: block parser vs row parser on a file with edge rows around
# every block boundary
# ---------------------------------------------------------------------------

EDGE_SCHEMA = load_schema("""
name: edge
attributes:
  - name: age
    bins: [15, 35, 55, 75]
    open_upper: true
  - name: w
    bins: [0, 1, 2.5, 10]
  - name: race
    categories: [White, Black, Other]
  - name: country
    categories: [US, Other]
    default: Other
  - name: q
    categories: ["?", "yes", "no, thanks"]
""")

# file column order: an unmapped column first, then the attributes shuffled
FILE_COLUMNS = ("note", "q", "age", "country", "w", "race")
BY_NAME = {"age": "age", "w": "w", "race": "race", "country": "country", "q": "q"}
BY_INDEX = {name: FILE_COLUMNS.index(name) for name in BY_NAME}
N_DATA_ROWS = 9000


def _ulps(x):
    return [repr(math.nextafter(x, -math.inf)), repr(float(x)), repr(math.nextafter(x, math.inf))]


# (column -> text) overrides of a valid row; None replaces the whole line
EDGE_FIELDS = (
    [{"age": t} for t in ("?", "NA", "N/A", "", "  ", "abc", "1.2.3", "nan", "inf", "-inf",
                          "1e400", "3", "-1", "1e9", " 42 ", "(35-55]", " >75 ", "1_000",
                          *_ulps(15), *_ulps(35), *_ulps(75))]
    + [{"w": t} for t in ("-5", "11", "-0", "1e-320", "0x10", *_ulps(0), *_ulps(1),
                          *_ulps(2.5), *_ulps(10), "(2.5-10]", "?")]
    + [{"race": t} for t in ('"White"', '" Black "', "Purple", "", "?", "white")]
    + [{"country": t} for t in ("Mars", "NA", "", '"US"')]
    + [{"q": t} for t in ("?", '"no, thanks"', "no", "NA")]
)
EDGE_LINES = ("", "   ", " , , , , , ", "1,2", "yes", ",,,,", "\t")


def _valid_row(rng):
    return {
        "note": f"n{rng.integers(1000)}",
        "q": ("?", "yes", '"no, thanks"')[rng.integers(3)],
        "age": str(rng.integers(16, 100)),
        "country": ("US", "Other", "UK", "Mars")[rng.integers(4)],
        "w": repr(float(rng.uniform(0.001, 10.0))),
        "race": ("White", "Black", "Other")[rng.integers(3)],
    }


def _line(fields, columns, crlf=False):
    return ",".join(fields[c] for c in columns) + ("\r\n" if crlf else "\n")


def _edge_positions():
    """Data-row indices that get edge rows: runs on both sides of each block
    boundary, so rows 1, 4096, 4097, 8192 and 8193 are edge rows."""
    return [i for b in (0, BLOCK_ROWS, 2 * BLOCK_ROWS) for i in range(max(0, b - 30), b + 30)]


def _edge_file(path, columns, header, seed=0):
    rng = np.random.default_rng(seed)
    edges = [*EDGE_FIELDS, *EDGE_LINES]
    positions = set(_edge_positions())
    lines = [",".join(columns) + "\n"] if header else []
    k = 0
    for i in range(N_DATA_ROWS):
        row = _valid_row(rng)
        crlf = i % 7 == 0
        if i in positions:
            edge = edges[(k * 5 + i) % len(edges)]
            k += 1
            if isinstance(edge, str):
                lines.append(edge + ("\r\n" if crlf else "\n"))
                continue
            row.update(edge)
        lines.append(_line(row, columns, crlf))
    path.write_text("".join(lines), newline="", encoding="utf-8")


def _assert_same_ingest(path, caplog, **kwargs):
    """Block and row ingest give the same codes, or the same error (None).
    Returns the skipped count, which the one WARNING line states; with none
    skipped there is no WARNING."""
    try:
        expected = row_ingest(str(path), EDGE_SCHEMA, **kwargs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ingest_csv(str(path), EDGE_SCHEMA, **kwargs)
        assert str(got.value) == str(exc)
        return None
    codes, skipped = expected
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="privmine.schema"):
        ds = ingest_csv(str(path), EDGE_SCHEMA, **kwargs)
    assert ds.codes.tolist() == [list(r) for r in codes]
    want = [f"{path}: skipped {skipped} rows with missing or unparseable values"] if skipped else []
    assert [r.getMessage() for r in caplog.records] == want
    return skipped


@pytest.mark.parametrize("on_error", ["skip", "abort"])
@pytest.mark.parametrize("clamp", [False, True])
def test_block_ingest_matches_row_ingest(tmp_path, caplog, on_error, clamp):
    shuffled = tmp_path / "shuffled.csv"
    _edge_file(shuffled, FILE_COLUMNS, header=True)
    plain = tmp_path / "plain.csv"
    _edge_file(plain, ("age", "w", "race", "country", "q", "note"), header=False, seed=1)
    cases = [
        (shuffled, {}),
        (shuffled, {"column_map": BY_NAME}),
        (shuffled, {"column_map": BY_INDEX}),  # header read as a data row
        (plain, {}),
        (plain, {"column_map": {"age": 0, "w": 1, "race": 2, "country": 3, "q": 4}}),
    ]
    for path, kwargs in cases:
        skipped = _assert_same_ingest(path, caplog, on_error=on_error, clamp=clamp, **kwargs)
        if on_error == "skip":
            assert skipped > 0


@pytest.mark.parametrize("clamp", [False, True])
def test_abort_names_the_row_at_each_block_boundary(tmp_path, clamp):
    # the fourth row fails in file column 1 (q) and 2 (age): age is first in
    # schema order, so its message wins
    bad = ({"age": "?"}, {"w": "nan"}, {"race": "Purple"}, {"q": "no", "age": "x"}, None)
    rng = np.random.default_rng(2)
    rows = [_line(_valid_row(rng), FILE_COLUMNS) for _ in range(N_DATA_ROWS)]
    for n, row_no in enumerate((1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1)):
        lines = list(rows)
        if row_no > 1:
            lines[row_no - 2] = "\n"  # a blank row before still counts in row numbers
        if bad[n] is None:
            lines[row_no - 1] = "1,2\n"  # too short
        else:
            lines[row_no - 1] = _line({**_valid_row(rng), **bad[n]}, FILE_COLUMNS)
        path = tmp_path / f"bad{n}.csv"
        path.write_text("".join(lines), encoding="utf-8")
        kwargs = {"column_map": BY_INDEX, "on_error": "abort", "clamp": clamp}
        with pytest.raises(ValueError) as got:
            ingest_csv(str(path), EDGE_SCHEMA, **kwargs)
        with pytest.raises(ValueError) as want:
            row_ingest(str(path), EDGE_SCHEMA, **kwargs)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path} row {row_no}: attribute ")


@pytest.mark.parametrize("on_error", ["skip", "abort"])
def test_field_past_csv_limit_is_value_error(tmp_path, census_schema, on_error):
    path = tmp_path / "long.csv"
    path.write_text("age,fnlwgt,hours-per-week,race,sex,native-country\n"
                    f"30,50000,40,{'x' * 140_000},Male,United-States\n", encoding="utf-8")
    limit = csv.field_size_limit()
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field larger than field limit"):
        ingest_csv(str(path), census_schema, on_error=on_error)
    path.write_text(",".join(["x" * 140_000] * census_schema.boolean_width) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field larger than field limit"):
        read_boolean_csv(str(path), census_schema)
    assert csv.field_size_limit() == limit


def test_negative_column_index_too_short_is_a_bad_row(tmp_path, caplog):
    sch = Schema("s", (EDGE_SCHEMA.attributes[3],))
    path = tmp_path / "neg.csv"
    path.write_text("US,yes\nUK\n", encoding="utf-8")  # ragged block
    with caplog.at_level(logging.WARNING, logger="privmine.schema"):
        ds = ingest_csv(str(path), sch, column_map={"country": -2})
        assert ds.codes.tolist() == [[0]]
        path.write_text("US,yes\nUK,no\n", encoding="utf-8")  # equal widths
        ds = ingest_csv(str(path), sch, column_map={"country": -3})
        assert ds.n_records == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: skipped {n} rows with missing or unparseable values" for n in (1, 2)]


# ---------------------------------------------------------------------------
# differential: the line memo, on files of a few dozen distinct lines, as a
# perturbed label table is (at most one distinct line per domain cell)
# ---------------------------------------------------------------------------

MEMO_COLUMNS = ("age", "w", "race", "country", "q")
N_MEMO_ROWS = 3 * BLOCK_ROWS
# label lines of EDGE_SCHEMA without the labels that need quotes: 4 * 3 * 3 * 2 * 2
LABEL_LINES = [",".join(labels) + "\n" for labels in itertools.product(
    *([c for c in a.categories if "," not in c] for a in EDGE_SCHEMA.attributes))]
BAD_LINE = "(15-35],(0-1],Purple,US,yes\n"


def _memo_lines(n_distinct=40, seed=0):
    """A header plus N_MEMO_ROWS lines drawn from n_distinct label lines."""
    rng = np.random.default_rng(seed)
    pool = [LABEL_LINES[i] for i in rng.choice(len(LABEL_LINES), n_distinct, replace=False)]
    return [",".join(MEMO_COLUMNS) + "\n"] + [pool[i] for i in rng.integers(0, n_distinct,
                                                                             N_MEMO_ROWS)]


def _write_lines(path, lines, at=None):
    """Write lines, after replacing the file rows (1-based) given in ``at``."""
    lines = list(lines)
    for row_no, text in (at or {}).items():
        lines[row_no - 1] = text
    path.write_text("".join(lines), newline="", encoding="utf-8")
    return path


def _assert_memo_ingest(path, caplog):
    """``_assert_same_ingest`` under both error policies: the skipped count,
    and whether abort raised."""
    aborted = _assert_same_ingest(path, caplog, on_error="abort") is None
    return _assert_same_ingest(path, caplog, on_error="skip"), aborted


@pytest.mark.parametrize("first", [7, BLOCK_ROWS + 10])  # before / after the memo engaged
def test_memo_repeated_bad_line_counts_every_row_and_aborts_at_the_first(tmp_path, caplog, first):
    rows = (first, BLOCK_ROWS + 40, 2 * BLOCK_ROWS + 5, N_MEMO_ROWS)
    path = _write_lines(tmp_path / "bad.csv", _memo_lines(), {r: BAD_LINE for r in rows})
    with pytest.raises(ValueError) as got:
        ingest_csv(str(path), EDGE_SCHEMA, on_error="abort")
    assert str(got.value) == f"{path} row {first}: attribute 'race': unknown category 'Purple'"
    assert _assert_memo_ingest(path, caplog) == (len(rows), True)


def test_memo_blank_lines_are_skipped_silently(tmp_path, caplog):
    blanks = ("\n", "\r\n", "   \n", ",,,,\n", " , , , , \r\n", "\t\n")
    at = {r: blanks[k % len(blanks)]
          for k, r in enumerate(range(3, N_MEMO_ROWS, N_MEMO_ROWS // 25))}
    path = _write_lines(tmp_path / "blank.csv", _memo_lines(), at)
    assert _assert_memo_ingest(path, caplog) == (0, False)
    assert ingest_csv(str(path), EDGE_SCHEMA).n_records == N_MEMO_ROWS - len(at)


def test_memo_same_row_as_lf_and_crlf(tmp_path, caplog):
    lines = _memo_lines()
    lines[1::3] = [line[:-1] + "\r\n" for line in lines[1::3]]
    path = _write_lines(tmp_path / "crlf.csv", lines)
    assert _assert_memo_ingest(path, caplog) == (0, False)
    lf = ingest_csv(str(_write_lines(tmp_path / "lf.csv", _memo_lines())), EDGE_SCHEMA)
    assert np.array_equal(ingest_csv(str(path), EDGE_SCHEMA).codes, lf.codes)


def test_memo_lone_carriage_return(tmp_path, caplog):
    lines = _memo_lines()
    lines[5::11] = [line[:-1] + "\r" for line in lines[5::11]]  # a lone \r ends the row
    lines[BLOCK_ROWS + 3] = "\r"  # and a blank one
    lines[-1] = lines[-1][:-1]  # no line end at the end of the file
    path = _write_lines(tmp_path / "cr.csv", lines)
    assert _assert_memo_ingest(path, caplog) == (0, False)


@pytest.mark.parametrize("bad_after", [False, True])
def test_memo_quoted_field_first_in_block_two(tmp_path, caplog, bad_after):
    quoted = '"(15-35]",(0-1],White,"US","no, thanks"\n'
    at = {BLOCK_ROWS + 50: quoted, BLOCK_ROWS + 60: '(15-35],(0-1],"Whi\nte",US,yes\n',
          2 * BLOCK_ROWS + 7: quoted, 2 * BLOCK_ROWS + 8: BAD_LINE if bad_after else quoted}
    path = _write_lines(tmp_path / "quoted.csv", _memo_lines(), at)
    skipped, aborted = _assert_memo_ingest(path, caplog)
    assert (skipped, aborted) == (1 + bad_after, True)  # the split "Whi\nte", then BAD_LINE
    assert ingest_csv(str(path), EDGE_SCHEMA).n_records == N_MEMO_ROWS - skipped


def test_memo_engages_after_an_all_distinct_first_block(tmp_path, caplog):
    rng = np.random.default_rng(5)
    raw = [f"{20 + i % 50},{(i + 1) / (BLOCK_ROWS + 1) * 10!r},{('White', 'Black')[i % 2]},US,?\n"
           for i in range(BLOCK_ROWS)]  # raw numbers: every line distinct
    raw[100] = raw[200] = "?,1,White,US,yes\n"  # one bad line, twice
    later = [raw[100], *(raw[i] for i in rng.choice(range(300, BLOCK_ROWS), 39, replace=False))]
    lines = [",".join(MEMO_COLUMNS) + "\n", *raw,
             *(later[i] for i in rng.integers(0, 40, 2 * BLOCK_ROWS))]
    path = _write_lines(tmp_path / "distinct_first.csv", lines)
    expected_skips = 2 + sum(line == raw[100] for line in lines[BLOCK_ROWS + 1:])
    assert _assert_memo_ingest(path, caplog) == (expected_skips, True)


def test_each_distinct_label_line_is_parsed_once(tmp_path, monkeypatch):
    handed = []  # rows handed to the block parser
    parse = schema_module._block_codes
    monkeypatch.setattr(schema_module, "_block_codes",
                        lambda rows, *args: handed.append(len(rows)) or parse(rows, *args))
    ingest_csv(str(_write_lines(tmp_path / "labels.csv", _memo_lines(n_distinct=40))), EDGE_SCHEMA)
    assert sum(handed) <= 40
    rng = np.random.default_rng(6)
    raw = [",".join(MEMO_COLUMNS) + "\n"] + [
        f"{rng.integers(16, 100)},{rng.uniform(0.001, 10.0)!r},White,US,yes\n"
        for _ in range(N_MEMO_ROWS)]
    handed.clear()
    ingest_csv(str(_write_lines(tmp_path / "numbers.csv", raw)), EDGE_SCHEMA)
    assert sum(handed) == N_MEMO_ROWS


# ---------------------------------------------------------------------------
# binned columns: the one-step number conversion against _parse_field
# ---------------------------------------------------------------------------

AGE, W = EDGE_SCHEMA.attributes[:2]  # open upper bin; closed bins with a fractional edge
NUMBER_SCHEMA = Schema("numbers", (AGE, W))
NON_ASCII_ZEROS = ("\u0660", "\u06f0", "\u0966", "\uff10")  # Arabic-Indic, Persian, Devanagari, fullwidth
EDGE_NUMBERS = (
    *(t for a in (AGE, W) for e in a.bin_edges for t in (*_ulps(e), f"{e:g}")),
    "-0", "1_000", "1_0.5", "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity",
    "1e400", "-1e400", "1e-320",
)
OTHER_TEXTS = (*sorted(MISSING_TOKENS), *AGE.categories, *W.categories,
               "abc", "1.2.3", "0x10", "1__0", "_1", "1e", "snan")


def _non_ascii(n, zero):
    return "".join(chr(ord(zero) + int(d)) for d in str(n))


def _padded(texts):
    pad = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003"])
    return st.builds(lambda left, text, right: left + text + right, pad, texts, pad)


NUMBER_TEXTS = _padded(st.one_of(
    st.integers(-100, 10**6).map(str),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-3, 3)),
    st.floats(-200, 200).map(repr),
    st.sampled_from(EDGE_NUMBERS),
    st.builds(_non_ascii, st.integers(0, 200), st.sampled_from(NON_ASCII_ZEROS)),
))


@st.composite
def binned_columns(draw):
    """A column of number texts and short rows' None; in some draws, a few
    texts that are not numbers (missing tokens, bin labels, typos) are put
    in at random places."""
    col = draw(st.lists(st.one_of(NUMBER_TEXTS, NUMBER_TEXTS, st.none()),
                        min_size=1, max_size=40))
    for text in draw(st.lists(_padded(st.sampled_from(OTHER_TEXTS)), max_size=2)):
        col.insert(draw(st.integers(0, len(col))), text)
    return col


def _field_code(text, attribute, clamp):
    try:
        return schema_module._parse_field(text, attribute, clamp)
    except ValueError:
        return -1


@PROPERTIES
@given(col=binned_columns(), attribute=st.sampled_from([AGE, W]), clamp=st.booleans())
@example(col=["35", " 1_000 ", None, "\u0661\u0665"], attribute=AGE, clamp=False)
@example(col=["1e400", "-inf", "nan", "0"], attribute=W, clamp=True)
@example(col=["3", " (35-55] ", "4"], attribute=AGE, clamp=False)
def test_binned_column_codes_match_parse_field(col, attribute, clamp):
    codes = schema_module._column_codes(tuple(col), attribute, {None: -1}, clamp)
    assert codes.dtype == np.int32
    assert codes.tolist() == [_field_code(text, attribute, clamp) for text in col]


def _assert_ingest_like_rows(path, schema, **kwargs):
    """ingest_csv and the row oracle give equal codes, or the same error."""
    try:
        codes, _ = row_ingest(str(path), schema, **kwargs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ingest_csv(str(path), schema, **kwargs)
        assert str(got.value) == str(exc)
        return
    assert ingest_csv(str(path), schema, **kwargs).codes.tolist() == [list(r) for r in codes]


@PROPERTIES
@given(ages=binned_columns(), ws=binned_columns(), on_error=st.sampled_from(["skip", "abort"]),
       clamp=st.booleans())
@example(ages=["20", "?"], ws=["5", "5"], on_error="abort", clamp=False)
def test_binned_file_ingest_matches_row_ingest(ages, ws, on_error, clamp):
    # a None ends its row there: a short row
    lines = ["age,w\n"]
    for age, w in zip(ages, ws):
        fields = list(itertools.takewhile(lambda f: f is not None, (age, w)))
        lines.append(",".join(fields) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_lines(Path(tmp) / "numbers.csv", lines)
        _assert_ingest_like_rows(path, NUMBER_SCHEMA, on_error=on_error, clamp=clamp)


@pytest.mark.parametrize("on_error", ["skip", "abort"])
@pytest.mark.parametrize("clamp", [False, True])
def test_all_number_block_then_a_block_with_a_label(tmp_path, on_error, clamp):
    rng = np.random.default_rng(8)
    lines = ["age,w\n"] + [f"{rng.integers(16, 100)},{rng.uniform(0.01, 10.0)!r}\n"
                            for _ in range(2 * BLOCK_ROWS)]
    lines[BLOCK_ROWS + 30] = "(35-55],1e9\n"  # a label in block two; 1e9 is past the last bin
    lines[BLOCK_ROWS + 900] = "77, (1-2.5] \n"
    lines[BLOCK_ROWS + 901] = "NA,2\n"
    path = _write_lines(tmp_path / "numbers.csv", lines)
    _assert_ingest_like_rows(path, NUMBER_SCHEMA, on_error=on_error, clamp=clamp)
    if clamp:  # the label rows are read as labels, next to raw numbers
        codes = ingest_csv(str(path), NUMBER_SCHEMA, clamp=True).codes
        assert codes[[BLOCK_ROWS + 29, BLOCK_ROWS + 899]].tolist() == [[1, 2], [3, 1]]


# ---------------------------------------------------------------------------
# quote-free blocks split at their commas in one step, against the row
# reference and against csv.reader row for row
# ---------------------------------------------------------------------------

RACE = EDGE_SCHEMA.attributes[2]
SPLIT_SCHEMA = Schema("split", (AGE, W, RACE))
SPLIT_COLUMNS = {"age": 0, "w": 1, "race": -1}  # by index: no header row
SPLIT_FIELDS = _padded(st.one_of(
    st.integers(-5, 120).map(str),
    st.floats(-1, 12).map(repr),
    st.sampled_from((*AGE.categories, *W.categories, *RACE.categories, *sorted(MISSING_TOKENS),
                     "\0", "Whi\0te", "abc")),
))


@st.composite
def quote_free_lines(draw):
    """1-16 lines of 0-3 commas each, drawn from a pool of up to 6 line
    texts, so that a 3-line block is now mostly new, now mostly seen. Half
    the texts have one comma count, so that many blocks split. Each line
    ends in \\n, \\r\\n or (less often) \\r, and the last one may have no end."""
    width = draw(st.integers(1, 4))
    fields = st.one_of(st.lists(SPLIT_FIELDS, min_size=width, max_size=width),
                       st.lists(SPLIT_FIELDS, min_size=1, max_size=4))
    pool = draw(st.lists(fields.map(",".join), min_size=1, max_size=6))
    texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    lines = [text + draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]))
             for text in texts]
    if draw(st.booleans()):
        lines[-1] = texts[-1]
    return lines


def _ingest_outcome(ingest, path):
    """(codes, skipped count) of an ingest, or the message of its ValueError."""
    try:
        return ingest(path)
    except ValueError as exc:
        return str(exc)


@PROPERTIES
@given(lines=quote_free_lines(), on_error=st.sampled_from(["skip", "abort"]),
       clamp=st.booleans())
@example(lines=["20,1,White\n", "3\0,2,Black\n", "40,5,Other\n", "30,1,White\n"],
         on_error="abort", clamp=False)
def test_split_blocks_match_row_ingest(lines, on_error, clamp):
    reader_rows, split = schema_module._rows, []

    def rows(block_lines):  # checked below: ingest_csv turns csv.Error into ValueError
        got = reader_rows(block_lines)
        if isinstance(got, schema_module._Split):
            split.append((block_lines, [got[i] for i in range(len(got))]))
        return got

    def privmine_ingest(path):
        warning.reset_mock()
        codes = ingest_csv(path, SPLIT_SCHEMA, SPLIT_COLUMNS, on_error, clamp).codes.tolist()
        return codes, warning.call_args.args[2] if warning.called else 0

    def reference_ingest(path):
        codes, skipped = row_ingest(path, SPLIT_SCHEMA, SPLIT_COLUMNS, on_error, clamp)
        return [list(r) for r in codes], skipped

    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(schema_module, "BLOCK_ROWS", 3), \
            unittest.mock.patch.object(schema_module, "_rows", rows), \
            unittest.mock.patch.object(schema_module.logger, "warning") as warning:
        path = str(_write_lines(Path(tmp) / "split.csv", lines))
        got = _ingest_outcome(privmine_ingest, path)
        try:
            assert got == _ingest_outcome(reference_ingest, path)
        except csv.Error as exc:  # Python 3.10's reader on a NUL, read before any row
            if got != f"{path}: {exc}":  # else an abort on a row of a block before the NUL's
                nul_row = next(i for i, line in enumerate(lines, 1) if "\0" in line)
                aborted = re.match(f"{re.escape(path)} row ([0-9]+): ", got)
                # row 1 is read alone, then rows 2-4, 5-7, ... make a block
                assert on_error == "abort" and (int(aborted[1]) - 2) // 3 < (nul_row - 2) // 3
    for block_lines, got_rows in split:  # each split block holds csv.reader's rows
        assert got_rows == list(csv.reader(block_lines))


def test_raw_number_blocks_take_no_csv_reader_rows(tmp_path, census_schema, monkeypatch):
    rng = np.random.default_rng(9)
    n = 3 * BLOCK_ROWS
    columns = [rng.integers(16, 90, n), rng.integers(1, 500_000, n), rng.integers(1, 99, n),
               *(np.asarray(a.categories)[rng.integers(0, a.size, n)]
                 for a in census_schema.attributes[3:])]
    path = tmp_path / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:  # CRLF line ends
        writer = csv.writer(fh)
        writer.writerow([a.name for a in census_schema.attributes])
        writer.writerows(zip(*columns))
    expected, _ = row_ingest(str(path), census_schema)
    reader, reader_rows = csv.reader, []

    def counting_reader(*args, **kwargs):
        for row in reader(*args, **kwargs):
            reader_rows.append(row)
            yield row

    monkeypatch.setattr(csv, "reader", counting_reader)
    codes = ingest_csv(str(path), census_schema).codes
    assert len(codes) == n and codes.tolist() == [list(r) for r in expected]
    assert reader_rows == [[a.name for a in census_schema.attributes]]


# ---------------------------------------------------------------------------
# writers: byte identity with the row-at-a-time writers, across blocks
# ---------------------------------------------------------------------------

def _row_write_csv(data):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([a.name for a in data.schema.attributes])
    for row in data.codes:
        writer.writerow([a.categories[v] for a, v in zip(data.schema.attributes, row)])
    return buf.getvalue()


def _savetxt_boolean_csv(data):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([f"{a.name}={c}" for a in data.schema.attributes
                              for c in a.categories])
    np.savetxt(buf, data.bits.astype(np.int8), fmt="%d", delimiter=",")
    return buf.getvalue()


def _text(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def test_writers_match_row_writers_across_blocks(tmp_path, health_schema):
    rng = np.random.default_rng(4)
    n = 2 * BLOCK_ROWS + 5
    codes = np.column_stack([rng.integers(0, s, n) for s in health_schema.sizes])
    data = Dataset(health_schema, codes)
    write_csv(data, str(tmp_path / "labels.csv"))
    assert _text(tmp_path / "labels.csv") == _row_write_csv(data)
    bits = BooleanDataset(health_schema, rng.random((n, health_schema.boolean_width)) < 0.3)
    write_boolean_csv(bits, str(tmp_path / "bits.csv"))
    assert _text(tmp_path / "bits.csv") == _savetxt_boolean_csv(bits)
    assert np.array_equal(read_boolean_csv(str(tmp_path / "bits.csv"), health_schema).bits,
                          bits.bits)


QUOTING_SCHEMA = Schema("quoting", tuple(
    Attribute(f"a{j}", ("plain", 'say "hi"', "a,b", "x\ny", "l\r\nm", '",\n"')[j % 3:][:4])
    for j in range(6)))  # 4**6 cells, so a block of 4096 rows can be all distinct
HUGE_SCHEMA = make_schema(*[2] * 64)  # 2**64 cells: past int64


def _writer_blocks(schema, seed=0):
    """Codes of five blocks: all distinct, then rows of 40 cells, those 40
    and 10 more, all distinct again, then a short block of the first 40."""
    rng = np.random.default_rng(seed)
    sizes = np.asarray(schema.sizes)

    def cells(n):
        return (rng.random((n, len(sizes))) * sizes).astype(np.int32)

    few = cells(40)
    more = np.concatenate([few, cells(10)])
    if schema.domain_size == BLOCK_ROWS:
        distinct = [np.stack(np.unravel_index(rng.permutation(BLOCK_ROWS), sizes), axis=1)
                    for _ in range(2)]
    else:
        distinct = [cells(BLOCK_ROWS) for _ in range(2)]
    return np.concatenate([distinct[0], few[rng.integers(0, 40, BLOCK_ROWS)],
                           more[rng.integers(0, 50, BLOCK_ROWS)], distinct[1],
                           few[rng.integers(0, 40, 100)]])


@pytest.mark.parametrize("schema", [QUOTING_SCHEMA, HUGE_SCHEMA], ids=["quoting", "huge"])
def test_write_csv_distinct_rows_new_repeated_new(tmp_path, schema):
    data = Dataset(schema, _writer_blocks(schema))
    path = tmp_path / "labels.csv"
    write_csv(data, str(path))
    assert _text(path) == _row_write_csv(data)
    assert np.array_equal(ingest_csv(str(path), schema).codes, data.codes)


# ---------------------------------------------------------------------------
# read_boolean_csv is strict
# ---------------------------------------------------------------------------

def _bits_file(tmp_path, census_schema, body):
    path = tmp_path / "bits.csv"
    header = ",".join(f"{a.name}={c}" for a in census_schema.attributes for c in a.categories)
    path.write_text(header + "\n" + body, newline="", encoding="utf-8")
    return str(path)


def _bit_line(bits):
    return ",".join(str(int(b)) for b in bits)


def test_read_boolean_csv_requires_the_schemas_item_labels(tmp_path, census_schema):
    # read as a header, a header-less table's first record would be lost
    bits = np.random.default_rng(8).random((5, census_schema.boolean_width)) < 0.5
    path = tmp_path / "bits.csv"
    write_boolean_csv(BooleanDataset(census_schema, bits), str(path))
    header, body = _text(path).split("\n", 1)
    # cells are stripped
    path.write_text(header.replace(",", " , ") + "\n" + body, encoding="utf-8")
    assert np.array_equal(read_boolean_csv(str(path), census_schema).bits, bits)
    foreign = ",".join(make_schema(*census_schema.sizes).item_labels)  # the same width
    for text in (body, foreign + "\n" + body, ""):
        path.write_text(text, newline="", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the header is not"):
            read_boolean_csv(str(path), census_schema)


@pytest.mark.filterwarnings("error")
def test_read_boolean_csv_header_only_is_empty(tmp_path, census_schema):
    data = read_boolean_csv(_bits_file(tmp_path, census_schema, ""), census_schema)
    assert data.bits.shape == (0, census_schema.boolean_width)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", ["2", "-1", "1.0", "", "x", "01"])
def test_read_boolean_csv_rejects_cells_other_than_0_1(tmp_path, census_schema, cell):
    width = census_schema.boolean_width
    row = ["0"] * width
    row[5] = cell
    body = _bit_line([1] * width) + "\n" + ",".join(row) + "\n"
    with pytest.raises(ValueError, match=f"row 3: expected {width} cells of 0 or 1"):
        read_boolean_csv(_bits_file(tmp_path, census_schema, body), census_schema)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad_line", ["short", "long", "blank", "run-on"])
def test_read_boolean_csv_rejects_wrong_width(tmp_path, census_schema, bad_line):
    width = census_schema.boolean_width
    ones = _bit_line([1] * width)
    line = {"short": _bit_line([1] * (width - 1)), "long": _bit_line([1] * (width + 1)),
            "blank": "", "run-on": ones + "," + ones}[bad_line]  # run-on: no line end
    body = _bit_line([0] * width) + "\n" + line + "\n" + _bit_line([0] * width) + "\n"
    with pytest.raises(ValueError, match=f"row 3: expected {width} cells of 0 or 1"):
        read_boolean_csv(_bits_file(tmp_path, census_schema, body), census_schema)


@pytest.mark.filterwarnings("error")
def test_read_boolean_csv_past_the_first_block(tmp_path, census_schema):
    rng = np.random.default_rng(7)
    bits = rng.random((2 * BLOCK_ROWS + 3, census_schema.boolean_width)) < 0.5
    path = tmp_path / "bits.csv"
    write_boolean_csv(BooleanDataset(census_schema, bits), str(path))
    lines = _text(path).split("\n")
    k = BLOCK_ROWS + 2  # data row index; file row k + 2
    loose = list(lines)
    loose[k + 1] = loose[k + 1].replace(",", " , ") + "\r"
    path.write_text("\n".join(loose), newline="", encoding="utf-8")
    assert np.array_equal(read_boolean_csv(str(path), census_schema).bits, bits)
    lines[k + 1] = "2" + lines[k + 1][1:]
    path.write_text("\n".join(lines), newline="", encoding="utf-8")
    with pytest.raises(ValueError, match=f"row {k + 2}: expected"):
        read_boolean_csv(str(path), census_schema)


@pytest.mark.filterwarnings("error")
def test_read_boolean_csv_accepts_loose_layouts(tmp_path, census_schema):
    rng = np.random.default_rng(6)
    bits = rng.random((5, census_schema.boolean_width)) < 0.5
    lines = [_bit_line(r) for r in bits]
    for body in ("\r\n".join(lines) + "\r\n",                    # CRLF
                 "\n".join(lines),                               # no final newline
                 "\n".join(l.replace(",", ", ") for l in lines)):  # spaces after commas
        back = read_boolean_csv(_bits_file(tmp_path, census_schema, body), census_schema)
        assert np.array_equal(back.bits, bits)


def test_read_boolean_csv_holds_the_bits_about_once(tmp_path, census_schema):
    # one growing buffer holds the bits (1x, with at most 1/8 over-allocation),
    # and a block's text and masks come on top; a list of blocks concatenated
    # at the end would hold the bits twice
    bits = np.random.default_rng(8).random((200_000, census_schema.boolean_width)) < 0.5
    path = str(tmp_path / "bits.csv")
    write_boolean_csv(BooleanDataset(census_schema, bits), path)
    tracemalloc.start()
    try:
        back = read_boolean_csv(path, census_schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.bits, bits)
    assert peak < 1.5 * bits.nbytes, f"traced peak {peak / bits.nbytes:.2f}x the bits"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_boolean_csv_from_a_pipe(tmp_path, census_schema):
    # a pipe (mine --input <(...)) has no size to size the table from
    bits = np.random.default_rng(9).random((BLOCK_ROWS + 5, census_schema.boolean_width)) < 0.5
    path, pipe = tmp_path / "bits.csv", tmp_path / "pipe"
    write_boolean_csv(BooleanDataset(census_schema, bits), str(path))
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    back = read_boolean_csv(str(pipe), census_schema)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back.bits, bits)


def test_byte_order_mark_is_skipped(tmp_path, census_schema, caplog):
    # a "CSV UTF-8" export starts with a byte-order mark; in a header read as
    # "\ufefffnlwgt" no attribute would be found, and columns taken in schema
    # order would read fnlwgt as age
    text = ("fnlwgt,age,hours-per-week,race,sex,native-country\n"
            "120000,25,40,White,Male,United-States\n"
            "350000,60,20,Black,Female,Other\n"
            "90000,17,45,Asian-Pac-Islander,Male,United-States\n"
            "250000,44,80,Other,Female,Canada\n"
            "410000,80,10,White,Male,United-States\n")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8", newline="")
    bom.write_text("\ufeff" + text, encoding="utf-8", newline="")
    with caplog.at_level(logging.WARNING, logger="privmine.schema"):
        expected = ingest_csv(str(plain), census_schema).codes
        found = ingest_csv(str(bom), census_schema).codes
    assert not caplog.records
    assert expected[:, :2].tolist() == [[0, 1], [2, 3], [0, 0], [1, 2], [3, 4]]
    assert np.array_equal(found, expected)
    bits = np.random.default_rng(9).random((5, census_schema.boolean_width)) < 0.5
    path = tmp_path / "bits.csv"
    write_boolean_csv(BooleanDataset(census_schema, bits), str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(read_boolean_csv(str(path), census_schema).bits, bits)


# ---------------------------------------------------------------------------
# round-trip invariants over random schemas
# ---------------------------------------------------------------------------

def _labels(stripped):
    text = st.text(alphabet=string.printable, max_size=8)
    return text.map(str.strip).filter(bool) if stripped else text


@st.composite
def schema_specs(draw):
    """(name, labels, kind) per attribute. Half the specs draw labels from
    any printable text, which the schema mostly rejects; the other half
    strip them and drop empty ones, so that many specs reach the round
    trip."""
    labels = _labels(draw(st.booleans()))
    return tuple(
        (draw(labels), tuple(draw(st.lists(labels, min_size=2, max_size=6, unique=True))),
         draw(st.sampled_from(["nominal", "closed", "open"])))
        for _ in range(draw(st.integers(1, 5)))
    )


def _schema_or_none(spec, defaults=False):
    """The schema a spec describes, or None after checking that the schema
    refuses it for a reason: an empty or whitespace-padded name or label,
    which ingest could not read back; a ';' in a name or label or a '=' in a
    name, which would make itemset labels ambiguous; or a repeated attribute
    name. With ``defaults``, each nominal attribute's last label is its
    default category."""
    names = [name for name, _, _ in spec]
    unreadable = [t for name, labels, _ in spec for t in (name, *labels)
                  if not t or t != t.strip()]
    ambiguous = [t for name, labels, _ in spec for t in (name, *labels) if ";" in t]
    ambiguous += [name for name in names if "=" in name]
    try:
        return Schema("prop", tuple(
            Attribute(name, labels,
                      bin_edges=None if kind == "nominal"
                      else tuple(float(e) for e in range(len(labels) + (kind == "closed"))),
                      open_upper=kind == "open",
                      default_category=labels[-1] if defaults and kind == "nominal" else None)
            for name, labels, kind in spec))
    except ValueError:
        assert unreadable or ambiguous or len(set(names)) < len(names)
        return None


def _codes(schema, n_rows, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, s, n_rows) for s in schema.sizes]
                           ).reshape(n_rows, schema.n_attributes)


@PROPERTIES
@given(spec=schema_specs(), n_rows=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@example(spec=(("a0", (" a", "b"), "nominal"),), n_rows=3, seed=0)  # stripped on ingest
@example(spec=(("a0", ("", "b"), "nominal"),), n_rows=3, seed=0)    # read as missing
@example(spec=(("a0", ("?", "7"), "closed"), ("a1", ("x\ny", 'q"'), "nominal")),
         n_rows=40, seed=1)
@example(spec=(("a0", ("2", "1"), "closed"),), n_rows=40, seed=0)  # labels win over numbers
def test_write_csv_then_ingest_csv_roundtrip(spec, n_rows, seed):
    schema = _schema_or_none(spec)
    if schema is None:
        return
    data = Dataset(schema, _codes(schema, n_rows, seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        write_csv(data, path)
        assert _text(path) == _row_write_csv(data)
        with unittest.TestCase().assertNoLogs("privmine.schema", logging.WARNING):
            back = ingest_csv(path, schema)  # no row skipped
        assert row_ingest(path, schema) == ([tuple(r) for r in data.codes.tolist()], 0)
    assert np.array_equal(back.codes, data.codes)


@PROPERTIES
@given(spec=schema_specs(), n_rows=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 1.0))
@example(spec=(("a0", ("x\ny", "b,c"), "nominal"),), n_rows=2, seed=0, density=0.5)
def test_write_boolean_csv_then_read_roundtrip(spec, n_rows, seed, density):
    schema = _schema_or_none(spec)
    if schema is None:
        return
    bits = np.random.default_rng(seed).random((n_rows, schema.boolean_width)) < density
    data = BooleanDataset(schema, bits)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = str(Path(tmp) / "bits.csv")
        write_boolean_csv(data, path)
        assert _text(path) == _savetxt_boolean_csv(data)
        back = read_boolean_csv(path, schema)
    assert back.bits.shape == bits.shape
    assert np.array_equal(back.bits, bits)


@PROPERTIES
@given(spec=schema_specs(), defaults=st.booleans(),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=1, max_size=5))
@example(spec=(("a", ("z", "w"), "nominal"), ("b", ("p;a=z", "q"), "nominal")),
         defaults=True, picks=[(1, 0)])  # was written as b=p;a=z and read back as {a=z, b=q}
def test_itemset_label_then_read_back_roundtrip(spec, defaults, picks):
    # every item reads back exactly, a default category's too
    schema = _schema_or_none(spec, defaults)
    if schema is None:
        return
    items = {a % schema.n_attributes: c for a, c in picks}
    itemset = tuple(sorted((a, c % schema.sizes[a]) for a, c in items.items()))
    subsets = [s for k in range(1, len(itemset) + 1) for s in itertools.combinations(itemset, k)]
    with tempfile.TemporaryDirectory() as tmp:
        result = read_labels(Path(tmp) / "found", schema,
                             [itemset_label(s, schema) for s in subsets])
    assert [s for _, level in sorted(result.by_length.items()) for s in level] == subsets
