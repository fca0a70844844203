"""Differential tests of ``read_csv``: numpy's C reader against the reference.

``read_csv`` parses with ``np.loadtxt`` and hands any file it cannot read the
same way to ``_parse_reference``, the per-cell ``float()`` parser. Every case
here must give the same Dataset, bit for bit, or the same exception with the
same row, column and value, whichever path reads it.
"""

import csv
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebct.cli as cli
from ebct.cli import main, read_csv
from ebct.errors import MissingColumn, NonFiniteInput, ParseError

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def outcome(path, covariates=("X1",), outcome_col=None):
    """What ``read_csv`` returns or raises, in comparable form."""
    try:
        ds = read_csv(path, "T", list(covariates), outcome_col)
    except Exception as err:
        fields = tuple(getattr(err, name, None) for name in ("row", "column", "value"))
        return type(err), str(err), fields
    y = None if ds.outcome is None else ds.outcome.tobytes()
    return (
        ds.treatment.tobytes(), ds.covariates.shape, ds.covariates.tobytes(), y,
        ds.column_names, id_elements(ds.unit_ids),
    )


def id_elements(ids):
    """Unit ids in comparable form: their type, dtype and elements."""
    return type(ids), getattr(ids, "dtype", None), list(ids)


def reference_outcome(path, *args):
    with mock.patch.object(cli, "_parse_fast", return_value=None):
        return outcome(path, *args)


def write(directory, text: str) -> Path:
    path = Path(directory) / "input.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    return path


def fast_path_taken(path, wanted=("T", "X1")) -> bool:
    return cli._parse_fast(path, list(wanted)) is not None


# (text, does loadtxt read it, what the reference gives)
CASES = {
    "blank inner line": (
        "id,T,X1\na,1,2\n\nb,3,4\nc,5,7\n", False, (ParseError, 3, "T", "")),
    "blank trailing line": (
        "T,X1\n1,2\n3,4\n5,7\n\n", False, (ParseError, 5, "T", "")),
    "blank lines only": ("T,X1\n\n\n", False, (ParseError, 2, "T", "")),
    "whitespace-only line": (
        "T,X1\n1,2\n   \n3,4\n", False, (ParseError, 3, "T", "   ")),
    "whitespace-only line, second column": (
        "X1,T\n1,2\n \t \n3,4\n", False, (ParseError, 3, "T", "")),
    "CR line ends": ("id,T,X1\ra,1,2\rb,3,4\rc,5,7\r", True, None),
    "CRLF line ends": ("id,T,X1\r\na,1,2\r\nb,3,4\r\nc,5,7\r\n", True, None),
    "mixed line ends, no final one": ("T,X1\r\n1,2\n3,4\r5,7", True, None),
    "quoted numbers and ids": (
        'id,T,X1\n"a,b","1.5",2\n"c ""q""",3,"4"\n d ,5,"7"\n', True, None),
    "quote closed mid-cell": ('T,X1\n"1"2,2\n3,4\n5,7\n', True, None),
    "space before a quote": ('T,X1\n "1",2\n3,4\n5,7\n', False, (ParseError, 2, "T", ' "1"')),
    "underscore digits": ("T,X1\n1_000,2\n3,4\n5,7\n", False, None),
    "cells padded with spaces": ("T,X1\n 1 ,\t2 \n3,4 \n  5,7\n", True, None),
    "form feed in a cell": ("T,X1\n1,2\x0c\n3,4\n5,7\n", True, None),
    "nan": ("T,X1\nnan,2\n3,4\n5,7\n", True, (NonFiniteInput, None, None, None)),
    "inf": ("T,X1\n1,-Infinity\n3,4\n5,7\n", True, (NonFiniteInput, None, None, None)),
    "short row": ("T,X1\n1,2\n3\n5,7\n", False, (ParseError, 3, "X1", "")),
    "long rows": ("T,X1\n1,2,9,9\n3,4\n5,7,x\n", True, None),
    "unused short row": ("T,X1,Z\n1,2,0\n3,4\n5,7,0\n", True, None),
    "# inside a cell": ("T,X1\n1,2#3\n3,4\n5,7\n", False, (ParseError, 2, "X1", "2#3")),
    "# inside an id": ("id,T,X1\n#a,1,2\nb#,3,4\n#,5,7\n", True, None),
    "column-major error order": (
        "T,X1\n1,x\ny,4\n5,7\n", False, (ParseError, 3, "T", "y")),
    "UTF-8 BOM before T": ("\ufeffT,X1\n1,2\n3,4\n5,7\n", False, (MissingColumn, None, None, None)),
    "UTF-8 BOM before id": ("\ufeffid,T,X1\na,1,2\nb,3,4\nc,5,7\n", True, None),
    # csv.reader rejects a NUL before Python 3.11, so the reference reads it.
    "NUL in an id": (
        "id,T,X1\na\x00,1,2\n\x00,3,4\nc,5,7\n", False,
        None if sys.version_info >= (3, 11) else (csv.Error, None, None, None)),
    "quoted line break in an id": (
        'id,T,X1\n"a\nb",1,2\n"c\r\nd",3,4\ne,5,7\n', False, None),
    "quoted line break in the header": ('"i\nd",T,X1\na,1,2\nb,3,4\n', False, None),
    "unicode digits": ("T,X1\n\u0661,2\n3,4\n5,7\n", False, None),
    "one row": ("T,X1\n1,2\n", True, (ValueError, None, None, None)),
    "header only": ("T,X1\n", False, (ValueError, None, None, None)),
    "empty file": ("", False, (ParseError, 1, "", "<empty file>")),
    "missing column": ("T,X2\n1,2\n3,4\n", False, (MissingColumn, None, None, None)),
    "row lacks only its id": (
        "T,X1,id\n1.0,2.0,a\n3.0,4.0\n5.0,7.0,c\n", False, (ParseError, 3, "id", "")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_result_as_reference(name, tmp_path):
    text, fast, expected = CASES[name]
    path = write(tmp_path, text)
    got = outcome(path)
    assert got == reference_outcome(path)
    assert fast_path_taken(path) == fast
    if expected is None:
        assert not isinstance(got[0], type), got
    else:
        error, *fields = expected
        assert got[0] is error
        if fields[0] is not None:
            assert got[2] == tuple(fields)


@pytest.mark.parametrize(
    "text, ids",
    [
        ('id,T,X1\n"a,b",1,2\n"c ""q""",3,4\n d ,5,7\n', ["a,b", 'c "q"', " d "]),
        ("T,id,X1\n1,7,2\n3,007,4\n5,,7\n", ["7", "007", ""]),
        ("T,X1\n1,2\n3,4\n5,7\n", range(1, 4)),
    ],
    ids=["quoted", "numeric or empty", "no id column"],
)
def test_both_parsers_give_the_same_ids(text, ids, tmp_path):
    # Ids are kept as text, in one StringDType array; without an id column
    # they are the data-row indices.
    path = write(tmp_path, text)
    for parse in (cli._parse_fast, cli._parse_reference):
        got = parse(path, ["T", "X1"])[1]
        if isinstance(ids, range):
            assert got == ids
        else:
            assert got.dtype == np.dtypes.StringDType()
            assert got.tolist() == ids
            assert not got.flags.writeable


def test_trailing_nuls_in_ids_are_kept(tmp_path):
    # numpy's reader is never given a NUL: the reference parser reads the file.
    path = write(tmp_path, "id,T,X1\na\x00,1,2\nb\x00\x00,3,4\nc,5,7\n")
    assert not fast_path_taken(path)
    dataset = read_csv(path, "T", ["X1"])
    ids = dataset.unit_ids
    assert ids.dtype == np.dtypes.StringDType()
    assert ids.tolist() == ["a\x00", "b\x00\x00", "c"]
    # A frozen dataset's ids are read-only, as are its subsets'.
    assert not ids.flags.writeable
    assert not dataset.subset([2, 0]).unit_ids.flags.writeable
    assert dataset.subset([2, 0]).unit_ids.tolist() == ["c", "a\x00"]


def test_outcome_and_repeated_columns(tmp_path):
    path = write(tmp_path, "id,T,X1,X2,Y\na,1,2,0,5\nb,3,4,1,6\nc,5,7,0,8\nd,2,2,1,1\n")
    for covariates, y in [(("X1", "X2"), "Y"), (("X2", "X1"), "Y"), (("X1", "T"), "X1"), ((), "Y")]:
        assert outcome(path, covariates, y) == reference_outcome(path, covariates, y)
    assert fast_path_taken(path, ("T", "X2", "X1", "Y", "X1"))


def test_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("T,X1\n1,2\n3,4\n5,7\nd\xe9j\xe0,1\n".encode("latin-1"))
    got = outcome(path)
    assert got[0] is UnicodeDecodeError
    assert got == reference_outcome(path)


def test_large_file_is_identical(tmp_path):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-300, 300, (5000, 3))
    rows = enumerate(table.tolist())
    lines = ["id,T,X1,Y"] + [f"u{i},{a!r},{b!r},{c!r}" for i, (a, b, c) in rows]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert fast_path_taken(path)
    assert outcome(path, ("X1",), "Y") == reference_outcome(path, ("X1",), "Y")


@pytest.mark.parametrize("extra", ["", "\n"])
def test_line_over_the_field_limit(extra, tmp_path):
    limit = csv.field_size_limit(1000)
    try:
        short = write(tmp_path, "id,T,X1\n" + "a" * 400 + ",1,2\nb,3,4\nc,5,7\n" + extra)
        assert outcome(short) == reference_outcome(short)
        assert fast_path_taken(short) == (extra == "")
        for id_cell in ["a" * 1001, '"' + "a" * 1001 + '"']:
            text = "id,T,X1\nb,3,4\n" + id_cell + ",1,2\nc,5,7\n" + extra
            path = write(tmp_path, text)
            assert not fast_path_taken(path)
            assert outcome(path)[0] is ParseError
            assert outcome(path)[2] == (3, None, "field larger than field limit (1000)")
            assert outcome(path) == reference_outcome(path)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "error: cannot parse '<empty file>' in column '', row 1\n"),
        ("T,X1\n", "error: at least two units are required\n"),
        ("T,X1\n\n\n", "error: cannot parse '' in column 'T', row 2\n"),
    ],
)
def test_empty_inputs_print_one_error_line(text, message, tmp_path, capsys):
    path = write(tmp_path, text)
    argv = [
        "balance", "--input", str(path), "--treatment-col", "T",
        "--covariate-cols", "X1", "--out", str(tmp_path / "out"),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


# Pieces of small CSV texts: cells both parsers accept, cells only float()
# accepts, cells neither accepts, and the layouts loadtxt reads differently.
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
odd_cells = st.sampled_from(
    ["", " ", " 3 ", '"4"', '"5', "1_000", "nan", "-inf", "x", "#", "2#", "1e3",
     '"1,5"', "\x0c6", "\t7\t", "\u0668", '"8"9', "\ufeff1", "1\x00"]
)
ids = st.sampled_from(["a", " b ", '"c,d"', '"e""f"', "", "g\x00", "#h", '"i\nj"', "k\r"])
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
headers = st.sampled_from(
    [["T", "X1"], ["id", "T", "X1"], ["T", "id", "X1", "Y"], ["X1", "T"], ["\ufeffid", "T", "X1"]]
)


@st.composite
def csv_texts(draw):
    header = draw(headers)
    end = draw(line_ends)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        cells = []
        for name in header[:width] + ["9"] * (width - len(header)):
            if name.endswith("id"):
                cells.append(draw(ids))
            elif draw(st.integers(0, 7)) == 0:
                cells.append(draw(odd_cells))
            else:
                cells.append(draw(numbers))
        lines.append(",".join(cells))
    text = end.join(lines)
    if draw(st.booleans()):
        text += end
    return text


@PROPERTY
@given(csv_texts())
def test_generated_texts_match_reference(text):
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, text)
        assert outcome(path) == reference_outcome(path)
