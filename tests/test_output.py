"""The CSV writer prints every numeric cell as format(float(x), ".17g"), and
the manifest's digests are SHA-256 without OpenSSL."""

import hashlib
import importlib.util
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cavityssh import output
from cavityssh.output import write_csv

EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e17, 0.1,
])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
FLOAT_CELLS = st.one_of(FLOATS, FLOATS.map(np.float64))
FIXTURE_OK = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def format_cell(value) -> str:
    """The reference spelling of one cell: 17 significant digits of its float."""
    return format(float(value), ".17g")


def reference_csv(first_line, rows):
    lines = [first_line] + [",".join(map(format_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def written(path):
    with open(path, "rb") as handle:
        return handle.read()


def rows_of_width(cells, max_rows):
    return st.integers(1, 7).flatmap(
        lambda width: st.lists(st.lists(cells, min_size=width, max_size=width),
                               max_size=max_rows)
    )


@FIXTURE_OK
@given(rows=rows_of_width(FLOAT_CELLS, 12))
def test_write_csv_float_rows_match_format_cell(tmp_path, rows):
    columns = list(zip(*rows)) if rows else [[]]  # no rows: one empty column
    path = tmp_path / "floats.csv"
    write_csv(str(path), "h", columns)
    assert written(path) == reference_csv("h", rows)


def test_write_csv_spans_several_write_blocks(tmp_path):
    path = tmp_path / "long.csv"
    rows = [(i * 0.1, i) for i in range(10_000)]
    write_csv(str(path), "x,i", list(zip(*rows)))
    assert written(path) == reference_csv("x,i", rows)


def test_write_csv_bool_and_constant_string_columns(tmp_path):
    """True and False print as 1 and 0; a str column repeats verbatim, % included."""
    path = tmp_path / "spell.csv"
    write_csv(str(path), "x,ok,method,y",
              ([0.1, math.nan, -0.0], np.array([True, False, True]), "direct 100%",
               [1.0, 10**20, np.float64(-math.inf)]))
    assert written(path) == (
        b"x,ok,method,y\n"
        b"0.10000000000000001,1,direct 100%,1\n"
        b"nan,0,direct 100%,1e+20\n"
        b"-0,1,direct 100%,-inf\n"
    )


@FIXTURE_OK
@given(matrix=rows_of_width(FLOATS, 8))
def test_write_csv_matrix_transpose_matches_format_cell(tmp_path, matrix):
    """A matrix passed as matrix.T prints one line per matrix row."""
    path = tmp_path / "matrix.csv"
    width = len(matrix[0]) if matrix else 1
    array = np.array(matrix, dtype=float).reshape(len(matrix), width)
    write_csv(str(path), "# m", array.T)
    assert written(path) == reference_csv("# m", array)


def test_write_csv_matrix_of_mixed_numbers_prints_floats(tmp_path):
    path = tmp_path / "mixed_matrix.csv"
    matrix = [[True, 10**20, np.True_], [np.float64(0.1), -0.0, 3], [math.inf, 5e-324, False]]
    write_csv(str(path), "# mixed", list(zip(*matrix)))
    assert written(path) == reference_csv("# mixed", matrix)


def test_write_csv_rejects_columns_of_unequal_length_before_opening(tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        write_csv(str(path), "a,b", ([0.0] * 16, [1.0] * 17))
    assert not path.exists()


def test_write_csv_rejects_a_column_that_is_not_one_dimensional_before_opening(tmp_path):
    path = tmp_path / "flat.csv"
    for columns in ((np.zeros((2, 3)),), ([0.0, 1.0], 2.0), ("only text",)):
        with pytest.raises(ValueError):
            write_csv(str(path), "a,b", columns)
        assert not path.exists()


def test_write_csv_constant_column_with_percent_spans_blocks(tmp_path):
    path = tmp_path / "percent.csv"
    step = output._BLOCK_CELLS // 2  # rows per block with two numeric columns
    x = np.arange(2 * step + 3) * 0.1
    write_csv(str(path), "x,tag,y", (x, "100% %d %%s", -x))
    expected = "x,tag,y\n" + "".join(
        f"{format_cell(v)},100% %d %%s,{format_cell(-v)}\n" for v in x
    )
    assert written(path) == expected.encode()


def test_write_csv_text_column_prints_verbatim_across_blocks(tmp_path):
    """A list of str prints each cell as given, %, commas of its own and
    spellings "%.17g" would not make included, in every block."""
    path = tmp_path / "text.csv"
    step = output._BLOCK_CELLS // 3  # rows per block with three varying columns
    x = np.arange(2 * step + 5) * 0.1
    words = ["1.50", "100%", "%s", "-0", "a,b", "1e+00", ""]
    text = [words[i % len(words)] for i in range(x.size)]
    write_csv(str(path), "x,w,tag,y", (x, text, "const", -x))
    expected = "x,w,tag,y\n" + "".join(
        f"{format_cell(v)},{t},const,{format_cell(-v)}\n" for v, t in zip(x, text)
    )
    assert written(path) == expected.encode()


def test_write_csv_text_columns_alone_and_as_tuples(tmp_path):
    path = tmp_path / "words.csv"
    write_csv(str(path), "a,b", (("x", "y"), ["0.1", "nan"]))
    assert written(path) == b"a,b\nx,0.1\ny,nan\n"


def test_write_csv_rejects_a_text_column_of_the_wrong_length_before_opening(tmp_path):
    path = tmp_path / "short_text.csv"
    for text in (["a"] * 15, ["a"] * 17):
        with pytest.raises(ValueError):
            write_csv(str(path), "x,w", (np.zeros(16), text))
        assert not path.exists()
    with pytest.raises(ValueError):
        write_csv(str(path), "v,w", (["a", "b"], ["c"]))
    assert not path.exists()


def test_write_csv_memory_does_not_grow_with_the_row_count(tmp_path):
    """numpy reports its buffers to tracemalloc; the float64 and text columns
    are the caller's, so the writer holds one block at most. Every line has
    one width, so every full block is the same text. At 76 bytes a line, the
    larger table's lines alone come to 3.6 MB, over the 1 MiB bound."""
    peaks = []
    for rows in (6_000, 48_000):
        columns = (np.full(rows, 0.1), np.full(rows, -math.pi), np.full(rows, 1e300),
                   "const %", ["0.5", "2.5"] * (rows // 2))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            write_csv(str(tmp_path / "tall.csv"), "a,b,c,d,e", columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) < 1 << 20
    assert abs(peaks[1] - peaks[0]) < 4096


@pytest.mark.parametrize("size", [0, 1, 1 << 16, (1 << 16) + 1, 1 << 20])
def test_sha256_of_is_hashlib_sha256_without_openssl(tmp_path, size):
    """Files of 0 and 1 bytes, one 64 KiB read block, one byte over it and
    1 MiB: the digest is hashlib's, and its object is CPython's own SHA-256
    (`_sha2` from 3.12, `_sha256` before), not OpenSSL's `_hashlib.HASH`."""
    data = os.urandom(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert output.sha256_of(str(path)) == hashlib.sha256(data).hexdigest()
    builtin = [name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)]
    if builtin:
        assert type(output.sha256()).__module__ == builtin[0]
