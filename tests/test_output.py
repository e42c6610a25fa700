"""The CSV writers print exactly the format_cell join, whatever the cell types."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cavityssh.output import format_cell, write_csv, write_matrix_csv

EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e17, 0.1,
])
FLOATS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
FLOAT_CELLS = st.one_of(FLOATS, FLOATS.map(np.float64))
OTHER_CELLS = st.one_of(
    st.booleans(),
    st.sampled_from([10**20, -(10**17), 7, 0, np.True_, np.False_]),
    st.integers(),
    st.text(alphabet="abc _-.", max_size=6),
)
MIXED_CELLS = st.one_of(FLOAT_CELLS, OTHER_CELLS)
FIXTURE_OK = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def reference_csv(first_line, rows, cell=format_cell):
    lines = [first_line] + [",".join(cell(value) for value in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def written(path):
    with open(path, "rb") as handle:
        return handle.read()


@FIXTURE_OK
@given(rows=st.lists(st.lists(FLOAT_CELLS, max_size=7), max_size=12))
def test_write_csv_float_rows_match_format_cell(tmp_path, rows):
    path = tmp_path / "floats.csv"
    write_csv(str(path), "h", rows)
    assert written(path) == reference_csv("h", rows)


@FIXTURE_OK
@given(rows=st.lists(st.lists(MIXED_CELLS, max_size=7), max_size=12))
def test_write_csv_mixed_rows_match_format_cell(tmp_path, rows):
    path = tmp_path / "mixed.csv"
    write_csv(str(path), "a,b", [tuple(row) for row in rows])
    assert written(path) == reference_csv("a,b", rows)


def test_write_csv_keeps_int_and_bool_spellings(tmp_path):
    # "%.17g" would print 10**20 as 1e+20 and np.bool_ as 1
    path = tmp_path / "spell.csv"
    rows = [(0.5, 10**20), (np.True_, 1.5), (True, np.float64(-0.0)), ("direct", math.nan)]
    write_csv(str(path), "x,y", rows)
    assert written(path) == b"x,y\n0.5,100000000000000000000\nTrue,1.5\n1,-0\ndirect,nan\n"


def test_write_csv_spans_several_write_blocks(tmp_path):
    path = tmp_path / "long.csv"
    rows = [(i * 0.1, i) for i in range(10_000)]
    write_csv(str(path), "x,i", rows)
    assert written(path) == reference_csv("x,i", rows)


@FIXTURE_OK
@given(
    matrix=st.integers(0, 6).flatmap(
        lambda width: st.lists(st.lists(FLOATS, min_size=width, max_size=width), max_size=8)
    )
)
def test_write_matrix_csv_matches_format_cell(tmp_path, matrix):
    path = tmp_path / "matrix.csv"
    array = np.array(matrix, dtype=float).reshape(len(matrix), -1 if matrix else 0)
    write_matrix_csv(str(path), "m", array)
    assert written(path) == reference_csv("# m", array, lambda v: format_cell(float(v)))


def test_write_matrix_csv_mixed_cells_print_as_floats(tmp_path):
    path = tmp_path / "mixed_matrix.csv"
    matrix = [[True, 10**20, np.True_], [np.float64(0.1), -0.0, 3], [math.inf, 5e-324, False]]
    write_matrix_csv(str(path), "mixed", matrix)
    assert written(path) == reference_csv("# mixed", matrix, lambda v: format_cell(float(v)))
