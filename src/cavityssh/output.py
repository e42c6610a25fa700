"""Deterministic dataset emission: CSV files and the per-run manifest.

Every numeric cell is printed with repr-faithful 17 significant digits and a
dot decimal separator, a text cell verbatim, newlines are always "\n", and
rows are written in a fixed order, so identical config + version means
identical bytes. A CSV is streamed: every check runs before the file is
opened, then one block of rows at a time is formatted and written, so the
writer's memory does not grow with the table.
"""

from __future__ import annotations

import json
import os

import numpy as np

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# how every numeric cell prints: 17 significant digits, so each float64 round-trips
CELL = "%.17g"
_BLOCK_CELLS = 4096


def _is_text(column) -> bool:
    """A list or tuple whose first cell is a str is a text column."""
    return isinstance(column, (list, tuple)) and len(column) > 0 and isinstance(column[0], str)


def write_csv(path: str, first_line: str, columns) -> None:
    """Write `first_line`, then one line per row of the columns ("\n" endings).

    Every numeric column, bools included, is read as float64 and each cell
    prints as CELL, which is format(x, ".17g") for every float, nan, inf and
    -0.0 included, and 1 and 0 for True and False. A list of `str` is a
    text column: each cell prints verbatim, so a caller that repeats few
    distinct values can format each once. These are the two column kinds. A
    matrix passed as `matrix.T` prints one line per matrix row.

    Every check runs before the file is opened: each numeric column is read
    as float64 (a copy only if it is not float64 already) and must be
    one-dimensional, and all columns must be of equal length, else
    ValueError, so a bad table leaves no file. Then the rows are
    streamed a block (about _BLOCK_CELLS cells) at a time: the block's cells
    are laid out row by row in one list, formatted by one row template
    repeated once per row, and written. Only one block is held, as floats and
    as text, so the writer's own memory does not grow with the row count.
    Only an OSError while writing can leave a partial file.
    """
    columns = [column if _is_text(column) else np.asarray(column, dtype=float)
               for column in columns]
    shapes = [column.shape if isinstance(column, np.ndarray) else (len(column),)
              for column in columns]
    if len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise ValueError(f"numeric and text columns must be 1-D and of equal length, "
                         f"got shapes {shapes}")
    (rows,) = shapes[0]
    template = ",".join(CELL if isinstance(column, np.ndarray) else "%s"
                        for column in columns) + "\n"
    width = len(columns)
    step = max(1, _BLOCK_CELLS // width)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(first_line + "\n")
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            block = [None] * ((stop - start) * width)
            for j, column in enumerate(columns):
                part = column[start:stop]
                block[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
            handle.write(template * (stop - start) % tuple(block))


def sha256_of(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: str, output_names, record: dict) -> str:
    """Write manifest.json next to the outputs: `record` plus an `outputs`
    entry for each of `output_names`; returns its path.

    Each entry's checksum and size are read from the file as written, so a
    reader can verify the dataset round-trips.
    """
    outputs = []
    for name in output_names:
        path = os.path.join(out_dir, name)
        outputs.append({"file": name, "sha256": sha256_of(path), "bytes": os.path.getsize(path)})
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump({**record, "outputs": outputs}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
