"""Deterministic dataset emission: CSV files and the per-run manifest.

Every numeric cell is printed with repr-faithful 17 significant digits and a
dot decimal separator, newlines are always "\n", and rows are written in a
fixed order, so identical config + version means identical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np


def format_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits, ints/strings verbatim."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# "%.17g" % x equals format(x, ".17g") for every float, nan, inf and -0.0
# included, but not for ints >= 1e17 or np.bool_, so only rows made of these
# two types take the template
_FLOAT_TYPES = frozenset((float, np.float64))
_BLOCK_LINES = 4096


@functools.lru_cache(maxsize=16)
def _float_template(width: int) -> str:
    """"%.17g,...,%.17g" with `width` fields: format_cell's join for float cells."""
    return ",".join(["%.17g"] * width)


def _format_row(row) -> str:
    if _FLOAT_TYPES.issuperset(map(type, row)):
        return _float_template(len(row)) % tuple(row)
    return ",".join(format_cell(cell) for cell in row)


def write_csv(path: str, header: str, rows) -> None:
    """Write `header` then one comma-joined line per row ("\n" endings)."""
    lines = [header]
    lines.extend(map(_format_row, rows))
    _write_lines(path, lines)


def write_matrix_csv(path: str, comment: str, matrix) -> None:
    """Dump a dense matrix with a single self-describing comment line on top.

    Every cell prints as format_cell(float(cell)). Rows are converted one at
    a time, so no second copy of the whole matrix is held.
    """
    lines = [f"# {comment}"]
    for row in matrix:
        cells = tuple(np.asarray(row, dtype=float).tolist())
        lines.append(_float_template(len(cells)) % cells)
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    """Write each line plus "\n". The lines are formatted before the file is
    opened, so a formatting error leaves no partial file; they are joined a
    block at a time, so the whole text is never held as one more string."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for start in range(0, len(lines), _BLOCK_LINES):
            handle.write("\n".join(lines[start:start + _BLOCK_LINES]))
            handle.write("\n")


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    out_dir: str,
    command: str,
    version: str,
    config_echo: dict,
    output_names,
    wall_clock: float,
    convergence: dict,
    metadata: dict,
    error: dict | None = None,
) -> str:
    """Emit manifest.json next to the outputs; returns its path.

    Checksums are computed from the files as written, so a reader can verify
    the dataset round-trips. `error` is the machine-readable failure record
    for partial runs.
    """
    outputs = []
    for name in output_names:
        path = os.path.join(out_dir, name)
        outputs.append(
            {
                "file": name,
                "sha256": sha256_of(path),
                "bytes": os.path.getsize(path),
            }
        )
    manifest = {
        "command": command,
        "version": version,
        "config": config_echo,
        "outputs": outputs,
        "wall_clock_seconds": wall_clock,
        "convergence": convergence,
        "metadata": metadata,
    }
    if error is not None:
        manifest["error"] = error
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
