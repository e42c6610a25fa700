"""Output checks applied to every CLI run the benchmark makes.

A run passes when its manifest hashes match the files on disk, the run
completed, every Kerr row converged and every spectral weight A is >= 0. On
seed 0 every CSV must also hash to the value recorded from the seed commit
(`expected_sha256.json`), so a speed-up that moves a byte shows as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

_HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(_HERE, "expected_sha256.json")

# commands whose CSV carries a spectral weight column that must be >= 0
_SPECTRAL_COLUMNS = {"spectrum": ("spectrum.csv", "A"), "keldysh": ("keldysh.csv", "A")}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _column(path: str, name: str) -> list[str]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        index = next(reader).index(name)
        return [row[index] for row in reader]


def check_run(command: str, out_dir: str, expected: dict | None) -> list[str]:
    """Problems found in one finished run's output directory (empty = correct).

    `expected` maps CSV name -> sha256 for seed 0, or is None for other seeds.
    """
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    convergence = manifest.get("convergence", {})
    if convergence.get("completed") is not True:
        problems.append("convergence.completed is not true")
    if command == "kerr-scan" and convergence.get("all_rows_converged") is not True:
        problems.append("kerr-scan: not every row converged")
    hashes = {}
    for entry in manifest.get("outputs", []):
        path = os.path.join(out_dir, entry["file"])
        try:
            digest = sha256_file(path)
            size = os.path.getsize(path)
        except OSError as exc:
            problems.append(f"{entry['file']}: {exc}")
            continue
        if digest != entry["sha256"] or size != entry["bytes"]:
            problems.append(f"{entry['file']}: manifest hash or size does not match the file")
        hashes[entry["file"]] = digest
    if not hashes:
        problems.append("manifest lists no outputs")
    if expected is not None and hashes != expected:
        problems.append(f"seed-0 outputs differ from the seed commit: {sorted(hashes)}")
    try:
        problems += _row_problems(command, out_dir, hashes)
    except (ValueError, IndexError, StopIteration) as exc:
        problems.append(f"CSV rows unreadable: {exc!r}")
    return problems


def _row_problems(command: str, out_dir: str, hashes: dict) -> list[str]:
    if command == "kerr-scan" and "kerr.csv" in hashes and any(
        flag != "1" for flag in _column(os.path.join(out_dir, "kerr.csv"), "converged")
    ):
        return ["kerr-scan: kerr.csv has an unconverged row"]
    if command in _SPECTRAL_COLUMNS:
        name, column = _SPECTRAL_COLUMNS[command]
        if name in hashes and any(
            not float(a) >= 0.0 for a in _column(os.path.join(out_dir, name), column)
        ):
            return [f"{name}: spectral weight {column} < 0 or nan"]
    return []


def same_bytes(out_a: str, out_b: str) -> list[str]:
    """Problems if the CSVs of two output directories differ in any byte."""
    names_a = sorted(n for n in os.listdir(out_a) if n.endswith(".csv"))
    names_b = sorted(n for n in os.listdir(out_b) if n.endswith(".csv"))
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    return [
        f"{name} differs between --threads 2 and --threads 1"
        for name in names_a
        if sha256_file(os.path.join(out_a, name)) != sha256_file(os.path.join(out_b, name))
    ]
