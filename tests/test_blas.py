"""The BLAS idle policy the CLI sets: in place before numpy loads, and never
visible in an output byte.

`cavityssh.cli` sets OPENBLAS_THREAD_TIMEOUT=4 on import unless the environment
already has a value. numpy loads only when a command runs, and OpenBLAS reads
the variable once, when numpy loads the library, so each case here runs in a
fresh interpreter with the variable set or cleared in its own environment
only.
"""

import json
import os
import subprocess
import sys

import pytest

import cavityssh

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cavityssh.__file__)))
CONFIGS = os.path.join(SRC, "..", "configs")


def run_python(args, blas_timeout=None):
    """Run python on `args` with OPENBLAS_THREAD_TIMEOUT = `blas_timeout`, or unset."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
    if blas_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = blas_timeout
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# records the variable at the first lookup of numpy, then lets the normal
# finders load it; the CLI looks numpy up when it dispatches the command in argv
PROBE = """
import importlib.abc, os, sys
seen = []
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None
sys.meta_path.insert(0, Probe())
from cavityssh.cli import main
code = main(sys.argv[1:])
print(seen)
sys.exit(code)
"""


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("9", "9")])
def test_idle_policy_is_set_before_numpy_is_looked_up(tmp_path, preset, expected):
    config = write_config(tmp_path, "zak.json", {"model": {"t1": 1.0, "t2": 1.5},
                                                 "grids": {"n_k": 64}})
    argv = ["zak", "--config", config, "--out", str(tmp_path / "out")]
    result = run_python(["-c", PROBE, *argv], blas_timeout=preset)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr([expected])


BIPHOTON = {
    "model": {"t1": 1.0, "t2": 0.5},
    "kernel": {"v0": 1.0, "zeta": 1.7},
    "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 256}},
    "params": {"omega0": 1.0, "sigma": 0.1},
}


@pytest.mark.parametrize("command, files", [
    ("schmidt-scan", ("schmidt_scan.csv",)),
    ("biphoton", ("biphoton_in.csv", "biphoton_out.csv", "schmidt.csv")),
])
def test_idle_policy_never_moves_a_byte(tmp_path, command, files):
    # 28 is OpenBLAS's own default spin; the runs are compared with each
    # other, so the check holds whatever the BLAS thread count of the host
    if command == "biphoton":
        config = write_config(tmp_path, "biphoton.json", BIPHOTON)
    else:
        config = os.path.join(CONFIGS, "fig5c.json")
    outputs = {}
    for timeout in ("4", "28"):
        out_dir = tmp_path / f"out-{timeout}"
        result = run_python(["-m", "cavityssh.cli", command, "--config", config,
                             "--out", str(out_dir)], blas_timeout=timeout)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["blas"]["openblas_thread_timeout"] == timeout
        outputs[timeout] = {name: (out_dir / name).read_bytes() for name in files}
    assert outputs["4"] == outputs["28"]
