"""What loads when: the CLI front end and config validation import no numpy and
no numerical module; a dispatched command loads every layer. No run loads
`dataclasses` or OpenSSL's `_hashlib`, and only a run that prints a traceback
loads `traceback`. What a `kerr-scan` child holds on top of numpy.

Each case runs in a fresh interpreter, because the test process itself has
long since imported numpy and every module.
"""

import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import cavityssh
from cavityssh.config import COMMANDS
from seed0 import BENCH
from test_reachability import SMALL, seed0_configs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cavityssh.__file__)))
CONFIGS = sorted(glob.glob(os.path.join(SRC, "..", "configs", "*.json")))

# what `import cavityssh.cli` and `load_config` must not load
NUMERICAL = ("numpy", "cavityssh.numerics", "cavityssh.lattice", "cavityssh.cavity",
             "cavityssh.output")
# what no run loads either: the records are named tuples, the CLI imports
# traceback only to print one, and the manifest hashes with CPython's own
# SHA-256, not OpenSSL's (3.5 MiB of libcrypto)
LEAN = ("dataclasses", "traceback", "_hashlib")


def run_python(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def traced_layers() -> tuple:
    """The layer modules the benchmark's tracer looks up in sys.modules."""
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  os.path.join(BENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


VALIDATE = """
import json, sys
import cavityssh.cli
from cavityssh.config import load_config
for command, path in json.loads(sys.argv[1]):
    load_config(path, command)
print(json.dumps(sorted(set(json.loads(sys.argv[2])) & set(sys.modules))))
"""


def test_cli_import_and_config_validation_load_no_numerical_module(tmp_path):
    runs = [*seed0_configs(), *SMALL.items()]
    assert {command for command, _ in runs} == set(COMMANDS)
    jobs = []
    for i, (command, config) in enumerate(runs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        jobs.append((command, str(path)))
    for path in CONFIGS:
        with open(path, encoding="utf-8") as handle:
            jobs.append((json.load(handle)["command"], path))
    assert len(jobs) == len(runs) + 4
    result = run_python("-c", VALIDATE, json.dumps(jobs), json.dumps(NUMERICAL + LEAN))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["--version"], 0),
    (["zak", "--config", "{config}", "--out", "{out}"], 2),
], ids=["help", "version", "config-error"])
def test_cli_entry_exits_before_numpy_loads(tmp_path, argv, code):
    """`python -m cavityssh.cli` under -X importtime, which names on stderr
    every module the run imports."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 10}}))
    out = tmp_path / "out"
    argv = [arg.format(config=config, out=out) for arg in argv]
    result = run_python("-X", "importtime", "-m", "cavityssh.cli", *argv)
    assert result.returncode == code, result.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert "cavityssh.config" in imported
    assert sorted(imported & set(NUMERICAL + LEAN)) == []
    if code == 2:
        assert "config error: grids.n_k must be >= 64, got 10" in result.stderr
        assert not out.exists()


DISPATCH = """
import json, sys
from cavityssh import cli
lean = json.loads(sys.argv[2])
code = cli.main(sys.argv[3:])
print(json.dumps([code, sorted(set(json.loads(sys.argv[1])) - set(sys.modules)),
                  sorted(set(lean) & set(sys.modules))]))
"""


def test_a_dispatched_run_loads_every_traced_layer(tmp_path):
    """`zak` reads only the lattice, yet its run loads every layer, so the
    tracer finds each one in sys.modules after any first command. It loads
    neither `dataclasses` nor `traceback`, and hashes its CSV and writes its
    manifest without `_hashlib`."""
    config = tmp_path / "zak.json"
    config.write_text(json.dumps({"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}}))
    layers = [f"cavityssh.{layer}" for layer in traced_layers()]
    argv = ["zak", "--config", str(config), "--out", str(tmp_path / "out")]
    result = run_python("-c", DISPATCH, json.dumps(layers), json.dumps(LEAN), *argv)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, [], []]
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]


# Runs each argv in its own child and prints [exit code, ru_maxrss in KiB] of
# each. On Linux a child's ru_maxrss starts from the peak of the process that
# forked it, so each child is spawned from this small launcher, whose own
# peak (that of a `pass` child) lies below any child that imports numpy.
LAUNCH = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    peaks.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
print(json.dumps(peaks))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_a_kerr_scan_child_holds_under_eight_and_a_half_mib_over_numpy(tmp_path):
    """The seed-0 fig4 `kerr-scan` child peaks at most 8.5 MiB above a child
    that only imports numpy. Over numpy it holds our modules, one 3 MiB zone
    table and LAPACK's pages, which it maps for the first fit only after the
    last table is freed. Measured on a 2-vCPU x86-64 host with numpy 2.4.6:
    6.7 MiB, so the margin is 1.8 MiB. With `hashlib` (OpenSSL's libcrypto)
    it read 9.2 MiB, with each fit right after its ratio's ladder 10.1 MiB,
    and with both 12.7 MiB."""
    config = tmp_path / "fig4.json"
    config.write_text(json.dumps(next(config for command, config in seed0_configs()
                                      if command == "kerr-scan")))
    argvs = [[sys.executable, "-c", "pass"],
             [sys.executable, "-c", "import numpy"],
             [sys.executable, "-m", "cavityssh.cli", "kerr-scan", "--config", str(config),
              "--out", str(tmp_path / "out")]]
    result = run_python("-c", LAUNCH, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    (code_pass, floor), (code_numpy, numpy_peak), (code_kerr, kerr_peak) = \
        json.loads(result.stdout)
    assert [code_pass, code_numpy, code_kerr] == [0, 0, 0]
    assert numpy_peak > floor  # the numpy child's peak is its own, not the launcher's
    assert kerr_peak - numpy_peak <= 8.5 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_the_schmidt_children_hold_under_nine_mib_over_numpy(tmp_path):
    """The seed-0 fig5c `schmidt-scan` and `biphoton` children each peak at
    most 9.0 MiB above a child that only imports numpy. Each builds its pump,
    kernel and output state as real temporaries and lets each go once the
    next step has what it needs, so no pump or kernel is held through an SVD,
    and the only complex matrix is the one handed to LAPACK. The geometric
    fits run after the last SVD. Measured on a 2-vCPU x86-64 host with numpy
    2.4.6, over a 26.8 MiB numpy child: 7.3 MiB (fig5c) and 7.8 MiB
    (biphoton). Complex amplitudes read 8.5 and 8.1 MiB, and holding the
    pump and the kernel through every SVD 10.5-10.6 and 9.9-10.1 MiB."""
    runs = {name: config for name, config in seed0_configs()
            if name in ("schmidt-scan", "biphoton")}
    assert sorted(runs) == ["biphoton", "schmidt-scan"]
    argvs = [[sys.executable, "-c", "pass"], [sys.executable, "-c", "import numpy"]]
    for command, config in runs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        argvs.append([sys.executable, "-m", "cavityssh.cli", command, "--config", str(path),
                      "--out", str(tmp_path / command)])
    result = run_python("-c", LAUNCH, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    (code_pass, floor), (code_numpy, numpy_peak), *children = json.loads(result.stdout)
    assert [code_pass, code_numpy, *(code for code, _ in children)] == [0, 0, 0, 0]
    assert numpy_peak > floor
    over = {command: (peak - numpy_peak) / 1024 for command, (_, peak) in zip(runs, children)}
    assert max(over.values()) <= 9.0, over
