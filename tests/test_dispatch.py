"""Bytes against the host CPU (ROADMAP item 2): the dispatch-matrix harness and
the guard that keeps host-dependent primitives in known places.

The harness runs the seed-0 benchmark configs in child processes, once in the
plain environment and once under each setting of SETTINGS, and compares the
bytes of every output file. A setting makes numpy's or glibc's dispatcher pick
the code it would pick on a smaller CPU; it is set in the child's environment
only, and no machine setting is touched.
"""

import ast
import importlib.util
import json
import os
import platform
import subprocess
import sys
from collections import Counter

import pytest

import cavityssh

SRC = os.path.dirname(os.path.abspath(cavityssh.__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")

SETTINGS = {
    "numpy-avx2": ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
    "numpy-x86-v2": ("NPY_DISABLE_CPU_FEATURES", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"),
    "glibc-no-fma": ("GLIBC_TUNABLES", "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX"),
}

# (run, file, setting) whose bytes move under the setting, with the primitive
# that moves them: AVX-512 np.exp and np.log against AVX2 for the vertex
# kernel, the pump and the entropy; below AVX2 also the complex np.square of
# the Kerr ladder's derivative (`BubbleTable._weighted`), which contracts to
# fma at X86_V3 and above; glibc's FMA variants of cos, sin and pow for
# band_gap, dipole and `numerics._py_square`. A pair leaves the table in the
# change that makes its bytes hold.
MOVING = {
    ("vertex", "gamma4.csv", "numpy-avx2"),
    ("biphoton", "biphoton_in.csv", "numpy-avx2"),
    ("biphoton", "biphoton_out.csv", "numpy-avx2"),
    ("biphoton", "schmidt.csv", "numpy-avx2"),
    ("fig5c", "schmidt_scan.csv", "numpy-avx2"),
    ("vertex", "gamma4.csv", "numpy-x86-v2"),
    ("biphoton", "biphoton_in.csv", "numpy-x86-v2"),
    ("biphoton", "biphoton_out.csv", "numpy-x86-v2"),
    ("biphoton", "schmidt.csv", "numpy-x86-v2"),
    ("fig5c", "schmidt_scan.csv", "numpy-x86-v2"),
    ("fig4", "kerr.csv", "numpy-x86-v2"),
    ("fig2b", "spectrum.csv", "glibc-no-fma"),
    ("keldysh", "keldysh.csv", "glibc-no-fma"),
    ("dressed", "dressed_bands.csv", "glibc-no-fma"),
    ("self_energy", "self_energy.csv", "glibc-no-fma"),
}


def seed0_runs():
    """{run name: (command, config, output files)} of every seed-0 benchmark run."""
    path = os.path.join(BENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    with open(os.path.join(BENCH, "expected_sha256.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    return {run.name: (run.command, run.config, sorted(expected[name][run.name]))
            for name, workload in workloads.WORKLOADS.items()
            for run in workloads.generate(workload, 0)}


def child_env(setting=None):
    path = os.pathsep.join(filter(None, (os.path.dirname(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    for variable, _ in SETTINGS.values():
        env.pop(variable, None)
    if setting is not None:
        variable, value = SETTINGS[setting]
        env[variable] = value
    return env


def run_child(directory, name, run, setting=None):
    """Run one seed-0 config through the CLI in a child; {file: bytes}."""
    command, config, files = run
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    out = os.path.join(directory, name)
    proc = subprocess.run(
        [sys.executable, "-m", "cavityssh.cli", command, "--config", path, "--out", out,
         "--threads", "2"],
        capture_output=True, text=True, timeout=300, env=child_env(setting),
    )
    assert proc.returncode == 0, proc.stderr
    contents = {}
    for file in files:
        with open(os.path.join(out, file), "rb") as handle:
            contents[file] = handle.read()
    return contents


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    """The outputs of each seed-0 run in the plain environment, run on first use."""
    directory, runs, done = str(tmp_path_factory.mktemp("plain")), seed0_runs(), {}

    def outputs(name):
        if name not in done:
            done[name] = run_child(directory, name, runs[name])
        return done[name]

    return outputs


def refusal(setting):
    """Why the host cannot run `setting`, or None."""
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        return f"{platform.system()} {platform.machine()} is not x86_64 Linux"
    if setting == "glibc-no-fma" and platform.libc_ver()[0] != "glibc":
        return "the C library is not glibc"
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, timeout=120, env=child_env(setting))
    if probe.returncode != 0:
        return (probe.stderr.strip().splitlines() or ["import numpy failed"])[-1]
    return None


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_seed0_bytes_do_not_depend_on_the_dispatch_level(tmp_path, plain, setting):
    reason = refusal(setting)
    if reason is not None:
        pytest.skip(f"{SETTINGS[setting][0]} refused on this host: {reason}")
    moved = []
    for name, run in seed0_runs().items():
        checked = [file for file in run[2] if (name, file, setting) not in MOVING]
        if not checked:
            continue
        under = run_child(str(tmp_path), name, run, setting)
        moved += [f"{name}/{file}" for file in checked if under[file] != plain(name)[file]]
    assert moved == []


# ---------------------------------------------------------------- the guard

BYTE_PATH = ["lattice", "cavity", "keldysh", "kerr", "vertex", "biphoton", "dressing",
             "handlers"]
HOST_DEPENDENT = {"exp", "log", "angle", "cos", "sin", "square", "power"}

# (module, function) -> the host-dependent calls in it and how many: np.<name>
# for HOST_DEPENDENT, math.<name> for any math call, and ** for a float power
# (libm pow). Moving a call to the layer in `numerics` removes its entry.
ALLOWED = {
    ("lattice", "band_gap"): {"**": 2, "np.cos": 1},
    ("lattice", "dipole"): {"np.sin": 1},
    ("lattice", "bloch_phase"): {"np.exp": 1, "np.angle": 1},
    ("lattice", "zak_phase"): {"np.exp": 1, "np.angle": 1},
    ("lattice", "band_edge_params"): {"**": 1},
    ("cavity", "BubbleTable.__init__"): {"**": 1},
    ("cavity", "BubbleTable._weighted"): {"np.square": 1, "np.power": 1},
    ("cavity", "self_energy_spectrum"): {"**": 1},
    ("cavity", "hopfield_branches"): {"**": 1},
    ("kerr", "solve_omega_sequence"): {"**": 1},
    ("kerr", "kerr_from_fit"): {"**": 1},
    ("kerr", "_scan_row"): {"**": 1},
    ("vertex", "_kernel_matrix"): {"np.exp": 1, "**": 1},
    ("vertex", "gamma4_direct_grid"): {"**": 1},
    ("vertex", "gamma4_stationary"): {"**": 1, "np.exp": 1},
    ("biphoton", "_normalize"): {"**": 2},
    ("biphoton", "input_state"): {"np.exp": 1, "**": 2},
    ("biphoton", "schmidt_decompose"): {"**": 1, "np.log": 2},
    ("biphoton", "_geometric_fit"): {"np.log": 1, "**": 2, "np.exp": 1},
    ("dressing", "dressed_band_sweep"): {"**": 1},
    ("handlers", "_run_biphoton"): {"**": 2},
}


def parse(module):
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def host_dependent_calls(module) -> dict:
    """(module, qualified function) -> Counter of the host-dependent calls in it."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and isinstance(child.func.value, ast.Name):
                owner, attr = child.func.value.id, child.func.attr
                if (owner == "np" and attr in HOST_DEPENDENT) or owner == "math":
                    name = f"{owner}.{attr}"
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Pow):
                name = "**"
            if name is not None:
                key = (module, ".".join(scope) or "<module>")
                found.setdefault(key, Counter())[name] += 1
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if nested else scope)

    visit(parse(module), [])
    return found


def test_host_dependent_calls_sit_in_the_allowlist():
    found = {}
    for module in BYTE_PATH:
        found.update(host_dependent_calls(module))
    unlisted = {key: dict(calls) for key, calls in found.items() if ALLOWED.get(key) != calls}
    stale = sorted(key for key in ALLOWED if key not in found)
    assert unlisted == {}
    assert stale == []


def test_rounding_replicas_and_float_power_live_only_in_numerics():
    modules = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))
    defined, float_power = set(), set()
    for module in modules:
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_py_"):
                defined.add(module)
            if isinstance(node, ast.Attribute) and node.attr == "float_power":
                float_power.add(module)
    assert defined == {"numerics"}
    assert float_power == {"numerics"}
