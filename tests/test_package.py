"""The package's public names: one table, each module imported on first use."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter

import pytest

import cavityssh

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cavityssh.__file__)))


def run_python(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_every_export_resolves_and_appears_once():
    repeated = sorted(name for name, n in Counter(cavityssh.__all__).items() if n > 1)
    assert repeated == []
    missing = sorted(name for name in cavityssh.__all__ if not hasattr(cavityssh, name))
    assert missing == []


def test_every_export_is_the_object_its_owning_module_defines():
    for name in cavityssh.__all__:
        if name == "__version__":
            continue
        obj = getattr(cavityssh, name)
        owner = f"cavityssh.{cavityssh._OWNER[name]}"
        assert obj.__module__ == owner, name
        assert getattr(sys.modules[owner], name) is obj, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cavityssh, "no_such_name")


def test_import_loads_neither_numpy_nor_a_submodule():
    probe = (
        "import sys, cavityssh; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('cavityssh.')))"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_neither_a_thread_pool_nor_logging():
    probe = (
        "import sys, cavityssh.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_module_imports_thread_machinery():
    """A zone table serves one thread, and no command starts another. numpy
    itself loads `threading`, so the source is read, not sys.modules."""
    package = os.path.join(SRC, "cavityssh")
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}: {module}" for module in modules
                      if module.split(".")[0] in {"threading", "concurrent", "multiprocessing"}]
    assert found == []


def test_cli_module_entry_reports_the_version():
    result = run_python("-m", "cavityssh.cli", "--version")
    assert result.returncode == 0, result.stderr
    assert cavityssh.__version__ in result.stdout


def test_no_library_callable_defaults_a_zone_size():
    """Every zone size comes from the caller; only config holds the CLI
    defaults."""
    with_n_k, defaulted = set(), []
    for module_name in ("cavity", "keldysh", "kerr", "vertex", "lattice", "numerics"):
        module = importlib.import_module(f"cavityssh.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            callables = {name: obj}
            if inspect.isclass(obj):
                callables.update((f"{name}.{attr}", member) for attr, member in vars(obj).items()
                                 if inspect.isfunction(member) and not attr.startswith("_"))
            for qualname, fn in callables.items():
                if not callable(fn):
                    continue
                n_k = inspect.signature(fn).parameters.get("n_k")
                if n_k is not None:
                    with_n_k.add(qualname)
                    if n_k.default is not inspect.Parameter.empty:
                        defaulted.append(f"{module_name}.{qualname}")
    assert {"BubbleTable", "self_energy_spectrum", "gamma4_direct_grid", "kerr_scan",
            "zak_phase"} <= with_n_k
    assert defaulted == []
