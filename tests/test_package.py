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


# (module, function or record, parameter or field) -> why its default stays.
# A default stays where two callers outside the tests need different values,
# or where an entry point takes it; every other value comes from the caller,
# and the CLI's values from the config.
KEYWORD_DEFAULTS = {
    ("cavity", "_propagator_parts", "sigma_re"):
        "the bare mode of dressing has no self-energy; keldysh passes Sigma",
    ("cavity", "_propagator_parts", "sigma_im"):
        "the bare mode of dressing has no self-energy; keldysh passes Sigma",
    ("cavity", "BubbleTable.samples", "power"):
        "the vertex samples I's integrand; integral's check passes its own power",
    ("cavity", "BubbleTable.integral", "power"):
        "the ladder's residual needs I, its Newton derivative I' (power 2)",
    ("cli", "main", "argv"): "entry point: None parses sys.argv",
    ("config", "_section", "model"):
        "the sections with derived defaults pass the model; model, grids and a grid have none",
    ("config", "_section", "cavity"): "only params derives a default from the cavity",
}


def keyword_defaults(module: str) -> list:
    """(module, qualified function or record, name) of every default in the
    module's source: function parameters, nested functions' included, and
    NamedTuple fields."""
    with open(os.path.join(SRC, "cavityssh", f"{module}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = [*scope, getattr(child, "name", "<lambda>")]
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                named = positional[len(positional) - len(args.defaults):]
                named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
                found.extend((module, ".".join(inner), arg.arg) for arg in named)
                visit(child, inner)
            elif isinstance(child, ast.ClassDef):
                inner = [*scope, child.name]
                if any(ast.unparse(base).endswith("NamedTuple") for base in child.bases):
                    found.extend((module, ".".join(inner), field.target.id)
                                 for field in child.body
                                 if isinstance(field, ast.AnnAssign) and field.value is not None)
                visit(child, inner)
            else:
                visit(child, scope)

    visit(tree, [])
    return found


def test_every_keyword_default_is_listed():
    """The library takes every value from its caller, with the defaults of
    KEYWORD_DEFAULTS as the only exceptions."""
    package = os.path.join(SRC, "cavityssh")
    found = [default for name in sorted(os.listdir(package)) if name.endswith(".py")
             for default in keyword_defaults(name[:-3])]
    assert sorted(set(found) - set(KEYWORD_DEFAULTS)) == []  # a default not listed
    assert sorted(found) == sorted(KEYWORD_DEFAULTS)  # or one listed but gone


def test_the_cell_format_and_completion_each_have_one_owner():
    """`output` alone spells the cell format (docstrings aside), and `cli`
    alone states whether a run completed: no handler writes "completed"."""
    package = os.path.join(SRC, "cavityssh")
    spelled, completed = [], []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            if ".17g" in node.value and id(node) not in docstrings:
                spelled.append(name)
            if node.value == "completed" and name == "handlers.py":
                completed.append(node.lineno)
    assert spelled == ["output.py"]
    assert completed == []


def test_every_schmidt_row_comes_from_entropy_scan():
    """One Schmidt pipeline: `entropy_scan` alone, in the package, refers to
    `schmidt_decompose` and `_scan_row`, so a single kernel's row is a
    one-zeta scan row by construction."""
    package = os.path.join(SRC, "cavityssh")
    users = {"schmidt_decompose": [], "_scan_row": []}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name in users:
                users[name].append(".".join(scope))
            visit(child, scope)

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                visit(ast.parse(handle.read(), name), [name[:-3]])
    assert users == {"schmidt_decompose": ["biphoton.entropy_scan"],
                     "_scan_row": ["biphoton.entropy_scan"]}
