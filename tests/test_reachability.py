"""The runtime is what the commands reach: every function and method written in
`src/cavityssh` runs in at least one of the twelve commands.

The commands run in-process through `cli.main`, with `--threads 2` as the
benchmark passes it, on the benchmark's seed-0 configs plus small configs for
the four commands the benchmark does not run. A profile hook records every
Python frame that starts; a source function that none of them starts is
reached only by tests and belongs in `tests/reference.py`, or nowhere.
"""

import ast
import importlib.util
import json
import os
import sys

import cavityssh
from cavityssh import cli, handlers

SRC = os.path.dirname(os.path.abspath(cavityssh.__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")

# the commands the benchmark does not run, each on a small config
SMALL = {
    # t1 = t2 closes the gap at the zone edge, so the gapless branch runs too
    "bands": {"model": {"t1": 1.0, "t2": 1.0}, "params": {"n_points": 9}},
    "zak": {"model": {"t1": 1.0, "t2": 1.5}, "grids": {"n_k": 64}},
    # no params: g and delta_pi come from their derived defaults
    "hopfield": {"model": {"t1": 1.0, "t2": 0.5}, "cavity": {"g": 0.05},
                 "grids": {"q": {"start": -1.0, "stop": 1.0, "count": 5}}},
    # the omega grid starts below the band edge delta0 = 1, so points are skipped
    "saddle": {"model": {"t1": 1.0, "t2": 0.5}, "kernel": {"v0": 1.0, "zeta": 1.0},
               "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 5}}},
}

# functions no command reaches, by design
UNREACHED = {
    # PEP 562 lazy export: the CLI imports every name from its module
    "__init__.py:__getattr__",
    # raised only when a Newton ladder diverges, which no command config forces
    "errors.py:NoConvergenceError.__init__",
    # raised only for a frequency below the band edge; `saddle` evaluates the
    # vertex on the part of its grid at or above the edge alone
    "errors.py:BelowThresholdError.__init__",
    # the zone samples in node order, for library callers and the tests that
    # hold the vertex and the integral to plain pairwise sums; the vertex reads
    # the reduction-ordered `_samples`
    "cavity.py:BubbleTable.samples",
}


def seed0_configs():
    """(command, config) of every run of every benchmark workload at seed 0."""
    path = os.path.join(BENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for run in workloads.generate(workload, 0):
            yield run.command, run.config


def defined_functions() -> dict:
    """(file, first line, name) -> "file:qualname" of every def and lambda in
    the package source. A code object's first line is its first decorator's."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    fn = child.name if not isinstance(child, ast.Lambda) else "<lambda>"
                    decorators = getattr(child, "decorator_list", [])
                    first = min([child.lineno] + [d.lineno for d in decorators])
                    found[(path, first, fn)] = f"{name}:{'.'.join(scope + [fn])}"
                    visit(child, scope + [fn])
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                else:
                    visit(child, scope)

        visit(tree, [])
    return found


def test_every_source_function_runs_in_some_command(tmp_path):
    runs = list(seed0_configs())
    assert {command for command, _ in runs} | set(SMALL) == set(handlers._HANDLERS)
    runs += list(SMALL.items())

    started = set()

    def hook(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes = []
        for i, (command, config) in enumerate(runs):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"out{i}"
            codes.append(cli.main([command, "--config", str(path), "--out", str(out),
                                   "--threads", "2"]))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs)

    ran = {(os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
           for code in started}
    defined = defined_functions()
    missed = sorted(defined[key] for key in defined.keys() - ran)
    assert [name for name in missed if name not in UNREACHED] == []
    assert missed == sorted(UNREACHED)  # an exception that runs leaves the list
