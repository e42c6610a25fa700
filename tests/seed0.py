"""The benchmark's seed-0 runs, for the tests that replay them.

bench/workloads.py is loaded from its file (bench/ is not a package) and is
read, never written.
"""

import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def seed0_runs():
    """(workload name, run) of every run of every benchmark workload at seed 0."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return [(name, run) for name, workload in workloads.WORKLOADS.items()
            for run in workloads.generate(workload, 0)]
