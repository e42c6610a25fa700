#!/usr/bin/env python3
"""cavityssh benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the repository root. Workloads are defined in `workloads.py`. With
`--trace 0` the benchmark spawns each CLI run of the workload as a fresh
`python -m cavityssh.cli <command> --config ... --out ... --threads 2`
process, one at a time (closed loop, one client), repeating whole passes for
`--seconds`, and reports the end-to-end metrics as medians over the passes.
With `--trace 1` it runs the same CLI calls in-process, alternating untraced
and traced passes, and reports the per-layer metrics of `tracer.py`.

Every run's outputs are checked (`checks.py`); the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. Generated configs
and the last pass's outputs stay under `.bench_work/<workload>/seed-<n>/`, so
any run can be replayed by hand. Exits 2 without a result when the source
tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from checks import check_run, load_expected, same_bytes  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate, write_configs  # noqa: E402

THREADS = 2
MIN_PASSES = 3
RUN_TIMEOUT_S = 150

# starts the interpreter, imports the CLI and validates the configs: no compute
_SETUP_CODE = (
    "import sys\n"
    "import cavityssh.cli\n"
    "from cavityssh.config import load_config\n"
    "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
    "    load_config(path, command)\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log_path: str, env: dict):
    """Run argv to completion; returns (exit code, the child's rusage)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def cpu_seconds(usage) -> float:
    """User plus system CPU seconds of a waited-for child, from its rusage.

    Unlike wall time this leaves out the time the host hands the vCPU to
    another guest (steal), which on a shared host swings over minutes.
    """
    return usage.ru_utime + usage.ru_stime


def cli_argv(run, config_path: str, out_dir: str, threads: int) -> list[str]:
    return [run.command, "--config", config_path, "--out", out_dir, "--threads", str(threads)]


class Tally:
    """Attempted and failed operations with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


def measure_end_to_end(workload, runs, configs, seed_dir, expected, seconds, tally):
    env = _child_env()
    setup_argv = [sys.executable, "-c", _SETUP_CODE]
    for run in runs:
        setup_argv += [run.command, configs[run.name]]
    setup_log = os.path.join(seed_dir, "setup.log")

    def setup_sample(samples):
        code, usage = spawn(setup_argv, setup_log, env)
        tally.record("setup", [] if code == 0 else [f"exit {code}"])
        samples.append(cpu_seconds(usage))

    setup_sample([])  # warm-up: bytecode cache and page cache, not recorded
    setup_s, cpus, walls, rss_mb = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        setup_sample(setup_s)
        outs = {run.name: _fresh(os.path.join(seed_dir, run.name, "out")) for run in runs}
        results = []
        start = time.perf_counter()
        for run in runs:
            argv = [sys.executable, "-m", "cavityssh.cli",
                    *cli_argv(run, configs[run.name], outs[run.name], THREADS)]
            results.append(spawn(argv, os.path.join(seed_dir, run.name, "cli.log"), env))
        walls.append(time.perf_counter() - start)
        cpus.append(sum(cpu_seconds(usage) for _, usage in results))
        setup_sample(setup_s)
        rss_mb.append(max(usage.ru_maxrss for _, usage in results) / 1024.0)
        for run, (code, _) in zip(runs, results):
            problems = [f"exit {code}"] if code else check_run(
                run.command, outs[run.name], expected and expected[run.name])
            tally.record(f"{run.name} pass {len(walls)}", problems)
        if time.perf_counter() >= deadline and len(walls) >= MIN_PASSES:
            break

    # determinism check outside the timed region: --threads 1 gives the same bytes
    run = next(r for r in runs if r.name == workload.threads1_run)
    out1 = _fresh(os.path.join(seed_dir, run.name, "out-threads1"))
    argv = [sys.executable, "-m", "cavityssh.cli", *cli_argv(run, configs[run.name], out1, 1)]
    code, _ = spawn(argv, os.path.join(seed_dir, run.name, "cli-threads1.log"), env)
    problems = [f"exit {code}"] if code else (
        check_run(run.command, out1, expected and expected[run.name])
        + same_bytes(os.path.join(seed_dir, run.name, "out"), out1))
    tally.record(f"{run.name} --threads 1", problems)

    print(f"pass cpu_s ({len(cpus)} passes): " + " ".join(f"{c:.4f}" for c in cpus))
    print(f"pass wall time, s (not a metric; median {statistics.median(walls):.4f}): "
          + " ".join(f"{w:.4f}" for w in walls))
    print(f"setup_s ({len(setup_s)} samples): " + " ".join(f"{s:.4f}" for s in setup_s))
    return {
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(rss_mb),
    }


def _kerr_denominators(runs) -> tuple[int, int]:
    """(rungs, ratios) over the workload's kerr-scan runs."""
    rungs = ratios = 0
    for run in runs:
        if run.command == "kerr-scan":
            params = run.config["params"]
            ratios += len(params["r_values"])
            rungs += len(params["r_values"]) * (params["n_max"] + 1)
    return rungs, ratios


def measure_layers(runs, configs, seed_dir, expected, seconds, tally):
    sys.path.insert(0, SRC)
    import cavityssh.cli as cli

    def one_pass(label: str) -> float:
        outs = {run.name: _fresh(os.path.join(seed_dir, run.name, "out")) for run in runs}
        total = 0.0
        for run in runs:
            start = time.perf_counter()
            try:
                code = cli.main(cli_argv(run, configs[run.name], outs[run.name], THREADS))
                failure = f"exit {code}" if code else None
            except Exception as exc:  # a crash in the program is a failed run, not a crashed benchmark
                failure = f"raised {type(exc).__name__}: {exc}"
            total += time.perf_counter() - start
            problems = [failure] if failure else check_run(
                run.command, outs[run.name], expected and expected[run.name])
            tally.record(f"{run.name} {label}", problems)
        return total

    rungs, ratios = _kerr_denominators(runs)
    one_pass("warm-up")
    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        untraced.append(one_pass("untraced"))
        with Tracer() as tracer:
            traced.append(one_pass("traced"))
        per_pass.append(layer_metrics(tracer, rungs, ratios))
    tracer.save(os.path.join(seed_dir, "spans.npz"))

    metrics = {}
    for name, first in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if isinstance(first, int):  # counts must repeat exactly between passes
            tally.record(f"count {name}", [] if len(set(values)) == 1 else
                         [f"differs between traced passes: {values}"])
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.main.s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / metrics["cli.main.s"] - 1.0
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}")
    return metrics


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment(threads: int) -> dict:
    """Machine and software facts the numbers depend on."""
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        head = _read(os.path.join(ROOT, ".git", *head[5:].split("/"))).strip()
    l3 = _read(cache.format(3)).strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "l2": _read(cache.format(2)).strip() or "unknown",
        "l3": l3,
        "git_commit": head or "unknown (not a git checkout)",
        "threads": threads,
        "note": (
            f"largest arrays: the 513^2 complex128 vertex kernel (4.2 MB) and "
            f"65,537-node vectors (1.0 MB) fit in the {l3} L3, so bytes are "
            "computed from array sizes and no roofline ratio is given"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cavityssh", "cli.py")):
        print(f"no cavityssh source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    runs = generate(workload, args.seed)
    seed_dir = _fresh(os.path.join(WORK, workload.name, f"seed-{args.seed}"))
    configs = write_configs(runs, seed_dir)
    expected = load_expected()[workload.name] if args.seed == 0 else None
    env = environment(THREADS)
    with open(os.path.join(seed_dir, "environment.json"), "w", encoding="utf-8") as handle:
        json.dump(env, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("environment: " + json.dumps(env, sort_keys=True))

    tally = Tally()
    if args.trace:
        values = measure_layers(runs, configs, seed_dir, expected, args.seconds, tally)
    else:
        values = measure_end_to_end(workload, runs, configs, seed_dir, expected,
                                    args.seconds, tally)

    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:40s} {values[entry['name']]:.6g} {entry['unit']}")
    print(f"failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.3g}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
