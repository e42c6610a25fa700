"""Workload definitions and the seeded config generator.

A workload is a fixed list of CLI runs, each one command plus one JSON config.
Seed 0 is the base configs verbatim; the four presets are copies of
`configs/fig2a.json`, `fig2b.json`, `fig4.json` and `fig5c.json` so that a
later edit to a preset cannot silently change what the benchmark measures.
Any other seed perturbs physical parameters only (t2 on the same side of the
gap with |r - 1| >= 0.1, eta, temperature, zeta, Kerr ratios); grid sizes and
n_k never change, so the work per pass stays the same.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass

_FIG2_CAVITY = {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01}
_FIG2_GRIDS = {
    "n_k": 4096,
    "omega": {"start": 0.6, "stop": 1.5, "count": 200},
    "q": {"start": -2.0, "stop": 2.0, "count": 100},
}

FIG2A = {
    "command": "spectrum",
    "model": {"t1": 1.0, "t2": 0.5},
    "cavity": dict(_FIG2_CAVITY),
    "grids": copy.deepcopy(_FIG2_GRIDS),
}
FIG2B = {
    "command": "spectrum",
    "model": {"t1": 1.0, "t2": 1.5},
    "cavity": dict(_FIG2_CAVITY),
    "grids": copy.deepcopy(_FIG2_GRIDS),
}
FIG4 = {
    "command": "kerr-scan",
    "model": {"t1": 1.0, "t2": 0.5},
    "cavity": {"mass_beta": 0.5, "g": 0.01, "eta": 0.001},
    "grids": {"n_k": 65536},
    "params": {
        "r_values": [0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5],
        "n_max": 5,
    },
}
FIG5C = {
    "command": "schmidt-scan",
    "model": {"t1": 1.0, "t2": 0.5},
    "kernel": {"v0": 1.0, "zeta": 0.0},
    "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 256}},
    "params": {
        "omega0": 1.0,
        "sigma": 0.1,
        "zeta_values": [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0],
    },
}
KELDYSH = {
    "command": "keldysh",
    "model": {"t1": 1.0, "t2": 0.5},
    "cavity": dict(_FIG2_CAVITY),
    "thermal": {"temperature": 0.1},
    "grids": copy.deepcopy(_FIG2_GRIDS),
}
DRESSED = {
    "command": "dressed-bands",
    "model": {"t1": 1.0, "t2": 0.5},
    "cavity": dict(_FIG2_CAVITY),
    "params": {"n_points": 4096},
}
SELF_ENERGY = {
    "command": "self-energy",
    "model": {"t1": 1.0, "t2": 0.5},
    "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.001},
    "grids": {"n_k": 65536, "omega": {"start": 0.5, "stop": 3.5, "count": 400}},
}
VERTEX = {
    "command": "vertex",
    "model": {"t1": 1.0, "t2": 0.5},
    "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
    "kernel": {"v0": 1.0, "zeta": 1.0},
    "grids": {"n_k2d": 512, "omega": {"start": 0.6, "stop": 1.4, "count": 48}},
}
BIPHOTON = {
    "command": "biphoton",
    "model": {"t1": 1.0, "t2": 0.5},
    "kernel": {"v0": 1.0, "zeta": 1.0},
    "grids": {"omega": {"start": 0.6, "stop": 1.4, "count": 256}},
    "params": {"omega0": 1.0, "sigma": 0.1},
}


@dataclass(frozen=True)
class Run:
    """One CLI invocation of a workload pass."""

    name: str
    config: dict

    @property
    def command(self) -> str:
        return self.config["command"]


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple  # base Run objects, seed 0
    threads1_run: str  # the run repeated at --threads 1 as a determinism check


WORKLOADS = {
    "sweep": Workload(
        "sweep",
        (Run("fig2a", FIG2A), Run("fig2b", FIG2B),
         Run("keldysh", KELDYSH), Run("dressed", DRESSED)),
        threads1_run="fig2a",
    ),
    "ladder": Workload(
        "ladder",
        (Run("fig4", FIG4), Run("self_energy", SELF_ENERGY)),
        threads1_run="self_energy",
    ),
    "entangle": Workload(
        "entangle",
        (Run("vertex", VERTEX), Run("biphoton", BIPHOTON), Run("fig5c", FIG5C)),
        threads1_run="vertex",
    ),
}

MIN_GAP_DISTANCE = 0.1  # |r - 1| >= 0.1 keeps every perturbed chain well gapped


def _perturb_ratio(r: float, rng: random.Random) -> float:
    shift = rng.uniform(-0.03, 0.03)
    shifted = r + shift
    if abs(shifted - 1.0) < MIN_GAP_DISTANCE:
        shifted = r - shift
    return shifted


def perturb(config: dict, rng: random.Random) -> dict:
    """A copy of `config` with its physical parameters jittered by `rng`."""
    out = copy.deepcopy(config)
    # every base ratio t2/t1 is 0.5 or 1.5, so a shift of 0.05 keeps |r - 1| >= 0.45
    out["model"]["t2"] += rng.uniform(-0.05, 0.05) * out["model"]["t1"]
    if "eta" in out.get("cavity", {}):
        out["cavity"]["eta"] *= rng.uniform(0.8, 1.25)
    if "thermal" in out:
        out["thermal"]["temperature"] *= rng.uniform(0.8, 1.25)
    if "kernel" in out and out["command"] != "schmidt-scan":
        out["kernel"]["zeta"] *= rng.uniform(0.8, 1.25)
    params = out.get("params", {})
    if "zeta_values" in params:
        factor = rng.uniform(0.8, 1.25)
        params["zeta_values"] = [z * factor for z in params["zeta_values"]]
    if "r_values" in params:
        params["r_values"] = [_perturb_ratio(r, rng) for r in params["r_values"]]
    return out


def generate(workload: Workload, seed: int) -> list[Run]:
    """The workload's runs for `seed`; seed 0 returns the base configs."""
    if seed == 0:
        return [Run(run.name, copy.deepcopy(run.config)) for run in workload.runs]
    rng = random.Random(seed)
    return [Run(run.name, perturb(run.config, rng)) for run in workload.runs]


def write_configs(runs: list[Run], seed_dir: str) -> dict[str, str]:
    """Write each run's config to <seed_dir>/<run>/config.json; returns the paths."""
    paths = {}
    for run in runs:
        run_dir = os.path.join(seed_dir, run.name)
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(run.config, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths[run.name] = path
    return paths
