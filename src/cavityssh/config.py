"""Run configuration: one JSON document drives one batch command.

The document mirrors the domain types section by section (model, cavity,
kernel, thermal, grids, params). Validation is strict: unknown keys anywhere
in the tree are rejected, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, NamedTuple

from .errors import ConfigInvalidError
from .params import (
    MIN_NK, CavityParams, FrequencyGrid, InteractionKernel, SshParams, ThermalState,
)


class Command(NamedTuple):
    """One CLI command: its help line, the optional sections (cavity, kernel,
    thermal) and grids (omega, q) it reads, and its params schema
    key -> (kind, default, minimum). A None default means required; a
    callable default is derived from the parsed (model, cavity). A minimum
    (">=", m) or (">", m) bounds the value, or each entry of a number_list,
    from below; None bounds nothing. `arrays` lists the complex arrays the
    command allocates, each as the size keys of its axes: a zone of n_k + 1
    cells (grids.n_k), the zone-squared kernel (grids.n_k2d twice), a value
    per omega or per q, an omega x omega or omega x q map, a k sweep
    (params.n_points), the Kerr ladder of n_max + 1 rungs (params.n_max)."""

    help: str
    reads: tuple[str, ...]
    params: dict[str, tuple[str, Any, tuple[str, float] | None]]
    arrays: tuple[tuple[str, ...], ...] = ()


# the zone sizes of a config without grids.n_k / grids.n_k2d; the library
# has no defaults and takes every zone size from its caller
DEFAULT_NK = 4096
DEFAULT_NK2D = 512

# the largest complex array a run may allocate; a bigger grid exits 2 at parse
# time instead of failing in compute
MAX_ARRAY_BYTES = 1 << 30

# the largest Kerr ladder a run may ask for, in zone-node rungs: ratios x
# (n_max + 1) rungs x (n_k + 1) zone nodes. A rung costs a few zone sums, about
# 5e-8 to 8e-8 s of CPU per node on one Xeon vCPU, so the budget is about a
# minute; fig4 (10 x 6 x 65537) is 273 times under it
MAX_LADDER_NODES = 1 << 30

_ZONE = ("grids.n_k",)
_OMEGA = ("grids.omega.count",)
_Q = ("grids.q.count",)
_OMEGA_SQUARE = ("grids.omega.count", "grids.omega.count")
_OMEGA_Q = ("grids.omega.count", "grids.q.count")
_SWEEP = ("params.n_points",)


# smallest accepted params: n_points one sample, n_max three rungs for the
# quadratic fit; the pump width sigma is positive and every hopping ratio and
# interaction range nonnegative, as the library requires
COMMANDS = {
    "bands": Command("band energies, gap, dipole, and Bloch phase across the zone", (),
                     {"n_points": ("int", 256, (">=", 1))}, (_SWEEP,)),
    "zak": Command("Wilson-loop geometric phase of the occupied band", (), {}, (_ZONE,)),
    "self-energy": Command("retarded photon self-energy on a frequency grid",
                           ("cavity", "omega"), {}, (_ZONE, _OMEGA)),
    "spectrum": Command("dressed cavity spectral map A(omega, q)", ("cavity", "omega", "q"), {},
                        (_ZONE, _OMEGA_Q)),
    "hopfield": Command("two-level reference polariton branches", ("cavity", "q"),
                        {"g": ("number", lambda model, cavity: cavity.g, None),
                         "delta_pi": ("number", lambda model, cavity: model.edge_gap, None)},
                        (_Q,)),
    "kerr-scan": Command("photon nonlinearity fit vs hopping ratio", ("cavity",),
                         {"r_values": ("number_list", None, (">=", 0)),
                          "n_max": ("int", 5, (">=", 2))},
                         (_ZONE, ("params.n_max",))),
    "vertex": Command("direct four-photon vertex on a frequency square",
                      ("cavity", "kernel", "omega"), {},
                      (("grids.n_k2d", "grids.n_k2d"), _OMEGA_SQUARE)),
    "saddle": Command("stationary-phase four-photon vertex on a frequency square",
                      ("cavity", "kernel", "omega"), {}, (_OMEGA_SQUARE,)),
    "biphoton": Command("two-photon input/output states and their Schmidt spectrum",
                        ("kernel", "omega"),
                        {"omega0": ("number", None, None), "sigma": ("number", None, (">", 0))},
                        (_OMEGA_SQUARE,)),
    "schmidt-scan": Command("Schmidt entropy vs interaction range", ("kernel", "omega"),
                            {"omega0": ("number", None, None), "sigma": ("number", None, (">", 0)),
                             "zeta_values": ("number_list", None, (">=", 0))}, (_OMEGA_SQUARE,)),
    "dressed-bands": Command("cavity-dressed electronic bands and interband self-energy",
                             ("cavity",), {"n_points": ("int", 256, (">=", 1)),
                                           "onshell": ("bool", True, None),
                                           "omega": ("number", 0.0, None)}, (_SWEEP,)),
    "keldysh": Command("thermal Green functions and mode occupation",
                       ("cavity", "thermal", "omega", "q"), {}, (_ZONE, _OMEGA_Q)),
}

# the optional physics sections: record type and key -> default, a callable
# default derived from the model. Every section present is key-checked, but
# only those a command reads are built, so the others' defaults cannot fail
_SECTIONS = {
    "cavity": (CavityParams, {"omega_c": lambda model: model.edge_gap, "mass_beta": 0.5,
                              "g": 1.0, "eta": 0.01}),
    "kernel": (InteractionKernel, {"v0": 1.0, "zeta": 0.0}),
    "thermal": (ThermalState, {"temperature": 0.0}),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one command invocation; cavity, kernel and
    thermal are None for a command that does not read them."""

    command: str
    model: SshParams
    cavity: CavityParams | None
    kernel: InteractionKernel | None
    thermal: ThermalState | None
    n_k: int
    n_k2d: int
    omega_grid: FrequencyGrid | None
    q_grid: FrequencyGrid | None
    params: dict
    raw: dict


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigInvalidError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(mapping: dict, key: str, where: str, default=None, minimum=None) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigInvalidError(f"{where}.{key} is required")
        return float(default)
    return _finite(mapping[key], f"{where}.{key}", minimum)


def _bounded(value, minimum, where: str):
    """`value` if it meets `minimum`, (">=", m) or (">", m); None bounds nothing."""
    if minimum is not None:
        op, bound = minimum
        if value < bound or (op == ">" and value == bound):
            raise ConfigInvalidError(f"{where} must be {op} {bound}, got {value}")
    return value


def _finite(value, where: str, minimum=None) -> float:
    """A JSON number as a float; bools, strings, NaN/Infinity and values below
    `minimum` are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalidError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigInvalidError(f"{where} must be a finite number, got {value!r}")
    return _bounded(number, minimum, where)


def _integer(mapping: dict, key: str, where: str, default=None, minimum=None) -> int:
    if key not in mapping:
        if default is None:
            raise ConfigInvalidError(f"{where}.{key} is required")
        return int(default)
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalidError(f"{where}.{key} must be an integer, got {value!r}")
    return _bounded(value, minimum, f"{where}.{key}")


def _boolean(mapping: dict, key: str, where: str, default: bool) -> bool:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise ConfigInvalidError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _number_list(mapping: dict, key: str, where: str, minimum=None) -> list[float]:
    if key not in mapping:
        raise ConfigInvalidError(f"{where}.{key} is required")
    value = mapping[key]
    if not isinstance(value, list) or not value:
        raise ConfigInvalidError(f"{where}.{key} must be a nonempty array")
    return [_finite(entry, f"{where}.{key}[{i}]", minimum) for i, entry in enumerate(value)]


def _grid(mapping: dict, key: str, where: str) -> FrequencyGrid | None:
    if key not in mapping:
        return None
    section = _require_mapping(mapping[key], f"{where}.{key}")
    _check_keys(section, ("start", "stop", "count"), f"{where}.{key}")
    start = _number(section, "start", f"{where}.{key}")
    stop = _number(section, "stop", f"{where}.{key}")
    count = _integer(section, "count", f"{where}.{key}")
    try:
        return FrequencyGrid(start, stop, count)
    except ValueError as exc:
        raise ConfigInvalidError(f"{where}.{key}: {exc}") from exc


def _parse_params(section: dict, schema: dict, model: SshParams, cavity: CavityParams) -> dict:
    _check_keys(section, schema, "params")
    out: dict[str, Any] = {}
    for key, (kind, default, minimum) in schema.items():
        if callable(default):
            default = default(model, cavity)
        if kind == "number":
            out[key] = _number(section, key, "params", default, minimum)
        elif kind == "int":
            out[key] = _integer(section, key, "params", default, minimum)
        elif kind == "bool":
            out[key] = _boolean(section, key, "params", default)
        elif kind == "number_list":
            out[key] = _number_list(section, key, "params", minimum)
    return out


def parse_config(document: dict, command: str) -> RunConfig:
    """Validate a parsed JSON object against `command` and build a RunConfig."""
    if command not in COMMANDS:
        raise ConfigInvalidError(f"unknown command {command!r}")
    root = _require_mapping(document, "config")
    _check_keys(root, ("command", "model", *_SECTIONS, "grids", "params"), "config")
    declared = root.get("command")
    if declared is not None and declared != command:
        raise ConfigInvalidError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )

    if "model" not in root:
        raise ConfigInvalidError("model section is required")
    model_sec = _require_mapping(root["model"], "model")
    _check_keys(model_sec, ("t1", "t2"), "model")
    try:
        model = SshParams(
            _number(model_sec, "t1", "model"), _number(model_sec, "t2", "model")
        )
    except ValueError as exc:
        raise ConfigInvalidError(f"model: {exc}") from exc

    spec = COMMANDS[command]
    sections = dict.fromkeys(_SECTIONS)  # None where the command does not read it
    for name, (record, defaults) in _SECTIONS.items():
        section = _require_mapping(root.get(name, {}), name)
        _check_keys(section, defaults, name)
        if name not in spec.reads:
            continue
        try:
            sections[name] = record(**{
                key: _number(section, key, name, default(model) if callable(default) else default)
                for key, default in defaults.items()
            })
        except ValueError as exc:
            raise ConfigInvalidError(f"{name}: {exc}") from exc

    grids_sec = _require_mapping(root.get("grids", {}), "grids")
    _check_keys(grids_sec, ("n_k", "n_k2d", "omega", "q"), "grids")
    n_k = _integer(grids_sec, "n_k", "grids", DEFAULT_NK, (">=", MIN_NK))
    n_k2d = _integer(grids_sec, "n_k2d", "grids", DEFAULT_NK2D, (">=", MIN_NK))
    omega_grid = _grid(grids_sec, "omega", "grids")
    q_grid = _grid(grids_sec, "q", "grids")

    for key, grid in (("omega", omega_grid), ("q", q_grid)):
        if key in spec.reads and grid is None:
            raise ConfigInvalidError(f"command {command!r} requires grids.{key}")
    if command == "keldysh" and omega_grid.start <= 0:
        raise ConfigInvalidError(
            "keldysh requires a strictly positive frequency grid (occupation "
            f"is thermal), got start = {omega_grid.start}"
        )

    params = _parse_params(_require_mapping(root.get("params", {}), "params"),
                           spec.params, model, sections["cavity"])

    sides = {"grids.n_k": n_k + 1, "grids.n_k2d": n_k2d + 1,
             "grids.omega.count": omega_grid.count if omega_grid else None,
             "grids.q.count": q_grid.count if q_grid else None,
             "params.n_points": params.get("n_points"),
             "params.n_max": params["n_max"] + 1 if "n_max" in params else None}
    for axes in spec.arrays:
        shape = [sides[key] for key in axes]
        nbytes = 16 * math.prod(shape)
        if nbytes > MAX_ARRAY_BYTES:
            cells = " x ".join(map(str, shape)) + ("-cell" if len(shape) == 1 else "")
            raise ConfigInvalidError(
                f"{' x '.join(dict.fromkeys(axes))} needs a {cells} complex array "
                f"({nbytes / 2**30:.3g} GiB), over the {MAX_ARRAY_BYTES >> 30} GiB limit"
            )
    if command == "kerr-scan":
        ratios, rungs = len(params["r_values"]), params["n_max"] + 1
        nodes = ratios * rungs * (n_k + 1)
        if nodes > MAX_LADDER_NODES:
            raise ConfigInvalidError(
                f"params.n_max asks for {ratios} ratio(s) x {rungs} rungs x {n_k + 1} zone "
                f"nodes = {nodes:.3g} ladder node-rungs, over the budget of "
                f"{MAX_LADDER_NODES:.3g} (grids.n_k and params.r_values count too)"
            )

    return RunConfig(
        command=command,
        model=model,
        **sections,
        n_k=n_k,
        n_k2d=n_k2d,
        omega_grid=omega_grid,
        q_grid=q_grid,
        params=params,
        raw=root,
    )


def load_config(path: str, command: str) -> RunConfig:
    """Read, parse, and validate the JSON config file at `path`."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(document, command)
