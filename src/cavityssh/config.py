"""Run configuration: one JSON document drives one batch command.

The document mirrors the domain types section by section (model, cavity,
kernel, thermal, grids, params). Validation is strict: unknown keys anywhere
in the tree are rejected, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .cavity import CavityParams
from .errors import ConfigInvalidError
from .keldysh import ThermalState
from .lattice import SshParams
from .numerics import DEFAULT_NK, FrequencyGrid
from .vertex import DEFAULT_NK2D, InteractionKernel

COMMANDS = (
    "bands",
    "zak",
    "self-energy",
    "spectrum",
    "hopfield",
    "kerr-scan",
    "vertex",
    "saddle",
    "biphoton",
    "schmidt-scan",
    "dressed-bands",
    "keldysh",
)

# commands that require a frequency grid / a momentum grid
_NEEDS_OMEGA = {
    "self-energy", "spectrum", "vertex", "saddle", "biphoton",
    "schmidt-scan", "keldysh",
}
_NEEDS_Q = {"spectrum", "hopfield", "keldysh"}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one command invocation."""

    command: str
    model: SshParams
    cavity: CavityParams
    kernel: InteractionKernel
    thermal: ThermalState
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


def _number(mapping: dict, key: str, where: str, default=None) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigInvalidError(f"{where}.{key} is required")
        return float(default)
    return _finite(mapping[key], f"{where}.{key}")


def _finite(value, where: str) -> float:
    """A JSON number as a float; bools, strings and NaN/Infinity are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalidError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigInvalidError(f"{where} must be a finite number, got {value!r}")
    return number


def _integer(mapping: dict, key: str, where: str, default=None) -> int:
    if key not in mapping:
        if default is None:
            raise ConfigInvalidError(f"{where}.{key} is required")
        return int(default)
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalidError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _boolean(mapping: dict, key: str, where: str, default: bool) -> bool:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise ConfigInvalidError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _number_list(mapping: dict, key: str, where: str) -> list[float]:
    if key not in mapping:
        raise ConfigInvalidError(f"{where}.{key} is required")
    value = mapping[key]
    if not isinstance(value, list) or not value:
        raise ConfigInvalidError(f"{where}.{key} must be a nonempty array")
    return [_finite(entry, f"{where}.{key}[{i}]") for i, entry in enumerate(value)]


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


# per-command params schema: key -> (kind, default); default None means required
_PARAM_SCHEMAS: dict[str, dict[str, tuple[str, Any]]] = {
    "bands": {"n_points": ("int", 256)},
    "zak": {},
    "self-energy": {},
    "spectrum": {},
    "hopfield": {"g": ("number", "cavity.g"), "delta_pi": ("number", "gap")},
    "kerr-scan": {"r_values": ("number_list", None), "n_max": ("int", 5)},
    "vertex": {},
    "saddle": {},
    "biphoton": {"omega0": ("number", None), "sigma": ("number", None)},
    "schmidt-scan": {
        "omega0": ("number", None),
        "sigma": ("number", None),
        "zeta_values": ("number_list", None),
    },
    "dressed-bands": {
        "n_points": ("int", 256),
        "onshell": ("bool", True),
        "omega": ("number", 0.0),
    },
    "keldysh": {},
}


def _parse_params(section: dict, command: str, model: SshParams, cavity: CavityParams) -> dict:
    schema = _PARAM_SCHEMAS[command]
    _check_keys(section, schema, "params")
    out: dict[str, Any] = {}
    for key, (kind, default) in schema.items():
        if default == "cavity.g":
            default = cavity.g
        elif default == "gap":
            default = 2.0 * abs(model.t1 - model.t2)
        if kind == "number":
            out[key] = _number(section, key, "params", default)
        elif kind == "int":
            out[key] = _integer(section, key, "params", default)
        elif kind == "bool":
            out[key] = _boolean(section, key, "params", default)
        elif kind == "number_list":
            out[key] = _number_list(section, key, "params")
    return out


def parse_config(document: dict, command: str) -> RunConfig:
    """Validate a parsed JSON object against `command` and build a RunConfig."""
    if command not in COMMANDS:
        raise ConfigInvalidError(f"unknown command {command!r}")
    root = _require_mapping(document, "config")
    _check_keys(
        root, ("command", "model", "cavity", "kernel", "thermal", "grids", "params"),
        "config",
    )
    declared = root.get("command")
    if declared is not None and declared != command:
        raise ConfigInvalidError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )

    model_sec = _require_mapping(root.get("model", None), "model") if "model" in root else None
    if model_sec is None:
        raise ConfigInvalidError("model section is required")
    _check_keys(model_sec, ("t1", "t2"), "model")
    try:
        model = SshParams(
            _number(model_sec, "t1", "model"), _number(model_sec, "t2", "model")
        )
    except ValueError as exc:
        raise ConfigInvalidError(f"model: {exc}") from exc

    cavity_sec = _require_mapping(root.get("cavity", {}), "cavity")
    _check_keys(cavity_sec, ("omega_c", "mass_beta", "g", "eta"), "cavity")
    try:
        cavity = CavityParams(
            omega_c=_number(cavity_sec, "omega_c", "cavity",
                            2.0 * abs(model.t1 - model.t2)),
            mass_beta=_number(cavity_sec, "mass_beta", "cavity", 0.5),
            g=_number(cavity_sec, "g", "cavity", 1.0),
            eta=_number(cavity_sec, "eta", "cavity", 0.01),
        )
    except ValueError as exc:
        raise ConfigInvalidError(f"cavity: {exc}") from exc

    kernel_sec = _require_mapping(root.get("kernel", {}), "kernel")
    _check_keys(kernel_sec, ("v0", "zeta"), "kernel")
    try:
        kernel = InteractionKernel(
            v0=_number(kernel_sec, "v0", "kernel", 1.0),
            zeta=_number(kernel_sec, "zeta", "kernel", 0.0),
        )
    except ValueError as exc:
        raise ConfigInvalidError(f"kernel: {exc}") from exc

    thermal_sec = _require_mapping(root.get("thermal", {}), "thermal")
    _check_keys(thermal_sec, ("temperature",), "thermal")
    try:
        thermal = ThermalState(_number(thermal_sec, "temperature", "thermal", 0.0))
    except ValueError as exc:
        raise ConfigInvalidError(f"thermal: {exc}") from exc

    grids_sec = _require_mapping(root.get("grids", {}), "grids")
    _check_keys(grids_sec, ("n_k", "n_k2d", "omega", "q"), "grids")
    n_k = _integer(grids_sec, "n_k", "grids", DEFAULT_NK)
    n_k2d = _integer(grids_sec, "n_k2d", "grids", DEFAULT_NK2D)
    omega_grid = _grid(grids_sec, "omega", "grids")
    q_grid = _grid(grids_sec, "q", "grids")

    if command in _NEEDS_OMEGA and omega_grid is None:
        raise ConfigInvalidError(f"command {command!r} requires grids.omega")
    if command in _NEEDS_Q and q_grid is None:
        raise ConfigInvalidError(f"command {command!r} requires grids.q")
    if command == "keldysh" and omega_grid.start <= 0:
        raise ConfigInvalidError(
            "keldysh requires a strictly positive frequency grid (occupation "
            f"is thermal), got start = {omega_grid.start}"
        )

    params = _parse_params(_require_mapping(root.get("params", {}), "params"),
                           command, model, cavity)

    return RunConfig(
        command=command,
        model=model,
        cavity=cavity,
        kernel=kernel,
        thermal=thermal,
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
