"""Run configuration: one JSON document drives one batch command.

The document mirrors the domain types section by section (model, cavity,
kernel, thermal, grids, params). Validation is strict: unknown keys anywhere
in the tree are rejected, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Any, NamedTuple

from .errors import ConfigInvalidError
from .params import (
    MIN_NK, CavityParams, FrequencyGrid, InteractionKernel, SshParams, ThermalState,
)


class Command(NamedTuple):
    """One CLI command: its help line, the optional sections (cavity, kernel,
    thermal) and grids (omega, q) it reads, its params schema, and `arrays`.
    Every section of a config is read through a schema of this shape: key ->
    (kind, default, minimum), kind number, int, bool, number_list or grid. A
    None default means required; a callable one is derived from the parsed
    (model, cavity). A minimum (">=", m) or (">", m) bounds the value, or each
    entry of a number_list, from below. `arrays` lists the complex arrays the
    command allocates, each as the size keys of its axes: a zone of n_k + 1
    cells (grids.n_k), the zone-squared kernel (grids.n_k2d twice), a value per
    omega or per q, an omega x omega or omega x q map, a k sweep
    (params.n_points), the Kerr ladder of n_max + 1 rungs (params.n_max)."""

    help: str
    reads: tuple[str, ...]
    params: dict[str, tuple[str, Any, tuple[str, float] | None]]
    arrays: tuple[tuple[str, ...], ...]


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

_MODEL = {"t1": ("number", None, None), "t2": ("number", None, None)}

# the optional physics sections: record type and schema. Every section present
# is key-checked, but only those a command reads are built, so the others'
# defaults cannot fail
_SECTIONS = {
    "cavity": (CavityParams, {"omega_c": ("number", lambda model, cavity: model.edge_gap, None),
                              "mass_beta": ("number", 0.5, None), "g": ("number", 1.0, None),
                              "eta": ("number", 0.01, None)}),
    "kernel": (InteractionKernel, {"v0": ("number", 1.0, None), "zeta": ("number", 0.0, None)}),
    "thermal": (ThermalState, {"temperature": ("number", 0.0, None)}),
}

# an absent frequency or momentum grid reads as None; a command that reads it
# checks that it is there
_GRID = {"start": ("number", None, None), "stop": ("number", None, None),
         "count": ("int", None, None)}
_GRIDS = {"n_k": ("int", DEFAULT_NK, (">=", MIN_NK)),
          "n_k2d": ("int", DEFAULT_NK2D, (">=", MIN_NK)),
          "omega": ("grid", lambda model, cavity: None, None),
          "q": ("grid", lambda model, cavity: None, None)}


class RunConfig(NamedTuple):
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


def _mapping(value, keys, where: str) -> dict:
    """`value` if it is an object whose keys are all among `keys`."""
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{where} must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigInvalidError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return value


def _section(record, schema: dict, obj, where: str, model=None, cavity=None):
    """`record` built from the object `obj`, each field read through `schema`
    in its order; the record's own ValueError is reported under `where`."""
    section = _mapping(obj, schema, where)
    fields: dict[str, Any] = {}
    for key, (kind, default, minimum) in schema.items():
        name = f"{where}.{key}"
        if key not in section:
            if default is None:
                raise ConfigInvalidError(f"{name} is required")
            fields[key] = default(model, cavity) if callable(default) else default
            continue
        value = section[key]
        if kind == "number":
            fields[key] = _finite(value, name, minimum)
        elif kind == "grid":
            fields[key] = _section(FrequencyGrid, _GRID, value, name)
        elif kind == "number_list":
            if not isinstance(value, list) or not value:
                raise ConfigInvalidError(f"{name} must be a nonempty array")
            fields[key] = [_finite(item, f"{name}[{i}]", minimum) for i, item in enumerate(value)]
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ConfigInvalidError(f"{name} must be true or false, got {value!r}")
            fields[key] = value
        elif isinstance(value, bool) or not isinstance(value, int):  # kind "int"
            raise ConfigInvalidError(f"{name} must be an integer, got {value!r}")
        else:
            fields[key] = _bounded(value, minimum, name)
    try:
        return record(**fields)
    except ValueError as exc:
        raise ConfigInvalidError(f"{where}: {exc}") from exc


def _bounded(value, minimum, where: str):
    """`value` if it meets `minimum`, (">=", m) or (">", m); None bounds nothing."""
    if minimum is not None:
        op, bound = minimum
        if value < bound or (op == ">" and value == bound):
            raise ConfigInvalidError(f"{where} must be {op} {bound}, got {value}")
    return value


def _real(value) -> float:
    """`value` as a float; an integer beyond the float range is inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite(value, where: str, minimum) -> float:
    """A JSON number as a float; bools, strings, NaN/Infinity and values below
    `minimum` are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalidError(f"{where} must be a number, got {value!r}")
    number = _real(value)
    if not math.isfinite(number):
        raise ConfigInvalidError(f"{where} must be a finite number, got {value!r}")
    return _bounded(number, minimum, where)


def parse_config(document: dict, command: str) -> RunConfig:
    """Validate a parsed JSON object against `command` and build a RunConfig."""
    if command not in COMMANDS:
        raise ConfigInvalidError(f"unknown command {command!r}")
    root = _mapping(document, ("command", "model", *_SECTIONS, "grids", "params"), "config")
    declared = root.get("command")
    if declared is not None and declared != command:
        raise ConfigInvalidError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )

    if "model" not in root:
        raise ConfigInvalidError("model section is required")
    model = _section(SshParams, _MODEL, root["model"], "model")

    spec = COMMANDS[command]
    sections = dict.fromkeys(_SECTIONS)  # None where the command does not read it
    for name, (record, schema) in _SECTIONS.items():
        section = _mapping(root.get(name, {}), schema, name)
        if name in spec.reads:
            sections[name] = _section(record, schema, section, name, model)

    grids = _section(dict, _GRIDS, root.get("grids", {}), "grids")
    n_k, n_k2d, omega_grid, q_grid = grids.values()
    for key in ("omega", "q"):
        if key in spec.reads and grids[key] is None:
            raise ConfigInvalidError(f"command {command!r} requires grids.{key}")
    if command == "keldysh" and omega_grid.start <= 0:
        raise ConfigInvalidError(
            "keldysh requires a strictly positive frequency grid (occupation "
            f"is thermal), got start = {omega_grid.start}"
        )

    params = _section(dict, spec.params, root.get("params", {}), "params", model,
                      sections["cavity"])

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
                f"({_real(nbytes) / 2**30:.3g} GiB), over the {MAX_ARRAY_BYTES >> 30} GiB limit"
            )
    if command == "kerr-scan":
        ratios, rungs = len(params["r_values"]), params["n_max"] + 1
        nodes = ratios * rungs * (n_k + 1)
        if nodes > MAX_LADDER_NODES:
            raise ConfigInvalidError(
                f"params.n_max asks for {ratios} ratio(s) x {rungs} rungs x {n_k + 1} zone "
                f"nodes = {_real(nodes):.3g} ladder node-rungs, over the budget of "
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict. A repeated key is an
    error: json.loads would keep its last value and never check the others."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, _ in pairs if counts[key] > 1)
        raise ConfigInvalidError(f"key {repeated!r} appears more than once in one object")
    return obj


def load_config(path: str, command: str) -> RunConfig:
    """Read, parse, and validate the JSON config file at `path`."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, too many digits
        raise ConfigInvalidError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(document, command)
