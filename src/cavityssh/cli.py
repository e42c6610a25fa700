"""Batch command-line front end.

One invocation = one command + one JSON config + one output directory.
Handlers compute everything first and only then write, so a failed run never
leaves half-written data files; the manifest is emitted exactly once either
way, carrying checksums on success and a machine-readable error record on
failure. Exit codes: 0 ok, 2 invalid config, 3 computation failed, 4 I/O.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .biphoton import apply_vertex, edge_momentum_map, entropy_scan, input_state
from .cavity import hopfield_branches, self_energy_spectrum, spectral_map
from .config import COMMANDS, RunConfig, load_config
from .dressing import dressed_band_sweep
from .errors import BelowThresholdError, CavitySshError, ConfigInvalidError
from .keldysh import keldysh_map
from .kerr import kerr_scan
from .lattice import band_edge_params, band_energies, band_gap, bloch_phase, dipole, zak_phase
from .output import write_csv, write_manifest, write_matrix_csv
from .vertex import gamma4_direct_grid, gamma4_stationary

_BUBBLE_NOTE = (
    "self-energy uses the configured cavity g; g=1 is the bare-bubble "
    "normalization of the dressed spectra"
)
_KERNEL_NOTE = (
    "stationary-phase Gaussian kernel in q*(omega) coordinates; q* clamps "
    "to 0 below the band edge"
)


def _grid_rows(omega_grid, q_grid, *columns):
    """Rows (omega, q, *values), omega outer and q inner, from (n_omega, n_q)
    arrays; the omega and q cells share one float object per grid point."""
    qs = q_grid.values.tolist()
    rows = []
    for omega, *values in zip(omega_grid.values.tolist(),
                              *(column.tolist() for column in columns)):
        rows.extend(zip(itertools.repeat(omega), qs, *values))
    return rows


def _run_bands(cfg: RunConfig, threads: int, log):
    ks = np.linspace(-np.pi, np.pi, cfg.params["n_points"])
    rows = []
    for k in ks:
        k = float(k)
        e_v, e_c = band_energies(k, cfg.model)
        rows.append(
            (k, float(band_gap(k, cfg.model)), float(e_v), float(e_c),
             float(dipole(k, cfg.model)), float(bloch_phase(k, cfg.model)))
        )
    emissions = [("csv", "bands.csv", "k,gap,eps_v,eps_c,mu,theta", rows)]
    return emissions, {"completed": True}, {}


def _run_zak(cfg: RunConfig, threads: int, log):
    phase = zak_phase(cfg.model, n_k=cfg.n_k)
    rows = [(cfg.model.t1, cfg.model.t2, phase)]
    return [("csv", "zak.csv", "t1,t2,zak", rows)], {"completed": True}, {}


def _run_self_energy(cfg: RunConfig, threads: int, log):
    spectrum = self_energy_spectrum(
        cfg.omega_grid, cfg.model, cfg.cavity, cfg.n_k, threads=threads
    )
    rows = [
        (float(w), s.real, s.imag)
        for w, s in zip(cfg.omega_grid.values, spectrum.samples)
    ]
    emissions = [("csv", "self_energy.csv", "omega,ReSigma,ImSigma", rows)]
    return emissions, {"completed": True}, {"normalization": _BUBBLE_NOTE}


def _run_spectrum(cfg: RunConfig, threads: int, log):
    log(f"spectral map {cfg.omega_grid.count} x {cfg.q_grid.count} at n_k={cfg.n_k}")
    smap = spectral_map(
        cfg.omega_grid, cfg.q_grid, cfg.model, cfg.cavity, cfg.n_k, threads=threads
    )
    rows = _grid_rows(cfg.omega_grid, cfg.q_grid, smap.values)
    emissions = [("csv", "spectrum.csv", "omega,q,A", rows)]
    return emissions, {"completed": True}, {"normalization": _BUBBLE_NOTE}


def _run_hopfield(cfg: RunConfig, threads: int, log):
    g = cfg.params["g"]
    delta_pi = cfg.params["delta_pi"]
    rows = []
    for q in cfg.q_grid.values:
        lower, upper = hopfield_branches(float(q), g, cfg.cavity.mass_beta, delta_pi)
        rows.append((float(q), float(lower), float(upper)))
    emissions = [("csv", "hopfield.csv", "q,lower,upper", rows)]
    meta = {"reference": "two-level branches, splitting 2g at the q=0 resonance"}
    return emissions, {"completed": True}, meta


def _run_kerr_scan(cfg: RunConfig, threads: int, log):
    scan = kerr_scan(
        cfg.params["r_values"], cfg.model, cfg.cavity,
        n_k=cfg.n_k, n_max=cfg.params["n_max"],
    )
    nan = float("nan")
    rows = []
    for row in scan:
        if row.result is None:
            rows.append((row.r, nan, nan, nan, nan, nan, nan, False))
        else:
            res = row.result
            rows.append(
                (row.r, res.omega0, res.u.real, res.u.imag,
                 res.uprime.real, res.uprime.imag, res.fit_residual, row.converged)
            )
    emissions = [
        ("csv", "kerr.csv",
         "r,omega0,ReU,ImU,ReUprime,ImUprime,residual,converged", rows)
    ]
    convergence = {
        "completed": True,
        "all_rows_converged": all(row.converged for row in scan),
    }
    meta = {"protocol": "omega_c re-pinned to the moving band edge 2|t1-t2| per ratio"}
    return emissions, convergence, meta


def _run_vertex(cfg: RunConfig, threads: int, log):
    omegas = cfg.omega_grid.values
    log(f"direct vertex on {omegas.size}^2 frequencies at n_k2d={cfg.n_k2d}")
    grid = gamma4_direct_grid(omegas, cfg.model, cfg.cavity, cfg.kernel, cfg.n_k2d)
    rows = []
    for i, w1 in enumerate(omegas):
        for j, w2 in enumerate(omegas):
            rows.append((float(w1), float(w2), grid[i, j].real, grid[i, j].imag, "direct"))
    emissions = [("csv", "gamma4.csv", "omega1,omega2,ReG4,ImG4,method", rows)]
    meta = {"normalization": "bare-bubble vertex, no coupling prefactor"}
    return emissions, {"completed": True}, meta


def _run_saddle(cfg: RunConfig, threads: int, log):
    edge = band_edge_params(cfg.model)
    omegas = cfg.omega_grid.values
    nan = float("nan")
    below = 0
    rows = []
    for w1 in omegas:
        for w2 in omegas:
            try:
                value = gamma4_stationary(
                    float(w1), float(w2), cfg.kernel, edge, cfg.cavity.eta
                )
                rows.append((float(w1), float(w2), value.real, value.imag, "stationary"))
            except BelowThresholdError:
                below += 1
                rows.append((float(w1), float(w2), nan, nan, "stationary"))
    emissions = [("csv", "gamma4.csv", "omega1,omega2,ReG4,ImG4,method", rows)]
    convergence = {"completed": True, "all_above_threshold": below == 0}
    meta = {
        "normalization": "bare-bubble vertex, no coupling prefactor",
        "below_threshold_points": below,
    }
    return emissions, convergence, meta


def _biphoton_kernel(cfg: RunConfig, edge):
    qstar = edge_momentum_map(cfg.omega_grid.values, edge)
    diff = qstar[:, None] - qstar[None, :]
    return cfg.kernel.v0 * np.exp(-cfg.kernel.zeta * diff * diff)


_SCHMIDT_HEADER = "zeta,S_nats,S_bits,lambda0,lambda1,lambda2,lambda3,ratio_fit,fit_r2"


def _scan_rows(rows):
    return [
        (row.zeta, row.entropy_nats, row.entropy_bits, *row.leading,
         row.ratio_fit, row.fit_r2)
        for row in rows
    ]


def _run_biphoton(cfg: RunConfig, threads: int, log):
    edge = band_edge_params(cfg.model)
    grid = cfg.omega_grid
    pump = input_state(grid, cfg.params["omega0"], cfg.params["sigma"])
    out = apply_vertex(pump, _biphoton_kernel(cfg, edge))
    describe = f"omega grid start={grid.start} stop={grid.stop} count={grid.count}"
    scan = entropy_scan(
        [cfg.kernel.zeta], grid, cfg.params["omega0"], cfg.params["sigma"],
        edge, v0=cfg.kernel.v0,
    )
    emissions = [
        ("matrix", "biphoton_in.csv", f"|psi_in|^2 on {describe}",
         np.abs(pump.amplitude) ** 2),
        ("matrix", "biphoton_out.csv",
         f"|psi_out|^2 at zeta={format(cfg.kernel.zeta, '.17g')} on {describe}",
         np.abs(out.amplitude) ** 2),
        ("csv", "schmidt.csv", _SCHMIDT_HEADER, _scan_rows(scan)),
    ]
    return emissions, {"completed": True}, {"kernel": _KERNEL_NOTE}


def _run_schmidt_scan(cfg: RunConfig, threads: int, log):
    edge = band_edge_params(cfg.model)
    scan = entropy_scan(
        cfg.params["zeta_values"], cfg.omega_grid, cfg.params["omega0"],
        cfg.params["sigma"], edge, v0=cfg.kernel.v0,
    )
    emissions = [("csv", "schmidt_scan.csv", _SCHMIDT_HEADER, _scan_rows(scan))]
    return emissions, {"completed": True}, {"kernel": _KERNEL_NOTE}


def _run_dressed_bands(cfg: RunConfig, threads: int, log):
    sweep = dressed_band_sweep(
        np.linspace(-np.pi, np.pi, cfg.params["n_points"]), cfg.model, cfg.cavity,
        onshell=cfg.params["onshell"], omega=cfg.params["omega"],
    )
    columns = (sweep.k, sweep.omega, sweep.sigma_cv.real, sweep.sigma_cv.imag,
               sweep.e_plus, sweep.e_minus)
    rows = list(zip(*(column.tolist() for column in columns)))
    emissions = [("csv", "dressed_bands.csv", "k,omega,ReScv,ImScv,Eplus,Eminus", rows)]
    meta = {"mu_factorization": "mu(k,q) = mu(k); photon momentum enters only "
                                "through the cavity branch"}
    return emissions, {"completed": True}, meta


def _run_keldysh(cfg: RunConfig, threads: int, log):
    kmap = keldysh_map(
        cfg.omega_grid, cfg.q_grid, cfg.model, cfg.cavity, cfg.thermal, cfg.n_k
    )
    rows = _grid_rows(
        cfg.omega_grid, cfg.q_grid, kmap.g_keldysh.real, kmap.g_keldysh.imag,
        kmap.spectral, kmap.occupation,
    )
    emissions = [("csv", "keldysh.csv", "omega,q,ReGK,ImGK,A,n", rows)]
    return emissions, {"completed": True}, {"normalization": _BUBBLE_NOTE}


_HANDLERS = {
    "bands": _run_bands,
    "zak": _run_zak,
    "self-energy": _run_self_energy,
    "spectrum": _run_spectrum,
    "hopfield": _run_hopfield,
    "kerr-scan": _run_kerr_scan,
    "vertex": _run_vertex,
    "saddle": _run_saddle,
    "biphoton": _run_biphoton,
    "schmidt-scan": _run_schmidt_scan,
    "dressed-bands": _run_dressed_bands,
    "keldysh": _run_keldysh,
}

_HELP = {
    "bands": "band energies, gap, dipole, and Bloch phase across the zone",
    "zak": "Wilson-loop geometric phase of the occupied band",
    "self-energy": "retarded photon self-energy on a frequency grid",
    "spectrum": "dressed cavity spectral map A(omega, q)",
    "hopfield": "two-level reference polariton branches",
    "kerr-scan": "photon nonlinearity fit vs hopping ratio",
    "vertex": "direct four-photon vertex on a frequency square",
    "saddle": "stationary-phase four-photon vertex on a frequency square",
    "biphoton": "two-photon input/output states and their Schmidt spectrum",
    "schmidt-scan": "Schmidt entropy vs interaction range",
    "dressed-bands": "cavity-dressed electronic bands and interband self-energy",
    "keldysh": "thermal Green functions and mode occupation",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityssh",
        description="Batch datasets for a cavity-coupled dimerized chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument(
        "--threads", type=int, default=1,
        help="worker threads for grid sweeps; never changes results",
    )
    common.add_argument("--verbose", action="store_true", help="progress on stderr")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        subparsers.add_parser(name, parents=[common], help=_HELP[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def log(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    try:
        cfg = load_config(args.config, args.command)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4

    def emit_manifest(names, convergence, metadata, error=None):
        write_manifest(
            args.out, args.command, __version__, cfg.raw, names,
            wall_clock=round(time.monotonic() - started, 6),
            convergence=convergence, metadata=metadata, error=error,
        )

    try:
        emissions, convergence, metadata = _HANDLERS[args.command](cfg, args.threads, log)
    except Exception as exc:
        # library errors are expected; anything else (MemoryError from an
        # oversized grid, say) still ends as exit 3 with a manifest
        if isinstance(exc, CavitySshError):
            print(f"computation failed: {exc}", file=sys.stderr)
        else:
            print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        try:
            emit_manifest(
                [], {"completed": False}, {},
                error={"type": type(exc).__name__, "message": str(exc)},
            )
        except OSError:
            return 4
        return 3

    try:
        written = []
        for emission in emissions:
            kind, name = emission[0], emission[1]
            path = os.path.join(args.out, name)
            if kind == "csv":
                write_csv(path, emission[2], emission[3])
            else:
                write_matrix_csv(path, emission[2], emission[3])
            written.append(name)
            log(f"wrote {path}")
        emit_manifest(written, convergence, metadata)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
