"""The command handlers: each turns a validated RunConfig into its CSV columns.

Most map the config onto one library call; `bands` masks the gapless points
of four lattice calls, `saddle` evaluates the vertex on the square of its
grid at or above the band edge, `biphoton` is a one-zeta scan beside its two
densities, and `kerr-scan` turns the scan's rows into columns. `biphoton`
takes the scan first, then |psi_out|^2, then |psi_in|^2, the order in which
its child peaks lowest; its files keep their order. A handler returns
(emissions, flags, metadata): each emission is a file name, its first line
and its columns for `output.write_csv`; the flags are its own convergence
flags, beside which `cli` states completion. Importing this module loads
numpy and every numerical module, so `cli.main` imports it only once the
config is valid.
"""

from __future__ import annotations

import numpy as np

from .biphoton import entropy_scan, input_state, output_state
from .cavity import hopfield_branches, self_energy_spectrum, spectral_map
from .config import RunConfig
from .dressing import dressed_band_sweep
from .keldysh import keldysh_map
from .kerr import KerrResult, kerr_scan
from .lattice import (
    GAPLESS_FLOOR, band_edge_params, band_energies, band_gap, bloch_phase, dipole, zak_phase,
)
from .output import CELL
from .vertex import gamma4_direct_grid, gamma4_stationary

_BUBBLE_NOTE = (
    "self-energy uses the configured cavity g; g=1 is the bare-bubble "
    "normalization of the dressed spectra"
)
_KERNEL_NOTE = (
    "stationary-phase Gaussian kernel in q*(omega) coordinates; q* clamps "
    "to 0 below the band edge"
)


def _grid_columns(outer, inner):
    """The coordinate columns of an (outer, inner) map read row by row, to sit
    beside the map's .ravel(): outer repeated, inner cycled, as text columns.
    Each distinct coordinate is formatted once, as a CELL."""
    outer_text = [CELL % x for x in outer.tolist()]
    inner_text = [CELL % x for x in inner.tolist()]
    return [text for text in outer_text for _ in inner_text], inner_text * len(outer_text)


def _run_bands(cfg: RunConfig, log):
    ks = np.linspace(-np.pi, np.pi, cfg.params["n_points"])
    gaps = band_gap(ks, cfg.model)
    e_v, e_c = band_energies(ks, cfg.model)
    # the dipole and Bloch phase need an open gap; at t1 = t2 it closes at k = pi
    gapped = gaps >= GAPLESS_FLOOR
    mu = np.full(ks.size, np.nan)
    theta = np.full(ks.size, np.nan)
    mu[gapped] = dipole(ks[gapped], cfg.model)
    theta[gapped] = bloch_phase(ks[gapped], cfg.model)
    emissions = [("bands.csv", "k,gap,eps_v,eps_c,mu,theta", (ks, gaps, e_v, e_c, mu, theta))]
    return emissions, {}, {"gapless_points": int(np.count_nonzero(~gapped))}


def _run_zak(cfg: RunConfig, log):
    phase = zak_phase(cfg.model, n_k=cfg.n_k)
    columns = ([cfg.model.t1], [cfg.model.t2], [phase])
    return [("zak.csv", "t1,t2,zak", columns)], {}, {}


def _run_self_energy(cfg: RunConfig, log):
    sigma = self_energy_spectrum(cfg.omega_grid, cfg.model, cfg.cavity, cfg.n_k)
    columns = (cfg.omega_grid.values, sigma.real, sigma.imag)
    emissions = [("self_energy.csv", "omega,ReSigma,ImSigma", columns)]
    return emissions, {}, {"normalization": _BUBBLE_NOTE}


def _run_spectrum(cfg: RunConfig, log):
    log(f"spectral map {cfg.omega_grid.count} x {cfg.q_grid.count} at n_k={cfg.n_k}")
    smap = spectral_map(cfg.omega_grid, cfg.q_grid, cfg.model, cfg.cavity, cfg.n_k)
    columns = (*_grid_columns(cfg.omega_grid.values, cfg.q_grid.values), smap.ravel())
    emissions = [("spectrum.csv", "omega,q,A", columns)]
    return emissions, {}, {"normalization": _BUBBLE_NOTE}


def _run_hopfield(cfg: RunConfig, log):
    qs = cfg.q_grid.values
    lower, upper = hopfield_branches(
        qs, cfg.params["g"], cfg.cavity.mass_beta, cfg.params["delta_pi"]
    )
    emissions = [("hopfield.csv", "q,lower,upper", (qs, lower, upper))]
    meta = {"reference": "two-level branches, splitting 2g at the q=0 resonance"}
    return emissions, {}, meta


def _run_kerr_scan(cfg: RunConfig, log):
    scan = kerr_scan(
        cfg.params["r_values"], cfg.model, cfg.cavity,
        n_k=cfg.n_k, n_max=cfg.params["n_max"],
    )
    nan = float("nan")
    # an unconverged row prints nan in every fitted column
    unfitted = KerrResult(nan, complex(nan, nan), complex(nan, nan), np.empty(0), nan)
    fits = [row.result or unfitted for row in scan]
    u = np.array([fit.u for fit in fits])
    uprime = np.array([fit.uprime for fit in fits])
    columns = ([row.r for row in scan], [fit.omega0 for fit in fits], u.real, u.imag,
               uprime.real, uprime.imag, [fit.fit_residual for fit in fits],
               [row.converged for row in scan])
    emissions = [("kerr.csv", "r,omega0,ReU,ImU,ReUprime,ImUprime,residual,converged", columns)]
    meta = {
        "protocol": "omega_c re-pinned to the moving band edge 2|t1-t2| per ratio",
        "unconverged_rows": [{"r": row.r, "iterations": row.divergence[0],
                              "residual": row.divergence[1]}
                             for row in scan if not row.converged],
    }
    return emissions, {"all_rows_converged": all(row.converged for row in scan)}, meta


def _run_vertex(cfg: RunConfig, log):
    omegas = cfg.omega_grid.values
    log(f"direct vertex on {omegas.size}^2 frequencies at n_k2d={cfg.n_k2d}")
    grid = gamma4_direct_grid(omegas, cfg.model, cfg.cavity, cfg.kernel, cfg.n_k2d)
    columns = (*_grid_columns(omegas, omegas), grid.real.ravel(), grid.imag.ravel(),
               ["direct"] * grid.size)
    emissions = [("gamma4.csv", "omega1,omega2,ReG4,ImG4,method", columns)]
    meta = {"normalization": "bare-bubble vertex, no coupling prefactor"}
    return emissions, {}, meta


def _run_saddle(cfg: RunConfig, log):
    edge = band_edge_params(cfg.model)
    omegas = cfg.omega_grid.values
    nan = float("nan")
    values = np.full((omegas.size, omegas.size), complex(nan, nan))
    # the grid ascends, so the cells at or above the edge form one square block
    first = int(np.searchsorted(omegas, edge.delta0))
    above = omegas[first:]
    values[first:, first:] = gamma4_stationary(above[:, None], above, cfg.kernel, edge,
                                               cfg.cavity.eta)
    below = values.size - above.size * above.size
    columns = (*_grid_columns(omegas, omegas), values.real.ravel(), values.imag.ravel(),
               ["stationary"] * values.size)
    emissions = [("gamma4.csv", "omega1,omega2,ReG4,ImG4,method", columns)]
    meta = {
        "normalization": "bare-bubble vertex, no coupling prefactor",
        "below_threshold_points": below,
    }
    return emissions, {"all_above_threshold": below == 0}, meta


_SCHMIDT_HEADER = "zeta,S_nats,S_bits,lambda0,lambda1,lambda2,lambda3,ratio_fit,fit_r2"


def _scan_columns(rows):
    """The _SCHMIDT_HEADER columns of EntropyScanRows, lambda0..3 from `leading`."""
    return np.array([np.hstack(row) for row in rows]).T


def _run_biphoton(cfg: RunConfig, log):
    grid, omega0, sigma = cfg.omega_grid, cfg.params["omega0"], cfg.params["sigma"]
    edge, kern = band_edge_params(cfg.model), cfg.kernel
    scan = entropy_scan([kern.zeta], grid, omega0, sigma, edge, v0=kern.v0)
    density_out = np.abs(output_state(grid, omega0, sigma, edge, kern)) ** 2
    density_in = np.abs(input_state(grid, omega0, sigma)) ** 2
    describe = f"omega grid start={grid.start} stop={grid.stop} count={grid.count}"
    # a matrix is written row by row, so its columns are the rows of its transpose
    emissions = [
        ("biphoton_in.csv", f"# |psi_in|^2 on {describe}", density_in.T),
        ("biphoton_out.csv", f"# |psi_out|^2 at zeta={CELL % kern.zeta} on {describe}",
         density_out.T),
        ("schmidt.csv", _SCHMIDT_HEADER, _scan_columns(scan)),
    ]
    return emissions, {}, {"kernel": _KERNEL_NOTE}


def _run_schmidt_scan(cfg: RunConfig, log):
    edge = band_edge_params(cfg.model)
    scan = entropy_scan(
        cfg.params["zeta_values"], cfg.omega_grid, cfg.params["omega0"],
        cfg.params["sigma"], edge, v0=cfg.kernel.v0,
    )
    emissions = [("schmidt_scan.csv", _SCHMIDT_HEADER, _scan_columns(scan))]
    return emissions, {}, {"kernel": _KERNEL_NOTE}


def _run_dressed_bands(cfg: RunConfig, log):
    sweep = dressed_band_sweep(
        np.linspace(-np.pi, np.pi, cfg.params["n_points"]), cfg.model, cfg.cavity,
        onshell=cfg.params["onshell"], omega=cfg.params["omega"],
    )
    columns = (sweep.k, sweep.omega, sweep.sigma_cv.real, sweep.sigma_cv.imag,
               sweep.e_plus, sweep.e_minus)
    emissions = [("dressed_bands.csv", "k,omega,ReScv,ImScv,Eplus,Eminus", columns)]
    meta = {"mu_factorization": "mu(k,q) = mu(k); photon momentum enters only "
                                "through the cavity branch"}
    return emissions, {}, meta


def _run_keldysh(cfg: RunConfig, log):
    kmap = keldysh_map(
        cfg.omega_grid, cfg.q_grid, cfg.model, cfg.cavity, cfg.thermal, cfg.n_k
    )
    columns = (*_grid_columns(cfg.omega_grid.values, cfg.q_grid.values),
               kmap.g_keldysh.real.ravel(), kmap.g_keldysh.imag.ravel(),
               kmap.spectral.ravel(), kmap.occupation.ravel())
    emissions = [("keldysh.csv", "omega,q,ReGK,ImGK,A,n", columns)]
    return emissions, {}, {"normalization": _BUBBLE_NOTE}


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
