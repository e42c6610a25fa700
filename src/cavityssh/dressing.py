"""Electron-side dressing: band self-energies from the exchanged cavity photon.

Single-mode second order: a carrier in one band virtually emits a photon and
sits in the other band, Sigma^(band) = g^2 mu(k)^2 G_cav(omega - eps_other(k)).
The 2x2 interband matrix is purely off-diagonal; its magnitude opens the
dressed gap 2 sqrt((Delta/2)^2 + |Sigma_cv|^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cavity import CavityParams
from .lattice import SshParams, band_gap, dipole


@dataclass(frozen=True)
class FermionSelfEnergy:
    """2x2 interband self-energy at one (k, omega) in the (conduction, valence) basis."""

    k: float
    omega: float
    sigma_cc: complex
    sigma_vv: complex
    sigma_cv: complex
    sigma_vc: complex


@dataclass(frozen=True)
class DressedBands:
    """Eigenvalues +-sqrt((Delta/2)^2 + |Sigma_cv|^2) of the dressed 2x2 block."""

    e_minus: float
    e_plus: float


class DressedBandSweep(NamedTuple):
    """Per-momentum columns of a dressed-band sweep, each of length len(k)."""

    k: np.ndarray
    omega: np.ndarray
    sigma_cv: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def bare_photon_green(omega: float, c: CavityParams) -> complex:
    """Dispersionless retarded cavity propagator 1/(omega - omega_c + i eta)."""
    return 1.0 / (omega - c.omega_c + 1j * c.eta)


def sigma_matrix(k: float, omega: float, p: SshParams, c: CavityParams) -> FermionSelfEnergy:
    """Interband 2x2 self-energy: zero diagonal, Sigma_cv/vc with shifted photon.

    Sigma_cv = g^2 mu^2 G_cav(omega - Delta(k)), Sigma_vc = g^2 mu^2
    G_cav(omega + Delta(k)); both vanish identically at the zone edge where
    the dipole does.
    """
    gap = band_gap(k, p)
    mu = dipole(k, p)
    weight = c.g**2 * mu * mu
    return FermionSelfEnergy(
        k=float(k),
        omega=float(omega),
        sigma_cc=0j,
        sigma_vv=0j,
        sigma_cv=weight * bare_photon_green(omega - gap, c),
        sigma_vc=weight * bare_photon_green(omega + gap, c),
    )


def _dressed_radius(gap: float, sigma_cv: complex) -> float:
    return float(np.sqrt((0.5 * gap) ** 2 + abs(sigma_cv) ** 2))


def dressed_bands(k: float, omega: float, p: SshParams, c: CavityParams) -> DressedBands:
    """Eigenvalues of the dressed interband block at (k, omega)."""
    radius = _dressed_radius(band_gap(k, p), sigma_matrix(k, omega, p, c).sigma_cv)
    return DressedBands(e_minus=-radius, e_plus=radius)


def dressed_band_sweep(
    ks, p: SshParams, c: CavityParams, onshell: bool = True, omega: float = 0.0
) -> DressedBandSweep:
    """Sigma_cv and the dressed bands at each k, bit for bit sigma_matrix and
    dressed_bands per point.

    The gap and the dipole are evaluated once on the whole k array (the
    elementwise results equal the scalar calls). `onshell` probes each k at
    omega = Delta(k)/2, otherwise every k at the fixed `omega`.
    """
    ks = np.asarray(ks, dtype=float)
    gaps = np.asarray(band_gap(ks, p)).tolist()
    mus = np.asarray(dipole(ks, p)).tolist()
    omegas, sigmas, radii = [], [], []
    for gap, mu in zip(gaps, mus):
        w = 0.5 * gap if onshell else omega
        sigma_cv = c.g**2 * mu * mu * bare_photon_green(w - gap, c)
        omegas.append(w)
        sigmas.append(sigma_cv)
        radii.append(_dressed_radius(gap, sigma_cv))
    e_plus = np.array(radii)
    return DressedBandSweep(ks, np.array(omegas), np.array(sigmas), e_plus, -e_plus)
