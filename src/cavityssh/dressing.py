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
from .lattice import SshParams, band_energies, band_gap, dipole
from .numerics import principal_value, simpson_integrate

BANDS = ("conduction", "valence")


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


def _check_band(band: str) -> None:
    if band not in BANDS:
        raise ValueError(f"band must be one of {BANDS}, got {band!r}")


def sigma_band(k: float, omega: float, band: str, p: SshParams, c: CavityParams) -> complex:
    """Diagonal-band self-energy g^2 mu(k)^2 G_cav(omega - eps_other(k))."""
    _check_band(band)
    e_v, e_c = band_energies(k, p)
    other = e_v if band == "conduction" else e_c
    mu = dipole(k, p)
    return c.g**2 * mu * mu * bare_photon_green(omega - float(other), c)


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


def sigma_band_dispersive(
    k: float,
    omega: float,
    band: str,
    p: SshParams,
    c: CavityParams,
    n_q: int = 2048,
    q_max: float | None = None,
) -> complex:
    """Self-energy with the photon branch dispersing, omega_c(q) = omega_c + beta q^2.

    The electron momentum is fixed (the dipole does not depend on the photon
    momentum) and the exchanged-photon momentum is integrated over
    [-q_max, q_max] with measure dq/2pi. With beta = 0 this collapses to
    (q_max/pi) G_cav(omega - eps_other).
    """
    _check_band(band)
    if q_max is None:
        if c.mass_beta == 0:
            raise ValueError("q_max must be given when the photon branch is flat")
        q_max = 10.0 * np.sqrt(c.eta / c.mass_beta)
    if not q_max > 0:
        raise ValueError(f"q_max must be positive, got {q_max}")
    e_v, e_c = band_energies(k, p)
    other = float(e_v if band == "conduction" else e_c)
    mu = dipole(k, p)

    def integrand(q: np.ndarray):
        return 1.0 / (omega - other - c.omega_c - c.mass_beta * q * q + 1j * c.eta)

    integral = simpson_integrate(integrand, -q_max, q_max, n_q) / (2.0 * np.pi)
    return c.g**2 * mu * mu * integral


def lamb_shift(
    k: float,
    omega: float,
    p: SshParams,
    c: CavityParams,
    n_w: int = 8192,
    window: float | None = None,
) -> float:
    """Re Sigma^(conduction) from the photon spectral weight (Kramers-Kronig).

    Re Sigma = g^2 mu^2 P int (domega'/pi) Im G_cav(omega') / (omega' - x),
    x = omega - eps_v(k). The window covers the cavity Lorentzian and the
    pole; truncation error falls off as eta / window^2.
    """
    e_v, _ = band_energies(k, p)
    x = omega - float(e_v)
    mu = dipole(k, p)
    if window is None:
        window = max(5.0, 200.0 * c.eta) + abs(x - c.omega_c)
    lo = min(c.omega_c, x) - window
    hi = max(c.omega_c, x) + window

    def spectral_part(w: np.ndarray):
        return np.imag(1.0 / (w - c.omega_c + 1j * c.eta)) / np.pi

    pv = principal_value(spectral_part, lo, hi, pole=x, n_k=n_w)
    return float(c.g**2 * mu * mu * pv)


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
