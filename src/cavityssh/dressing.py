"""Electron-side dressing: band self-energies from the exchanged cavity photon.

Single-mode second order: a carrier in one band virtually emits a photon and
sits in the other band, Sigma^(band) = g^2 mu(k)^2 G_cav(omega - eps_other(k)),
with G_cav the bare q = 0 mode of `cavity.dressed_propagator` (Sigma^R = 0).
The 2x2 interband matrix is purely off-diagonal; its magnitude opens the
dressed gap 2 sqrt((Delta/2)^2 + |Sigma_cv|^2). `dressed_band_sweep`
evaluates Sigma_cv and the dressed bands at each k of a sweep.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cavity import dressed_propagator
from .lattice import band_gap, dipole
from .params import CavityParams, SshParams


class DressedBandSweep(NamedTuple):
    """Per-momentum columns of a dressed-band sweep, each of length len(k)."""

    k: np.ndarray
    omega: np.ndarray
    sigma_cv: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def _dressed_radius(gap: float, sigma_cv: complex) -> float:
    return float(np.sqrt((0.5 * gap) ** 2 + abs(sigma_cv) ** 2))


def dressed_band_sweep(
    ks, p: SshParams, c: CavityParams, onshell: bool = True, omega: float = 0.0
) -> DressedBandSweep:
    """Sigma_cv and the dressed bands at each k, each k evaluated on its own.

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
        sigma_cv = c.g**2 * mu * mu * dressed_propagator(w - gap, 0.0, c, 0.0)
        omegas.append(w)
        sigmas.append(sigma_cv)
        radii.append(_dressed_radius(gap, sigma_cv))
    e_plus = np.array(radii)
    return DressedBandSweep(ks, np.array(omegas), np.array(sigmas), e_plus, -e_plus)
