"""Electron-side dressing: band self-energies from the exchanged cavity photon.

Single-mode second order: a carrier in one band virtually emits a photon and
sits in the other band, Sigma^(band) = g^2 mu(k)^2 G_cav(omega - eps_other(k)),
with G_cav the bare q = 0 mode of `cavity.dressed_propagator` (Sigma^R = 0).
The 2x2 interband matrix is purely off-diagonal; its magnitude opens the
dressed gap 2 sqrt((Delta/2)^2 + |Sigma_cv|^2). `dressed_band_sweep`
evaluates Sigma_cv and the dressed bands on a whole k sweep at once, each k
rounded as the per-k scalar formula rounds it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cavity import _propagator_parts
from .lattice import band_gap, dipole
from .numerics import _py_product, _py_square
from .params import CavityParams, SshParams


class DressedBandSweep(NamedTuple):
    """Per-momentum columns of a dressed-band sweep, each of length len(k)."""

    k: np.ndarray
    omega: np.ndarray
    sigma_cv: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def dressed_band_sweep(
    ks, p: SshParams, c: CavityParams, onshell: bool, omega: float
) -> DressedBandSweep:
    """Sigma_cv and the dressed bands at each k, as whole arrays.

    Each k rounds as the scalar chain g**2 * mu * mu * G_cav(omega - Delta)
    and sqrt((Delta/2)**2 + abs(Sigma_cv)**2) of Python floats and complex
    rounds it: the product on float parts (`numerics._py_product`), abs as
    np.hypot and each square by `numerics._py_square`. `onshell` probes each k
    at omega = Delta(k)/2, otherwise every k at the fixed `omega`.
    """
    ks = np.asarray(ks, dtype=float)
    gaps = np.asarray(band_gap(ks, p), dtype=float)
    mus = np.asarray(dipole(ks, p), dtype=float)
    omegas = 0.5 * gaps if onshell else np.full(ks.shape, float(omega))
    g_re, g_im = _propagator_parts(omegas - gaps, 0.0, c)
    sigma_cv = np.empty(ks.shape, dtype=complex)
    sigma_cv.real, sigma_cv.imag = _py_product(c.g**2 * mus * mus, 0.0, g_re, g_im)
    e_plus = np.sqrt(_py_square(0.5 * gaps)
                     + _py_square(np.hypot(sigma_cv.real, sigma_cv.imag)))
    return DressedBandSweep(ks, omegas, sigma_cv, e_plus, -e_plus)
