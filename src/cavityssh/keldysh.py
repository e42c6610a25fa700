"""Thermal (Keldysh) layer on top of the retarded cavity propagator.

Equilibrium closes through the dissipative bath: Sigma^K is tied to Im Sigma^R
by the bose factor, G^K

    Sigma^K(omega) = -2i Im Sigma^R(omega) (1 + 2 n_B(omega))
    G^K = G^R Sigma^K G^A,   G^A = conj(G^R)

and the occupation is read back from the G^K / Im G^R ratio. The bare +i eta
regulator is a zero-occupation spectator channel: it carries vacuum Keldysh
noise 2 i eta |G^R|^2 (no thermal factor), so the ratio returns exactly 0 at
T = 0 and approaches n_B from below as eta -> 0.

`keldysh_map` evaluates G^K, A and n on an (omega, q) grid from the private
per-point formulas below.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cavity import dressed_propagator, self_energy_spectrum
from .errors import NonPositiveFrequencyError, ZeroSpectralWeightError
from .params import CavityParams, FrequencyGrid, SshParams, ThermalState

_EXP_MAX = 700.0  # exp overflow guard; beyond this n_B underflows to 0 anyway


class KeldyshMap(NamedTuple):
    """G^K, A and n samples; each array has shape (len(omega), len(q))."""

    g_keldysh: np.ndarray
    spectral: np.ndarray
    occupation: np.ndarray


def bose_occupation(omega, th: ThermalState):
    """n_B(omega) = 1/(exp(omega/T) - 1) for omega > 0; identically 0 at T = 0."""
    omega_arr = np.asarray(omega, dtype=float)
    if np.any(omega_arr <= 0):
        raise NonPositiveFrequencyError("bose_occupation requires omega > 0")
    if th.temperature == 0:
        out = np.zeros_like(omega_arr)
        return out if out.ndim else float(out)
    x = np.minimum(omega_arr / th.temperature, _EXP_MAX)
    out = 1.0 / np.expm1(x)
    return out if out.ndim else float(out)


def _sigma_keldysh(sigma: complex, n_b: float) -> complex:
    """Sigma^K = -2i Im Sigma^R (1 + 2 n_B) from Sigma^R and the bose factor."""
    return -2j * sigma.imag * (1.0 + 2.0 * n_b)


def _green_keldysh(g_r: complex, sigma_k: complex):
    """G^K = G^R Sigma^K G^A with G^A = conj(G^R)."""
    return g_r * sigma_k * np.conj(g_r)


def _occupation_from(g_r: complex, g_k, eta: float, omega: float, q: float):
    """n = (1/2) ((G^K + 2i eta |G^R|^2) / (-2i Im G^R) - 1) from one G^R and its G^K."""
    weight = abs(g_r) ** 2
    if not g_r.imag < 0:
        raise ZeroSpectralWeightError(
            f"spectral weight vanished at omega={omega}, q={q}"
        )
    g_k_total = g_k + 2j * eta * weight
    ratio = (g_k_total / (-2j * g_r.imag)).real
    return 0.5 * (ratio - 1.0)


def keldysh_map(
    omega_grid: FrequencyGrid,
    q_grid: FrequencyGrid,
    p: SshParams,
    c: CavityParams,
    th: ThermalState,
    n_k: int,
) -> KeldyshMap:
    """G^K, A and n on the product grid.

    Per omega: Sigma^R from one `self_energy_spectrum`, one n_B and one
    Sigma^K; per (omega, q): one G^R, from which G^K, A = -Im G^R / pi and n
    follow. Raises ZeroSpectralWeightError where Im G^R >= 0, where the
    occupation is undefined.
    """
    sigmas = self_energy_spectrum(omega_grid, p, c, n_k).tolist()
    qs = q_grid.values.tolist()
    shape = (omega_grid.count, q_grid.count)
    g_keldysh = np.empty(shape, dtype=complex)
    spectral = np.empty(shape, dtype=float)
    occupations = np.empty(shape, dtype=float)
    for i, (omega, sigma) in enumerate(zip(omega_grid.values.tolist(), sigmas)):
        sigma_k = _sigma_keldysh(sigma, bose_occupation(omega, th))
        row_gk, row_a, row_n = [], [], []
        for q in qs:
            g_r = dressed_propagator(omega, q, c, sigma)
            g_k = _green_keldysh(g_r, sigma_k)
            row_gk.append(g_k)
            row_a.append(-g_r.imag / np.pi)
            row_n.append(_occupation_from(g_r, g_k, c.eta, omega, q))
        g_keldysh[i] = row_gk
        spectral[i] = row_a
        occupations[i] = row_n
    return KeldyshMap(g_keldysh, spectral, occupations)
