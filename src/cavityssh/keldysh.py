"""Thermal (Keldysh) layer on top of the retarded cavity propagator.

Equilibrium closes through the dissipative bath: Sigma^K is tied to Im Sigma^R
by the bose factor, G^K

    Sigma^K(omega) = -2i Im Sigma^R(omega) (1 + 2 n_B(omega))
    G^K = G^R Sigma^K G^A,   G^A = conj(G^R)

and the occupation is read back from the G^K / Im G^R ratio. The bare +i eta
regulator is a zero-occupation spectator channel: it carries vacuum Keldysh
noise 2 i eta |G^R|^2 (no thermal factor), so the ratio returns exactly 0 at
T = 0 and approaches n_B from below as eta -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cavity import (
    BubbleTable,
    CavityParams,
    dressed_propagator,
    photon_self_energy,
    spectral_function,
)
from .errors import NonPositiveFrequencyError, ZeroSpectralWeightError
from .lattice import SshParams
from .numerics import DEFAULT_NK, FrequencyGrid

__all__ = [
    "KeldyshMap",
    "ThermalState",
    "bose_occupation",
    "keldysh_self_energy",
    "keldysh_green",
    "keldysh_map",
    "occupation",
    "retarded_green",
    "spectral_function",
]

_EXP_MAX = 700.0  # exp overflow guard; beyond this n_B underflows to 0 anyway


@dataclass(frozen=True)
class ThermalState:
    """Bath temperature in the band energy units; T = 0 means strict vacuum."""

    temperature: float

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


class KeldyshMap(NamedTuple):
    """G^K, A and n samples; each array has shape (len(omega), len(q))."""

    omega_grid: FrequencyGrid
    q_grid: FrequencyGrid
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


def keldysh_self_energy(
    omega: float,
    p: SshParams,
    c: CavityParams,
    th: ThermalState,
    n_k: int = DEFAULT_NK,
) -> complex:
    """Sigma^K(omega) = -2i Im Sigma^R(omega) (1 + 2 n_B(omega)); purely imaginary."""
    return _sigma_keldysh(photon_self_energy(omega, p, c, n_k), bose_occupation(omega, th))


def retarded_green(
    omega: float,
    q: float,
    p: SshParams,
    c: CavityParams,
    n_k: int = DEFAULT_NK,
    sigma: complex | None = None,
) -> complex:
    """The retarded propagator; same object as cavity.dressed_propagator."""
    return dressed_propagator(omega, q, p, c, n_k, sigma=sigma)


def keldysh_green(
    omega: float,
    q: float,
    p: SshParams,
    c: CavityParams,
    th: ThermalState,
    n_k: int = DEFAULT_NK,
    sigma: complex | None = None,
) -> complex:
    """G^K = G^R Sigma^K G^A = |G^R|^2 Sigma^K; purely imaginary, Im >= 0."""
    if sigma is None:
        sigma = photon_self_energy(omega, p, c, n_k)
    g_r = dressed_propagator(omega, q, p, c, n_k, sigma=sigma)
    return _green_keldysh(g_r, _sigma_keldysh(sigma, bose_occupation(omega, th)))


def occupation(
    omega: float,
    q: float,
    p: SshParams,
    c: CavityParams,
    th: ThermalState,
    n_k: int = DEFAULT_NK,
    sigma: complex | None = None,
) -> float:
    """Mode occupation n(omega) = (1/2) (G^K_tot / (-2i Im G^R) - 1).

    G^K_tot includes the regulator's vacuum noise 2 i eta |G^R|^2 alongside the
    bath term, which makes the ratio a weight average of the bath occupation
    n_B (weight |Im Sigma^R|) and the spectator's zero (weight eta):
    exact 0 at T = 0, and n_B (1 - eta/(eta + |Im Sigma^R|)) in equilibrium.
    """
    if sigma is None:
        sigma = photon_self_energy(omega, p, c, n_k)
    g_r = dressed_propagator(omega, q, p, c, n_k, sigma=sigma)
    g_k = _green_keldysh(g_r, _sigma_keldysh(sigma, bose_occupation(omega, th)))
    return _occupation_from(g_r, g_k, c.eta, omega, q)


def keldysh_map(
    omega_grid: FrequencyGrid,
    q_grid: FrequencyGrid,
    p: SshParams,
    c: CavityParams,
    th: ThermalState,
    n_k: int = DEFAULT_NK,
) -> KeldyshMap:
    """G^K, A and n on the product grid, bit for bit the per-point functions.

    Per omega: Sigma^R from one shared BubbleTable, one n_B and one Sigma^K;
    per (omega, q): one G^R, from which G^K, A = -Im G^R / pi and n follow.
    Raises ZeroSpectralWeightError where Im G^R >= 0, like `occupation`.
    """
    table = BubbleTable(p, c.eta, n_k)
    gsq = c.g**2
    qs = q_grid.values.tolist()
    shape = (omega_grid.count, q_grid.count)
    g_keldysh = np.empty(shape, dtype=complex)
    spectral = np.empty(shape, dtype=float)
    occupations = np.empty(shape, dtype=float)
    for i, omega in enumerate(omega_grid.values.tolist()):
        sigma = gsq * table.integral(omega)
        sigma_k = _sigma_keldysh(sigma, bose_occupation(omega, th))
        row_gk, row_a, row_n = [], [], []
        for q in qs:
            g_r = dressed_propagator(omega, q, p, c, n_k, sigma=sigma)
            g_k = _green_keldysh(g_r, sigma_k)
            row_gk.append(g_k)
            row_a.append(-g_r.imag / np.pi)
            row_n.append(_occupation_from(g_r, g_k, c.eta, omega, q))
        g_keldysh[i] = row_gk
        spectral[i] = row_a
        occupations[i] = row_n
    return KeldyshMap(omega_grid, q_grid, g_keldysh, spectral, occupations)
