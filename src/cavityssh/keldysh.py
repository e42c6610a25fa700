"""Thermal (Keldysh) layer on top of the retarded cavity propagator.

Equilibrium closes through the dissipative bath: Sigma^K is tied to Im Sigma^R
by the bose factor, G^K

    Sigma^K(omega) = -2i Im Sigma^R(omega) (1 + 2 n_B(omega))
    G^K = G^R Sigma^K G^A,   G^A = conj(G^R)

and the occupation is read back from the G^K / Im G^R ratio. The bare +i eta
regulator is a zero-occupation spectator channel: it carries vacuum Keldysh
noise 2 i eta |G^R|^2 (no thermal factor), so the ratio returns exactly 0 at
T = 0 and approaches n_B from below as eta -> 0.

`keldysh_map` evaluates G^K, A and n on an (omega, q) grid a row block at a
time: n_B and Sigma^K for the block's omegas, then every (omega, q) cell of
the block, all on float arrays (`numerics._py_product`), each rounded as the
per-point complex chain of Python and numpy scalars rounds it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cavity import _propagator_parts, self_energy_spectrum
from .errors import NonPositiveFrequencyError, ZeroSpectralWeightError
from .numerics import _py_product, _py_square
from .params import CavityParams, FrequencyGrid, SshParams, ThermalState

_EXP_MAX = 700.0  # exp overflow guard; beyond this n_B underflows to 0 anyway
_BLOCK_CELLS = 2048  # (omega, q) cells per row block of `keldysh_map`


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


def _occupation_ratio(total_re, total_im, g_im):
    """Re(total / d), d = -2i Im G^R, as numpy's complex scalar division rounds
    it where Im G^R < 0: there Re d = +0.0 and Im d > 0, and Smith's division
    (Re t r + Im t) / (Im d + Re d r) with r = Re d / Im d = 0 folds to this."""
    return (total_re * 0.0 + total_im) * (1.0 / (-2.0 * g_im))


def keldysh_map(
    omega_grid: FrequencyGrid,
    q_grid: FrequencyGrid,
    p: SshParams,
    c: CavityParams,
    th: ThermalState,
    n_k: int,
) -> KeldyshMap:
    """G^K, A and n on the product grid.

    Per omega: Sigma^R from one `self_energy_spectrum`, n_B and
    Sigma^K = -2i Im Sigma^R (1 + 2 n_B); per (omega, q): one G^R, then
    G^K = (G^R Sigma^K) conj(G^R), A = -Im G^R / pi and
    n = (1/2) ((G^K + 2i eta |G^R|^2) / (-2i Im G^R) - 1), each rounded as
    the same expression of Python and numpy complex scalars rounds it. Rows
    are evaluated a block of about _BLOCK_CELLS cells at a time, with one
    `bose_occupation` call per block, on float parts (`numerics._py_product`),
    with |G^R|^2 as np.hypot and `numerics._py_square` and the division by
    `_occupation_ratio`. Raises ZeroSpectralWeightError at the first
    (omega, q), in row order, where Im G^R >= 0 and the occupation is
    undefined.
    """
    omegas = omega_grid.values
    sigmas = self_energy_spectrum(omega_grid, p, c, n_k)
    qs = q_grid.values
    shape = (omega_grid.count, q_grid.count)
    g_keldysh = np.empty(shape, dtype=complex)
    spectral = np.empty(shape, dtype=float)
    occupations = np.empty(shape, dtype=float)
    noise = 2j * c.eta
    step = max(1, _BLOCK_CELLS // q_grid.count)
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        w, sigma = omegas[rows], sigmas[rows]
        bath = 1.0 + 2.0 * bose_occupation(w, th)
        # Sigma^K = -2j * Im Sigma^R * (1 + 2 n_B), one Python product at a time
        sk_re, sk_im = _py_product(*_py_product(-0.0, -2.0, sigma.imag, 0.0), bath, 0.0)
        g_re, g_im = _propagator_parts(w[:, None], qs, c, sigma.real[:, None],
                                       sigma.imag[:, None])
        vanished = ~(g_im < 0)
        if np.any(vanished):
            i, j = np.unravel_index(np.argmax(vanished), vanished.shape)
            raise ZeroSpectralWeightError(
                f"spectral weight vanished at omega={w[i].item()}, q={qs[j].item()}"
            )
        p_re, p_im = _py_product(g_re, g_im, sk_re[:, None], sk_im[:, None])
        gk_re, gk_im = _py_product(p_re, p_im, g_re, -g_im)
        weight = _py_square(np.hypot(g_re, g_im))
        noise_re, noise_im = _py_product(noise.real, noise.imag, weight, 0.0)
        ratio = _occupation_ratio(gk_re + noise_re, gk_im + noise_im, g_im)
        g_keldysh[rows].real = gk_re
        g_keldysh[rows].imag = gk_im
        spectral[rows] = -g_im / np.pi
        occupations[rows] = 0.5 * (ratio - 1.0)
    return KeldyshMap(g_keldysh, spectral, occupations)
