"""Photon linear response: interband bubble, dressed propagator, spectra.

The retarded self-energy is the momentum-integrated interband bubble
Sigma^R(omega) = g^2 (1/2pi) int dk |mu(k)|^2 / (omega - Delta(k) + i eta);
setting g = 1 recovers the bare-bubble normalization of the dressed spectra.
`_propagator_parts` is `dressed_propagator` on float arrays, each cell rounded
as the scalar call by `numerics._py_quotient`, for the Keldysh and band maps.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteSampleError
from .lattice import band_gap, dipole
from .numerics import _py_quotient, pairwise_sum, zone_trapezoid
from .params import CavityParams, FrequencyGrid, SshParams


class BubbleTable:
    """The Brillouin zone of the interband bubble, built once per (p, eta, n_k).

    Holds the trapezoid nodes, the gap Delta(k) and the weighted |mu(k)|^2 at
    each node; the self-energy, the Kerr ladder and the vertex all sum over it.
    The zone is `zone_trapezoid`'s, summed pairwise; the weight multiplies
    |mu|^2 before the division, so a sum agrees with the plain weighted
    trapezoid of the same integrand up to rounding, not bit for bit.

    `samples` returns a fresh array the caller may keep. `integral` writes
    the samples and the pairwise rounds into a scratch pair that the table
    keeps, made on its first call, so repeated integrals allocate no
    zone-sized array. Every command calls a table from one thread, so a
    table holds one pair; an integral that overlaps another takes a pair of
    its own rather than share one.
    """

    def __init__(self, p: SshParams, eta: float, n_k: int):
        self.nodes, weights = zone_trapezoid(n_k)
        self.eta = float(eta)
        self.delta = np.asarray(band_gap(self.nodes, p))
        self.weighted_mu2 = weights * np.asarray(dipole(self.nodes, p)) ** 2
        self._scratch = []  # the idle scratch pairs of `integral`

    def _weighted(self, omega: complex, power: int, out: np.ndarray) -> np.ndarray:
        """Write w |mu|^2 / (omega - Delta + i eta)^power into `out` and return it.

        The in-place ufuncs round exactly as the expression
        w / (omega - Delta + 1j eta)**power: the real part of the denominator
        is a float subtraction and its imaginary part Im(omega) + eta, as in
        the complex expression, but Delta is never cast to complex. Power 2
        goes through np.square, because np.power(x, 2) differs from x**2 in
        the last bit. The samples are not checked for nan/inf here.
        """
        omega = complex(omega)
        np.subtract(omega.real, self.delta, out=out.real)
        out.imag = omega.imag + self.eta
        if power == 2:
            np.square(out, out=out)
        elif power != 1:
            np.power(out, power, out=out)
        np.divide(self.weighted_mu2, out, out=out)
        return out

    def samples(self, omega: complex, power: int = 1) -> np.ndarray:
        """Weighted zone samples w |mu|^2 / (omega - Delta + i eta)^power."""
        samples = self._weighted(omega, power, np.empty(self.delta.size, dtype=complex))
        if not np.all(np.isfinite(samples)):
            raise NonFiniteSampleError("bubble integrand produced nan/inf")
        return samples

    def integral(self, omega: complex, power: int = 1) -> complex:
        """(1/2pi) int dk |mu|^2 / (omega - Delta + i eta)^power.

        A nan or inf sample always makes the pairwise total non-finite, so the
        samples are scanned only when the total is; NonFiniteSampleError is
        raised exactly when a sample is non-finite, as in `samples`.
        """
        try:
            samples, pair = self._scratch.pop()
        except IndexError:  # the first call, or an overlapping one
            size = self.delta.size
            samples = np.empty(size, dtype=complex)
            pair = np.empty((2, (size + 1) // 2), dtype=complex)
        self._weighted(omega, power, samples)
        total = pairwise_sum(samples, scratch=pair)
        if not np.isfinite(total) and not np.all(np.isfinite(samples)):
            raise NonFiniteSampleError("bubble integrand produced nan/inf")
        self._scratch.append((samples, pair))
        return complex(total / (2.0 * np.pi))


def self_energy_spectrum(
    grid: FrequencyGrid, p: SshParams, c: CavityParams, n_k: int
) -> np.ndarray:
    """Retarded photon self-energy g^2 (1/2pi) int dk |mu|^2/(omega - Delta + i eta)
    at each frequency of the grid, all from one zone table."""
    table = BubbleTable(p, c.eta, n_k)
    sweep = (c.g**2 * table.integral(omega) for omega in grid.values)
    return np.fromiter(sweep, dtype=complex, count=grid.count)


def dressed_propagator(omega: float, q: float, c: CavityParams, sigma: complex) -> complex:
    """Retarded cavity propagator 1/(omega - omega_c - beta q^2 - Sigma^R + i eta),
    with Sigma^R = `sigma` the self-energy at omega; elementwise on arrays."""
    return 1.0 / (omega - c.omega_c - c.mass_beta * q * q - sigma + 1j * c.eta)


def _propagator_parts(omega, q, c: CavityParams, sigma_re=0.0, sigma_im=0.0):
    """Real and imaginary parts of `dressed_propagator(omega, q, c, sigma)` with
    sigma = complex(sigma_re, sigma_im), elementwise on float arrays.

    Each part rounds as the scalar expression does for Python floats and a
    Python complex sigma; a float sigma s rounds as complex(s, 0.0).
    """
    shift = 1j * c.eta
    d_re = omega - c.omega_c - c.mass_beta * q * q - sigma_re + shift.real
    d_im = (0.0 - sigma_im) + shift.imag
    return _py_quotient(1.0, 0.0, d_re, d_im)


def spectral_map(
    omega_grid: FrequencyGrid,
    q_grid: FrequencyGrid,
    p: SshParams,
    c: CavityParams,
    n_k: int,
) -> np.ndarray:
    """A(omega, q) on the product grid, shape (len(omega), len(q)); the bubble
    is computed once per omega and reused across q."""
    sigma = self_energy_spectrum(omega_grid, p, c, n_k)
    w, q = omega_grid.values, q_grid.values
    return -np.imag(dressed_propagator(w[:, None], q, c, sigma[:, None])) / np.pi


def hopfield_branches(q, g: float, beta: float, delta_pi: float):
    """Eigenvalues (lower, upper) at each q of the two-level reference
    [[beta q^2 + delta_pi, g], [g, delta_pi]]; splitting 2g at q = 0 on resonance."""
    photon = beta * q * q + delta_pi
    mean = 0.5 * (photon + delta_pi)
    radius = np.sqrt(0.25 * (photon - delta_pi) ** 2 + g * g)
    return mean - radius, mean + radius

