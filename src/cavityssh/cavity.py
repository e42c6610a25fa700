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
from .numerics import _py_quotient, _reduce_in_place, reduction_order, zone_trapezoid
from .params import CavityParams, FrequencyGrid, SshParams


class BubbleTable:
    """The Brillouin zone of the interband bubble, built once per (p, eta, n_k).

    The zone is `zone_trapezoid`'s, stored in `numerics.reduction_order`, the
    order in which the pairwise sum consumes it: -Delta(k) as a complex array
    whose imaginary part is -0.0, and the weighted |mu(k)|^2 precast to
    complex. `integral` adds omega + i eta to -Delta in one contiguous complex
    add, squares the result for power 2, divides the weights by it and halves
    it in place (`numerics._reduce_in_place`): no scratch pair, no
    float-to-complex cast, no strided round.

    That is `pairwise_sum` of the natural-order samples
    w |mu|^2 / (omega - Delta + i eta)^power, bit for bit: -Delta + Re omega
    rounds as Re omega - Delta, -0.0 is the identity of the imaginary add,
    the square and the division see the same complex operands, and each
    round adds the same two numbers, because IEEE addition commutes. The
    weight multiplies |mu|^2 before the division, so a sum agrees with the
    plain weighted trapezoid of the same integrand up to rounding, not bit
    for bit.

    A table serves one thread: every integral runs in the one zone-sized
    buffer the table allocates when built. `nodes` and `samples` give the
    zone in reduction order, as fresh arrays.
    """

    def __init__(self, p: SshParams, eta: float, n_k: int):
        self.n_k = n_k
        self.eta = float(eta)
        nodes = self.nodes
        self._neg_delta = np.negative(band_gap(nodes, p), dtype=complex)
        weighted_mu2 = dipole(nodes, p)
        weighted_mu2 **= 2
        # asked for only now, so the build does not hold them; they need no
        # gather, see nodes
        weighted_mu2 *= zone_trapezoid(n_k)[1]
        self._weights = weighted_mu2.astype(complex)
        del nodes, weighted_mu2  # so that the buffer does not raise the build's peak
        self._buffer = np.empty_like(self._weights)

    @property
    def nodes(self) -> np.ndarray:
        """The trapezoid nodes in reduction order, as the table stores its
        zone. The order keeps both half-weight ends in place and the interior
        weights are equal, so the weights need no gather."""
        return zone_trapezoid(self.n_k)[0][reduction_order(self.n_k + 1)]

    def _weighted(self, omega: complex, power: int, out: np.ndarray) -> np.ndarray:
        """Write w |mu|^2 / (omega - Delta + i eta)^power, power 1 or 2, into
        `out` in reduction order and return it, unchecked for nan/inf. Power 2
        is np.square, because np.power(x, 2) differs from x**2 in the last bit.
        """
        omega = complex(omega)
        np.add(self._neg_delta, complex(omega.real, omega.imag + self.eta), out=out)
        if power == 2:
            np.square(out, out=out)
        elif power != 1:
            raise ValueError(f"bubble power must be 1 or 2, got {power}")
        np.divide(self._weights, out, out=out)
        return out

    def samples(self, omega: complex, power: int = 1) -> np.ndarray:
        """Weighted zone samples w |mu|^2 / (omega - Delta + i eta)^power, in
        reduction order, as a fresh array."""
        samples = self._weighted(omega, power, np.empty_like(self._weights))
        if not np.all(np.isfinite(samples)):
            raise NonFiniteSampleError("bubble integrand produced nan/inf")
        return samples

    def integral(self, omega: complex, power: int = 1) -> complex:
        """(1/2pi) int dk |mu|^2 / (omega - Delta + i eta)^power.

        A nan or inf sample always makes the pairwise total non-finite, so
        `samples` rebuilds and scans the samples only when the total is, and
        raises NonFiniteSampleError exactly when a sample is non-finite.
        """
        total = _reduce_in_place(self._weighted(omega, power, self._buffer))
        if not np.isfinite(total):
            self.samples(omega, power)
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

