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
    it in place (`numerics._reduce_in_place`): one zone-sized buffer, no
    scratch pair, no float-to-complex cast, no strided round.

    That is `pairwise_sum` of the natural-order samples
    w |mu|^2 / (omega - Delta + i eta)^power, bit for bit: -Delta + Re omega
    rounds as Re omega - Delta, -0.0 is the identity of the imaginary add,
    the square and the division see the same complex operands, and each
    round adds the same two numbers, because IEEE addition commutes. The
    weight multiplies |mu|^2 before the division, so a sum agrees with the
    plain weighted trapezoid of the same integrand up to rounding, not bit
    for bit.

    Idle zone-sized buffers wait in a pool: an integral pops one, or
    allocates its own when overlapping integrals hold them all, so repeated
    integrals allocate no zone-sized array and concurrent ones never share a
    buffer. `_nodes` and `_samples` give reduction order, as `vertex` reads
    the zone; `nodes` and `samples` give node order, as fresh arrays.
    """

    def __init__(self, p: SshParams, eta: float, n_k: int):
        self.n_k = n_k
        self.eta = float(eta)
        nodes = self._nodes
        self._neg_delta = np.negative(band_gap(nodes, p), dtype=complex)
        weighted_mu2 = dipole(nodes, p)
        weighted_mu2 **= 2
        # asked for only now, so the build does not hold them; they need no
        # gather, see _nodes
        weighted_mu2 *= zone_trapezoid(n_k)[1]
        self._weights = weighted_mu2.astype(complex)
        self._idle = []  # zone-sized buffers no integral is using

    @property
    def nodes(self) -> np.ndarray:
        """The trapezoid nodes in node order."""
        return zone_trapezoid(self.n_k)[0]

    @property
    def _nodes(self) -> np.ndarray:
        """The trapezoid nodes in reduction order, as the table stores its
        zone. The order keeps both half-weight ends in place and the interior
        weights are equal, so the weights need no gather."""
        return self.nodes[reduction_order(self.n_k + 1)]

    def _weighted(self, omega: complex, power: int, out: np.ndarray) -> np.ndarray:
        """Write w |mu|^2 / (omega - Delta + i eta)^power into `out` in
        reduction order and return it.

        Power 2 goes through np.square, because np.power(x, 2) differs from
        x**2 in the last bit. The samples are not checked for nan/inf here.
        """
        omega = complex(omega)
        np.add(self._neg_delta, complex(omega.real, omega.imag + self.eta), out=out)
        if power == 2:
            np.square(out, out=out)
        elif power != 1:
            np.power(out, power, out=out)
        np.divide(self._weights, out, out=out)
        return out

    def _samples(self, omega: complex, power: int = 1) -> np.ndarray:
        """Weighted zone samples w |mu|^2 / (omega - Delta + i eta)^power, in
        reduction order."""
        ordered = self._weighted(omega, power, np.empty(self._weights.size, dtype=complex))
        if not np.all(np.isfinite(ordered)):
            raise NonFiniteSampleError("bubble integrand produced nan/inf")
        return ordered

    def samples(self, omega: complex, power: int = 1) -> np.ndarray:
        """`_samples` in node order, for library callers; no command reads it."""
        ordered = self._samples(omega, power)
        samples = np.empty_like(ordered)
        samples[reduction_order(ordered.size)] = ordered
        return samples

    def integral(self, omega: complex, power: int = 1) -> complex:
        """(1/2pi) int dk |mu|^2 / (omega - Delta + i eta)^power.

        A nan or inf sample always makes the pairwise total non-finite, so the
        samples are rebuilt and scanned only when the total is;
        NonFiniteSampleError is raised exactly when a sample is non-finite,
        as in `samples`.
        """
        try:
            buffer = self._idle.pop()
        except IndexError:  # the first call, or an overlapping one
            buffer = np.empty(self._weights.size, dtype=complex)
        total = _reduce_in_place(self._weighted(omega, power, buffer))
        finite = np.isfinite(total) or np.all(np.isfinite(self._weighted(omega, power, buffer)))
        self._idle.append(buffer)
        if not finite:
            raise NonFiniteSampleError("bubble integrand produced nan/inf")
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

