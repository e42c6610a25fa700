"""Per-point references and quadrature oracles for the sweeps the commands run.

No command reaches these; the tests hold each sweep to them:
`self_energy_spectrum` to `photon_self_energy`, `spectral_map` to
`spectral_function`, `keldysh_map` to `keldysh_green` and `occupation`,
`dressed_band_sweep` to `sigma_matrix` and `dressed_bands`,
`gamma4_direct_grid` to `gamma4_direct`, `gamma4_stationary` on arrays to
`gamma4_saddle`, `BubbleTable` to `bz_integrate` (its zone in node order
through `NodeOrderTable`), and the Kramers-Kronig checks to
`principal_value`. Each one computes a single point (or a single integral)
the plain way, with Python's complex scalars, from the library's public
kernels and private formulas. `_sigma_keldysh`, `_green_keldysh`,
`_occupation_from` and `_dressed_radius` are the per-point formulas that
`keldysh_map` and `dressed_band_sweep` evaluate on arrays, rounding as these
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from cavityssh.cavity import BubbleTable, CavityParams, dressed_propagator
from cavityssh.errors import CavitySshError, NonFiniteSampleError, ZeroSpectralWeightError
from cavityssh.keldysh import ThermalState, bose_occupation
from cavityssh.lattice import BandEdgeParams, SshParams, band_gap, dipole, edge_momentum_map
from cavityssh.numerics import pairwise_sum, reduction_order, zone_trapezoid
from cavityssh.vertex import InteractionKernel, _kernel_matrix


class PoleOnBoundaryError(CavitySshError):
    """Principal-value pole coincides with an integration endpoint."""


# ---------------------------------------------------------------- quadrature


def in_node_order(ordered: np.ndarray) -> np.ndarray:
    """A zone array stored in `reduction_order`, put back into node order."""
    out = np.empty_like(ordered)
    out[reduction_order(ordered.size)] = ordered
    return out


class NodeOrderTable(BubbleTable):
    """A BubbleTable that also shows Delta(k) and the weighted |mu(k)|^2 in
    node order, as fresh arrays. The library stores both only in reduction
    order, as the complex summands of its zone sums."""

    @property
    def delta(self) -> np.ndarray:
        return in_node_order(-self._neg_delta.real)

    @property
    def weighted_mu2(self) -> np.ndarray:
        return in_node_order(self._weights.real)


def _check_finite_samples(samples: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(samples)):
        bad = int(np.flatnonzero(~np.isfinite(np.asarray(samples).ravel()))[0])
        raise NonFiniteSampleError(f"{what}: non-finite sample at flat index {bad}")


def bz_integrate(f: Callable[[np.ndarray], np.ndarray], n_k: int):
    """(1/2pi) * trapezoid of f over the periodic zone [-pi, pi].

    `f` must accept an ndarray of momenta. Exact for constants; spectrally
    accurate for smooth periodic integrands.
    """
    nodes, weights = zone_trapezoid(n_k)
    samples = np.asarray(f(nodes))
    _check_finite_samples(samples, "bz_integrate")
    return pairwise_sum(samples * weights) / (2.0 * np.pi)


def simpson_integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int):
    """Composite Simpson rule on [a, b] with n subintervals (rounded up to even)."""
    if not b > a:
        raise ValueError(f"simpson_integrate needs b > a, got [{a}, {b}]")
    n = max(2, n + (n % 2))
    nodes = np.linspace(a, b, n + 1)
    samples = np.asarray(f(nodes))
    _check_finite_samples(samples, "simpson_integrate")
    h = (b - a) / n
    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return pairwise_sum(samples * weights) * h / 3.0


def principal_value(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    pole: float,
    n_k: int = 4096,
):
    """Cauchy principal value of int_a^b f(x)/(x - pole) dx.

    Inside the range the pole is handled by symmetric exclusion: on the
    largest subinterval symmetric about the pole the odd 1/(x - pole) part
    cancels pairwise, leaving the smooth difference quotient
    (f(pole+u) - f(pole-u))/u, which is integrated with Simpson; the excluded
    point shrinks with the grid. A pole outside [a, b] degrades to plain
    quadrature.
    """
    if not b > a:
        raise ValueError(f"principal_value needs b > a, got [{a}, {b}]")
    span = b - a
    if min(abs(pole - a), abs(pole - b)) < 1e-9 * span:
        raise PoleOnBoundaryError(f"pole {pole} sits on an integration endpoint")

    def plain(lo: float, hi: float):
        return simpson_integrate(lambda x: np.asarray(f(x)) / (x - pole), lo, hi, n_k)

    if pole < a or pole > b:
        return plain(a, b)

    radius = min(pole - a, b - pole)

    def difference_quotient(u: np.ndarray):
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape, dtype=np.result_type(np.asarray(f(np.array([pole + radius]))).dtype, float))
        small = u < 1e-12 * radius
        if np.any(~small):
            uu = u[~small]
            out[~small] = (np.asarray(f(pole + uu)) - np.asarray(f(pole - uu))) / uu
        if np.any(small):
            d = 1e-7 * radius
            out[small] = (np.asarray(f(np.array([pole + d])))[0] - np.asarray(f(np.array([pole - d])))[0]) / d
        return out

    symmetric = simpson_integrate(difference_quotient, 0.0, radius, n_k)
    if pole - a > radius:
        rest = plain(a, pole - radius)
    elif b - pole > radius:
        rest = plain(pole + radius, b)
    else:
        rest = 0.0
    return symmetric + rest


# ---------------------------------------------------------------- photon


def photon_self_energy(omega: float, p: SshParams, c: CavityParams, n_k: int) -> complex:
    """Retarded photon self-energy g^2 (1/2pi) int dk |mu|^2/(omega - Delta + i eta).

    Builds a one-shot zone; a caller that evaluates many omega should hold a
    BubbleTable (or use self_energy_spectrum).
    """
    return c.g**2 * BubbleTable(p, c.eta, n_k).integral(omega)


def spectral_function(omega: float, q: float, c: CavityParams, sigma: complex) -> float:
    """A(omega, q) = -(1/pi) Im G^R_cav; nonnegative by construction."""
    return -dressed_propagator(omega, q, c, sigma).imag / np.pi


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


def keldysh_green(
    omega: float, q: float, c: CavityParams, th: ThermalState, sigma: complex
) -> complex:
    """G^K = G^R Sigma^K G^A = |G^R|^2 Sigma^K, with Sigma^R = `sigma` the
    self-energy at omega; purely imaginary, Im >= 0."""
    g_r = dressed_propagator(omega, q, c, sigma)
    return _green_keldysh(g_r, _sigma_keldysh(sigma, bose_occupation(omega, th)))


def occupation(
    omega: float, q: float, c: CavityParams, th: ThermalState, sigma: complex
) -> float:
    """Mode occupation n(omega) = (1/2) (G^K_tot / (-2i Im G^R) - 1), with
    Sigma^R = `sigma` the self-energy at omega.

    G^K_tot includes the regulator's vacuum noise 2 i eta |G^R|^2 alongside the
    bath term, which makes the ratio a weight average of the bath occupation
    n_B (weight |Im Sigma^R|) and the spectator's zero (weight eta):
    exact 0 at T = 0, and n_B (1 - eta/(eta + |Im Sigma^R|)) in equilibrium.
    """
    g_r = dressed_propagator(omega, q, c, sigma)
    g_k = _green_keldysh(g_r, _sigma_keldysh(sigma, bose_occupation(omega, th)))
    return _occupation_from(g_r, g_k, c.eta, omega, q)


def gamma4_direct(
    omega1: float,
    omega2: float,
    p: SshParams,
    c: CavityParams,
    kern: InteractionKernel,
    n_k: int,
) -> complex:
    """Double-trapezoid of bubble(k; omega1) V(k, k') bubble(k'; omega2) / (2pi)^2.

    Arguments are ordered canonically before evaluating, so the omega1 <->
    omega2 symmetry holds bit for bit. This pointwise form is the reference
    for gamma4_direct_grid.
    """
    a, b = (omega1, omega2) if omega1 <= omega2 else (omega2, omega1)
    table = BubbleTable(p, c.eta, n_k)
    v = _kernel_matrix(table.nodes, kern)
    inner = pairwise_sum(v * table.samples(b)[None, :], axis=1)
    return complex(pairwise_sum(table.samples(a) * inner) / (2.0 * np.pi) ** 2)


def gamma4_saddle(
    omega1: float, omega2: float, kern: InteractionKernel, edge: BandEdgeParams, eta: float
) -> complex:
    """The stationary-phase vertex at one pair of frequencies at or above
    delta0, as Python floats and complex: the reference for
    gamma4_stationary on arrays."""
    q1, q2 = edge_momentum_map([omega1, omega2], edge).tolist()
    amplitude = (
        edge.dipole_slope**4
        * kern.v0
        * (q1 * q2) ** 2
        * np.exp(-kern.zeta * (q1 - q2) ** 2)
        * np.sqrt(2.0 * np.pi / kern.zeta)
    )
    denom = (omega1 - edge.delta0 + 1j * eta) * (omega2 - edge.delta0 + 1j * eta)
    return complex(amplitude / denom)


# ---------------------------------------------------------------- electrons


def _dressed_radius(gap: float, sigma_cv: complex) -> float:
    return float(np.sqrt((0.5 * gap) ** 2 + abs(sigma_cv) ** 2))


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
        sigma_cv=weight * dressed_propagator(omega - gap, 0.0, c, 0.0),
        sigma_vc=weight * dressed_propagator(omega + gap, 0.0, c, 0.0),
    )


def dressed_bands(k: float, omega: float, p: SshParams, c: CavityParams) -> DressedBands:
    """Eigenvalues of the dressed interband block at (k, omega)."""
    radius = _dressed_radius(band_gap(k, p), sigma_matrix(k, omega, p, c).sigma_cv)
    return DressedBands(e_minus=-radius, e_plus=radius)
