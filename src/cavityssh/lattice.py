"""Bipartite two-band chain: bands, interband dipole, Zak phase, band edge.

The chain alternates hoppings t1 (intra-cell) and t2 (inter-cell). Everything
downstream only needs the gap function, the dipole matrix element and the
small-momentum expansion around the zone edge, with its inverse q*(omega).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CriticalPointError, GaplessPointError
from .numerics import zone_trapezoid
from .params import SshParams

GAPLESS_FLOOR = 1e-12
CRITICAL_TOL = 1e-6  # |t2/t1 - 1| below which the Zak phase and edge expansion are undefined


class BandEdgeParams(NamedTuple):
    """Quadratic expansion of the gap and linear dipole slope at k = pi."""

    delta0: float
    curvature: float
    dipole_slope: float


def band_gap(k, p: SshParams):
    """Direct gap Delta(k) = 2*sqrt(t1^2 + t2^2 + 2 t1 t2 cos k)."""
    k = np.asarray(k, dtype=float)
    gap = 2.0 * np.sqrt(p.t1**2 + p.t2**2 + 2.0 * p.t1 * p.t2 * np.cos(k))
    return gap if gap.ndim else float(gap)


def band_energies(k, p: SshParams):
    """Symmetric two-band energies (valence, conduction) = (-Delta/2, +Delta/2)."""
    gap = band_gap(k, p)
    return -0.5 * np.asarray(gap), 0.5 * np.asarray(gap)


def dipole(k, p: SshParams):
    """Interband dipole mu(k) = t1 t2 sin(k) / Delta(k); odd, zero at k = 0 and pi."""
    k = np.asarray(k, dtype=float)
    gap = np.asarray(band_gap(k, p))
    if np.any(gap < GAPLESS_FLOOR):
        raise GaplessPointError("gap closes on the requested momenta; dipole undefined")
    mu = p.t1 * p.t2 * np.sin(k) / gap
    return mu if mu.ndim else float(mu)


def bloch_phase(k, p: SshParams):
    """Phase theta(k) = arg(t1 + t2 e^{-ik}), principal branch (-pi, pi]."""
    k = np.asarray(k, dtype=float)
    h = p.t1 + p.t2 * np.exp(-1j * k)
    if np.any(np.abs(h) < 0.5 * GAPLESS_FLOOR):
        raise GaplessPointError("h(k) vanishes; Bloch phase undefined")
    theta = np.angle(h)
    return theta if theta.ndim else float(theta)


def zak_phase(p: SshParams, n_k: int) -> float:
    """Valence-band Zak phase via a discretized Wilson loop: exactly 0.0 or pi.

    The valence eigenvector is (-e^{-i theta(k)}, 1)/sqrt(2), so the link
    overlap between neighbouring grid points is (1 + e^{-i phi})/2, where phi
    is the principal-branch step of theta, and its angle is -phi/2. Around
    the closed zone the principal steps add up to 2 pi times the winding of
    t1 + t2 e^{-ik}, so minus the loop sum is pi times an integer up to
    round-off. That integer is rounded and reduced mod 2, which puts the
    result exactly on 0.0 (trivial, t2 < t1) or pi (topological, t2 > t1)
    and therefore inside [0, 2pi). A float modulo of the raw sum would not:
    a round-off just below 0 wraps to 2pi - eps, or to 2pi itself.
    """
    if abs(p.ratio - 1.0) < CRITICAL_TOL:
        raise CriticalPointError(
            f"ratio {p.ratio} within {CRITICAL_TOL} of the gap closure; Zak phase undefined"
        )
    k = zone_trapezoid(n_k)[0][:-1]  # the open periodic grid: pi is -pi again
    theta = bloch_phase(k, p)
    phase_factor = np.exp(-1j * theta)
    # <u_j|u_{j+1}> for the valence doublet, with periodic wraparound.
    overlaps = 0.5 * (np.conj(phase_factor) * np.roll(phase_factor, -1) + 1.0)
    total = float(np.sum(np.angle(overlaps)))
    return np.pi * (round(-total / np.pi) % 2)


def band_edge_params(p: SshParams) -> BandEdgeParams:
    """Expansion Delta(pi + q) ~ delta0 + (1/2) curvature q^2, |mu| ~ dipole_slope |q|.

    Curvature from a central second difference of Delta at k = pi; the dipole
    slope from the central first difference of the signed mu (|mu| is even
    about pi, so differencing the magnitude directly would cancel). A flat
    edge (t2 = 0, or a difference that rounds to zero) has no band-edge
    momentum q*(omega) and raises CriticalPointError.
    """
    if abs(p.ratio - 1.0) < CRITICAL_TOL:
        raise CriticalPointError(
            f"ratio {p.ratio} within {CRITICAL_TOL} of the gap closure; edge expansion undefined"
        )
    h = 1e-4
    gaps = band_gap(np.array([np.pi - h, np.pi, np.pi + h]), p)
    curvature = float((gaps[0] - 2.0 * gaps[1] + gaps[2]) / h**2)
    if not curvature > 0:
        raise CriticalPointError(
            f"ratio {p.ratio} gives band-edge curvature {curvature}; "
            "edge expansion needs a positive curvature"
        )
    mus = dipole(np.array([np.pi - h, np.pi + h]), p)
    dipole_slope = float(abs(mus[1] - mus[0]) / (2.0 * h))
    return BandEdgeParams(delta0=p.edge_gap, curvature=curvature, dipole_slope=dipole_slope)


def edge_momentum_map(omegas: np.ndarray, edge: BandEdgeParams) -> np.ndarray:
    """q*(omega) = sqrt(2 (omega - delta0)/curvature), clamped to 0 below edge."""
    radicand = 2.0 * (np.asarray(omegas, dtype=float) - edge.delta0) / edge.curvature
    return np.sqrt(np.clip(radicand, 0.0, None))
