"""Effective four-photon vertex from a momentum-space two-body kernel.

Direct evaluation is a double zone integral of two interband bubbles glued by
a Gaussian kernel V(k, k') = v0 exp(-zeta (k - k')^2); near the band edge the
integral contracts onto the stationary points q* of the quadratic gap.
Both evaluators use the bare-bubble (g = 1) normalization; the coupling
prefactor is deliberately not included here and is recorded with run outputs.
"""

from __future__ import annotations

import numpy as np

from .cavity import BubbleTable
from .errors import BelowThresholdError, ZeroRangeError
from .lattice import BandEdgeParams, edge_momentum_map
from .numerics import _py_product, _py_square, _reduce_in_place
from .params import CavityParams, InteractionKernel, SshParams


def _kernel_matrix(nodes: np.ndarray, kern: InteractionKernel) -> np.ndarray:
    """v0 exp(-zeta (x - x')^2) on every pair of `nodes`: zone momenta here,
    band-edge momenta q*(omega) in `biphoton`."""
    return kern.v0 * np.exp(-kern.zeta * (nodes[:, None] - nodes[None, :]) ** 2)


def gamma4_direct_grid(
    omegas: np.ndarray,
    p: SshParams,
    c: CavityParams,
    kern: InteractionKernel,
    n_k: int,
) -> np.ndarray:
    """Double trapezoid of bubble(k; omega1) V(k, k') bubble(k'; omega2) / (2pi)^2
    on the square grid omegas x omegas (one zone, one kernel build).

    The zone is read as the table gives it, in `numerics.reduction_order`:
    the kernel on its nodes, and its samples as one zone x omega block b.
    Inner sum k is the block v[k, k'] b[k', i], kernel first in each product,
    halved in place over k'; row i of the result is the block
    inner[k, i] b[k, j], halved over k. Each halving brackets as
    `pairwise_sum` does, so each entry equals the pairwise double sum of its
    pair alone in node order, bit for bit. No zone-squared product is ever
    formed: the largest temporary is one zone-by-omega block.
    """
    table = BubbleTable(p, c.eta, n_k)
    v = _kernel_matrix(table.nodes, kern)
    b = np.stack([table.samples(w) for w in np.asarray(omegas, dtype=float)], axis=-1)
    block, inner = np.empty_like(b), np.empty_like(b)
    for v_k, sums in zip(v, inner):
        sums[...] = _reduce_in_place(np.multiply(v_k[:, None], b, out=block))
    scale = (2.0 * np.pi) ** 2
    grid = np.empty((b.shape[1], b.shape[1]), dtype=complex)
    for i, row in enumerate(grid):
        np.divide(_reduce_in_place(np.multiply(inner[:, i, None], b, out=block)), scale, out=row)
    return grid


def gamma4_stationary(omega1, omega2, kern: InteractionKernel, edge: BandEdgeParams,
                      eta: float):
    """Band-edge stationary-phase vertex

    A^4 v0 (q1* q2*)^2 exp(-zeta (q1* - q2*)^2) sqrt(2pi/zeta)
        / ((omega1 - delta0 + i eta)(omega2 - delta0 + i eta)),

    elementwise on omega1 and omega2 broadcast together (a complex for two
    floats), each element rounded as that formula of Python scalars rounds it:
    squares by `numerics._py_square`, the denominator by `_py_product`.

    Only the shape is meaningful relative to gamma4_direct_grid (the absolute
    normalization of the saddle measure is not pinned); zeta = 0 has no
    stationary width and is rejected. A frequency below delta0 has no real
    stationary momentum: BelowThresholdError names the argument(s) below it.
    """
    if kern.zeta == 0:
        raise ZeroRangeError("stationary-phase form undefined for zeta = 0")
    omega1, omega2 = np.asarray(omega1, dtype=float), np.asarray(omega2, dtype=float)
    below = [bool(np.any(omega1 < edge.delta0)), bool(np.any(omega2 < edge.delta0))]
    if any(below):
        which = "both" if all(below) else ("omega1" if below[0] else "omega2")
        raise BelowThresholdError(
            f"frequency below the band edge delta0 = {edge.delta0}", which=which
        )
    q1, q2 = edge_momentum_map(omega1, edge), edge_momentum_map(omega2, edge)
    amplitude = (edge.dipole_slope**4 * kern.v0 * _py_square(q1 * q2)
                 * np.exp(-kern.zeta * _py_square(q1 - q2)) * np.sqrt(2.0 * np.pi / kern.zeta))
    shift = 1j * eta  # a float plus a complex adds part by part
    d_im = 0.0 + shift.imag
    denom = np.empty(np.broadcast(omega1, omega2).shape, dtype=complex)
    denom.real, denom.imag = _py_product(omega1 - edge.delta0 + shift.real, d_im,
                                         omega2 - edge.delta0 + shift.real, d_im)
    value = amplitude / denom
    return value if value.ndim else complex(value)
