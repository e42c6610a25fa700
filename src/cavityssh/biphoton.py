"""Two-photon output states, Schmidt spectra, and the entanglement scan.

The emitted pair amplitude is the vertex sampled on a frequency grid times a
separable Gaussian pump, psi_out = Gamma(omega1, omega2) phi(omega1) phi(omega2).
The vertex is the interaction kernel of `vertex` evaluated on the band-edge
momenta q*(omega) of `lattice.edge_momentum_map`.
An amplitude is a plain real float64 (n, n) array on grid x grid,
normalized to unit L2 measure: the pump and the kernel are real, so the
product is too, at half the bytes of a complex one. Schmidt modes come from
its SVD with the grid measure absorbed, so coefficients and entropies are
resolution-independent. Only the scaled matrix handed to LAPACK is complex,
so the weights are `zgesdd`'s bytes; `dgesdd` on the real matrix rounds
differently. Every output state is an `output_state`, and every Schmidt row
an `entropy_scan` row.

No function writes an array its caller passed in. Each lets go of its
arguments once it has what it needs from them, so a caller that passes
temporaries holds one amplitude besides LAPACK's copy at the SVD, as
`entropy_scan` does for the pump, the kernel and the output state of each row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GridTooNarrowError, ZeroNormError
from .lattice import BandEdgeParams, edge_momentum_map
from .numerics import pairwise_sum, svd_singular_values
from .params import FrequencyGrid, InteractionKernel
from .vertex import _kernel_matrix

PUMP_SPAN_SIGMAS = 4.0


class SchmidtSpectrum(NamedTuple):
    """Normalized Schmidt weights (nonincreasing) and their entropies."""

    coefficients: np.ndarray
    entropy_nats: float
    entropy_bits: float


class EntropyScanRow(NamedTuple):
    """One kernel range of the entanglement scan."""

    zeta: float
    entropy_nats: float
    entropy_bits: float
    leading: tuple[float, float, float, float]
    ratio_fit: float
    fit_r2: float


def _normalize(amplitude: np.ndarray, spacing: float) -> np.ndarray:
    """Scale `amplitude`, which the caller allocated, in place by the
    reciprocal of its norm on the grid measure; returns it.

    It multiplies by the reciprocal because the pinned amplitudes are numpy's
    complex array divided by a real scalar, which rounds as a * (1/x); a
    float division rounds differently.
    """
    norm_sq = float(pairwise_sum(np.abs(amplitude.ravel()) ** 2)) * spacing**2
    if norm_sq < 1e-280:
        raise ZeroNormError("two-photon amplitude vanishes identically")
    amplitude *= 1.0 / np.sqrt(norm_sq)
    return amplitude


def input_state(grid: FrequencyGrid, omega0: float, sigma: float) -> np.ndarray:
    """Separable Gaussian pair phi(omega1) phi(omega2), phi ~ exp(-(w-w0)^2/(2 s^2)),
    normalized on grid x grid, as a real float64 array.

    The grid must span omega0 +- 4 sigma so the pump tails are resolved.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    slack = 1e-9 * sigma
    if grid.start > omega0 - PUMP_SPAN_SIGMAS * sigma + slack or grid.stop < (
        omega0 + PUMP_SPAN_SIGMAS * sigma - slack
    ):
        raise GridTooNarrowError(
            f"grid [{grid.start}, {grid.stop}] does not span omega0 +- "
            f"{PUMP_SPAN_SIGMAS} sigma = [{omega0 - PUMP_SPAN_SIGMAS * sigma}, "
            f"{omega0 + PUMP_SPAN_SIGMAS * sigma}]"
        )
    phi = np.exp(-((grid.values - omega0) ** 2) / (2.0 * sigma**2))
    amplitude = np.outer(phi, phi)
    return _normalize(amplitude, grid.spacing)


def schmidt_decompose(amplitude: np.ndarray, spacing: float) -> SchmidtSpectrum:
    """Schmidt weights lambda_n = sigma_n^2 / sum sigma^2 from the measured SVD
    of an amplitude sampled on a grid of the given spacing.

    The spacing is absorbed into the matrix (amplitude * d omega), making
    the weights invariant under grid refinement. Entropy uses 0 ln 0 = 0.
    The matrix is complex128 whatever the amplitude's type, so a real
    amplitude gets the weights of its complex cast bit for bit. The amplitude
    is let go once the scaled matrix is formed, so one passed as a temporary
    is freed before the SVD.
    """
    matrix = np.multiply(amplitude, spacing, dtype=complex)
    del amplitude
    singular = svd_singular_values(matrix)
    weights = singular**2
    weights = weights / float(pairwise_sum(weights))
    positive = weights[weights > 0]
    entropy = float(-pairwise_sum(positive * np.log(positive)))
    return SchmidtSpectrum(
        coefficients=weights, entropy_nats=entropy, entropy_bits=entropy / np.log(2.0)
    )


def output_state(grid: FrequencyGrid, omega0: float, sigma: float, edge: BandEdgeParams,
                 kern: InteractionKernel) -> np.ndarray:
    """The output state of one kernel: a fresh Gaussian pump times the vertex
    v0 exp(-zeta (q*(w1) - q*(w2))^2), normalized.

    The vertex is sampled in the band-edge momentum coordinates q*(omega);
    frequencies below the edge map to q* = 0, where the kernel saturates.
    The product is formed out of place, on purpose: an in-place multiply
    traces less but can put the fig5c child's peak about 0.5 MiB higher.
    The pump and the kernel are freed once their product exists.
    """
    pump = input_state(grid, omega0, sigma)
    amplitude = pump * _kernel_matrix(edge_momentum_map(grid.values, edge), kern)
    del pump
    return _normalize(amplitude, grid.spacing)


def entropy_scan(
    zeta_values,
    grid: FrequencyGrid,
    omega0: float,
    sigma: float,
    edge: BandEdgeParams,
    v0: float,
) -> list[EntropyScanRow]:
    """Schmidt entropy vs kernel range for the stationary-phase Gaussian kernel:
    one row per zeta, the decomposition of that kernel's `output_state`.

    Each row fits ln(lambda_n) of its leading four weights linearly in n and
    reports the ratio exp(slope) and its R^2. Each row maps q*(omega) afresh
    and builds its pump, kernel and output state as temporaries, so none of
    them is held through the SVD. The fits run after the last decomposition:
    the first least-squares call maps LAPACK's pages, which no later SVD
    should sit on.
    """
    kernels = [InteractionKernel(v0, zeta) for zeta in zeta_values]
    spectra = [schmidt_decompose(output_state(grid, omega0, sigma, edge, kern), grid.spacing)
               for kern in kernels]
    return [_scan_row(kern, spectrum) for kern, spectrum in zip(kernels, spectra)]


def _scan_row(kern: InteractionKernel, spectrum: SchmidtSpectrum) -> EntropyScanRow:
    """The scan row of one kernel's spectrum: its entropies, leading four
    weights and their geometric fit."""
    leading = tuple(float(x) for x in spectrum.coefficients[:4])
    ratio_fit, fit_r2 = _geometric_fit(np.asarray(leading))
    return EntropyScanRow(
        zeta=float(kern.zeta),
        entropy_nats=spectrum.entropy_nats,
        entropy_bits=spectrum.entropy_bits,
        leading=leading,
        ratio_fit=ratio_fit,
        fit_r2=fit_r2,
    )


def _geometric_fit(leading: np.ndarray) -> tuple[float, float]:
    """Slope ratio and R^2 of ln(lambda_n) vs n over the leading weights."""
    if np.any(leading <= 0):
        # Separable spectrum: no geometric tail to fit.
        return 0.0, float("nan")
    logs = np.log(leading)
    ns = np.arange(leading.size, dtype=float)
    slope, intercept = np.polyfit(ns, logs, 1)
    predicted = intercept + slope * ns
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return float(np.exp(slope)), float(r2)
