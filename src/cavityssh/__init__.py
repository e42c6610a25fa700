"""Cavity photons coupled to a dimerized chain: bands, spectra, nonlinearities.

Each public name is listed once, under the module that defines it, and that
module is imported the first time the name is looked up (PEP 562), so
`import cavityssh` alone loads neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "params": (
        "SshParams", "CavityParams", "ThermalState", "InteractionKernel", "FrequencyGrid",
    ),
    "lattice": (
        "BandEdgeParams", "band_gap", "band_energies", "dipole",
        "bloch_phase", "zak_phase", "band_edge_params", "edge_momentum_map",
    ),
    "cavity": (
        "BubbleTable", "self_energy_spectrum", "dressed_propagator",
        "spectral_map", "hopfield_branches",
    ),
    "keldysh": (
        "bose_occupation", "KeldyshMap", "keldysh_map",
    ),
    "kerr": (
        "KerrResult", "KerrScanRow", "solve_omega_sequence", "kerr_from_fit", "kerr_scan",
    ),
    "vertex": (
        "gamma4_direct_grid", "gamma4_stationary",
    ),
    "biphoton": (
        "SchmidtSpectrum", "EntropyScanRow", "input_state", "schmidt_decompose",
        "output_state", "entropy_scan",
    ),
    "dressing": (
        "DressedBandSweep", "dressed_band_sweep",
    ),
    "numerics": (
        "pairwise_sum", "zone_trapezoid", "complex_newton",
    ),
    "errors": (
        "CavitySshError", "GaplessPointError", "CriticalPointError",
        "NoConvergenceError", "BelowThresholdError", "ZeroRangeError", "ZeroNormError",
        "GridTooNarrowError", "ConfigInvalidError", "NonFiniteSampleError",
        "NonFiniteEntryError", "NonPositiveFrequencyError", "DegenerateDesignError",
        "ZeroSpectralWeightError",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
