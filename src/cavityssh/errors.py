"""Exception types shared across the library.

Every computational failure mode gets its own class so callers (and the CLI
exit-code mapping) can tell configuration mistakes from numerical breakdowns.
"""

from __future__ import annotations


class CavitySshError(Exception):
    """Base class for all library errors."""


class GaplessPointError(CavitySshError):
    """Band gap closes at the requested momentum; quantity undefined."""


class CriticalPointError(CavitySshError):
    """Hopping ratio where an expansion is undefined: too close to the
    critical point t2/t1 = 1, or with a band edge that is not curved upward."""


class NonFiniteSampleError(CavitySshError):
    """An integrand sample evaluated to nan or inf."""


class NoConvergenceError(CavitySshError):
    """Iterative solve did not reach tolerance; carries the last iterate."""

    def __init__(self, message: str, last: complex, residual: float, iterations: int):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.iterations = iterations


class DegenerateDesignError(CavitySshError):
    """Fit abscissae do not determine the polynomial coefficients."""


class NonFiniteEntryError(CavitySshError):
    """A matrix handed to a decomposition contains nan or inf."""


class NonPositiveFrequencyError(CavitySshError):
    """Bose factor requested at omega <= 0."""


class ZeroSpectralWeightError(CavitySshError):
    """Occupation requested where the spectral function vanishes."""


class BelowThresholdError(CavitySshError):
    """Frequency below the band-edge threshold; saddle point is imaginary.

    ``which`` names the offending argument(s): "omega1", "omega2" or "both".
    """

    def __init__(self, message: str, which: str):
        super().__init__(message)
        self.which = which


class ZeroRangeError(CavitySshError):
    """Stationary-phase form requested for a zero-range (zeta = 0) kernel."""


class ZeroNormError(CavitySshError):
    """Two-photon amplitude vanishes identically; cannot normalize."""


class GridTooNarrowError(CavitySshError):
    """Frequency grid does not cover the requested pump support."""


class ConfigInvalidError(CavitySshError):
    """Run configuration failed validation (CLI exit code 2)."""
