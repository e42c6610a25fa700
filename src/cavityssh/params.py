"""Parameter records: the chain, the cavity, the bath, the kernel, the grids.

Each record validates its fields on construction. This module imports no
numpy, so `config` can build and check every record of a run before the
numerical modules load; `FrequencyGrid.values` imports numpy when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_NK = 64


@dataclass(frozen=True)
class SshParams:
    """Hopping pair; t1 sets the energy unit, r = t2/t1 the phase."""

    t1: float
    t2: float

    def __post_init__(self):
        if not self.t1 > 0:
            raise ValueError(f"t1 must be positive, got {self.t1}")
        if self.t2 < 0:
            raise ValueError(f"t2 must be >= 0, got {self.t2}")

    @property
    def ratio(self) -> float:
        return self.t2 / self.t1

    @property
    def edge_gap(self) -> float:
        """Direct gap 2|t1 - t2| at the zone edge k = pi."""
        return 2.0 * abs(self.t1 - self.t2)


@dataclass(frozen=True)
class CavityParams:
    """Cavity mode omega_c(q) = omega_c + mass_beta q^2, coupling g, linewidth eta."""

    omega_c: float
    mass_beta: float
    g: float
    eta: float

    def __post_init__(self):
        if not self.omega_c > 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.mass_beta < 0:
            raise ValueError(f"mass_beta must be >= 0, got {self.mass_beta}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")


@dataclass(frozen=True)
class ThermalState:
    """Bath temperature in the band energy units; T = 0 means strict vacuum."""

    temperature: float

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class InteractionKernel:
    """Gaussian momentum kernel v0 exp(-zeta (k - k')^2); zeta = 0 is zero-range."""

    v0: float
    zeta: float

    def __post_init__(self):
        if self.zeta < 0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform closed grid of `count` samples on [start, stop]."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not self.stop > self.start:
            raise ValueError(f"grid needs stop > start, got [{self.start}, {self.stop}]")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 samples, got {self.count}")

    @property
    def values(self):
        """The samples, a numpy array: np.linspace(start, stop, count)."""
        import numpy as np

        return np.linspace(self.start, self.stop, self.count)

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)
