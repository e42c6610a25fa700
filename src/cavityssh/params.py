"""Parameter records: the chain, the cavity, the bath, the kernel, the grids.

Each record is an immutable named tuple that checks its fields on
construction. This module imports no numpy, so `config` can build and check
every record of a run before the numerical modules load;
`FrequencyGrid.values` imports numpy when it is read.
"""

from __future__ import annotations

from collections import namedtuple

MIN_NK = 64


class CheckedRecord:
    """Base of a named tuple record that checks its fields in its own `__new__`.

    A bare named tuple's `_make`, and with it `_replace`, build the tuple
    without calling the subclass's `__new__`; here they call it, so a
    replaced record is checked again."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SshParams(CheckedRecord, namedtuple("SshParams", "t1 t2")):
    """Hopping pair; t1 sets the energy unit, r = t2/t1 the phase."""

    __slots__ = ()

    def __new__(cls, t1: float, t2: float):
        if not t1 > 0:
            raise ValueError(f"t1 must be positive, got {t1}")
        if t2 < 0:
            raise ValueError(f"t2 must be >= 0, got {t2}")
        return super().__new__(cls, t1, t2)

    @property
    def ratio(self) -> float:
        return self.t2 / self.t1

    @property
    def edge_gap(self) -> float:
        """Direct gap 2|t1 - t2| at the zone edge k = pi."""
        return 2.0 * abs(self.t1 - self.t2)


class CavityParams(CheckedRecord, namedtuple("CavityParams", "omega_c mass_beta g eta")):
    """Cavity mode omega_c(q) = omega_c + mass_beta q^2, coupling g, linewidth eta."""

    __slots__ = ()

    def __new__(cls, omega_c: float, mass_beta: float, g: float, eta: float):
        if not omega_c > 0:
            raise ValueError(f"omega_c must be positive, got {omega_c}")
        if mass_beta < 0:
            raise ValueError(f"mass_beta must be >= 0, got {mass_beta}")
        if g < 0:
            raise ValueError(f"g must be >= 0, got {g}")
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        return super().__new__(cls, omega_c, mass_beta, g, eta)


class ThermalState(CheckedRecord, namedtuple("ThermalState", "temperature")):
    """Bath temperature in the band energy units; T = 0 means strict vacuum."""

    __slots__ = ()

    def __new__(cls, temperature: float):
        if temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        return super().__new__(cls, temperature)


class InteractionKernel(CheckedRecord, namedtuple("InteractionKernel", "v0 zeta")):
    """Gaussian momentum kernel v0 exp(-zeta (k - k')^2); zeta = 0 is zero-range."""

    __slots__ = ()

    def __new__(cls, v0: float, zeta: float):
        if zeta < 0:
            raise ValueError(f"zeta must be >= 0, got {zeta}")
        return super().__new__(cls, v0, zeta)


class FrequencyGrid(CheckedRecord, namedtuple("FrequencyGrid", "start stop count")):
    """Uniform closed grid of `count` samples on [start, stop]."""

    __slots__ = ()

    def __new__(cls, start: float, stop: float, count: int):
        if not stop > start:
            raise ValueError(f"grid needs stop > start, got [{start}, {stop}]")
        if count < 2:
            raise ValueError(f"grid needs at least 2 samples, got {count}")
        return super().__new__(cls, start, stop, count)

    @property
    def values(self):
        """The samples, a numpy array: np.linspace(start, stop, count)."""
        import numpy as np

        return np.linspace(self.start, self.stop, self.count)

    @property
    def spacing(self) -> float:
        return (self.stop - self.start) / (self.count - 1)
