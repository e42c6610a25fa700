"""The checked records: keyword construction, the same ValueError messages,
equality by fields, immutability, and a check on every way to build one."""

import pickle

import numpy as np
import pytest

from cavityssh import (
    BiphotonState, CavityParams, FrequencyGrid, InteractionKernel, SshParams, ThermalState,
)

GRID = FrequencyGrid(start=0.0, stop=1.0, count=3)

# record, good fields, one bad field and the message it raises
CASES = [
    (SshParams, {"t1": 1.0, "t2": 0.5}, {"t1": 0.0}, "t1 must be positive, got 0.0"),
    (SshParams, {"t1": 1.0, "t2": 0.5}, {"t2": -1.0}, "t2 must be >= 0, got -1.0"),
    (CavityParams, {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
     {"eta": 0.0}, "eta must be positive, got 0.0"),
    (CavityParams, {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
     {"g": -1.0}, "g must be >= 0, got -1.0"),
    (ThermalState, {"temperature": 0.1}, {"temperature": -0.1},
     "temperature must be >= 0, got -0.1"),
    (InteractionKernel, {"v0": 1.0, "zeta": 0.0}, {"zeta": -1.0},
     "zeta must be >= 0, got -1.0"),
    (FrequencyGrid, {"start": 0.0, "stop": 1.0, "count": 3}, {"stop": 0.0},
     r"grid needs stop > start, got \[0.0, 0.0\]"),
    (FrequencyGrid, {"start": 0.0, "stop": 1.0, "count": 3}, {"count": 1},
     "grid needs at least 2 samples, got 1"),
    (BiphotonState, {"grid": GRID, "amplitude": np.ones((3, 3))}, {"amplitude": np.ones(3)},
     r"amplitude shape \(3,\), expected \(3, 3\)"),
]
IDS = [f"{record.__name__}-{next(iter(bad))}" for record, _, bad, _ in CASES]


@pytest.mark.parametrize("record, good, bad, message", CASES, ids=IDS)
def test_every_construction_checks_the_fields(record, good, bad, message):
    made = record(**good)
    assert made._fields == tuple(good)
    with pytest.raises(ValueError, match=message):
        record(**{**good, **bad})
    with pytest.raises(ValueError, match=message):
        made._replace(**bad)
    with pytest.raises(ValueError, match=message):
        record._make({**good, **bad}.values())


# each record once; a BiphotonState holds an array, which compares elementwise
PLAIN = {record: good for record, good, _, _ in CASES if record is not BiphotonState}


@pytest.mark.parametrize("record, good", PLAIN.items(), ids=[r.__name__ for r in PLAIN])
def test_records_compare_by_fields_and_are_immutable(record, good):
    made = record(**good)
    assert made == record(*good.values())
    assert pickle.loads(pickle.dumps(made)) == made
    assert repr(made).startswith(f"{record.__name__}(")
    field = next(iter(good))
    with pytest.raises(AttributeError):
        setattr(made, field, good[field])
    with pytest.raises(AttributeError):
        made.extra = 1.0


def test_replace_keeps_the_record_type_and_other_fields():
    cavity = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=0.01)
    moved = cavity._replace(omega_c=2.0)
    assert type(moved) is CavityParams
    assert moved != cavity
    assert moved == CavityParams(omega_c=2.0, mass_beta=0.5, g=1.0, eta=0.01)


def test_biphoton_state_stores_a_complex_amplitude():
    state = BiphotonState(grid=GRID, amplitude=np.ones((3, 3)))
    assert state.amplitude.dtype == complex
    assert state._replace(amplitude=np.eye(3)).amplitude.dtype == complex
