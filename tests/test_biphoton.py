"""Two-photon amplitudes, Schmidt spectra, and the entanglement-vs-range scan."""

import math
import tracemalloc

import numpy as np
import pytest

from cavityssh import biphoton
from cavityssh import (
    BiphotonState,
    FrequencyGrid,
    GridTooNarrowError,
    InteractionKernel,
    SshParams,
    apply_vertex,
    band_edge_params,
    edge_momentum_map,
    entropy_scan,
    input_state,
    output_state,
    schmidt_decompose,
)

# every pump sample sits above the band edge for this chain
CHAIN = SshParams(1.0, 0.8)
EDGE = band_edge_params(CHAIN)
GRID = FrequencyGrid(0.6, 1.4, 128)
PUMP = dict(omega0=1.0, sigma=0.1)


def test_input_state_is_normalized_and_separable():
    state = input_state(GRID, **PUMP)
    weight = np.sum(np.abs(state.amplitude) ** 2) * state.grid.spacing**2
    assert abs(weight - 1.0) < 1e-10
    assert schmidt_decompose(state).entropy_nats < 1e-10


def test_input_state_peaks_at_the_pump_center():
    # 1.0 falls between two nodes of the 128-point grid, so the peak may land
    # on either neighbour; it must be symmetric and within one spacing
    state = input_state(GRID, **PUMP)
    idx = np.unravel_index(np.argmax(np.abs(state.amplitude)), state.amplitude.shape)
    assert idx[0] == idx[1]
    assert abs(GRID.values[idx[0]] - 1.0) <= GRID.spacing


def test_input_state_rejects_clipped_pump():
    with pytest.raises(GridTooNarrowError):
        input_state(FrequencyGrid(0.9, 1.1, 64), omega0=1.0, sigma=0.1)


def test_biphoton_state_validates_shape():
    with pytest.raises(ValueError):
        BiphotonState(grid=GRID, amplitude=np.zeros((3, 3), dtype=complex))


def test_apply_vertex_constant_leaves_entropy_unchanged():
    state = input_state(GRID, **PUMP)
    before = schmidt_decompose(state)
    after = schmidt_decompose(apply_vertex(state, np.full((128, 128), 2.7)))
    np.testing.assert_allclose(
        after.coefficients[:8], before.coefficients[:8], atol=1e-12
    )
    assert abs(after.entropy_nats - before.entropy_nats) < 1e-12


def test_apply_vertex_product_kernel_stays_separable():
    state = input_state(GRID, **PUMP)
    f = np.exp(-((GRID.values - 1.0) ** 2))
    g = 1.0 + 0.5 * np.cos(GRID.values)
    out = apply_vertex(state, np.outer(f, g))
    assert schmidt_decompose(out).entropy_nats < 1e-10


def test_apply_vertex_rejects_mismatched_sample():
    state = input_state(GRID, **PUMP)
    with pytest.raises(ValueError):
        apply_vertex(state, np.ones((64, 64)))


def test_schmidt_two_mode_state_gives_ln2():
    amplitude = np.zeros((128, 128), dtype=complex)
    amplitude[20, 20] = 1.0
    amplitude[90, 90] = 1.0
    state = BiphotonState(grid=GRID, amplitude=amplitude)
    spectrum = schmidt_decompose(state)
    np.testing.assert_allclose(spectrum.coefficients[:2], [0.5, 0.5], atol=1e-12)
    assert abs(spectrum.entropy_nats - math.log(2.0)) < 1e-12
    assert abs(spectrum.entropy_bits - 1.0) < 1e-12


def test_schmidt_weights_normalized_and_sorted():
    state = apply_vertex(
        input_state(GRID, **PUMP),
        np.exp(-2.0 * (GRID.values[:, None] - GRID.values[None, :]) ** 2),
    )
    spectrum = schmidt_decompose(state)
    assert abs(np.sum(spectrum.coefficients) - 1.0) < 1e-10
    assert np.all(np.diff(spectrum.coefficients) <= 1e-15)


def test_schmidt_entropy_invariances():
    kernel = np.exp(-1.5 * (GRID.values[:, None] - GRID.values[None, :]) ** 2)
    state = apply_vertex(input_state(GRID, **PUMP), kernel)
    base = schmidt_decompose(state).entropy_nats

    swapped = BiphotonState(grid=GRID, amplitude=state.amplitude.T.copy())
    assert abs(schmidt_decompose(swapped).entropy_nats - base) < 1e-12

    phases = np.exp(1j * np.linspace(0.0, 5.0, 128))
    rotated = BiphotonState(
        grid=GRID,
        amplitude=np.exp(0.7j) * phases[:, None] * state.amplitude * phases[None, :] ** 2,
    )
    assert abs(schmidt_decompose(rotated).entropy_nats - base) < 1e-10


def test_edge_momentum_map_clamps_below_threshold():
    omegas = np.array([0.0, EDGE.delta0, EDGE.delta0 + EDGE.curvature / 2.0])
    qs = edge_momentum_map(omegas, EDGE)
    assert qs[0] == 0.0
    assert qs[1] == 0.0
    assert abs(qs[2] - 1.0) < 1e-12


def test_entropy_scan_monotone_and_geometric():
    zetas = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    scan_grid = FrequencyGrid(0.6, 1.4, 256)
    rows = entropy_scan(zetas, scan_grid, PUMP["omega0"], PUMP["sigma"], EDGE, v0=1.0)
    entropies = [row.entropy_nats for row in rows]
    assert entropies[0] < 1e-10
    assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
    for row in rows:
        assert abs(row.entropy_bits - row.entropy_nats / math.log(2.0)) < 1e-12
        if row.zeta >= 1.0:
            assert row.fit_r2 > 0.99
            assert 0.0 < row.ratio_fit < 1.0


def test_entropy_scan_zero_range_row_is_separable():
    row = entropy_scan([0.0], GRID, PUMP["omega0"], PUMP["sigma"], EDGE, v0=1.0)[0]
    # one weight carries everything; the fitted ratio is noise-floor small
    assert row.leading[0] > 0.999
    assert row.ratio_fit < 1e-6
    assert row.entropy_nats < 1e-6


def test_entropy_scan_grid_refinement_stable():
    fine = FrequencyGrid(0.6, 1.4, 256)
    coarse_row = entropy_scan([5.0], GRID, 1.0, 0.1, EDGE, v0=1.0)[0]
    fine_row = entropy_scan([5.0], fine, 1.0, 0.1, EDGE, v0=1.0)[0]
    assert abs(coarse_row.entropy_nats - fine_row.entropy_nats) < 1e-3


def test_scan_rows_decompose_the_output_states():
    rows = entropy_scan([0.0, 2.5], GRID, edge=EDGE, v0=1.0, **PUMP)
    kernels = [InteractionKernel(1.0, zeta) for zeta in (0.0, 2.5)]
    states = [output_state(GRID, edge=EDGE, kern=kern, **PUMP) for kern in kernels]
    assert rows == [biphoton._scan_row(kern, schmidt_decompose(state))
                    for kern, state in zip(kernels, states)]
    with pytest.raises(ValueError):
        output_state(GRID, edge=EDGE, kern=InteractionKernel(1.0, -1.0), **PUMP)


def test_no_function_writes_an_array_of_its_caller():
    """Normalization runs in place, on arrays each function allocated itself;
    a pump, a kernel or a state the caller holds keeps every byte."""
    pump = input_state(GRID, **PUMP)
    kernel = np.exp(-1.5 * (GRID.values[:, None] - GRID.values[None, :]) ** 2)
    pump_bytes, kernel_bytes = pump.amplitude.tobytes(), kernel.tobytes()
    out = apply_vertex(pump, kernel)
    assert (pump.amplitude.tobytes(), kernel.tobytes()) == (pump_bytes, kernel_bytes)
    out_bytes = out.amplitude.tobytes()
    schmidt_decompose(out)
    schmidt_decompose(pump)
    assert (out.amplitude.tobytes(), pump.amplitude.tobytes()) == (out_bytes, pump_bytes)
    pair = output_state(GRID, edge=EDGE, kern=InteractionKernel(1.0, 1.5), **PUMP)
    assert pump.amplitude.tobytes() == pump_bytes
    assert not np.shares_memory(pair.amplitude, pump.amplitude)
    other = input_state(GRID, omega0=1.05, sigma=0.08)
    assert other.amplitude.tobytes() != pump_bytes
    assert pump.amplitude.tobytes() == pump_bytes


def test_an_entropy_scan_holds_one_amplitude_at_a_time():
    """On the 256^2 fig5c grid each row builds its pump, kernel and output
    state as temporaries, and each is freed once the next step has what it
    needs, so no pump or kernel is held through a normalization or an SVD.
    Two rows trace at most 3.5 MiB: 2.63 MiB measured, where holding one pump
    for every row and each kernel through its SVD traced 4.01 MiB."""
    grid = FrequencyGrid(0.6, 1.4, 256)
    edge = band_edge_params(SshParams(1.0, 0.5))
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entropy_scan([1.0, 2.0], grid, 1.0, 0.1, edge, v0=1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 3.5 * 2**20
