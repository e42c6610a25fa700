"""Two-photon amplitudes, Schmidt spectra, and the entanglement-vs-range scan."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityssh import biphoton
from cavityssh import (
    FrequencyGrid,
    GridTooNarrowError,
    InteractionKernel,
    SshParams,
    ZeroNormError,
    band_edge_params,
    edge_momentum_map,
    entropy_scan,
    input_state,
    output_state,
    pairwise_sum,
    schmidt_decompose,
)

# every pump sample sits above the band edge for this chain
CHAIN = SshParams(1.0, 0.8)
EDGE = band_edge_params(CHAIN)
GRID = FrequencyGrid(0.6, 1.4, 128)
PUMP = dict(omega0=1.0, sigma=0.1)


def test_input_state_is_normalized_and_separable():
    state = input_state(GRID, **PUMP)
    assert state.shape == (128, 128) and state.dtype == np.float64
    weight = np.sum(np.abs(state) ** 2) * GRID.spacing**2
    assert abs(weight - 1.0) < 1e-10
    assert schmidt_decompose(state, GRID.spacing).entropy_nats < 1e-10


def test_input_state_peaks_at_the_pump_center():
    # 1.0 falls between two nodes of the 128-point grid, so the peak may land
    # on either neighbour; it must be symmetric and within one spacing
    state = input_state(GRID, **PUMP)
    idx = np.unravel_index(np.argmax(np.abs(state)), state.shape)
    assert idx[0] == idx[1]
    assert abs(GRID.values[idx[0]] - 1.0) <= GRID.spacing


def test_input_state_rejects_clipped_pump():
    with pytest.raises(GridTooNarrowError):
        input_state(FrequencyGrid(0.9, 1.1, 64), omega0=1.0, sigma=0.1)


def test_a_constant_kernel_leaves_entropy_unchanged():
    before = schmidt_decompose(input_state(GRID, **PUMP), GRID.spacing)
    after = schmidt_decompose(
        output_state(GRID, edge=EDGE, kern=InteractionKernel(2.7, 0.0), **PUMP), GRID.spacing
    )
    np.testing.assert_allclose(
        after.coefficients[:8], before.coefficients[:8], atol=1e-12
    )
    assert abs(after.entropy_nats - before.entropy_nats) < 1e-12


def test_a_product_kernel_stays_separable():
    f = np.exp(-((GRID.values - 1.0) ** 2))
    g = 1.0 + 0.5 * np.cos(GRID.values)
    out = input_state(GRID, **PUMP) * np.outer(f, g)
    assert schmidt_decompose(out, GRID.spacing).entropy_nats < 1e-10


def test_schmidt_two_mode_state_gives_ln2():
    amplitude = np.zeros((128, 128), dtype=complex)
    amplitude[20, 20] = 1.0
    amplitude[90, 90] = 1.0
    spectrum = schmidt_decompose(amplitude, GRID.spacing)
    np.testing.assert_allclose(spectrum.coefficients[:2], [0.5, 0.5], atol=1e-12)
    assert abs(spectrum.entropy_nats - math.log(2.0)) < 1e-12
    assert abs(spectrum.entropy_bits - 1.0) < 1e-12


def test_schmidt_weights_normalized_and_sorted():
    kernel = np.exp(-2.0 * (GRID.values[:, None] - GRID.values[None, :]) ** 2)
    spectrum = schmidt_decompose(input_state(GRID, **PUMP) * kernel, GRID.spacing)
    assert abs(np.sum(spectrum.coefficients) - 1.0) < 1e-10
    assert np.all(np.diff(spectrum.coefficients) <= 1e-15)


def test_schmidt_entropy_invariances():
    kernel = np.exp(-1.5 * (GRID.values[:, None] - GRID.values[None, :]) ** 2)
    state = input_state(GRID, **PUMP) * kernel
    base = schmidt_decompose(state, GRID.spacing).entropy_nats

    swapped = state.T.copy()
    assert abs(schmidt_decompose(swapped, GRID.spacing).entropy_nats - base) < 1e-12

    phases = np.exp(1j * np.linspace(0.0, 5.0, 128))
    rotated = np.exp(0.7j) * phases[:, None] * state * phases[None, :] ** 2
    assert abs(schmidt_decompose(rotated, GRID.spacing).entropy_nats - base) < 1e-10


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
    assert rows == [biphoton._scan_row(kern, schmidt_decompose(state, GRID.spacing))
                    for kern, state in zip(kernels, states)]
    with pytest.raises(ValueError):
        output_state(GRID, edge=EDGE, kern=InteractionKernel(1.0, -1.0), **PUMP)


def test_no_function_writes_an_array_of_its_caller():
    """Normalization runs in place, on arrays each function allocated itself;
    a pump or an output state the caller holds keeps every byte."""
    pump = input_state(GRID, **PUMP)
    pump_bytes = pump.tobytes()
    pair = output_state(GRID, edge=EDGE, kern=InteractionKernel(1.0, 1.5), **PUMP)
    assert pump.tobytes() == pump_bytes
    assert not np.shares_memory(pair, pump)
    pair_bytes = pair.tobytes()
    schmidt_decompose(pair, GRID.spacing)
    schmidt_decompose(pump, GRID.spacing)
    assert (pair.tobytes(), pump.tobytes()) == (pair_bytes, pump_bytes)
    other = input_state(GRID, omega0=1.05, sigma=0.08)
    assert other.tobytes() != pump_bytes
    assert pump.tobytes() == pump_bytes


def test_a_real_amplitude_decomposes_as_its_complex_cast_bit_for_bit(monkeypatch):
    """The amplitude stays float64 up to the SVD, and the matrix handed to
    LAPACK is complex128, so the weights are `zgesdd`'s, as they were when
    the amplitude was complex throughout. A float matrix would reach `dgesdd`,
    whose singular values differ in the last bits. The fig5c grid at zeta = 1."""
    grid = FrequencyGrid(0.6, 1.4, 256)
    state = output_state(grid, 1.0, 0.1, band_edge_params(SshParams(1.0, 0.5)),
                         InteractionKernel(1.0, 1.0))
    assert state.dtype == np.float64
    handed, decompose = [], biphoton.svd_singular_values

    def spy(matrix):
        handed.append(matrix.dtype)
        return decompose(matrix)

    monkeypatch.setattr(biphoton, "svd_singular_values", spy)
    real = schmidt_decompose(state, grid.spacing)
    cast = schmidt_decompose(state.astype(complex), grid.spacing)
    assert handed == [np.dtype(complex), np.dtype(complex)]
    assert real.coefficients.tobytes() == cast.coefficients.tobytes()
    assert np.array([real.entropy_nats, real.entropy_bits]).tobytes() == \
        np.array([cast.entropy_nats, cast.entropy_bits]).tobytes()


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([2, 3, 17, 64, 255]), spacing=st.floats(1e-3, 1.0),
       exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
       seed=st.integers(0, 2**32 - 1))
def test_normalize_by_the_reciprocal_is_the_old_complex_division(n, spacing, exponents, seed):
    """`_normalize` multiplies a float amplitude by 1/norm. numpy divides a
    complex array by a real scalar as a * (1/x), so this is word for word the
    real part of the complex division that wrote the pinned densities, whose
    imaginary part is +0.0; a float `/=` would round differently. Magnitudes
    span 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    low, high = sorted(exponents)
    amplitude = (rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(1.0, 10.0, (n, n))
                 * 10.0 ** rng.integers(low, high + 1, (n, n)).astype(float))
    old = amplitude.astype(complex)
    norm_sq = float(pairwise_sum(np.abs(old.ravel()) ** 2)) * spacing**2
    if norm_sq < 1e-280:
        with pytest.raises(ZeroNormError):
            biphoton._normalize(amplitude.copy(), spacing)
        return
    old = old / np.sqrt(norm_sq)
    new = biphoton._normalize(amplitude.copy(), spacing)
    assert new.dtype == np.float64
    assert np.array_equal(new.view(np.int64), old.real.view(np.int64))
    assert np.array_equal(old.imag.view(np.int64), np.zeros((n, n), dtype=np.int64))


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
