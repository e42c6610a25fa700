"""Four-photon vertex: direct zone quadrature against factorization and
stationary-phase oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityssh import (
    BelowThresholdError,
    BubbleTable,
    CavityParams,
    InteractionKernel,
    SshParams,
    ZeroRangeError,
    band_edge_params,
    edge_momentum_map,
    gamma4_direct_grid,
    gamma4_stationary,
    pairwise_sum,
)
from cavityssh.vertex import _kernel_matrix
from reference import gamma4_direct, gamma4_saddle, in_node_order

TRIVIAL = SshParams(1.0, 0.5)  # Delta0 = 1
CAV = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
EDGE = band_edge_params(TRIVIAL)


def test_kernel_pointwise_values():
    kern = InteractionKernel(v0=2.0, zeta=4.0)
    v = _kernel_matrix(np.array([0.0, 0.1, 0.3, 0.5, 0.7]), kern)
    assert v[2, 2] == 2.0
    assert abs(v[0, 3] - 2.0 * np.exp(-1.0)) < 1e-15
    assert np.array_equal(v, v.T)


def test_kernel_zero_range_is_flat():
    kern = InteractionKernel(v0=1.3, zeta=0.0)
    v = _kernel_matrix(np.append(np.linspace(-np.pi, np.pi, 7), 0.2), kern)
    assert np.all(v == 1.3)


def test_kernel_rejects_negative_range():
    with pytest.raises(ValueError):
        InteractionKernel(v0=1.0, zeta=-0.5)


def test_direct_vertex_frequency_symmetry():
    kern = InteractionKernel(v0=1.0, zeta=3.0)
    a = gamma4_direct(1.1, 1.27, TRIVIAL, CAV, kern, n_k=256)
    b = gamma4_direct(1.27, 1.1, TRIVIAL, CAV, kern, n_k=256)
    assert a == b


def test_direct_vertex_zero_range_factorizes():
    """With a flat kernel the double integral is v0 times the product of the
    two one-dimensional bubbles on the same zone grid."""
    kern = InteractionKernel(v0=1.7, zeta=0.0)
    table = BubbleTable(TRIVIAL, CAV.eta, n_k=512)
    for omega1, omega2 in ((0.8, 0.8), (1.1, 1.3), (0.6, 1.2)):
        direct = gamma4_direct(omega1, omega2, TRIVIAL, CAV, kern, n_k=512)
        product = kern.v0 * table.integral(omega1) * table.integral(omega2)
        assert abs(direct - product) < 1e-10 * abs(product)


def test_direct_vertex_below_gap_is_reactive():
    sharp = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-3)
    kern = InteractionKernel(v0=1.0, zeta=2.0)
    value = gamma4_direct(0.8, 0.8, TRIVIAL, sharp, kern, n_k=512)
    assert abs(value.imag) < 0.05 * abs(value.real)


def test_direct_vertex_grid_refinement_converged():
    kern = InteractionKernel(v0=1.0, zeta=2.0)
    coarse = gamma4_direct(0.8, 0.8, TRIVIAL, CAV, kern, n_k=512)
    fine = gamma4_direct(0.8, 0.8, TRIVIAL, CAV, kern, n_k=1024)
    assert abs(coarse - fine) < 1e-6 * abs(fine)


def test_direct_vertex_grid_emission_matches_pointwise():
    kern = InteractionKernel(v0=1.0, zeta=1.0)
    omegas = np.array([1.05, 1.2, 1.4])
    grid = gamma4_direct_grid(omegas, TRIVIAL, CAV, kern, n_k=128)
    for i, w1 in enumerate(omegas):
        for j, w2 in enumerate(omegas):
            point = gamma4_direct(float(w1), float(w2), TRIVIAL, CAV, kern, n_k=128)
            assert abs(grid[i, j] - point) < 1e-12 * abs(point)


def test_direct_vertex_grid_equals_the_per_pair_loop_bit_for_bit():
    """Each grid row is one row-wise pairwise sum; it must reproduce the
    per-(i, j) sums over the same transformed bubble vectors exactly."""
    kern = InteractionKernel(v0=1.3, zeta=0.7)
    omegas = np.linspace(0.6, 1.4, 9)
    grid = gamma4_direct_grid(omegas, TRIVIAL, CAV, kern, n_k=200)
    table = BubbleTable(TRIVIAL, CAV.eta, n_k=200)
    nodes = in_node_order(table.nodes)
    v = kern.v0 * np.exp(-kern.zeta * (nodes[:, None] - nodes[None, :]) ** 2)
    bvecs = [in_node_order(table.samples(w)) for w in omegas]
    transformed = [np.array([pairwise_sum(row) for row in v * bv[None, :]]) for bv in bvecs]
    for i in range(omegas.size):
        for j in range(omegas.size):
            loop = pairwise_sum(transformed[i] * bvecs[j]) / (2.0 * np.pi) ** 2
            assert grid[i, j].tobytes() == loop.tobytes()


def test_saddle_points_reference_values():
    q1, q2 = edge_momentum_map([EDGE.delta0, EDGE.delta0 + EDGE.curvature / 2.0], EDGE)
    assert q1 == 0.0
    assert abs(q2 - 1.0) < 1e-12


def test_saddle_points_threshold_errors_name_the_argument():
    kern = InteractionKernel(1.0, 5.0)
    with pytest.raises(BelowThresholdError) as info:
        gamma4_stationary(0.5, 1.5, kern, EDGE, eta=1e-2)
    assert info.value.which == "omega1"
    with pytest.raises(BelowThresholdError) as info:
        gamma4_stationary(1.5, 0.5, kern, EDGE, eta=1e-2)
    assert info.value.which == "omega2"
    with pytest.raises(BelowThresholdError) as info:
        gamma4_stationary(0.5, 0.5, kern, EDGE, eta=1e-2)
    assert info.value.which == "both"


ABOVE = EDGE.delta0 + 0.2
BELOW = float(np.nextafter(EDGE.delta0, -np.inf))


@pytest.mark.parametrize("omega1, omega2", [
    (EDGE.delta0, ABOVE), (ABOVE, EDGE.delta0), (EDGE.delta0, EDGE.delta0),
])
def test_stationary_vertex_at_the_edge_is_zero(omega1, omega2):
    # omega = delta0 is on the threshold, not below it: q* = 0 zeroes the vertex
    value = gamma4_stationary(omega1, omega2, InteractionKernel(1.0, 5.0), EDGE, eta=1e-2)
    assert value == 0


@pytest.mark.parametrize("omega1, omega2, which", [
    (BELOW, ABOVE, "omega1"), (ABOVE, BELOW, "omega2"), (BELOW, BELOW, "both"),
])
def test_stationary_vertex_one_ulp_below_the_edge_raises(omega1, omega2, which):
    with pytest.raises(BelowThresholdError) as info:
        gamma4_stationary(omega1, omega2, InteractionKernel(1.0, 5.0), EDGE, eta=1e-2)
    assert info.value.which == which


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 3.0)),
    v0=st.floats(-3.0, 3.0),
    zeta=st.floats(1e-2, 1e2),
    eta=st.floats(1e-6, 1.0),
    depth=st.floats(0.0, 1.0),
    height=st.floats(1e-3, 2.0),
    count=st.integers(2, 24),
)
# a square of ~14,000 cells, where x * x misses x ** 2 (libm pow) a few times
@example(ratio=0.5, v0=1.3, zeta=10.0, eta=0.02, depth=0.3, height=1.0, count=120)
def test_stationary_vertex_on_arrays_equals_the_scalar_chain(ratio, v0, zeta, eta, depth,
                                                             height, count):
    """On the part of a grid across delta0 at or above it, with delta0 itself
    in front, the broadcast call equals the scalar call and the Python chain
    of `gamma4_saddle` at every cell, as int64 words."""
    edge = band_edge_params(SshParams(1.0, ratio))
    kern = InteractionKernel(v0, zeta)
    grid = np.linspace(edge.delta0 - depth, edge.delta0 + height, count)
    omegas = np.append(edge.delta0, grid[grid >= edge.delta0])
    values = gamma4_stationary(omegas[:, None], omegas, kern, edge, eta)
    points = omegas.tolist()
    scalar = np.array([[gamma4_stationary(w1, w2, kern, edge, eta) for w2 in points]
                       for w1 in points])
    chain = np.array([[gamma4_saddle(w1, w2, kern, edge, eta) for w2 in points]
                      for w1 in points])
    assert values.shape == (len(points), len(points))
    assert np.array_equal(values.view(np.int64), scalar.view(np.int64))
    assert np.array_equal(values.view(np.int64), chain.view(np.int64))
    assert np.all(values[0] == 0) and np.all(values[:, 0] == 0)


@pytest.mark.parametrize("omega1, omega2, which", [
    ([ABOVE, BELOW, ABOVE], ABOVE, "omega1"),
    (ABOVE, [ABOVE, ABOVE, BELOW], "omega2"),
    (np.array([[ABOVE], [BELOW]]), np.array([BELOW, ABOVE]), "both"),
])
def test_stationary_vertex_on_arrays_raises_for_one_element_below_the_edge(omega1, omega2,
                                                                          which):
    with pytest.raises(BelowThresholdError) as info:
        gamma4_stationary(omega1, omega2, InteractionKernel(1.0, 5.0), EDGE, eta=1e-2)
    assert info.value.which == which


def test_stationary_vertex_zeta_scaling_at_equal_frequencies():
    # q1 = q2 kills the Gaussian, leaving the sqrt(2 pi/zeta) measure
    a = gamma4_stationary(1.2, 1.2, InteractionKernel(1.0, 4.0), EDGE, eta=1e-2)
    b = gamma4_stationary(1.2, 1.2, InteractionKernel(1.0, 16.0), EDGE, eta=1e-2)
    assert abs(a / b - 2.0) < 1e-12


def test_stationary_vertex_linear_in_strength():
    weak = gamma4_stationary(1.2, 1.3, InteractionKernel(1.0, 5.0), EDGE, eta=1e-2)
    strong = gamma4_stationary(1.2, 1.3, InteractionKernel(2.0, 5.0), EDGE, eta=1e-2)
    assert abs(strong / weak - 2.0) < 1e-14


def test_stationary_vertex_error_paths():
    with pytest.raises(ZeroRangeError):
        gamma4_stationary(1.2, 1.3, InteractionKernel(1.0, 0.0), EDGE, eta=1e-2)
    with pytest.raises(BelowThresholdError):
        gamma4_stationary(0.5, 1.3, InteractionKernel(1.0, 5.0), EDGE, eta=1e-2)


def gaussian_factor(omega1: float, omega2: float, zeta: float) -> float:
    """Strip the known prefactors from |gamma4_stationary| to isolate the
    momentum-mismatch Gaussian."""
    kern = InteractionKernel(1.0, zeta)
    value = abs(gamma4_stationary(omega1, omega2, kern, EDGE, eta=1e-2))
    q1, q2 = edge_momentum_map([omega1, omega2], EDGE)
    strip = (
        EDGE.dipole_slope**4
        * (q1 * q2) ** 2
        * np.sqrt(2.0 * np.pi / zeta)
        / abs((omega1 - EDGE.delta0 + 1e-2j) * (omega2 - EDGE.delta0 + 1e-2j))
    )
    return value / strip


def test_stationary_vertex_gaussian_squeezes_frequency_mismatch():
    factors = [gaussian_factor(1.2, 1.2 + d, 6.0) for d in (0.0, 0.05, 0.1, 0.15)]
    assert factors[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a > b for a, b in zip(factors, factors[1:]))


def test_stationary_vertex_gaussian_squeezes_with_range():
    factors = [gaussian_factor(1.15, 1.3, z) for z in (1.0, 2.0, 5.0, 10.0)]
    assert all(a > b for a, b in zip(factors, factors[1:]))


def test_stationary_tracks_direct_shape_above_threshold():
    """The two evaluators agree up to the unpinned saddle measure: their ratio
    moves by less than a factor of two across the near-edge window."""
    kern = InteractionKernel(v0=1.0, zeta=10.0)
    ratios = []
    for omega in (1.06, 1.1, 1.15, 1.2, 1.25, 1.3):
        direct = gamma4_direct(omega, omega, TRIVIAL, CAV, kern, n_k=512)
        stationary = gamma4_stationary(omega, omega, kern, EDGE, eta=CAV.eta)
        ratios.append(abs(stationary) / abs(direct))
    assert max(ratios) / min(ratios) < 2.0
