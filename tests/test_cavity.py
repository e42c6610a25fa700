"""Photon self-energy, dressed propagator, and spectral maps against quadrature
and residue oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityssh import (
    BubbleTable,
    CavityParams,
    FrequencyGrid,
    SshParams,
    band_gap,
    dipole,
    dressed_propagator,
    hopfield_branches,
    self_energy_spectrum,
    spectral_map,
    zone_trapezoid,
)
from cavityssh.cavity import _propagator_parts
from cavityssh.errors import NonFiniteSampleError
from cavityssh.numerics import _py_product, _py_quotient, _py_square, pairwise_sum
from reference import (
    NodeOrderTable, bz_integrate, in_node_order, photon_self_energy, principal_value,
    spectral_function,
)

TOPO = SshParams(1.0, 1.5)  # band [1, 5]
CAV = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
SHARP = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-3)


def residue_im(omega: float, p: SshParams) -> float:
    """Delta-function limit of Im Sigma at g = 1: the in-band root of
    Delta(k) = omega is analytic, and the two symmetric roots contribute
    -mu(k*)^2 / |Delta'(k*)| in total."""
    cos_k = (omega**2 / 4.0 - p.t1**2 - p.t2**2) / (2.0 * p.t1 * p.t2)
    k_star = np.arccos(cos_k)
    slope = abs(-4.0 * p.t1 * p.t2 * np.sin(k_star) / omega)
    return -dipole(k_star, p) ** 2 / slope


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(omega_c=0.0, mass_beta=0.5, g=1.0, eta=1e-2)
    with pytest.raises(ValueError):
        CavityParams(omega_c=1.0, mass_beta=-0.1, g=1.0, eta=1e-2)
    with pytest.raises(ValueError):
        CavityParams(omega_c=1.0, mass_beta=0.5, g=-1.0, eta=1e-2)
    with pytest.raises(ValueError):
        CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=0.0)


def test_bubble_table_matches_one_shot_integral():
    """photon_self_energy is g^2 times the integral of a one-shot table."""
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.7, eta=CAV.eta)
    table = BubbleTable(TOPO, c.eta, n_k=2048)
    for omega in (0.5, 2.0, 3.3):
        assert photon_self_energy(omega, TOPO, c, n_k=2048) == c.g**2 * table.integral(omega)


@settings(max_examples=60, deadline=None)
@given(
    t2=st.floats(0.05, 3.0).filter(lambda t2: abs(t2 - 1.0) > 0.02),
    eta=st.floats(1e-3, 0.5),
    omega=st.floats(-2.0, 9.0),
    n_k=st.integers(64, 1500),
    power=st.sampled_from([1, 2]),
)
def test_bubble_table_is_the_bz_integrate_zone(t2, eta, omega, n_k, power):
    """The table's zone is zone_trapezoid's, bit for bit, and its integral is
    bz_integrate of the same integrand up to rounding: the table multiplies the
    weight into |mu|^2 before dividing, so single samples can differ in the
    last bit."""
    p = SshParams(1.0, t2)
    table = NodeOrderTable(p, eta, n_k)
    nodes, weights = zone_trapezoid(n_k)
    assert in_node_order(table.nodes).tobytes() == nodes.tobytes()
    assert table.weighted_mu2.tobytes() == (weights * dipole(nodes, p) ** 2).tobytes()
    samples = in_node_order(table.samples(omega, power))
    assert table.integral(omega, power) == complex(pairwise_sum(samples) / (2.0 * np.pi))
    reference = bz_integrate(
        lambda k: dipole(k, p) ** 2 / (omega - band_gap(k, p) + 1j * eta) ** power, n_k
    )
    scale = float(pairwise_sum(np.abs(samples))) / (2.0 * np.pi)
    assert abs(table.integral(omega, power) - reference) <= 1e-13 * scale


_TABLES = {}


def zone_table(n_k: int) -> BubbleTable:
    """One sharp-linewidth table per size, shared by the hypothesis examples."""
    if n_k not in _TABLES:
        _TABLES[n_k] = NodeOrderTable(TOPO, SHARP.eta, n_k)
    return _TABLES[n_k]


def bits(value) -> bytes:
    return np.asarray(value, dtype=complex).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    n_k=st.sampled_from([64, 65, 4096, 65536]),
    power=st.sampled_from([1, 2]),
    kind=st.sampled_from([float, np.float64, complex, "off-axis"]),
    omega=st.floats(-2.0, 9.0),
    im=st.floats(-0.5 * SHARP.eta, 0.5).filter(bool),
)
def test_bubble_integral_is_the_pairwise_sum_of_its_samples(n_k, power, kind, omega, im):
    """integral() sums the samples() formula in the table's buffer without
    changing a bit, and samples() rounds as the plain expression. An off-axis
    omega has Im omega != 0 and Im omega + eta > 0, as the Kerr Newton
    iterates have."""
    table = zone_table(n_k)
    omega = complex(omega, im) if kind == "off-axis" else kind(omega)
    samples = in_node_order(table.samples(omega, power))
    expression = table.weighted_mu2 / (omega - table.delta + 1j * table.eta) ** power
    assert samples.tobytes() == expression.tobytes()
    expected = complex(pairwise_sum(samples) / (2.0 * np.pi))
    assert bits(table.integral(omega, power)) == bits(expected)


@pytest.mark.parametrize("omega", [np.nan, complex(2.0, np.nan)])
def test_bubble_nan_omega_raises_in_integral_and_samples(omega):
    table = BubbleTable(TOPO, CAV.eta, n_k=256)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteSampleError):
        table.integral(omega)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteSampleError):
        table.samples(omega)


def test_bubble_samples_are_fresh_arrays():
    table = BubbleTable(TOPO, CAV.eta, n_k=256)
    first = table.samples(2.0)
    kept = first.copy()
    second = table.samples(3.0, power=2)
    table.integral(4.0)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()


def test_bubble_table_after_a_non_finite_integral_is_a_fresh_table():
    """A raise leaves nan in the table's one buffer; the next integral
    overwrites all of it."""
    table = BubbleTable(TOPO, SHARP.eta, n_k=4096)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteSampleError):
        table.integral(np.nan)
    fresh = BubbleTable(TOPO, SHARP.eta, n_k=4096)
    for omega, power in ((2.0, 1), (complex(3.0, 0.1), 2)):
        assert bits(table.integral(omega, power)) == bits(fresh.integral(omega, power))


@pytest.mark.parametrize("power", [0, 3, -1, 1.5])
def test_bubble_power_is_one_or_two(power):
    table = BubbleTable(TOPO, CAV.eta, n_k=256)
    with pytest.raises(ValueError, match="power must be 1 or 2"):
        table.integral(2.0, power)
    with pytest.raises(ValueError, match="power must be 1 or 2"):
        table.samples(2.0, power)


def test_bubble_integral_allocates_no_zone_sized_array():
    """A table's integral runs in the zone-sized buffer the table allocated
    when built; numpy reports its data buffers to tracemalloc."""
    n_k = 65536
    table = BubbleTable(TOPO, SHARP.eta, n_k)
    table.integral(2.0)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        for omega in np.linspace(0.5, 6.0, 10):
            table.integral(omega, power=1 + int(omega > 3.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < (n_k + 1) * 16 / 4


def test_a_built_table_holds_at_most_three_and_a_half_mib():
    """At n_k = 65536 a table holds its two complex zone arrays and the
    zone-sized buffer it allocates when built: 3 MiB, where the table it replaced
    held 3.50 MiB. Natural-order copies kept beside the ordered ones would
    show here."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = BubbleTable(TOPO, SHARP.eta, 65536)
        table.integral(2.0, power=2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert held <= 3.5 * 2**20


def test_self_energy_decoupled_limit():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    assert photon_self_energy(2.0, TOPO, off, n_k=512) == 0j


def test_self_energy_im_negative_everywhere():
    grid = np.linspace(0.05, 8.0, 2000)
    table = BubbleTable(TOPO, CAV.eta, n_k=2048)
    ims = np.array([table.integral(w).imag for w in grid])
    assert np.all(ims <= 0.0)


def test_self_energy_below_gap_suppression():
    # omega = Delta0/2, far off resonance: the Lorentzian tail bound
    sigma = photon_self_energy(0.5, TOPO, SHARP, n_k=16384)
    assert abs(sigma.imag) < 10.0 * SHARP.eta * abs(sigma.real)


def test_self_energy_in_band_residue_oracle():
    for omega in (2.0, 3.0, 4.0):
        im = photon_self_energy(omega, TOPO, SHARP, n_k=16384).imag
        ref = residue_im(omega, TOPO)
        assert abs(im - ref) < 0.02 * abs(ref)


def test_self_energy_kramers_kronig_spot():
    """Re Sigma at a frequency below the band equals the Hilbert transform of
    Im Sigma over the band window, within the eta-tail budget."""
    omega0 = 0.5
    grid = FrequencyGrid(0.9, 5.2, 4001)
    spectrum = self_energy_spectrum(grid, TOPO, SHARP, n_k=16384)
    ims = spectrum.imag
    transform = principal_value(
        lambda x: np.interp(x, grid.values, ims), 0.9, 5.2, pole=omega0, n_k=4001
    )
    reference = photon_self_energy(omega0, TOPO, SHARP, n_k=16384).real
    assert abs(transform / np.pi - reference) < 0.02 * abs(reference)


def test_self_energy_spectrum_is_the_per_omega_self_energy():
    """Each sweep value is the serial photon_self_energy of its omega, bit for bit."""
    grid = FrequencyGrid(0.5, 4.5, 41)
    sweep = self_energy_spectrum(grid, TOPO, CAV, n_k=1024)
    assert sweep.dtype == complex and sweep.shape == (41,)
    direct = [photon_self_energy(float(omega), TOPO, CAV, n_k=1024) for omega in grid.values]
    assert np.array_equal(sweep, direct)


def test_dressed_propagator_bare_resonance():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    omega = 1.0 + 0.5 * 0.7**2
    value = dressed_propagator(omega, 0.7, off, photon_self_energy(omega, TOPO, off, n_k=512))
    assert abs(value - (-1j / off.eta)) < 1e-9


def test_dressed_propagator_retarded_sign():
    for omega in (0.3, 1.0, 2.2, 4.8):
        sigma = photon_self_energy(omega, TOPO, CAV, n_k=1024)
        assert dressed_propagator(omega, 0.4, CAV, sigma).imag < 0


# twelve values whose products and quotients reach every IEEE end case
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.5, 1e300, -1e300, math.inf, -math.inf,
           2.2250738585072014e-308, -0.1]


def same_bits(got, expected) -> bool:
    """Equal as int64 words, so the sign of zero and the nan payload count."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return np.array_equal(got.view(np.int64), expected.view(np.int64))


def special_quadruples():
    """Columns a_re, a_im, b_re, b_im of every quadruple of SPECIAL values."""
    grid = np.array(list(itertools.product(SPECIAL, repeat=4)))
    return grid.T.copy()


def test_py_product_rounds_as_python_complex_multiplication():
    a_re, a_im, b_re, b_im = special_quadruples()
    with np.errstate(all="ignore"):
        re, im = _py_product(a_re, a_im, b_re, b_im)
    expected = [complex(*a) * complex(*b) for a, b in
                zip(zip(a_re.tolist(), a_im.tolist()), zip(b_re.tolist(), b_im.tolist()))]
    assert same_bits(re, [z.real for z in expected])
    assert same_bits(im, [z.imag for z in expected])


def test_py_quotient_rounds_as_python_complex_division():
    """All 20,160 quotients of SPECIAL values with a nonzero divisor, bit for bit."""
    a_re, a_im, b_re, b_im = special_quadruples()
    nonzero = (b_re != 0) | (b_im != 0)
    a_re, a_im, b_re, b_im = a_re[nonzero], a_im[nonzero], b_re[nonzero], b_im[nonzero]
    assert a_re.size == 20_160
    with np.errstate(all="ignore"):
        re, im = _py_quotient(a_re, a_im, b_re, b_im)
    expected = [complex(*a) / complex(*b) for a, b in
                zip(zip(a_re.tolist(), a_im.tolist()), zip(b_re.tolist(), b_im.tolist()))]
    assert same_bits(re, [z.real for z in expected])
    assert same_bits(im, [z.imag for z in expected])


def test_py_quotient_nan_and_zero_divisors_behave_as_python():
    negative_nan = -math.nan  # Python gives its own +nan, not the divisor's
    for b in (complex(math.nan, 1.0), complex(1.0, negative_nan),
              complex(negative_nan, negative_nan)):
        expected = complex(2.0, -3.0) / b
        with np.errstate(all="ignore"):
            re, im = _py_quotient(2.0, -3.0, np.array([b.real]), np.array([b.imag]))
        assert same_bits(re, [expected.real]) and same_bits(im, [expected.imag])
    for zero in (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0)):
        with pytest.raises(ZeroDivisionError):
            complex(1.0, 0.0) / zero
        with pytest.raises(ZeroDivisionError):
            _py_quotient(1.0, 0.0, np.array([1.0, zero.real]), np.array([1.0, zero.imag]))


def test_py_square_rounds_as_python_float_power():
    """On 200,000 random floats, where x * x misses x ** 2 in the last bit
    about 150 times, and on the SPECIAL values whose square Python does not
    refuse with OverflowError (there _py_square gives inf)."""
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.random(200_000) * 10.0 ** rng.uniform(-150, 150, 200_000),
                        [v for v in SPECIAL if abs(v) < 1e154 or math.isinf(v)]])
    assert same_bits(_py_square(x), [v ** 2 for v in x.tolist()])
    assert not same_bits(np.square(x), _py_square(x))  # why x * x is not used


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(omega=st.lists(finite, min_size=1, max_size=6), q=st.lists(finite, min_size=1, max_size=6),
       sigma_re=finite, sigma_im=st.floats(-1e300, 0.0),
       omega_c=st.floats(1e-300, 1e300), mass_beta=st.floats(0.0, 1e300),
       eta=st.floats(5e-324, 1e300))
def test_propagator_parts_round_as_the_scalar_propagator(omega, q, sigma_re, sigma_im,
                                                         omega_c, mass_beta, eta):
    """Every finite omega, q and Sigma^R with Im Sigma^R <= 0, overflow to
    inf and underflow to 0 included, give the scalar expression's bits."""
    c = CavityParams(omega_c=omega_c, mass_beta=mass_beta, g=1.0, eta=eta)
    sigma = complex(sigma_re, sigma_im)
    with np.errstate(all="ignore"):
        re, im = _propagator_parts(np.array(omega)[:, None], np.array(q), c, sigma_re, sigma_im)
    expected = np.array([[dressed_propagator(w, k, c, sigma) for k in q] for w in omega])
    assert same_bits(re, expected.real) and same_bits(im, expected.imag)
    with np.errstate(all="ignore"):
        re, im = _propagator_parts(np.array(omega), 0.0, c)
    expected = np.array([dressed_propagator(w, 0.0, c, 0.0) for w in omega])
    assert same_bits(re, expected.real) and same_bits(im, expected.imag)


def test_spectral_function_bare_lorentzian_peak():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    peak = spectral_function(1.0, 0.0, off, photon_self_energy(1.0, TOPO, off, n_k=512))
    assert abs(peak - 1.0 / (np.pi * off.eta)) < 1e-9 / off.eta


def test_spectral_function_nonnegative_and_normalized():
    omegas = np.linspace(0.05, 8.0, 20001)
    table = BubbleTable(TOPO, CAV.eta, n_k=4096)
    sigma = np.array([CAV.g**2 * table.integral(w) for w in omegas])
    a_vals = -np.imag(1.0 / (omegas - CAV.omega_c - sigma + 1j * CAV.eta)) / np.pi
    assert np.all(a_vals >= 0.0)
    assert abs(np.trapezoid(a_vals, omegas) - 1.0) < 0.01


def test_spectral_map_matches_pointwise_calls():
    omega_grid = FrequencyGrid(0.8, 1.2, 3)
    q_grid = FrequencyGrid(-1.0, 1.0, 3)
    smap = spectral_map(omega_grid, q_grid, TOPO, CAV, n_k=1024)
    assert smap.shape == (3, 3) and smap.dtype == float
    for i, omega in enumerate(omega_grid.values):
        sigma = photon_self_energy(float(omega), TOPO, CAV, n_k=1024)
        for j, q in enumerate(q_grid.values):
            direct = spectral_function(float(omega), float(q), CAV, sigma)
            assert abs(smap[i, j] - direct) < 1e-12 * abs(direct)


def test_spectral_map_even_in_q():
    omega_grid = FrequencyGrid(0.6, 1.5, 12)
    q_grid = FrequencyGrid(-2.0, 2.0, 9)
    smap = spectral_map(omega_grid, q_grid, TOPO, CAV, n_k=1024)
    assert np.array_equal(smap, smap[:, ::-1])


def test_hopfield_resonant_splitting():
    lower, upper = hopfield_branches(0.0, 0.05, 0.5, 1.0)
    assert abs((upper - lower) - 0.1) < 1e-14
    assert abs(0.5 * (upper + lower) - 1.0) < 1e-14


def test_hopfield_decoupled_limit():
    lower, upper = hopfield_branches(0.8, 0.0, 0.5, 1.0)
    assert abs(lower - 1.0) < 1e-14
    assert abs(upper - (1.0 + 0.5 * 0.64)) < 1e-14


def test_hopfield_ordering_and_avoided_crossing():
    qs = np.linspace(-2.0, 2.0, 41)
    for q in qs:
        lower, upper = hopfield_branches(float(q), 0.05, 0.5, 1.0)
        assert upper - lower >= 2.0 * 0.05 - 1e-14
