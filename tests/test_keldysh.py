"""Thermal occupation and the Keldysh chain against the equilibrium identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityssh import (
    CavityParams,
    FrequencyGrid,
    NonPositiveFrequencyError,
    SshParams,
    ThermalState,
    ZeroSpectralWeightError,
    bose_occupation,
    dressed_propagator,
    keldysh_map,
)
from cavityssh.keldysh import _occupation_ratio
from cavityssh.numerics import _py_product
from reference import keldysh_green, occupation, photon_self_energy, spectral_function

TOPO = SshParams(1.0, 1.5)
# cavity pinned so the q=0 peak sits where the band's decay is strongest
PINNED = CavityParams(omega_c=2.2619, mass_beta=0.5, g=1.0, eta=1e-3)
WARM = ThermalState(temperature=1.0)
COLD = ThermalState(temperature=0.0)


def peak_frequency(c: CavityParams, n_k: int = 8192) -> float:
    omegas = np.linspace(2.0, 2.5, 501)
    a_vals = [
        spectral_function(float(w), 0.0, c, photon_self_energy(float(w), TOPO, c, n_k=n_k))
        for w in omegas
    ]
    return float(omegas[int(np.argmax(a_vals))])


def test_thermal_state_rejects_negative_temperature():
    with pytest.raises(ValueError):
        ThermalState(temperature=-0.1)


def test_bose_occupation_zero_temperature():
    assert bose_occupation(1.0, COLD) == 0.0
    np.testing.assert_array_equal(
        bose_occupation(np.array([0.5, 1.0, 2.0]), COLD), np.zeros(3)
    )


def test_bose_occupation_reference_point():
    # omega/T = ln 2 puts exactly one quantum in the mode
    assert abs(bose_occupation(np.log(2.0), ThermalState(temperature=1.0)) - 1.0) < 1e-12


def test_bose_occupation_classical_limit():
    th = ThermalState(temperature=1000.0)
    n = bose_occupation(1.0, th)
    assert abs(n / 1000.0 - 1.0) < 0.01


def test_bose_occupation_rejects_nonpositive_frequency():
    with pytest.raises(NonPositiveFrequencyError):
        bose_occupation(0.0, WARM)
    with pytest.raises(NonPositiveFrequencyError):
        bose_occupation(np.array([1.0, -0.5]), WARM)


def keldysh_self_energy(omega: float, c: CavityParams, th: ThermalState, sigma: complex):
    """Sigma^K read back from keldysh_green as G^K / |G^R|^2."""
    g_r = dressed_propagator(omega, 0.0, c, sigma)
    return keldysh_green(omega, 0.0, c, th, sigma) / abs(g_r) ** 2


def test_keldysh_self_energy_structure():
    sr = photon_self_energy(2.2, TOPO, PINNED, n_k=2048)
    sk_cold = keldysh_self_energy(2.2, PINNED, COLD, sr)
    assert abs(sk_cold - (-2j * sr.imag)) < 1e-14 * abs(sr.imag)
    assert abs(sk_cold.real) < 1e-14 * sk_cold.imag
    assert sk_cold.imag >= 0.0

    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    sr_off = photon_self_energy(2.2, TOPO, off, n_k=512)
    assert keldysh_self_energy(2.2, off, WARM, sr_off) == 0j


def test_keldysh_self_energy_thermal_factor():
    for omega in (1.5, 2.2, 3.7):
        sr = photon_self_energy(omega, TOPO, PINNED, n_k=2048)
        sk = keldysh_self_energy(omega, PINNED, WARM, sr)
        factor = (sk / (-2j * sr.imag)).real
        expected = 1.0 + 2.0 * bose_occupation(omega, WARM)
        assert abs(factor - expected) < 1e-14 * expected


def test_keldysh_green_structure():
    gk = keldysh_green(2.2, 0.0, PINNED, WARM, photon_self_energy(2.2, TOPO, PINNED, n_k=2048))
    assert abs(gk.real) < 1e-12 * abs(gk.imag)
    assert gk.imag > 0.0

    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    assert keldysh_green(2.2, 0.0, off, WARM, photon_self_energy(2.2, TOPO, off, n_k=512)) == 0j


def test_keldysh_green_peaks_with_spectral_function():
    omegas = np.linspace(2.0, 2.5, 201)
    sigmas = [photon_self_energy(float(w), TOPO, PINNED, n_k=4096) for w in omegas]
    a_vals = [spectral_function(float(w), 0.0, PINNED, s) for w, s in zip(omegas, sigmas)]
    gk_vals = [
        abs(keldysh_green(float(w), 0.0, PINNED, WARM, s)) for w, s in zip(omegas, sigmas)
    ]
    assert abs(int(np.argmax(a_vals)) - int(np.argmax(gk_vals))) <= 1


def test_keldysh_green_equilibrium_identity_at_peak():
    """G^K = -2i Im G^R (1 + 2 n_B) holds to the eta/|Im Sigma| budget at the
    spectral peak once the broadening is bath dominated."""
    omega = peak_frequency(PINNED)
    sigma = photon_self_energy(omega, TOPO, PINNED, n_k=16384)
    gr = dressed_propagator(omega, 0.0, PINNED, sigma)
    gk = keldysh_green(omega, 0.0, PINNED, WARM, sigma)
    reference = -2j * gr.imag * (1.0 + 2.0 * bose_occupation(omega, WARM))
    assert abs(gk / reference - 1.0) < 0.01


def test_occupation_zero_temperature():
    omega = peak_frequency(PINNED)
    sigma = photon_self_energy(omega, TOPO, PINNED, n_k=8192)
    assert abs(occupation(omega, 0.0, PINNED, COLD, sigma)) < 1e-10


def test_occupation_matches_bose_at_peak():
    omega = peak_frequency(PINNED)
    n = occupation(omega, 0.0, PINNED, WARM, photon_self_energy(omega, TOPO, PINNED, n_k=16384))
    assert abs(n / bose_occupation(omega, WARM) - 1.0) < 0.01


def test_occupation_improves_as_regulator_sharpens():
    omega = peak_frequency(PINNED)
    deviations = []
    for eta in (1e-2, 1e-3, 1e-4):
        c = CavityParams(omega_c=2.2619, mass_beta=0.5, g=1.0, eta=eta)
        n = occupation(omega, 0.0, c, WARM, photon_self_energy(omega, TOPO, c, n_k=16384))
        deviations.append(abs(n / bose_occupation(omega, WARM) - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[1] < 0.01


def test_occupation_is_q_independent_in_equilibrium():
    omega = peak_frequency(PINNED)
    sigma = photon_self_energy(omega, TOPO, PINNED, n_k=4096)
    ns = [occupation(omega, q, PINNED, WARM, sigma) for q in (0.0, 0.5, 1.0)]
    spread = max(ns) - min(ns)
    assert spread < 1e-12 * abs(ns[0])


def test_occupation_rejects_unphysical_self_energy():
    # a positive-imaginary sigma flips Im G^R and must be refused, not averaged
    with pytest.raises(ZeroSpectralWeightError):
        occupation(2.2, 0.0, PINNED, WARM, sigma=0.0 + 2e-3j)


def same_bits(got, expected):
    """Equal including the sign of zero and the nan payload."""
    return np.array_equal(
        np.atleast_1d(got).view(np.int64), np.atleast_1d(expected).view(np.int64)
    )


@pytest.mark.parametrize("p", [SshParams(1.0, 0.5), TOPO])
@pytest.mark.parametrize("th", [COLD, ThermalState(temperature=0.1)])
def test_keldysh_map_matches_pointwise_functions_bit_for_bit(p, th):
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    omega_grid = FrequencyGrid(0.6, 2.6, 9)
    q_grid = FrequencyGrid(-1.0, 2.0, 5)  # asymmetric: A is even in q
    kmap = keldysh_map(omega_grid, q_grid, p, c, th, n_k=512)
    assert kmap.g_keldysh.shape == kmap.spectral.shape == kmap.occupation.shape == (9, 5)
    for i, w in enumerate(omega_grid.values.tolist()):
        sigma = photon_self_energy(w, p, c, n_k=512)
        for j, q in enumerate(q_grid.values.tolist()):
            assert same_bits(kmap.g_keldysh[i, j], keldysh_green(w, q, c, th, sigma))
            g_r = dressed_propagator(w, q, c, sigma)
            assert same_bits(kmap.spectral[i, j], -g_r.imag / np.pi)
            assert same_bits(kmap.spectral[i, j], spectral_function(w, q, c, sigma))
            assert same_bits(kmap.occupation[i, j], occupation(w, q, c, th, sigma))


def test_keldysh_map_refuses_vanishing_spectral_weight():
    # at q ~ 1e100 Im G^R underflows to -0.0: the sweep refuses it like occupation
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    q_grid = FrequencyGrid(0.0, 1e100, 2)
    with pytest.raises(ZeroSpectralWeightError):
        occupation(1.0, 1e100, c, WARM, photon_self_energy(1.0, TOPO, c, n_k=256))
    with pytest.raises(ZeroSpectralWeightError):
        keldysh_map(FrequencyGrid(0.8, 1.2, 3), q_grid, TOPO, c, WARM, n_k=256)


def test_keldysh_map_names_the_first_cell_without_spectral_weight():
    """Im G^R underflows to -0.0 at q = 5e99 and at 1e100 on every row; the
    error names the first of them in row order, as the per-point chain does."""
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    omega_grid, q_grid = FrequencyGrid(0.8, 1.2, 3), FrequencyGrid(0.0, 1e100, 3)
    with pytest.raises(ZeroSpectralWeightError) as pointwise:
        occupation(0.8, 5e99, c, WARM, photon_self_energy(0.8, TOPO, c, n_k=256))
    with pytest.raises(ZeroSpectralWeightError) as swept:
        keldysh_map(omega_grid, q_grid, TOPO, c, WARM, n_k=256)
    assert str(swept.value) == str(pointwise.value)
    assert "omega=0.8, q=5e+99" in str(swept.value)


def test_keldysh_map_keeps_the_positive_frequency_check():
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    with pytest.raises(NonPositiveFrequencyError):
        keldysh_map(FrequencyGrid(0.0, 1.0, 3), FrequencyGrid(0.0, 1.0, 2), TOPO, c, WARM, n_k=256)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.5, 1e300, -1e300, math.inf, -math.inf,
           2.2250738585072014e-308, -0.1]


def test_occupation_ratio_rounds_as_numpy_scalar_division():
    """Re(t / d) for every t of SPECIAL values and every denominator
    d = -2i Im G^R that keldysh_map forms from a finite SPECIAL Im G^R < 0
    (Re d = +0.0, Im d > 0), against numpy's complex scalar division as the
    occupation calls it."""
    cases = [(t_re, t_im, g_im) for t_re, t_im, g_im in itertools.product(SPECIAL, repeat=3)
             if -math.inf < g_im < 0]
    t_re, t_im, g_im = np.array(cases).T.copy()
    d_re, d_im = _py_product(-0.0, -2.0, g_im, 0.0)  # -2j * Im G^R
    assert same_bits(d_re, np.zeros_like(d_re)) and np.all(d_im > 0)
    with np.errstate(all="ignore"):
        got = _occupation_ratio(t_re, t_im, g_im)
        expected = [(np.complex128(complex(a, b)) / complex(c, d)).real
                    for (a, b, _), c, d in zip(cases, d_re.tolist(), d_im.tolist())]
    assert same_bits(got, expected)


def assert_map_is_pointwise(omega_grid, q_grid, p, c, th, n_k):
    """keldysh_map equals keldysh_green, -Im G^R / pi and occupation at every
    cell, as int64 words."""
    kmap = keldysh_map(omega_grid, q_grid, p, c, th, n_k=n_k)
    expected = np.empty((3, omega_grid.count, q_grid.count), dtype=complex)
    for i, w in enumerate(omega_grid.values.tolist()):
        sigma = photon_self_energy(w, p, c, n_k=n_k)
        for j, q in enumerate(q_grid.values.tolist()):
            expected[:, i, j] = (keldysh_green(w, q, c, th, sigma),
                                 spectral_function(w, q, c, sigma), occupation(w, q, c, th, sigma))
    assert same_bits(kmap.g_keldysh, expected[0])
    assert same_bits(kmap.spectral, expected[1].real)
    assert same_bits(kmap.occupation, expected[2].real)


def denominators(omega_grid, q_grid, p, c, n_k):
    """Re and Im of omega - omega_c - beta q^2 - Sigma^R + i eta on the grid."""
    sigmas = [photon_self_energy(w, p, c, n_k=n_k) for w in omega_grid.values.tolist()]
    d = np.array([[w - c.omega_c - c.mass_beta * q * q - s + 1j * c.eta
                   for q in q_grid.values.tolist()]
                  for w, s in zip(omega_grid.values.tolist(), sigmas)])
    return d.real, d.imag


@settings(max_examples=40, deadline=None)
@given(
    t2=st.floats(0.1, 2.5).filter(lambda t2: abs(t2 - 1.0) > 0.05),
    eta=st.floats(1e-4, 2.0),
    g=st.floats(0.0, 2.0),
    mass_beta=st.floats(0.0, 3.0),
    temperature=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    omega_c=st.floats(0.1, 6.0),
    start=st.floats(1e-3, 6.0),
    width=st.floats(1e-3, 4.0),
    q_start=st.floats(-3.0, 2.0),
    q_width=st.floats(1e-3, 3.0),
    omega_count=st.integers(2, 5),
    q_count=st.integers(2, 4),
)
def test_keldysh_map_is_the_pointwise_chain_bit_for_bit(
    t2, eta, g, mass_beta, temperature, omega_c, start, width, q_start, q_width,
    omega_count, q_count,
):
    """On random chains, couplings, linewidths and temperatures, on and off
    the cavity line, every cell equals the per-point scalar chain."""
    p = SshParams(1.0, t2)
    c = CavityParams(omega_c=omega_c, mass_beta=mass_beta, g=g, eta=eta)
    assert_map_is_pointwise(FrequencyGrid(start, start + width, omega_count),
                            FrequencyGrid(q_start, q_start + q_width, q_count),
                            p, c, ThermalState(temperature), n_k=64)


@pytest.mark.parametrize("th", [COLD, WARM])
def test_keldysh_map_is_pointwise_in_both_quotient_branches(th):
    """A broad line (eta = 0.5) around the cavity frequency puts some cells at
    |Re d| < |Im d|, the second branch of the quotient, and the rest in the
    first; both are bit for bit."""
    c = CavityParams(omega_c=2.0, mass_beta=0.5, g=0.3, eta=0.5)
    omega_grid, q_grid = FrequencyGrid(0.5, 3.5, 7), FrequencyGrid(-2.0, 2.0, 5)
    d_re, d_im = denominators(omega_grid, q_grid, TOPO, c, n_k=128)
    second = np.abs(d_re) < np.abs(d_im)
    assert second.any() and not second.all()
    assert_map_is_pointwise(omega_grid, q_grid, TOPO, c, th, n_k=128)
