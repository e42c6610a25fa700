"""Thermal occupation and the Keldysh chain against the equilibrium identities."""

import numpy as np
import pytest

from cavityssh import (
    CavityParams,
    FrequencyGrid,
    NonPositiveFrequencyError,
    SshParams,
    ThermalState,
    ZeroSpectralWeightError,
    bose_occupation,
    dressed_propagator,
    keldysh_green,
    keldysh_map,
    keldysh_self_energy,
    occupation,
    photon_self_energy,
    retarded_green,
    spectral_function,
)

TOPO = SshParams(1.0, 1.5)
# cavity pinned so the q=0 peak sits where the band's decay is strongest
PINNED = CavityParams(omega_c=2.2619, mass_beta=0.5, g=1.0, eta=1e-3)
WARM = ThermalState(temperature=1.0)
COLD = ThermalState(temperature=0.0)


def peak_frequency(c: CavityParams, n_k: int = 8192) -> float:
    omegas = np.linspace(2.0, 2.5, 501)
    a_vals = [spectral_function(float(w), 0.0, TOPO, c, n_k=n_k) for w in omegas]
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


def test_keldysh_self_energy_structure():
    sk_cold = keldysh_self_energy(2.2, TOPO, PINNED, COLD, n_k=2048)
    sr = photon_self_energy(2.2, TOPO, PINNED, n_k=2048)
    assert sk_cold == -2j * sr.imag
    assert sk_cold.real == 0.0
    assert sk_cold.imag >= 0.0

    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    assert keldysh_self_energy(2.2, TOPO, off, WARM, n_k=512) == 0j


def test_keldysh_self_energy_thermal_factor():
    for omega in (1.5, 2.2, 3.7):
        sk = keldysh_self_energy(omega, TOPO, PINNED, WARM, n_k=2048)
        sr = photon_self_energy(omega, TOPO, PINNED, n_k=2048)
        factor = (sk / (-2j * sr.imag)).real
        expected = 1.0 + 2.0 * bose_occupation(omega, WARM)
        assert abs(factor - expected) < 1e-14 * expected


def test_retarded_green_is_the_dressed_propagator():
    assert retarded_green(2.2, 0.3, TOPO, PINNED, n_k=1024) == dressed_propagator(
        2.2, 0.3, TOPO, PINNED, n_k=1024
    )


def test_keldysh_green_structure():
    gk = keldysh_green(2.2, 0.0, TOPO, PINNED, WARM, n_k=2048)
    assert abs(gk.real) < 1e-12 * abs(gk.imag)
    assert gk.imag > 0.0

    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    assert keldysh_green(2.2, 0.0, TOPO, off, WARM, n_k=512) == 0j


def test_keldysh_green_peaks_with_spectral_function():
    omegas = np.linspace(2.0, 2.5, 201)
    a_vals = [spectral_function(float(w), 0.0, TOPO, PINNED, n_k=4096) for w in omegas]
    gk_vals = [
        abs(keldysh_green(float(w), 0.0, TOPO, PINNED, WARM, n_k=4096)) for w in omegas
    ]
    assert abs(int(np.argmax(a_vals)) - int(np.argmax(gk_vals))) <= 1


def test_keldysh_green_equilibrium_identity_at_peak():
    """G^K = -2i Im G^R (1 + 2 n_B) holds to the eta/|Im Sigma| budget at the
    spectral peak once the broadening is bath dominated."""
    omega = peak_frequency(PINNED)
    gr = retarded_green(omega, 0.0, TOPO, PINNED, n_k=16384)
    gk = keldysh_green(omega, 0.0, TOPO, PINNED, WARM, n_k=16384)
    reference = -2j * gr.imag * (1.0 + 2.0 * bose_occupation(omega, WARM))
    assert abs(gk / reference - 1.0) < 0.01


def test_occupation_zero_temperature():
    omega = peak_frequency(PINNED)
    assert abs(occupation(omega, 0.0, TOPO, PINNED, COLD, n_k=8192)) < 1e-10


def test_occupation_matches_bose_at_peak():
    omega = peak_frequency(PINNED)
    n = occupation(omega, 0.0, TOPO, PINNED, WARM, n_k=16384)
    assert abs(n / bose_occupation(omega, WARM) - 1.0) < 0.01


def test_occupation_improves_as_regulator_sharpens():
    omega = peak_frequency(PINNED)
    deviations = []
    for eta in (1e-2, 1e-3, 1e-4):
        c = CavityParams(omega_c=2.2619, mass_beta=0.5, g=1.0, eta=eta)
        n = occupation(omega, 0.0, TOPO, c, WARM, n_k=16384)
        deviations.append(abs(n / bose_occupation(omega, WARM) - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[1] < 0.01


def test_occupation_is_q_independent_in_equilibrium():
    omega = peak_frequency(PINNED)
    ns = [occupation(omega, q, TOPO, PINNED, WARM, n_k=4096) for q in (0.0, 0.5, 1.0)]
    spread = max(ns) - min(ns)
    assert spread < 1e-12 * abs(ns[0])


def test_occupation_rejects_unphysical_self_energy():
    # a positive-imaginary sigma flips Im G^R and must be refused, not averaged
    with pytest.raises(ZeroSpectralWeightError):
        occupation(2.2, 0.0, TOPO, PINNED, WARM, n_k=512, sigma=0.0 + 2e-3j)


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
        for j, q in enumerate(q_grid.values.tolist()):
            assert same_bits(kmap.g_keldysh[i, j], keldysh_green(w, q, p, c, th, n_k=512))
            g_r = retarded_green(w, q, p, c, n_k=512)
            assert same_bits(kmap.spectral[i, j], -g_r.imag / np.pi)
            assert same_bits(kmap.spectral[i, j], spectral_function(w, q, p, c, n_k=512))
            assert same_bits(kmap.occupation[i, j], occupation(w, q, p, c, th, n_k=512))


def test_keldysh_map_refuses_vanishing_spectral_weight():
    # at q ~ 1e100 Im G^R underflows to -0.0: the sweep refuses it like occupation
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    q_grid = FrequencyGrid(0.0, 1e100, 2)
    with pytest.raises(ZeroSpectralWeightError):
        occupation(1.0, 1e100, TOPO, c, WARM, n_k=256)
    with pytest.raises(ZeroSpectralWeightError):
        keldysh_map(FrequencyGrid(0.8, 1.2, 3), q_grid, TOPO, c, WARM, n_k=256)


def test_keldysh_map_keeps_the_positive_frequency_check():
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    with pytest.raises(NonPositiveFrequencyError):
        keldysh_map(FrequencyGrid(0.0, 1.0, 3), FrequencyGrid(0.0, 1.0, 2), TOPO, c, WARM, n_k=256)
