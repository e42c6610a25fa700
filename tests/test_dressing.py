"""Band self-energies from photon exchange, the dispersive and principal-value
variants, and the dressed band edges."""

import numpy as np
import pytest

from cavityssh import (
    CavityParams,
    DressedBands,
    FermionSelfEnergy,
    SshParams,
    band_energies,
    band_gap,
    bare_photon_green,
    dipole,
    dressed_band_sweep,
    dressed_bands,
    lamb_shift,
    sigma_band,
    sigma_band_dispersive,
    sigma_matrix,
)
from cavityssh.dressing import BANDS

TRIVIAL = SshParams(1.0, 0.5)
TOPO = SshParams(1.0, 1.5)
CAV = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.05, eta=1e-2)


def test_band_names_are_fixed():
    assert BANDS == ("conduction", "valence")


def test_bare_photon_green_resonance():
    assert bare_photon_green(CAV.omega_c, CAV) == 1.0 / (1j * CAV.eta)


def test_sigma_band_rejects_unknown_band():
    with pytest.raises(ValueError):
        sigma_band(0.5, 1.0, "flat", TRIVIAL, CAV)


def test_sigma_band_decoupled_and_zone_edge_limits():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    assert sigma_band(0.7, 1.0, "conduction", TRIVIAL, off) == 0j
    # the dipole closes at the zone edge, and the self-energy with it
    assert abs(sigma_band(np.pi, 1.0, "conduction", TRIVIAL, CAV)) < 1e-15


def test_sigma_band_resonant_on_shell_value():
    """With omega_c tuned to the local direct gap, the on-shell conduction
    self-energy is the purely reactive-free value -i g^2 mu^2 / eta."""
    k = np.pi / 2
    gap = float(band_gap(k, TOPO))
    c = CavityParams(omega_c=gap, mass_beta=0.5, g=0.05, eta=1e-2)
    _, e_c = band_energies(k, TOPO)
    sigma = sigma_band(k, float(e_c), "conduction", TOPO, c)
    mu = dipole(k, TOPO)
    expected = -1j * c.g**2 * mu * mu / c.eta
    assert abs(sigma - expected) < 1e-12 * abs(expected)


def test_sigma_band_coupling_scaling():
    doubled = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.1, eta=1e-2)
    for band in BANDS:
        ratio = sigma_band(0.9, 0.6, band, TOPO, doubled) / sigma_band(
            0.9, 0.6, band, TOPO, CAV
        )
        assert abs(ratio - 4.0) < 1e-12


def test_sigma_matrix_structure():
    entry = sigma_matrix(0.8, 0.3, TOPO, CAV)
    assert isinstance(entry, FermionSelfEnergy)
    assert entry.k == 0.8
    assert entry.omega == 0.3
    assert entry.sigma_cc == 0j
    assert entry.sigma_vv == 0j
    gap = band_gap(0.8, TOPO)
    mu = dipole(0.8, TOPO)
    weight = CAV.g**2 * mu * mu
    assert entry.sigma_cv == weight * bare_photon_green(0.3 - gap, CAV)
    assert entry.sigma_vc == weight * bare_photon_green(0.3 + gap, CAV)


def test_sigma_matrix_vanishes_at_zone_edge():
    entry = sigma_matrix(np.pi, 0.3, TOPO, CAV)
    assert abs(entry.sigma_cv) < 1e-15
    assert abs(entry.sigma_vc) < 1e-15


def test_sigma_matrix_coupling_scaling():
    doubled = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.1, eta=1e-2)
    weak = sigma_matrix(0.8, 0.3, TOPO, CAV)
    strong = sigma_matrix(0.8, 0.3, TOPO, doubled)
    assert abs(strong.sigma_cv / weak.sigma_cv - 4.0) < 1e-12
    assert abs(strong.sigma_vc / weak.sigma_vc - 4.0) < 1e-12


def test_dispersive_sigma_flat_branch_collapses():
    flat = CavityParams(omega_c=1.0, mass_beta=0.0, g=0.05, eta=1e-2)
    q_max = 3.0
    got = sigma_band_dispersive(1.1, 0.7, "conduction", TOPO, flat, n_q=512, q_max=q_max)
    e_v, _ = band_energies(1.1, TOPO)
    flat_value = (
        flat.g**2
        * dipole(1.1, TOPO) ** 2
        * (q_max / np.pi)
        * bare_photon_green(0.7 - float(e_v), flat)
    )
    assert abs(got - flat_value) < 1e-12 * abs(flat_value)


def test_dispersive_sigma_needs_a_window_for_flat_branches():
    flat = CavityParams(omega_c=1.0, mass_beta=0.0, g=0.05, eta=1e-2)
    with pytest.raises(ValueError):
        sigma_band_dispersive(1.1, 0.7, "conduction", TOPO, flat)


def test_dispersive_sigma_window_converged():
    got = sigma_band_dispersive(1.1, 0.7, "conduction", TOPO, CAV, n_q=2048)
    finer = sigma_band_dispersive(1.1, 0.7, "conduction", TOPO, CAV, n_q=4096)
    assert abs(got - finer) < 1e-8 * abs(finer)


def test_lamb_shift_matches_analytic_real_part():
    """The principal-value reconstruction through the photon spectral density
    lands on Re sigma_band: the dispersion side of the same pole."""
    k = np.pi / 2
    _, e_c = band_energies(k, TRIVIAL)
    shift = lamb_shift(k, float(e_c), TRIVIAL, CAV, n_w=16384)
    reference = sigma_band(k, float(e_c), "conduction", TRIVIAL, CAV).real
    assert abs(shift - reference) < 0.01 * abs(reference)


def test_lamb_shift_second_point():
    shift = lamb_shift(1.3, 1.2, TOPO, CAV, n_w=16384)
    reference = sigma_band(1.3, 1.2, "conduction", TOPO, CAV).real
    assert abs(shift - reference) < 0.01 * abs(reference)


def test_dressed_bands_decoupled_limit():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    for k in (0.3, 1.2, 2.8):
        bands = dressed_bands(k, 0.0, TOPO, off)
        assert isinstance(bands, DressedBands)
        half_gap = 0.5 * float(band_gap(k, TOPO))
        assert abs(bands.e_plus - half_gap) < 1e-14
        assert abs(bands.e_minus + half_gap) < 1e-14


def test_dressed_bands_zone_edge_pinned_for_any_coupling():
    strong = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.8, eta=1e-2)
    bands = dressed_bands(np.pi, 0.0, TOPO, strong)
    half_gap = abs(TOPO.t1 - TOPO.t2)
    assert abs(bands.e_plus - half_gap) < 1e-12
    assert abs(bands.e_minus + half_gap) < 1e-12


def test_dressed_gap_never_shrinks():
    ks = np.linspace(-np.pi, np.pi, 201)
    for k in ks:
        bands = dressed_bands(float(k), 0.0, TOPO, CAV)
        assert bands.e_plus - bands.e_minus >= float(band_gap(k, TOPO)) - 1e-14
        assert abs(bands.e_plus + bands.e_minus) < 1e-14


def test_interband_mixing_is_perturbative_at_figure_coupling():
    # the claim behind treating the bands as merely shifted: the photon-induced
    # off-diagonal term never competes with the gap
    for p in (TRIVIAL, TOPO):
        c = CavityParams(
            omega_c=2.0 * abs(p.t1 - p.t2), mass_beta=0.5, g=0.05, eta=1e-2
        )
        for k in np.linspace(-np.pi, np.pi, 101):
            gap = float(band_gap(k, p))
            _, e_c = band_energies(k, p)
            for omega in (float(e_c), 0.0):
                entry = sigma_matrix(float(k), omega, p, c)
                assert abs(entry.sigma_cv) / gap < 1e-2


@pytest.mark.parametrize("p", [TRIVIAL, TOPO])
@pytest.mark.parametrize("onshell", [True, False])
def test_dressed_band_sweep_matches_pointwise_functions_bit_for_bit(p, onshell):
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    ks = np.linspace(-np.pi, np.pi, 257)
    sweep = dressed_band_sweep(ks, p, c, onshell=onshell, omega=0.3)
    for i, k in enumerate(ks.tolist()):
        omega = 0.5 * float(band_gap(k, p)) if onshell else 0.3
        entry = sigma_matrix(k, omega, p, c)
        bands = dressed_bands(k, omega, p, c)
        got = (sweep.k[i], sweep.omega[i], sweep.sigma_cv[i], sweep.e_plus[i], sweep.e_minus[i])
        expected = (k, omega, entry.sigma_cv, bands.e_plus, bands.e_minus)
        for a, b in zip(got, expected):
            assert np.array_equal(np.atleast_1d(a).view(np.int64), np.atleast_1d(b).view(np.int64))
