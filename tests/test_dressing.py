"""Band self-energies from photon exchange, their Kramers-Kronig real part, and
the dressed band edges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityssh import (
    CavityParams,
    SshParams,
    band_energies,
    band_gap,
    dipole,
    dressed_propagator,
    dressed_band_sweep,
)
from reference import (
    DressedBands,
    FermionSelfEnergy,
    dressed_bands,
    principal_value,
    sigma_matrix,
)

TRIVIAL = SshParams(1.0, 0.5)
TOPO = SshParams(1.0, 1.5)
CAV = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.05, eta=1e-2)


def test_bare_photon_green_resonance():
    assert dressed_propagator(CAV.omega_c, 0.0, CAV, 0.0) == 1.0 / (1j * CAV.eta)


def test_sigma_matrix_decoupled_limit():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-2)
    entry = sigma_matrix(0.7, 1.0, TRIVIAL, off)
    assert entry.sigma_cv == 0j
    assert entry.sigma_vc == 0j


def test_sigma_matrix_resonant_on_shell_value():
    """With omega_c tuned to the local direct gap, Sigma_cv at omega = 2 Delta(k)
    is the purely reactive-free value -i g^2 mu^2 / eta."""
    k = np.pi / 2
    gap = float(band_gap(k, TOPO))
    c = CavityParams(omega_c=gap, mass_beta=0.5, g=0.05, eta=1e-2)
    sigma = sigma_matrix(k, 2.0 * gap, TOPO, c).sigma_cv
    mu = dipole(k, TOPO)
    expected = -1j * c.g**2 * mu * mu / c.eta
    assert abs(sigma - expected) < 1e-12 * abs(expected)


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
    assert entry.sigma_cv == weight * dressed_propagator(0.3 - gap, 0.0, CAV, 0.0)
    assert entry.sigma_vc == weight * dressed_propagator(0.3 + gap, 0.0, CAV, 0.0)


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


def lamb_shift(k: float, omega: float, p: SshParams, c: CavityParams, n_w: int = 16384):
    """Re Sigma_cv from the photon spectral weight (Kramers-Kronig):
    g^2 mu^2 P int (dw/pi) Im G_cav(w) / (w - x) at x = omega - Delta(k). The
    window covers the cavity Lorentzian and the pole; truncation error falls
    off as eta / window^2."""
    x = omega - float(band_gap(k, p))
    window = max(5.0, 200.0 * c.eta) + abs(x - c.omega_c)

    def spectral_part(w):
        return np.imag(1.0 / (w - c.omega_c + 1j * c.eta)) / np.pi

    lo, hi = min(c.omega_c, x) - window, max(c.omega_c, x) + window
    pv = principal_value(spectral_part, lo, hi, pole=x, n_k=n_w)
    return float(c.g**2 * dipole(k, p) ** 2 * pv)


def test_lamb_shift_matches_analytic_real_part():
    """The principal-value reconstruction through the photon spectral density
    lands on Re Sigma_cv: the dispersion side of the same pole."""
    k = np.pi / 2
    _, e_c = band_energies(k, TRIVIAL)
    shift = lamb_shift(k, float(e_c), TRIVIAL, CAV)
    reference = sigma_matrix(k, float(e_c), TRIVIAL, CAV).sigma_cv.real
    assert abs(shift - reference) < 0.01 * abs(reference)


def test_lamb_shift_second_point():
    shift = lamb_shift(1.3, 1.2, TOPO, CAV)
    reference = sigma_matrix(1.3, 1.2, TOPO, CAV).sigma_cv.real
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


def assert_sweep_is_pointwise(ks, p, c, onshell, omega):
    """dressed_band_sweep equals sigma_matrix and dressed_bands at every k, as
    int64 words, so the sign of zero counts."""
    sweep = dressed_band_sweep(ks, p, c, onshell=onshell, omega=omega)
    for i, k in enumerate(ks.tolist()):
        w = 0.5 * float(band_gap(k, p)) if onshell else omega
        entry = sigma_matrix(k, w, p, c)
        bands = dressed_bands(k, w, p, c)
        got = (sweep.k[i], sweep.omega[i], sweep.sigma_cv[i], sweep.e_plus[i], sweep.e_minus[i])
        expected = (k, w, entry.sigma_cv, bands.e_plus, bands.e_minus)
        for a, b in zip(got, expected):
            assert np.array_equal(np.atleast_1d(a).view(np.int64), np.atleast_1d(b).view(np.int64))


@pytest.mark.parametrize("p", [TRIVIAL, TOPO])
@pytest.mark.parametrize("onshell", [True, False])
def test_dressed_band_sweep_matches_pointwise_functions_bit_for_bit(p, onshell):
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)
    assert_sweep_is_pointwise(np.linspace(-np.pi, np.pi, 257), p, c, onshell, 0.3)


@settings(max_examples=60, deadline=None)
@given(
    t2=st.floats(0.0, 3.0).filter(lambda t2: abs(t2 - 1.0) > 1e-3),
    eta=st.floats(1e-4, 5.0),
    g=st.floats(0.0, 3.0),
    mass_beta=st.floats(0.0, 3.0),
    omega_c=st.floats(0.1, 6.0),
    onshell=st.booleans(),
    omega=st.floats(-8.0, 8.0),
    count=st.integers(1, 40),
)
def test_dressed_band_sweep_is_the_pointwise_chain_bit_for_bit(
    t2, eta, g, mass_beta, omega_c, onshell, omega, count
):
    """On random chains, couplings and linewidths, on shell and at a fixed
    omega, every k equals the per-k scalar chain."""
    p = SshParams(1.0, t2)
    c = CavityParams(omega_c=omega_c, mass_beta=mass_beta, g=g, eta=eta)
    assert_sweep_is_pointwise(np.linspace(-np.pi, np.pi, count), p, c, onshell, omega)


def test_dressed_band_sweep_is_pointwise_in_both_quotient_branches():
    """At omega = Delta(1) + omega_c the cavity denominator has
    |Re d| < eta = |Im d| for k near +-1, the quotient's second branch, and
    |Re d| >= eta elsewhere, the first."""
    c = CavityParams(omega_c=0.5, mass_beta=0.5, g=0.7, eta=0.2)
    ks = np.linspace(-np.pi, np.pi, 101)
    omega = float(band_gap(1.0, TOPO)) + c.omega_c
    d_re = omega - band_gap(ks, TOPO) - c.omega_c
    second = np.abs(d_re) < c.eta
    assert second.any() and not second.all()
    assert_sweep_is_pointwise(ks, TOPO, c, False, omega)
