"""Chain dispersion, dipole, and topology against the exact two-band algebra."""

import tracemalloc

import numpy as np
import pytest

from cavityssh import (
    CriticalPointError,
    GaplessPointError,
    SshParams,
    band_edge_params,
    band_energies,
    band_gap,
    bloch_phase,
    dipole,
    zak_phase,
)

TRIVIAL = SshParams(1.0, 0.5)
TOPOLOGICAL = SshParams(1.0, 1.5)


def test_ssh_params_validation():
    with pytest.raises(ValueError):
        SshParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SshParams(-1.0, 0.5)
    with pytest.raises(ValueError):
        SshParams(1.0, -0.1)
    assert SshParams(2.0, 0.5).ratio == 0.25


def test_band_gap_closed_form():
    # Delta(k) = 2 sqrt(t1^2 + t2^2 + 2 t1 t2 cos k)
    assert abs(band_gap(np.pi, TRIVIAL) - 1.0) < 1e-12
    assert abs(band_gap(0.0, TRIVIAL) - 3.0) < 1e-12
    for p in (TRIVIAL, TOPOLOGICAL, SshParams(0.7, 1.9)):
        assert abs(band_gap(np.pi, p) - 2.0 * abs(p.t1 - p.t2)) < 1e-12
        assert abs(band_gap(0.0, p) - 2.0 * (p.t1 + p.t2)) < 1e-12
    ks = np.linspace(-np.pi, np.pi, 101)
    direct = 2.0 * np.sqrt(
        TRIVIAL.t1**2 + TRIVIAL.t2**2 + 2.0 * TRIVIAL.t1 * TRIVIAL.t2 * np.cos(ks)
    )
    np.testing.assert_allclose(band_gap(ks, TRIVIAL), direct, rtol=1e-14)


def test_band_energies_symmetric_halves():
    ks = np.linspace(-np.pi, np.pi, 64)
    lower, upper = band_energies(ks, TOPOLOGICAL)
    np.testing.assert_allclose(upper, -lower, rtol=1e-15)
    np.testing.assert_allclose(upper - lower, band_gap(ks, TOPOLOGICAL), rtol=1e-15)


def test_dipole_vanishes_at_zone_center_and_edge():
    for p in (TRIVIAL, TOPOLOGICAL):
        assert abs(dipole(0.0, p)) < 1e-12
        assert abs(dipole(np.pi, p)) < 1e-12


def test_dipole_interior_value_and_oddness():
    # t1 = t2 = 1 at k = pi/2: mu = t1 t2 sin(pi/2)/Delta = 1/(2 sqrt 2)
    p = SshParams(1.0, 1.0)
    assert abs(dipole(np.pi / 2, p) - 1.0 / (2.0 * np.sqrt(2.0))) < 1e-12
    ks = np.linspace(0.1, 3.0, 17)
    np.testing.assert_allclose(dipole(-ks, TRIVIAL), -dipole(ks, TRIVIAL), rtol=1e-14)


def test_dipole_rejects_gapless_point():
    with pytest.raises(GaplessPointError):
        dipole(np.pi, SshParams(1.0, 1.0))


def test_bloch_phase_reference_points():
    assert abs(bloch_phase(0.0, TRIVIAL)) < 1e-12
    # zone edge: arg(t1 - t2) is 0 in the trivial phase, pi in the topological one
    assert abs(bloch_phase(np.pi, TRIVIAL)) < 1e-12
    assert abs(abs(bloch_phase(np.pi, TOPOLOGICAL)) - np.pi) < 1e-12


def test_zak_phase_quantization():
    for r in (0.25, 0.5, 0.75):
        assert abs(zak_phase(SshParams(1.0, r), n_k=1024)) < 1e-6 * 2.0 * np.pi
    for r in (1.25, 1.5, 2.0):
        phase = zak_phase(SshParams(1.0, r), n_k=1024)
        assert abs(phase - np.pi) < 1e-6 * 2.0 * np.pi


def test_zak_phase_grid_independent():
    for p in (TRIVIAL, TOPOLOGICAL):
        assert abs(zak_phase(p, n_k=1024) - zak_phase(p, n_k=2048)) < 1e-8
        assert abs(zak_phase(p, n_k=64) - zak_phase(p, n_k=1024)) < 1e-8


def test_zak_phase_wrap_stays_on_quantized_branch():
    """The documented range [0, 2pi) holds exactly on both sides of the closure,
    including r = 0.75 at n_k = 1024, whose loop sum rounds to just above 0."""
    ratios = [0.75, *np.linspace(0.02, 0.98, 49), *np.linspace(1.02, 5.0, 200)]
    for n_k in (64, 1024, 4096):
        for r in ratios:
            phase = zak_phase(SshParams(1.0, float(r)), n_k=n_k)
            assert 0.0 <= phase < 2.0 * np.pi, (r, n_k, phase)
            expected = 0.0 if r < 1.0 else np.pi
            assert abs(phase - expected) < 1e-12, (r, n_k, phase)


def test_zak_phase_rejects_critical_chain():
    with pytest.raises(CriticalPointError):
        zak_phase(SshParams(1.0, 1.0), n_k=1024)


def test_zak_phase_rejects_a_critical_chain_before_building_its_zone():
    """The zone at n_k = 2^22 is 32 MiB of float nodes; a critical ratio is
    refused before any of it is allocated."""
    n_k = 2**22
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(CriticalPointError):
            zak_phase(SshParams(1.0, 1.0), n_k=n_k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < (n_k + 1) * 8 / 64


def test_band_edge_reference_config():
    edge = band_edge_params(TRIVIAL)
    assert abs(edge.delta0 - 1.0) < 1e-9
    assert abs(edge.curvature - 2.0) < 1e-6
    assert abs(edge.dipole_slope - 0.5) < 1e-6


def test_band_edge_matches_analytic_forms():
    """Finite differences against delta0 = 2|t1-t2|, curvature = 2 t1 t2/|t1-t2|,
    slope = t1 t2 / delta0, across both phases."""
    for r in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0, 3.0):
        p = SshParams(1.0, r)
        edge = band_edge_params(p)
        delta0 = 2.0 * abs(p.t1 - p.t2)
        assert abs(edge.delta0 - delta0) < 1e-9 * delta0
        curvature = 2.0 * p.t1 * p.t2 / abs(p.t1 - p.t2)
        assert abs(edge.curvature - curvature) < 1e-6 * curvature
        slope = p.t1 * p.t2 / delta0
        assert abs(edge.dipole_slope - slope) < 1e-6 * slope


def test_band_edge_rejects_critical_chain():
    with pytest.raises(CriticalPointError):
        band_edge_params(SshParams(1.0, 1.0))


@pytest.mark.parametrize("t2", [0.0, 1e-10, 1e8])
def test_band_edge_rejects_a_flat_edge(t2):
    """t2 = 0 has a flat gap; at the extreme ratios the second difference
    rounds to zero. Neither has a band-edge momentum q*(omega)."""
    with pytest.raises(CriticalPointError, match=r"ratio .* curvature 0\.0"):
        band_edge_params(SshParams(1.0, t2))
