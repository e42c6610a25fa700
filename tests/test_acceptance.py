"""Release gate: one test per acceptance criterion, at the stated tolerances.

Each criterion gets exactly one pass/fail line in `pytest -v`. Criterion 4 is
split so its known-red clause stands alone: the measured q=0 polariton
splitting at the pinned parameters sits ~43% above the two-level 2g
reference, outside the 25% box, and is left failing rather than widened.
The README's acceptance section carries the measurement and the analysis.
"""

import time

import numpy as np
import pytest

from cavityssh import (
    BubbleTable,
    CavityParams,
    FrequencyGrid,
    InteractionKernel,
    SshParams,
    ThermalState,
    band_edge_params,
    band_gap,
    bose_occupation,
    dipole,
    dressed_propagator,
    entropy_scan,
    gamma4_stationary,
    hopfield_branches,
    input_state,
    kerr_scan,
    schmidt_decompose,
    self_energy_spectrum,
    spectral_map,
    zak_phase,
)
from cavityssh.cli import main
from reference import (
    dressed_bands,
    gamma4_direct,
    occupation,
    photon_self_energy,
    principal_value,
    spectral_function,
)

TOPO = SshParams(1.0, 1.5)
TRIVIAL = SshParams(1.0, 0.5)


class Deadline:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"criterion over budget: {elapsed:.1f} s"


def q0_peaks(p: SshParams, c: CavityParams, omegas: np.ndarray, n_k: int):
    """Local maxima of A(omega, q=0), strongest first."""
    table = BubbleTable(p, c.eta, n_k)
    sigma = c.g**2 * np.array([table.integral(w) for w in omegas])
    a_vals = -np.imag(1.0 / (omegas - c.omega_c - sigma + 1j * c.eta)) / np.pi
    interior = (a_vals[1:-1] > a_vals[:-2]) & (a_vals[1:-1] > a_vals[2:])
    idx = np.where(interior)[0] + 1
    order = np.argsort(a_vals[idx])[::-1]
    return omegas[idx][order], a_vals[idx][order]


def test_criterion_01_chain_analytics():
    clock = Deadline(1.0)
    for p in (TRIVIAL, TOPO, SshParams(0.8, 1.9), SshParams(2.0, 0.3)):
        assert abs(band_gap(np.pi, p) - 2.0 * abs(p.t1 - p.t2)) < 1e-12
        assert abs(dipole(0.0, p)) < 1e-12
        assert abs(dipole(np.pi, p)) < 1e-12
    assert abs(band_gap(np.pi, TRIVIAL) - 1.0) < 1e-12
    clock.check()


def test_criterion_02_topological_phase():
    clock = Deadline(1.0)
    box = 1e-6 * 2.0 * np.pi
    for r in (0.5, 0.75):
        assert abs(zak_phase(SshParams(1.0, r), n_k=1024)) < box
    for r in (1.25, 1.5):
        assert abs(zak_phase(SshParams(1.0, r), n_k=1024) - np.pi) < box
    clock.check()


def test_criterion_03_self_energy_analytics():
    clock = Deadline(10.0)
    sharp = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-3)
    table = BubbleTable(TOPO, sharp.eta, n_k=16384)

    ims = np.array([table.integral(w).imag for w in np.linspace(0.05, 8.0, 2000)])
    assert np.all(ims <= 0.0)

    below = table.integral(0.5)
    assert abs(below.imag) < 10.0 * sharp.eta * abs(below.real)

    for omega in (2.0, 3.0, 4.0):
        cos_k = (omega**2 / 4.0 - TOPO.t1**2 - TOPO.t2**2) / (2.0 * TOPO.t1 * TOPO.t2)
        k_star = np.arccos(cos_k)
        slope = abs(-4.0 * TOPO.t1 * TOPO.t2 * np.sin(k_star) / omega)
        residue = -dipole(k_star, TOPO) ** 2 / slope
        assert abs(table.integral(omega).imag - residue) < 0.02 * abs(residue)

    grid = FrequencyGrid(0.9, 5.2, 4001)
    spectrum = self_energy_spectrum(grid, TOPO, sharp, n_k=16384)
    transform = principal_value(
        lambda x: np.interp(x, grid.values, spectrum.imag),
        0.9, 5.2, pole=0.5, n_k=4001,
    )
    assert abs(transform / np.pi - below.real) < 0.02 * abs(below.real)
    clock.check()


# Same protocol as the fig2 presets: the map runs in the bare-bubble
# normalization (g = 1) and the pinned g = 0.05 enters through the two-level
# overlay it is quoted for.
FIG2_TRIVIAL = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=0.01)
FIG2_OMEGAS = np.linspace(0.6, 1.5, 200)


def test_criterion_04_polariton_map():
    clock = Deadline(60.0)
    omega_grid = FrequencyGrid(0.6, 1.5, 200)
    q_grid = FrequencyGrid(-2.0, 2.0, 101)  # odd count keeps the q = 0 column
    for p in (TRIVIAL, TOPO):
        smap = spectral_map(omega_grid, q_grid, p, FIG2_TRIVIAL, n_k=4096)
        assert np.all(smap >= 0.0)
        assert np.all(np.isfinite(smap))

    topo_peaks, _ = q0_peaks(TOPO, FIG2_TRIVIAL, FIG2_OMEGAS, n_k=4096)
    assert len(topo_peaks) >= 2

    trivial_peaks, _ = q0_peaks(TRIVIAL, FIG2_TRIVIAL, FIG2_OMEGAS, n_k=4096)
    assert abs(trivial_peaks[0] - topo_peaks[0]) > 5.0 * FIG2_TRIVIAL.eta
    clock.check()


def test_criterion_04_hopfield_splitting_box():
    """Known red: the measured splitting exceeds the 25% box (see README)."""
    clock = Deadline(60.0)
    peaks, _ = q0_peaks(TOPO, FIG2_TRIVIAL, FIG2_OMEGAS, n_k=4096)
    splitting = abs(peaks[1] - peaks[0])
    lower, upper = hopfield_branches(0.0, 0.05, 0.5, 2.0 * abs(TOPO.t1 - TOPO.t2))
    reference = upper - lower  # 2g
    clock.check()
    assert abs(splitting / reference - 1.0) <= 0.25, (
        f"splitting {splitting:.4f} vs Hopfield 2g = {reference:.4f} "
        f"({abs(splitting / reference - 1.0):.1%} off, box 25%)"
    )


def test_criterion_05_kerr_consistency():
    clock = Deadline(120.0)
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.01, eta=1e-3)
    rows = {
        row.r: row
        for row in kerr_scan([0.5, 0.7, 0.9, 1.1, 1.3, 1.5], TRIVIAL, c, n_k=65536, n_max=5)
    }
    assert all(row.converged for row in rows.values())

    for r in (0.5, 1.5):
        fit = rows[r].result
        assert abs(fit.u / rows[r].u_closed - 1.0) < 0.05
        assert fit.u.real < 0.0

    left = [abs(rows[r].result.u) for r in (0.5, 0.7, 0.9)]
    right = [abs(rows[r].result.u) for r in (1.5, 1.3, 1.1)]
    assert left[0] < left[1] < left[2]
    assert right[0] < right[1] < right[2]
    clock.check()


def test_criterion_06_vertex():
    clock = Deadline(120.0)
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=1.0, eta=1e-2)

    flat = InteractionKernel(v0=1.0, zeta=0.0)
    table = BubbleTable(TRIVIAL, c.eta, n_k=512)
    for w1, w2 in ((0.8, 0.8), (1.1, 1.3)):
        direct = gamma4_direct(w1, w2, TRIVIAL, c, flat, n_k=512)
        product = table.integral(w1) * table.integral(w2)
        assert abs(direct - product) < 1e-10 * abs(product)

    kern = InteractionKernel(v0=1.0, zeta=10.0)
    assert gamma4_direct(1.1, 1.27, TRIVIAL, c, kern, n_k=512) == gamma4_direct(
        1.27, 1.1, TRIVIAL, c, kern, n_k=512
    )

    for p in (TRIVIAL, TOPO):
        edge = band_edge_params(p)
        with pytest.raises(Exception) as info:
            gamma4_stationary(edge.delta0 - 0.1, edge.delta0 + 0.1, kern, edge, eta=c.eta)
        assert type(info.value).__name__ == "BelowThresholdError"

        ratios = []
        for omega in (1.06, 1.1, 1.15, 1.2, 1.25, 1.3):
            direct = gamma4_direct(omega, omega, p, c, kern, n_k=512)
            stationary = gamma4_stationary(omega, omega, kern, edge, eta=c.eta)
            ratios.append(abs(stationary) / abs(direct))
        assert max(ratios) / min(ratios) < 2.0
    clock.check()


def test_criterion_07_spectral_entanglement():
    clock = Deadline(60.0)
    chain = SshParams(1.0, 0.8)  # every grid point above the band edge
    edge = band_edge_params(chain)
    grid = FrequencyGrid(0.6, 1.4, 256)

    pump = input_state(grid, omega0=1.0, sigma=0.1)
    assert schmidt_decompose(pump, grid.spacing).entropy_nats < 1e-10

    rows = entropy_scan([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0], grid, 1.0, 0.1, edge, v0=1.0)
    entropies = [row.entropy_nats for row in rows]
    assert entropies[0] < 1e-6
    assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
    for row in rows:
        if row.zeta >= 1.0:
            assert row.fit_r2 > 0.99
        # the fitted ratio is recorded against the reference law, not asserted
        print(
            f"zeta={row.zeta}: ratio_fit={row.ratio_fit:.4f} "
            f"reference={row.zeta / (1.0 + row.zeta):.4f}"
        )
    clock.check()


def test_criterion_08_keldysh():
    clock = Deadline(10.0)
    pinned = CavityParams(omega_c=2.2619, mass_beta=0.5, g=1.0, eta=1e-3)
    warm = ThermalState(temperature=1.0)

    # one dressing, two constructions of A: the resolvent path used by the
    # spectra and the Keldysh-side combination through G^A = conj(G^R)
    sigma_table = BubbleTable(TOPO, pinned.eta, n_k=4096)
    for omega in np.linspace(2.0, 2.5, 41):
        sigma_r = photon_self_energy(float(omega), TOPO, pinned, n_k=4096)
        for q in (0.0, 0.7):
            g_r = dressed_propagator(float(omega), q, pinned, sigma_r)
            from_resolvent = spectral_function(float(omega), q, pinned, sigma_r)
            assert -g_r.imag / np.pi == from_resolvent
            from_advanced = (1j * (g_r - np.conj(g_r)) / (2.0 * np.pi)).real
            assert abs(from_advanced - from_resolvent) <= 4e-16 * abs(from_resolvent)

    omegas = np.linspace(2.0, 2.5, 501)
    sigma = np.array([sigma_table.integral(w) for w in omegas])
    a_vals = -np.imag(1.0 / (omegas - pinned.omega_c - sigma + 1j * pinned.eta)) / np.pi
    omega_peak = float(omegas[int(np.argmax(a_vals))])

    deviations = []
    for eta in (1e-2, 1e-3, 1e-4):
        c = CavityParams(omega_c=2.2619, mass_beta=0.5, g=1.0, eta=eta)
        n = occupation(omega_peak, 0.0, c, warm, photon_self_energy(omega_peak, TOPO, c, n_k=16384))
        deviations.append(abs(n / bose_occupation(omega_peak, warm) - 1.0))
    assert deviations[1] < 0.01
    assert deviations[0] > deviations[1] > deviations[2]

    sigma_peak = photon_self_energy(omega_peak, TOPO, pinned, n_k=16384)
    cold = occupation(omega_peak, 0.0, pinned, ThermalState(0.0), sigma_peak)
    assert abs(cold) < 1e-10
    clock.check()


def test_criterion_09_electron_dressing():
    clock = Deadline(10.0)
    from cavityssh import band_energies
    from reference import sigma_matrix

    for p in (TRIVIAL, TOPO):
        c = CavityParams(omega_c=2.0 * abs(p.t1 - p.t2), mass_beta=0.5, g=0.05, eta=0.01)
        for omega in (0.0, 0.5, 1.3):
            assert abs(sigma_matrix(np.pi, omega, p, c).sigma_cv) < 1e-15

        doubled = CavityParams(
            omega_c=c.omega_c, mass_beta=0.5, g=0.1, eta=0.01
        )
        base = sigma_matrix(0.8, 0.3, p, c).sigma_cv
        assert abs(sigma_matrix(0.8, 0.3, p, doubled).sigma_cv / base - 4.0) < 1e-12

        ks = np.linspace(-np.pi, np.pi, 201)
        for k in ks:
            gap = float(band_gap(k, p))
            bands = dressed_bands(float(k), 0.0, p, c)
            assert bands.e_plus - bands.e_minus >= gap - 1e-14
            _, e_c = band_energies(float(k), p)
            for omega in (float(e_c), 0.0):
                assert abs(sigma_matrix(float(k), omega, p, c).sigma_cv) / gap < 1e-2
    clock.check()


def test_criterion_10_deterministic_outputs(tmp_path):
    import hashlib
    import json

    doc = {
        "command": "spectrum",
        "model": {"t1": 1.0, "t2": 1.5},
        "cavity": {"omega_c": 1.0, "mass_beta": 0.5, "g": 1.0, "eta": 0.01},
        "grids": {
            "n_k": 1024,
            "omega": {"start": 0.6, "stop": 1.5, "count": 40},
            "q": {"start": -2.0, "stop": 2.0, "count": 21},
        },
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))

    digests = set()
    for label, threads in (("a", 1), ("b", 3), ("c", 8), ("d", 1)):
        out = tmp_path / label
        code = main([
            "spectrum", "--config", str(config), "--out", str(out),
            "--threads", str(threads),
        ])
        assert code == 0
        digests.add(hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest())
    assert len(digests) == 1
