"""Self-consistent resonance ladder, quadratic fits, and the closed-form shift."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from cavityssh import kerr
from cavityssh import (
    BubbleTable,
    CavityParams,
    CriticalPointError,
    DegenerateDesignError,
    KerrResult,
    SshParams,
    kerr_from_fit,
    kerr_scan,
    solve_omega_sequence,
)
from reference import photon_self_energy

TOPO = SshParams(1.0, 1.5)
KERR_CAV = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.01, eta=1e-3)


def test_decoupled_ladder_stays_at_bare_frequency():
    off = CavityParams(omega_c=1.7, mass_beta=0.5, g=0.0, eta=1e-3)
    ladder = solve_omega_sequence(4, BubbleTable(TOPO, off.eta, 512), off)
    assert np.all(ladder == 1.7 + 0j)


def test_ladder_against_flat_limit_fixed_point():
    """Chain far above the cavity: Sigma is nearly frequency independent, so the
    self-consistent root sits at omega_c + (n+1) Sigma(omega_c) up to the
    residual dSigma/domega drift."""
    chain = SshParams(10.0, 5.0)  # band [10, 30]
    c = CavityParams(omega_c=0.5, mass_beta=0.5, g=0.1, eta=1e-3)
    shift = photon_self_energy(0.5, chain, c, n_k=4096)
    ladder = solve_omega_sequence(4, BubbleTable(chain, c.eta, 4096), c)
    for n, omega_n in enumerate(ladder):
        predicted = 0.5 + (n + 1) * shift
        assert abs(omega_n - predicted) < 5e-3 * abs((n + 1) * shift)


def test_ladder_decays_and_stays_continuous():
    ladder = solve_omega_sequence(5, BubbleTable(TOPO, KERR_CAV.eta, 16384), KERR_CAV)
    assert np.all(ladder.imag <= 0.0)
    sigma_scale = abs(photon_self_energy(1.0, TOPO, KERR_CAV, n_k=16384))
    steps = np.abs(np.diff(ladder))
    assert np.all(steps <= 2.0 * sigma_scale)


def test_fit_recovers_exact_quadratic():
    ns = np.arange(6.0)
    ladder = (1.4 - 0.01j) + (-2e-4 + 1e-5j) * ns + 0.5 * (3e-6 - 2e-7j) * ns * ns
    result = kerr_from_fit(ladder)
    assert isinstance(result, KerrResult)
    assert abs(result.omega0 - 1.4) < 1e-10
    assert abs(result.u - (-2e-4 + 1e-5j)) < 1e-10
    assert abs(result.uprime - (3e-6 - 2e-7j)) < 1e-10
    assert result.fit_residual < 1e-12


def test_fit_linear_ladder_has_no_curvature():
    ns = np.arange(6.0)
    result = kerr_from_fit(2.0 + 5e-4 * ns + 0j * ns)
    assert abs(result.uprime) < 1e-10


def test_fit_needs_enough_rungs():
    with pytest.raises(DegenerateDesignError):
        kerr_from_fit(np.array([1.0 + 0j, 1.1 + 0j]))


def test_fit_negative_kerr_at_figure_coupling():
    c = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.05, eta=1e-3)
    result = kerr_from_fit(solve_omega_sequence(5, BubbleTable(TOPO, c.eta, 16384), c))
    assert result.u.real < 0.0


def test_closed_form_limits_and_signs():
    off = CavityParams(omega_c=1.0, mass_beta=0.5, g=0.0, eta=1e-3)
    assert photon_self_energy(off.omega_c, TOPO, off, n_k=512) == 0j
    # every transition lies above the cavity, in resonance or far below it,
    # so the first-power denominator keeps Re U negative in both regimes
    far_below = CavityParams(omega_c=0.25, mass_beta=0.5, g=0.01, eta=1e-4)
    assert photon_self_energy(far_below.omega_c, TOPO, far_below, n_k=16384).real < 0.0
    for r in (0.5, 1.5):
        p = SshParams(1.0, r)
        resonant = CavityParams(
            omega_c=2.0 * abs(1.0 - r), mass_beta=0.5, g=0.01, eta=1e-3
        )
        assert photon_self_energy(resonant.omega_c, p, resonant, n_k=16384).real < 0.0


def test_fit_matches_closed_form_at_small_coupling():
    for r in (0.5, 1.5):
        p = SshParams(1.0, r)
        c = CavityParams(omega_c=2.0 * abs(1.0 - r), mass_beta=0.5, g=0.01, eta=1e-3)
        fit = kerr_from_fit(solve_omega_sequence(5, BubbleTable(p, c.eta, 16384), c))
        closed = photon_self_energy(c.omega_c, p, c, n_k=16384)
        assert abs(fit.u / closed - 1.0) < 0.05


def test_kerr_scaling_window():
    """U/g^2 is coupling independent at the percent level in the perturbative
    window; the quadratic model residual obeys its adequacy bound (checked on
    the trivial side, where the recorded margin also covers g = 0.02)."""
    reduced = {}
    for g in (0.005, 0.01, 0.02):
        c = CavityParams(omega_c=1.0, mass_beta=0.5, g=g, eta=1e-3)
        fit = kerr_from_fit(solve_omega_sequence(5, BubbleTable(TOPO, c.eta, 16384), c))
        reduced[g] = fit.u / g**2
        if g <= 0.01:
            assert fit.fit_residual < 1e-6 * abs(fit.u) * 25.0
    base = reduced[0.01]
    for g, value in reduced.items():
        assert abs(value / base - 1.0) < 0.01

    trivial = SshParams(1.0, 0.5)
    for g in (0.005, 0.01, 0.02):
        c = CavityParams(omega_c=1.0, mass_beta=0.5, g=g, eta=1e-3)
        fit = kerr_from_fit(solve_omega_sequence(5, BubbleTable(trivial, c.eta, 16384), c))
        assert fit.fit_residual < 1e-6 * abs(fit.u) * 25.0


def test_scan_rejects_ratios_inside_the_guard():
    with pytest.raises(CriticalPointError):
        kerr_scan([0.5, 0.995, 1.5], TOPO, KERR_CAV, n_k=512)


def test_scan_rows_follow_input_order():
    rows = kerr_scan([1.5, 0.5], TOPO, KERR_CAV, n_k=4096, n_max=3)
    assert [row.r for row in rows] == [1.5, 0.5]
    for row in rows:
        assert row.converged
        assert row.result is not None
        assert np.isfinite(abs(row.u_closed))
        # omega_c was re-pinned to the row's own band edge
        assert abs(row.result.omega0 - 2.0 * abs(1.0 - row.r)) < 0.05


def test_scan_records_diverged_rows_and_continues():
    rows = kerr_scan([0.5, 1.5], TOPO, KERR_CAV, n_k=1024, max_iter=1)
    assert [row.converged for row in rows] == [False, False]
    assert all(row.result is None for row in rows)
    assert all(np.isfinite(abs(row.u_closed)) for row in rows)


class CountingTable(BubbleTable):
    """A zone table that counts its integrals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def integral(self, omega, power=1):
        self.calls += 1
        return super().integral(omega, power)


def test_ladder_makes_at_most_four_integrals_per_rung():
    n_max = 5
    table = CountingTable(TOPO, KERR_CAV.eta, 16384)
    at_omega_c = table.integral(KERR_CAV.omega_c)
    table.calls = 0
    ladder = solve_omega_sequence(n_max, table, KERR_CAV, seed_integral=at_omega_c)
    assert 0 < table.calls <= 4 * (n_max + 1)
    fresh = BubbleTable(TOPO, KERR_CAV.eta, 16384)
    assert ladder.tobytes() == solve_omega_sequence(n_max, fresh, KERR_CAV).tobytes()


def test_scan_builds_one_table_per_ratio_and_releases_it(monkeypatch):
    built = []

    class TrackedTable(BubbleTable):
        def __init__(self, *args, **kwargs):
            # the previous ratio's table must be gone before this one exists
            assert all(ref() is None for ref in built)
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(kerr, "BubbleTable", TrackedTable)
    gc.disable()  # only reference counting may free the tables
    try:
        rows = kerr_scan([1.5, 0.5, 1.3], TOPO, KERR_CAV, n_k=4096, n_max=3)
    finally:
        gc.enable()
    monkeypatch.undo()
    assert len(built) == 3
    for row in rows:
        p_r = SshParams(1.0, row.r)
        c_r = KERR_CAV._replace(omega_c=2.0 * abs(1.0 - row.r))
        assert row.u_closed == photon_self_energy(c_r.omega_c, p_r, c_r, n_k=4096)
        ladder = solve_omega_sequence(3, BubbleTable(p_r, c_r.eta, 4096), c_r)
        assert row.result.omega_n.tobytes() == ladder.tobytes()


def test_a_three_ratio_scan_peaks_under_five_mib():
    """kerr_scan holds one 3 MiB table at a time (n_k = 65536): its traced
    peak, a table build's transients included, stays under 5.0 MiB. The
    scan on natural-order tables peaked at 3.64 MiB after the same warm-up
    and at 4.67 MiB in a fresh process. Shared cos/sin arrays, natural-order
    copies or a table kept past its ratio would show here."""
    kerr_scan([0.5], SshParams(1.0, 0.5), KERR_CAV, n_k=256)  # first-call allocations
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rows = kerr_scan([0.5, 0.7, 1.5], SshParams(1.0, 0.5), KERR_CAV, n_k=65536)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert all(row.converged for row in rows)
    assert peak <= 5.0 * 2**20
