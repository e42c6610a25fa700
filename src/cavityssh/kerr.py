"""Photon-number dependent cavity shift and the effective Kerr coefficient.

The n-photon resonance solves omega_n = omega_c + g^2 (n+1) I(omega_n) with
I the g=1 bubble; U and U' come from a quadratic fit of omega_n vs n, and the
weak-coupling closed form is the n-derivative of the self-energy at the bare
resonance, U = g^2 I(omega_c).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cavity import BubbleTable
from .errors import CriticalPointError, NoConvergenceError
from .numerics import complex_newton, polyfit_quadratic
from .params import CavityParams, SshParams

CRITICAL_GUARD = 0.02


class KerrResult(NamedTuple):
    """Quadratic fit omega_n ~ omega0 + U n + (1/2) U' n^2 of the resonance ladder."""

    omega0: float
    u: complex
    uprime: complex
    omega_n: np.ndarray
    fit_residual: float


class KerrScanRow(NamedTuple):
    """One hopping ratio of the scan. When its Newton solve diverged, result is
    None and divergence holds the (iterations, last residual) of the
    NoConvergenceError; otherwise divergence is None."""

    r: float
    result: KerrResult | None
    u_closed: complex
    divergence: tuple[int, float] | None

    @property
    def converged(self) -> bool:
        return self.result is not None


def solve_omega_sequence(
    n_max: int,
    table: BubbleTable,
    c: CavityParams,
    seed_integral: complex,
) -> np.ndarray:
    """omega_n for n = 0..n_max via complex Newton with continuation seeding.

    n = 0 is seeded at omega_c; each higher rung starts from the previous
    solution. The Newton derivative uses the analytic squared-denominator
    bubble. `table` is the zone of the chain at c.eta; `seed_integral` is its
    I(omega_c).

    Each bubble integral I(z) is evaluated once: rung n's last Newton iterate
    is rung n + 1's seed, so the I(z) of rung n's final residual is reused
    for the seed residual of rung n + 1, and rung 0 reuses `seed_integral`.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    prefactor = c.g**2
    out = np.empty(n_max + 1, dtype=complex)
    seed = complex(c.omega_c)
    last = [seed, seed_integral]  # the point f saw last and I there

    def integral(z: complex) -> complex:
        if z != last[0]:
            last[:] = z, table.integral(z)
        return last[1]

    for n in range(n_max + 1):
        scale = prefactor * (n + 1)

        def f(z: complex) -> complex:
            return z - c.omega_c - scale * integral(z)

        def df(z: complex) -> complex:
            return 1.0 + scale * table.integral(z, power=2)

        seed = complex_newton(f, seed, df)
        out[n] = seed
    return out


def kerr_from_fit(omega_n: np.ndarray) -> KerrResult:
    """Fit the resonance ladder to omega0 + U n + (1/2) U' n^2 (complex lsq)."""
    omega_n = np.asarray(omega_n, dtype=complex)
    ns = np.arange(omega_n.size, dtype=float)
    c0, c1, c2 = polyfit_quadratic(ns, omega_n)
    model = c0 + c1 * ns + 0.5 * c2 * ns * ns
    residual = float(np.sqrt(np.mean(np.abs(omega_n - model) ** 2)))
    return KerrResult(
        omega0=float(c0.real),
        u=complex(c1),
        uprime=complex(c2),
        omega_n=omega_n,
        fit_residual=residual,
    )


def kerr_scan(r_values, p: SshParams, c: CavityParams, n_k: int, n_max: int) -> list[KerrScanRow]:
    """Kerr fit vs closed form across hopping ratios, omega_c re-pinned per row.

    Each row rebuilds the chain at t2 = r t1 and re-centers the cavity on the
    moving band edge omega_c = 2|t1 - t2| (resonant protocol). Ratios inside
    the critical guard |r - 1| < 0.02 are rejected up front; a row whose
    Newton solve diverges is recorded unconverged and the scan continues.

    Every ladder is solved, and its zone table freed, before the first fit:
    the fit's least-squares call maps LAPACK's pages, and a table built after
    it would sit on top of them. The fits see the same ladders either way.
    """
    r_values = [float(r) for r in r_values]
    for r in r_values:
        if abs(r - 1.0) < CRITICAL_GUARD:
            raise CriticalPointError(
                f"r = {r} inside the critical guard |r-1| < {CRITICAL_GUARD}"
            )
    solved = [_solve_ratio(r, p, c, n_k, n_max) for r in r_values]
    return [KerrScanRow(r, None if ladder is None else kerr_from_fit(ladder), u_closed,
                        divergence)
            for r, (ladder, u_closed, divergence) in zip(r_values, solved)]


def _solve_ratio(r: float, p: SshParams, c: CavityParams, n_k: int, n_max: int):
    """(ladder or None, u_closed, divergence) of one ratio of kerr_scan. Its
    zone table serves the closed form and the ladder and is released on
    return, before the next ratio builds its own."""
    p_r = SshParams(p.t1, r * p.t1)
    c_r = c._replace(omega_c=p_r.edge_gap)
    table = BubbleTable(p_r, c_r.eta, n_k)
    at_omega_c = table.integral(c_r.omega_c)
    u_closed = c_r.g**2 * at_omega_c  # Sigma^R(omega_c) from this table
    try:
        ladder = solve_omega_sequence(n_max, table, c_r, at_omega_c)
    except NoConvergenceError as exc:
        return None, u_closed, (exc.iterations, exc.residual)
    return ladder, u_closed, None
