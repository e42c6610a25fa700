"""Shared numerical kernels: the zone quadrature, root finding, fits, SVD.

All reductions go through a fixed left-to-right pairwise scheme so results are
bitwise reproducible regardless of how callers chunk their work.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDesignError, NoConvergenceError, NonFiniteEntryError
from .params import MIN_NK


def pairwise_sum(values: np.ndarray, axis: int | None = None, scratch=None):
    """Sum by repeated adjacent pairing (deterministic reduction order).

    With axis=None the array is flattened first. An odd tail element is
    carried into the next round unchanged, so the bracketing is a pure
    function of the input length.

    The rounds alternate between two buffers, so a sum allocates nothing per
    round. `scratch` is an optional pair of such buffers for a caller that
    sums many arrays of one shape: each has the input's dtype, at least
    (n + 1) // 2 entries along its first axis and then the input's other
    axes in order. Without it the pair is allocated here. The result never
    aliases the input or the scratch.
    """
    a = np.asarray(values)
    if axis is None:
        a = a.reshape(-1)
        axis = 0
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    if n == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype) if a.ndim > 1 else a.dtype.type(0)
    if n > 1:
        if scratch is None:
            scratch = np.empty((2, (n + 1) // 2, *a.shape[1:]), dtype=a.dtype)
        here, there = scratch
        while n > 1:
            m = n // 2
            np.add(a[0 : 2 * m : 2], a[1 : 2 * m : 2], here[:m])
            if n % 2:
                here[m] = a[n - 1]
            a, n = here[: n - m], n - m
            here, there = there, here
    return a[0].copy() if a.ndim > 1 else a[0]


def zone_trapezoid(n_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n_k-interval trapezoid rule on the zone [-pi, pi].

    The n_k + 1 nodes include both ends, each at half weight, so the rule is
    the periodic trapezoid rule written on a closed grid. The only place the
    zone quadrature is built.
    """
    if n_k < MIN_NK:
        raise ValueError(f"n_k must be >= {MIN_NK}, got {n_k}")
    nodes = np.linspace(-np.pi, np.pi, n_k + 1)
    h = 2.0 * np.pi / n_k
    weights = np.full(n_k + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    return nodes, weights


def complex_newton(
    f: Callable[[complex], complex],
    z0: complex,
    df: Callable[[complex], complex],
    tol: float = 1e-12,
    max_iter: int = 50,
) -> complex:
    """Newton iteration in the complex plane; returns z with |f(z)| < tol.

    f is called once per iterate and its value serves both the residual and
    the next step, so k steps cost k + 1 calls of f and k of its derivative
    df. Raises NoConvergenceError carrying the last iterate.
    """
    z = complex(z0)
    fz = f(z)
    residual = abs(fz)
    for iteration in range(max_iter):
        if residual < tol:
            return z
        deriv = df(z)
        if deriv == 0 or not np.isfinite(abs(deriv)):
            raise NoConvergenceError(
                f"derivative vanished at iteration {iteration}", z, residual, iteration
            )
        z = z - fz / deriv
        fz = f(z)
        residual = abs(fz)
    if residual < tol:
        return z
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        z,
        residual,
        max_iter,
    )


def polyfit_quadratic(xs: Sequence[float], ys: Sequence[complex]):
    """Least-squares fit of ys ~ c0 + c1*x + (1/2)*c2*x^2; returns (c0, c1, c2)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("xs and ys must be 1-d and of equal length")
    if np.unique(x).size < 3:
        raise DegenerateDesignError(
            f"quadratic fit needs >= 3 distinct abscissae, got {np.unique(x).size}"
        )
    design = np.column_stack([np.ones_like(x), x, 0.5 * x * x])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coeffs[0], coeffs[1], coeffs[2]


def svd_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of m, nonincreasing. Rejects non-finite entries."""
    m = np.asarray(m)
    if not np.all(np.isfinite(m.real)) or (np.iscomplexobj(m) and not np.all(np.isfinite(m.imag))):
        raise NonFiniteEntryError("matrix contains nan/inf entries")
    return np.linalg.svd(m, compute_uv=False)
