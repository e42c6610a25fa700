"""Shared numerical kernels: the zone quadrature, the pairwise reduction, root
finding, fits, SVD, and the one layer that knows how pinned cells are rounded.

Every reduction has one bracketing, repeated adjacent pairing, so results are
bitwise reproducible regardless of how callers chunk their work. Zone sums
keep their summands in `reduction_order`, where each round of that pairing is
one contiguous in-place add (`_reduce_in_place`); `pairwise_sum` gathers its
input into that order and runs the same rounds, so there is one reduction.
The `_py_*` replicas round a complex product, quotient or float square on
float arrays as the Python scalar expression does; every array map pinned to
a per-point scalar chain (`cavity`, `keldysh`, `dressing`, `vertex`) is built
on them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDesignError, NoConvergenceError, NonFiniteEntryError
from .params import MIN_NK


def reduction_order(n: int) -> np.ndarray:
    """The permutation of range(n) that lays n summands out as `pairwise_sum`
    consumes them.

    A round of pairwise_sum adds a[2j] + a[2j + 1] for j < m = n // 2 and
    carries an odd tail a[n - 1]. In x = a[reduction_order(n)], x[j] holds
    a[2i] and x[m + j] holds a[2i + 1], and an odd tail sits at x[2m], so the
    round is the contiguous add x[:m] += x[m:2m] with the tail moved to x[m];
    x[:n - m] is then the next round's sums in its own reduction order. The
    first and the last index stay in place. Built from the last round up, in
    one array.
    """
    lengths = []
    while n > 1:
        lengths.append(n)
        n -= n // 2
    order = np.zeros(lengths[0] if lengths else n, dtype=np.intp)
    for n in reversed(lengths):
        m = n // 2
        head = order[:m]
        head *= 2
        np.add(head, 1, out=order[m : 2 * m])
        if n % 2:
            order[2 * m] = n - 1
    return order


def _reduce_in_place(x: np.ndarray):
    """Sum x along axis 0 in place, x laid out in `reduction_order`; returns x[0].

    Each round is one contiguous add x[:m] += x[m:2m], and an odd tail moves
    to x[m]. IEEE addition commutes, and the even-indexed summand is the
    left operand as in pairwise_sum, so every partial sum is pairwise_sum's,
    bit for bit. x must be non-empty; its contents are consumed, and for a
    block the result is a view of x's first row.
    """
    n = x.shape[0]
    while n > 1:
        m = n // 2
        x[:m] += x[m : 2 * m]
        if n % 2:
            x[m] = x[2 * m]
        n -= m
    return x[0]


def pairwise_sum(values: np.ndarray, axis: int | None = None):
    """Sum by repeated adjacent pairing (deterministic reduction order).

    With axis=None the array is flattened first. An odd tail element is
    carried into the next round unchanged, so the bracketing is a pure
    function of the input length. The summands are gathered once into
    `reduction_order` and summed there in place; the result never aliases
    the input.
    """
    a = np.asarray(values)
    if axis is None:
        a = a.reshape(-1)
        axis = 0
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    if n == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype) if a.ndim > 1 else a.dtype.type(0)
    total = _reduce_in_place(a[reduction_order(n)])
    return total.copy() if a.ndim > 1 else total


# CPython rounds a complex * or / of Python numbers as plain double operations
# (Objects/complexobject.c), so float ufuncs on the real and imaginary parts
# reproduce it bit for bit. numpy's complex *arrays* do not: their multiply
# may contract to fma. The replicas below therefore work on float parts only.


def _py_product(a_re, a_im, b_re, b_im):
    """Parts of a * b as CPython's `_Py_c_prod` rounds them; numpy's complex
    scalar product uses the same formula. A float operand x is (x, 0.0)."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _py_square(x):
    """x ** 2 as Python's float ** rounds it: libm pow, which np.float_power
    calls. np.square and np.power(x, 2) multiply x * x, which differs in the
    last bit for about one float in 1,300. Where the square of a finite x
    overflows, Python raises OverflowError and this gives inf."""
    return np.float_power(x, 2.0)


def _py_quotient(a_re, a_im, b_re, b_im):
    """Parts of a / b as CPython's `_Py_c_quot` rounds them, on float arrays.

    Smith's division with two divides: scale by the part of b of larger
    magnitude. A nan in b gives nan parts, and a zero b raises
    ZeroDivisionError, as Python's `/` does.
    """
    b_re, b_im = np.asarray(b_re, dtype=float), np.asarray(b_im, dtype=float)
    by_re = np.abs(b_re) >= np.abs(b_im)
    large = np.where(by_re, b_re, b_im)
    if np.any(large == 0.0):
        raise ZeroDivisionError("complex division by zero")
    small = np.where(by_re, b_im, b_re)
    ratio = small / large
    denom = large + small * ratio  # b_re * ratio + b_im in the second branch
    re = np.where(by_re, a_re + a_im * ratio, a_re * ratio + a_im) / denom
    im = np.where(by_re, a_im - a_re * ratio, a_im * ratio - a_re) / denom
    unordered = np.isnan(b_re) | np.isnan(b_im)
    if np.any(unordered):
        re, im = np.where(unordered, np.nan, re), np.where(unordered, np.nan, im)
    return re, im


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
