"""Quadrature, root finding, and linear-algebra helpers against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavityssh import (
    DegenerateDesignError,
    FrequencyGrid,
    NoConvergenceError,
    NonFiniteEntryError,
    complex_newton,
    pairwise_sum,
    zone_trapezoid,
)
from cavityssh.numerics import MIN_NK
from cavityssh.numerics import (
    _reduce_in_place, polyfit_quadratic, reduction_order, svd_singular_values,
)
from reference import PoleOnBoundaryError, bz_integrate, principal_value, simpson_integrate


def test_frequency_grid_endpoints_and_spacing():
    grid = FrequencyGrid(0.5, 2.5, 5)
    np.testing.assert_allclose(grid.values, [0.5, 1.0, 1.5, 2.0, 2.5])
    assert grid.spacing == 0.5


def test_frequency_grid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        FrequencyGrid(2.0, 1.0, 8)
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 1.0, 1)


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        values = rng.standard_normal(rng.integers(1, 400))
        exact = math.fsum(values)
        assert abs(pairwise_sum(values) - exact) <= 1e-13 * max(1.0, abs(exact))


def test_pairwise_sum_axis_matches_full_reduction():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((13, 7))
    by_rows = pairwise_sum(pairwise_sum(m, axis=1))
    assert abs(by_rows - math.fsum(m.ravel())) < 1e-12


FINITE = st.floats(-1e300, 1e300)  # 70 terms cannot overflow
ROW_ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=70),
               elements=FINITE),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=70),
               elements=st.complex_numbers(allow_nan=False, allow_infinity=False,
                                           max_magnitude=1e150)),
)


@settings(max_examples=200, deadline=None)
@given(ROW_ARRAYS)
def test_pairwise_sum_rows_equal_the_one_dimensional_call_bit_for_bit(m):
    rows = pairwise_sum(m, axis=-1)
    assert rows.shape == m.shape[:1]
    if m.shape[1]:
        assert rows.tobytes() == concatenating_pairwise_sum(m).tobytes()
    for i in range(m.shape[0]):
        assert np.asarray(rows[i]).tobytes() == np.asarray(pairwise_sum(m[i])).tobytes()


def concatenating_pairwise_sum(a):
    """The reduction as first written, one new array per round: the reference
    for the buffered rounds (sums along the last axis)."""
    while a.shape[-1] > 1:
        n = a.shape[-1]
        m = n // 2
        paired = a[..., 0 : 2 * m : 2] + a[..., 1 : 2 * m : 2]
        if n % 2:
            paired = np.concatenate([paired, a[..., -1:]], axis=-1)
        a = paired
    return a[..., 0]


@pytest.mark.parametrize("n", [1, 2, 3] + [2**k + 1 for k in range(1, 13)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pairwise_sum_scratch_pair_changes_no_bit(n, dtype):
    """The buffer a sum is halved in, a caller's own as `BubbleTable` keeps
    one or the gather inside pairwise_sum, changes no bit of the reduction as
    first written, and pairwise_sum never returns a view of its input."""
    rng = np.random.default_rng(n)
    m = rng.standard_normal((3, n)).astype(dtype)
    if dtype is np.complex128:
        m += 1j * rng.standard_normal((3, n))
    order = reduction_order(n)
    for values, axis in ((m[1], None), (m, -1), (np.ascontiguousarray(m.T), 0)):
        summands = values.reshape(-1) if axis is None else np.moveaxis(values, axis, 0)
        scratch = np.full(summands.shape, np.nan, dtype=dtype)
        np.take(summands, order, axis=0, out=scratch)
        plain = pairwise_sum(values, axis=axis)
        buffered = _reduce_in_place(scratch)
        reference = concatenating_pairwise_sum(m[1] if axis is None else m)
        assert np.asarray(plain).tobytes() == np.asarray(reference).tobytes()
        assert np.asarray(buffered).tobytes() == np.asarray(reference).tobytes()
        assert not np.shares_memory(plain, scratch)
        assert not np.shares_memory(plain, values)


SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
           1e300, -1e300)


def words(x) -> list:
    """The int64 words of a float or complex result, with every nan as one
    word: IEEE 754 leaves open which sign and payload a sum of two nans
    carries, and numpy's add loops pick them by stride and dispatch level,
    for the reduction as first written too."""
    parts = np.asarray(x).reshape(-1).view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.view(np.int64).tolist()


@st.composite
def summand_vectors(draw):
    """Float or complex vectors of 1 to 70,000 summands spread over `spread`
    decades, with special values (signed zeros, infinities, nan, subnormals,
    +-1e300) dropped into some of their parts."""
    n = draw(st.one_of(st.integers(1, 70_000), st.sampled_from([513, 4097, 65537])))
    spread = draw(st.sampled_from([0, 8, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-spread, spread + 1, (2, n))
    for i, re, im in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIAL),
                                             st.sampled_from(SPECIAL)), max_size=8)):
        parts[:, i] = re, im
    if draw(st.booleans()):
        return parts[0]
    values = np.empty(n, dtype=complex)
    values.real, values.imag = parts
    return values


@settings(max_examples=150, deadline=None)
@given(summand_vectors())
def test_in_place_sum_in_reduction_order_is_the_pairwise_sum_word_for_word(values):
    n = values.size
    order = reduction_order(n)
    assert order.dtype == np.intp
    assert np.array_equal(np.sort(order), np.arange(n))
    block = np.stack([values, values[::-1], -values], axis=1)  # sums down axis 0
    with np.errstate(all="ignore"):
        expected = words(concatenating_pairwise_sum(values))
        assert words(_reduce_in_place(values[order])) == expected
        assert words(pairwise_sum(values)) == expected
        expected = words(concatenating_pairwise_sum(block.T))
        assert words(_reduce_in_place(block[order])) == expected
        assert words(pairwise_sum(block, axis=0)) == expected


def test_reduction_order_on_every_length_to_300():
    """A permutation that keeps both ends in place, and an in-place sum in
    it that is the reduction as first written, word for word."""
    rng = np.random.default_rng(23)
    for n in [*range(301), 513, 4097, 65537]:
        order = reduction_order(n)
        assert np.array_equal(np.sort(order), np.arange(n))
        if n:
            assert order[0] == 0 and order[-1] == n - 1
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            expected = words(concatenating_pairwise_sum(values))
            assert words(_reduce_in_place(values[order])) == expected


@pytest.mark.parametrize("n_k", [MIN_NK, 255, 4096, 65536])
def test_the_trapezoid_weights_need_no_gather_into_reduction_order(n_k):
    """The order fixes both half-weight ends and the interior weights are
    equal, so `BubbleTable` gathers only the nodes."""
    weights = zone_trapezoid(n_k)[1]
    assert weights.tobytes() == weights[reduction_order(n_k + 1)].tobytes()


def test_zone_trapezoid_is_the_closed_periodic_rule():
    nodes, weights = zone_trapezoid(256)
    assert nodes.shape == weights.shape == (257,)
    assert nodes[0] == -np.pi and nodes[-1] == np.pi
    assert weights[0] == weights[-1] == 0.5 * weights[1]
    assert abs(pairwise_sum(weights) - 2.0 * np.pi) < 1e-14
    with pytest.raises(ValueError):
        zone_trapezoid(MIN_NK - 1)


def test_bz_integrate_constant_is_exact():
    assert abs(bz_integrate(lambda k: np.ones_like(k), n_k=256) - 1.0) < 1e-14


def test_bz_integrate_kills_oscillatory_modes():
    # trapezoid on a periodic integrand is spectrally accurate
    for m in (1, 2, 5):
        val = bz_integrate(lambda k, m=m: np.cos(m * k), n_k=512)
        assert abs(val) < 1e-12


def test_bz_integrate_even_integrand_equals_doubled_half_zone():
    f = lambda k: np.cos(k) ** 2 + 0.3
    whole = bz_integrate(f, n_k=2048)
    half = simpson_integrate(f, 0.0, np.pi, 2048) / (2.0 * np.pi)
    assert abs(whole - 2.0 * half) < 1e-12


def test_bz_integrate_grid_refinement_stability():
    """A smooth periodic weight integrates to the same value on a 10x finer grid."""
    f = lambda k: np.sin(k) ** 2 / (1.25 + np.cos(k))
    coarse = bz_integrate(f, n_k=4096)
    fine = bz_integrate(f, n_k=40960)
    assert abs(coarse - fine) < 1e-9 * abs(fine)


def test_simpson_matches_antiderivative():
    val = simpson_integrate(np.sin, 0.0, np.pi, 200)
    assert abs(val - 2.0) < 1e-8
    # Simpson is exact on cubics
    cubic = simpson_integrate(lambda x: x**3 - 2 * x, -1.0, 2.0, 64)
    assert abs(cubic - (2.0**4 / 4 - 4.0 - (0.25 - 1.0))) < 1e-13


def test_principal_value_odd_pole_cancels():
    val = principal_value(lambda x: np.ones_like(x), -1.0, 1.0, pole=0.0, n_k=2048)
    assert abs(val) < 1e-10


def test_principal_value_asymmetric_window():
    # PV int_{-1}^{2} dx/x = ln 2
    val = principal_value(lambda x: np.ones_like(x), -1.0, 2.0, pole=0.0, n_k=4096)
    assert abs(val - math.log(2.0)) < 1e-6


def test_principal_value_pole_outside_is_plain_quadrature():
    f = lambda x: np.exp(-x)
    got = principal_value(f, 0.0, 1.0, pole=3.0, n_k=512)
    ref = simpson_integrate(lambda x: f(x) / (x - 3.0), 0.0, 1.0, 512)
    assert got == ref


@pytest.mark.parametrize("a, b, pole", [(-1.0, 2.0, 0.3), (-1.0, 2.0, -0.8), (0.0, 1.0, 0.9)])
def test_principal_value_matches_quadpack_cauchy_weight(a, b, pole):
    # QUADPACK's QAWC is an independent principal-value rule (Clenshaw-Curtis
    # moments of the Cauchy weight); the pole sits inside and off-centre
    quad = pytest.importorskip("scipy.integrate").quad
    f = lambda x: np.exp(x) * np.cos(3.0 * x)
    ref, err = quad(f, a, b, weight="cauchy", wvar=pole, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-9
    assert principal_value(f, a, b, pole) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_principal_value_rejects_pole_on_boundary():
    with pytest.raises(PoleOnBoundaryError):
        principal_value(lambda x: np.ones_like(x), 0.0, 1.0, pole=1.0)


def test_complex_newton_square_root():
    root = complex_newton(lambda z: z * z - 1.0, 0.5 + 0.1j, df=lambda z: 2.0 * z)
    assert abs(root - 1.0) < 1e-10


def test_complex_newton_linear_single_step():
    calls = []

    def f(z):
        calls.append(z)
        return z - (0.3 - 0.2j)

    root = complex_newton(f, 5.0 + 0.0j, df=lambda z: 1.0 + 0.0j)
    assert abs(root - (0.3 - 0.2j)) < 1e-12
    # one residual at the seed, reused by the step, one residual at the root
    assert calls == [5.0 + 0.0j, root]


@pytest.mark.parametrize("seed", [1.0 + 0.5j, 3.0 - 1.0j, 0.2 + 2.0j])
def test_complex_newton_evaluates_f_once_per_iterate(seed):
    f_at, df_at = [], []

    def f(z):
        f_at.append(z)
        return z**3 - (1.0 + 1.0j)

    def df(z):
        df_at.append(z)
        return 3.0 * z * z

    root = complex_newton(f, seed, df=df)
    iterations = len(df_at)
    assert iterations >= 3
    assert len(f_at) == iterations + 1
    assert len(set(f_at)) == len(f_at)  # no point is evaluated twice
    assert f_at[:-1] == df_at and f_at[-1] == root
    assert abs(root**3 - (1.0 + 1.0j)) < 1e-12


def test_complex_newton_exact_seed_returns_immediately():
    assert complex_newton(lambda z: z - 2.0, 2.0 + 0.0j, df=lambda z: 1.0 + 0.0j) == 2.0 + 0.0j


def test_complex_newton_reports_failure():
    # z^2 + 1 from a real seed never leaves the real axis
    with pytest.raises(NoConvergenceError) as info:
        complex_newton(lambda z: z * z + 1.0, 0.5 + 0.0j, df=lambda z: 2.0 * z, max_iter=12)
    err = info.value
    assert err.iterations == 12
    assert err.residual > 1e-12
    assert np.isfinite(abs(err.last))


def test_polyfit_quadratic_recovers_exact_coefficients():
    ns = np.arange(6.0)
    ys = 2.0 + 3.0 * ns + 0.5 * ns * ns
    c0, c1, c2 = polyfit_quadratic(ns, ys)
    # the design column for the quadratic term is x^2/2, so c2 is the bare curvature
    np.testing.assert_allclose([c0, c1, c2], [2.0, 3.0, 1.0], atol=1e-10)


def test_polyfit_quadratic_constant_and_linear_degenerate_cleanly():
    ns = np.arange(5.0)
    c0, c1, c2 = polyfit_quadratic(ns, np.full(5, 4.2))
    np.testing.assert_allclose([c0, c1, c2], [4.2, 0.0, 0.0], atol=1e-10)
    _, _, curv = polyfit_quadratic(ns, 1.0 - 0.7 * ns)
    assert abs(curv) < 1e-10


def test_polyfit_quadratic_random_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        target = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xs = np.sort(rng.standard_normal(9)) * 4.0
        ys = target[0] + target[1] * xs + 0.5 * target[2] * xs * xs
        got = polyfit_quadratic(xs, ys)
        np.testing.assert_allclose(got, target, atol=1e-8)


def test_polyfit_quadratic_needs_three_abscissae():
    with pytest.raises(DegenerateDesignError):
        polyfit_quadratic([0.0, 1.0, 1.0, 0.0], [1.0, 2.0, 2.0, 1.0])


def test_svd_identity_and_rank_one():
    np.testing.assert_allclose(svd_singular_values(np.eye(3)), [1.0, 1.0, 1.0])
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 0.0, 2.0])
    s = svd_singular_values(np.outer(u, v))
    np.testing.assert_allclose(s[0], np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12)
    assert s[1] < 1e-12


def test_svd_matches_gram_eigenvalues():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = svd_singular_values(m)
    gram = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
    np.testing.assert_allclose(s**2, gram, atol=1e-9)


def test_svd_invariant_under_permutations():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((6, 9))
    rows = rng.permutation(6)
    cols = rng.permutation(9)
    np.testing.assert_allclose(
        svd_singular_values(m), svd_singular_values(m[rows][:, cols]), atol=1e-10
    )


def test_svd_rejects_non_finite():
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(NonFiniteEntryError):
        svd_singular_values(bad)
