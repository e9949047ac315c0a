import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_complex
from rclkit.errors import DimensionMismatch, InvalidInput, NotInvertible
from rclkit.redheffer import SchurParameter
from rclkit.series import MatrixSeries, inv, mul


def scalar_series(*values):
    return MatrixSeries(tuple(np.array([[v]], dtype=complex) for v in values))


def max_coeff_gap(a, b, order):
    return max(np.abs(a.coeffs[n] - b.coeffs[n]).max(initial=0.0) for n in range(order + 1))


def random_series(rng, out_dim, in_dim, order):
    return MatrixSeries(tuple(random_complex(rng, out_dim, in_dim) for _ in range(order + 1)))


def test_geometric_inverse():
    geometric = inv(scalar_series(1.0, -1.0), 6)
    for n in range(7):
        assert geometric.coeffs[n][0, 0] == pytest.approx(1.0)


def test_mul_inv_is_identity():
    rng = np.random.default_rng(0)
    coeffs = [np.eye(3, dtype=complex)] + [random_complex(rng, 3, 3) for _ in range(4)]
    a = MatrixSeries(tuple(coeffs))
    product = mul(a, inv(a, 8), 8)
    identity = MatrixSeries(np.concatenate([np.eye(3)[None], np.zeros((8, 3, 3))]))
    assert max_coeff_gap(product, identity, 8) < 1e-12


def test_inv_requires_invertible_constant_term():
    with pytest.raises(NotInvertible):
        inv(scalar_series(0.0, 1.0), 3)


def test_inv_reports_a_singular_term_with_a_nonzero_singular_value():
    # the SVD leaves roundoff for the zero singular value of [[1, 2], [2,
    # 4]], so only the factorization finds it singular, and the error gives
    # a finite condition number
    a = MatrixSeries(np.array([[[1.0, 2.0], [2.0, 4.0]]]))
    assert np.linalg.svd(a.coeffs[0], compute_uv=False)[-1] > 0
    with pytest.raises(NotInvertible, match=r"^constant term is singular \(condition number \d\.\d{3}e\+1[5-7]\)$"):
        inv(a, 3)


def test_mul_truncates_at_requested_order():
    a = scalar_series(1.0, 1.0, 1.0)
    assert mul(a, a, 1).order == 1


def test_eval_matches_horner_polynomial():
    a = scalar_series(1.0, 2.0, 3.0)
    lam = 0.5
    assert a.eval(lam)[0, 0] == pytest.approx(1.0 + 2.0 * lam + 3.0 * lam**2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.integers(0, 4))
def test_mul_is_associative_and_distributive(seed, order):
    rng = np.random.default_rng(seed)
    a = random_series(rng, 2, 3, order)
    b = random_series(rng, 3, 2, order)
    c = random_series(rng, 2, 2, order)
    n = 2 * order + 1
    assoc_left = mul(mul(a, b, n), c, n)
    assoc_right = mul(a, mul(b, c, n), n)
    assert max_coeff_gap(assoc_left, assoc_right, n) < 1e-12
    ab = mul(a, b, n).coeffs
    dist_left = mul(a, MatrixSeries(b.coeffs + b.coeffs), n)
    dist_right = MatrixSeries(ab + ab)
    assert max_coeff_gap(dist_left, dist_right, n) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.integers(0, 4))
@example(seed=3206, order=1)
def test_inv_is_an_involution(seed, order):
    # the coefficients of inv(a) grow geometrically, and so does the roundoff
    # of inverting them back: bound the gap relative to their size
    rng = np.random.default_rng(seed)
    coeffs = [np.eye(2, dtype=complex) + 0.3 * random_complex(rng, 2, 2)]
    coeffs += [random_complex(rng, 2, 2) for _ in range(order)]
    a = MatrixSeries(tuple(coeffs))
    n = 6
    b = inv(a, n)
    size = max(np.abs(c).max() for c in b.coeffs)
    padded = np.zeros((n + 1, 2, 2), dtype=complex)    # a, zero beyond its order
    padded[:order + 1] = a.coeffs
    assert np.abs(inv(b, n).coeffs - padded).max() <= 1e-12 * size


def reference_toeplitz(a, blocks):
    return np.block([[a.coeffs[i - k] if k <= i <= k + a.order else np.zeros((a.out_dim, a.in_dim))
                      for k in range(blocks)] for i in range(blocks)])


@pytest.mark.parametrize("out_dim,in_dim", [(2, 3), (0, 3), (2, 0), (0, 0)])
@pytest.mark.parametrize("blocks", [1, 3, 6])
def test_toeplitz_is_lower_block_toeplitz_with_zero_padding(out_dim, in_dim, blocks):
    # order 2: blocks 6 pads coefficients 3..5 with zeros
    a = random_series(np.random.default_rng(blocks), out_dim, in_dim, 2)
    t = a.toeplitz(blocks)
    assert t.shape == (blocks * out_dim, blocks * in_dim)
    np.testing.assert_array_equal(t, reference_toeplitz(a, blocks))


@pytest.mark.parametrize("construct", [MatrixSeries, SchurParameter])
def test_later_writes_to_the_callers_array_do_not_reach_the_series(construct):
    # the Schur-class check of a parameter holds for the stored coefficients only
    v = np.full((2, 1, 1), 0.25, dtype=complex)
    p = construct(v)
    v[0] = 5.0
    np.testing.assert_array_equal(p.coeffs, np.full((2, 1, 1), 0.25))
    assert not p.coeffs.flags.writeable
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_a_stacked_list_is_stored_without_a_second_copy():
    coeffs = list(random_complex(np.random.default_rng(3), 129 * 8, 64).reshape(129, 8, 64))
    tracemalloc.start()
    try:
        s = MatrixSeries(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not s.coeffs.flags.writeable
    assert peak < 1.5 * s.coeffs.nbytes         # the stacked array only, not a copy of it too


def test_coefficients_are_one_array():
    a = random_series(np.random.default_rng(2), 2, 3, 4)
    assert isinstance(a.coeffs, np.ndarray)
    assert a.coeffs.dtype == np.complex128 and a.coeffs.shape == (5, 2, 3)


@pytest.mark.parametrize("coeffs,error", [
    ((np.zeros((2, 3)), np.zeros((2, 2))), DimensionMismatch),    # ragged
    ((np.zeros((2, 3)), [[0, 0, 0], [0, 0]]), DimensionMismatch),  # a ragged coefficient
    (np.zeros((2, 3)), DimensionMismatch),                        # a matrix, not a stack
    ((), InvalidInput),
    (np.zeros((0, 2, 3)), InvalidInput),
    ((np.full((2, 3), np.nan),), InvalidInput),
    ((np.zeros((2, 3)), np.full((2, 3), np.inf)), InvalidInput),
    (object(), InvalidInput),                                     # not a number
    ([[[{}]]], InvalidInput),                                     # an entry that is not a number
    ([[["1+x"]]], InvalidInput),                                  # a well-formed stack of a non-number
    ("abc", InvalidInput),                                        # a string is not a stack
])
def test_construction_rejects(coeffs, error):
    # a Schur parameter is a series: it runs the series' checks first
    for construct in (MatrixSeries, SchurParameter):
        with pytest.raises(error):
            construct(coeffs)


@pytest.mark.parametrize("construct", [MatrixSeries, SchurParameter])
@pytest.mark.parametrize("coeffs,shapes", [
    ((np.zeros((2, 1)), np.zeros((1, 1))), "(2, 1), (1, 1)"),
    ((np.zeros((1, 2)), [[0.0, 0.0], [0.0]]), "(1, 2), ragged"),
])
def test_ragged_coefficients_name_their_shapes(construct, coeffs, shapes):
    with pytest.raises(DimensionMismatch, match=re.escape(f"series coefficients do not form one complex array: shapes {shapes}")):
        construct(coeffs)


@pytest.mark.parametrize("blocks", [0, -2])
def test_toeplitz_needs_a_block(blocks):
    with pytest.raises(InvalidInput, match=f"need at least one block, got {blocks}$"):
        scalar_series(1.0).toeplitz(blocks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.integers(0, 3), out_dim=st.integers(0, 3), in_dim=st.integers(0, 3))
@example(seed=0, order=0, out_dim=0, in_dim=0)
def test_dimensions_are_read_off_the_array(seed, order, out_dim, in_dim):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((order + 1, out_dim, in_dim)) + 1j * rng.standard_normal((order + 1, out_dim, in_dim))
    for s in (MatrixSeries(arr), MatrixSeries(list(arr))):
        assert s.coeffs.shape == arr.shape
        np.testing.assert_array_equal(s.coeffs, arr)
        assert (s.order, s.out_dim, s.in_dim) == (order, out_dim, in_dim)
