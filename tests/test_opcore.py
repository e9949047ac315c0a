import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import haar_isometry, knife_edge_matrix, random_complex, random_contraction, random_subspace
from rclkit.errors import DimensionMismatch, InvalidInput, NotAContraction
from rclkit.opcore import (
    SubspaceBasis,
    Tolerances,
    as_cmatrix,
    coisometry_deficiency,
    coisometry_within,
    _contraction_margin,
    defect,
    exceeds_one,
    is_coisometry,
    orthocomplement,
    range_closure_basis,
    read_only,
    require_contraction,
    spectral_norm,
    spectral_norms,
)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0

    def test_rank_one_column(self):
        # Gram of [[3,0],[4,0]] is diag(25, 0), so the norm is exactly 5
        assert spectral_norm([[3, 0], [4, 0]]) == pytest.approx(5.0)

    def test_empty_dimensions(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            assert spectral_norm(np.zeros(shape)) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            spectral_norm([[np.nan]])


class TestSpectralNorms:
    def test_matches_per_block_norms(self):
        stack = np.stack([random_complex(np.random.default_rng(k), 3, 4) for k in range(5)])
        np.testing.assert_allclose(spectral_norms(stack), [spectral_norm(m) for m in stack], rtol=1e-15)

    @pytest.mark.parametrize("shape", [(4, 0, 3), (4, 3, 0), (0, 2, 2), (3, 0, 0), (0, 0, 0)])
    def test_zero_size_stacks(self, shape):
        norms = spectral_norms(np.zeros(shape))
        assert norms.shape == (shape[0],) and not norms.any()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), count=st.sampled_from([0, 1, 5]),
           rows=st.integers(0, 6), cols=st.integers(0, 6),
           exponent=st.sampled_from([-1074, -600, 0, 600, 1000]))
    def test_match_the_svd_at_every_scale(self, seed, count, rows, cols, exponent):
        # tall, wide and zero-size blocks whose entries are scaled by 2^exponent,
        # from subnormal to near overflow: the scaled Gram neither overflows nor underflows
        rng = np.random.default_rng(seed)
        parts = np.ldexp(rng.standard_normal((count, rows, cols, 2)), exponent)
        stack = parts.view(np.complex128)[..., 0]
        expected = np.linalg.svd(stack, compute_uv=False).max(axis=-1, initial=0.0)
        norms = spectral_norms(stack)
        assert norms.shape == (count,)
        np.testing.assert_allclose(norms, expected, rtol=1e-13, atol=0.0)


class TestDefect:
    def test_zero_operator(self):
        d, space = defect(np.zeros((2, 2)))
        np.testing.assert_allclose(d, np.eye(2), atol=1e-14)
        assert space.dim == 2

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (2, 3)])
    def test_zero_size_and_zero_maps(self, shape):
        # D = I on the domain, which is all defect space; C^0 has D = 0x0
        cols = shape[1]
        d, space = defect(np.zeros(shape))
        assert d.shape == (cols, cols) and d.dtype == np.complex128
        np.testing.assert_array_equal(d, np.eye(cols))
        assert (space.ambient_dim, space.dim) == (cols, cols)

    def test_unitary_has_no_defect(self):
        rng = np.random.default_rng(5)
        u = haar_isometry(rng, 3, 3)
        d, space = defect(u)
        assert spectral_norm(d) < 1e-7
        assert space.dim == 0

    def test_scalar_half(self):
        d, space = defect(np.array([[0.5]]))
        assert d[0, 0] == pytest.approx(np.sqrt(3) / 2)
        assert space.dim == 1

    def test_not_a_contraction(self):
        with pytest.raises(NotAContraction):
            defect(np.array([[1.5]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_square_identity_and_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        n = random_contraction(rng, 4, 3, norm=float(rng.uniform(0.1, 1.0)))
        d, _ = defect(n)
        assert spectral_norm(d @ d - (np.eye(3) - n.conj().T @ n)) <= 1e-10
        assert spectral_norm(d - d.conj().T) <= 1e-12

    def test_entries_within_one_norm_beyond(self):
        # no entry exceeds 1, so the check is read off the eigensolve: norm^2 = 1 - mu_min
        with pytest.raises(NotAContraction) as info:
            defect(np.full((2, 2), 0.6))
        assert float(str(info.value).split()[2]) == pytest.approx(1.2, rel=1e-14)

    def test_huge_entry_is_rejected_before_the_gram(self):
        # an entry above 1 + slack decides at once; N*N (1e600) is never formed
        with pytest.raises(NotAContraction) as info:
            defect(np.array([[1e300, 0.0], [0.0, 0.5]]))
        assert float(str(info.value).split()[2]) == pytest.approx(1e300, rel=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 5), cols=st.integers(1, 5),
           slack=st.sampled_from([0.0, 1e-10, 1e-6]),
           offset=st.sampled_from([-0.5, -1e-9, -1e-12, 1e-12, 1e-9, 0.5, 1e300]))
    def test_rejects_exactly_the_expansive(self, seed, rows, cols, slack, offset):
        # NotAContraction iff the SVD norm exceeds 1 + slack, outside a roundoff band
        rng = np.random.default_rng(seed)
        m = random_complex(rng, rows, cols)
        n = m * ((1.0 + slack + offset) / np.linalg.svd(m, compute_uv=False).max())
        nrm = float(np.linalg.svd(n, compute_uv=False).max())
        assume(abs(nrm - (1.0 + slack)) > 1e-13)
        tol = Tolerances(contraction_slack=slack)
        if nrm > 1.0 + slack:
            with pytest.raises(NotAContraction):
                defect(n, tol)
        else:
            d, _ = defect(n, tol)
            assert d.shape == (cols, cols)

    def test_norm_one_contraction(self):
        # knife-edge norm: defect exists but has a kernel
        a = np.diag([1.0, 0.5])
        d, space = defect(a)
        assert space.dim == 1
        assert spectral_norm(d @ d - (np.eye(2) - a.T @ a)) <= 1e-12


def measured_verdict(M, tol):
    """The message ``require_contraction`` must raise for ``M``, from its
    measured norm, or ``None`` when the norm passes ``exceeds_one``."""
    nrm = spectral_norm(M)
    return f"operator norm {nrm:.17g} exceeds 1 + slack" if exceeds_one(nrm, tol) else None


def certified_verdict(M, tol):
    try:
        require_contraction(M, tol)
    except NotAContraction as exc:
        return str(exc)
    return None


def with_top_singular_value(rng, rows, cols, top):
    """``U diag(s) V*`` with Haar ``U`` and ``V``, ``s[0] = top`` and the
    other singular values uniform in ``[0, top)``."""
    k = min(rows, cols)
    s = top * rng.uniform(0.0, 1.0, k)
    s[:1] = top
    return haar_isometry(rng, rows, k) @ np.diag(s) @ haar_isometry(rng, cols, k).conj().T


class TestRequireContraction:
    SHAPES = [(7, 3), (3, 7), (5, 5), (1, 1), (0, 0), (0, 3), (3, 0)]

    @pytest.mark.parametrize("exponent", [-600, 0, 600])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("slack", [0.0, 1e-10, 1e-6])
    def test_raises_exactly_when_the_measured_norm_fails(self, slack, shape, exponent):
        # a certified bound may pass a matrix only where its measured norm
        # passes too: at the edge of the margin, and at the knife edge itself
        rng = np.random.default_rng([*shape, exponent + 600, round(slack * 1e10)])
        tol = Tolerances(contraction_slack=slack)
        margin = _contraction_margin(shape)
        draws = [knife_edge_matrix(rng, *shape, slack) for _ in range(20 if min(shape) else 0)]
        for k in (0.5, 1.0, 2.0):
            for sign in (-1.0, 1.0):
                draws.append(with_top_singular_value(rng, *shape, (1.0 + slack) * (1.0 + sign * k * margin)))
        for m in draws:
            m = m * 2.0 ** exponent
            assert certified_verdict(m, tol) == measured_verdict(m, tol)

    def test_a_passing_check_measures_no_norm(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(args))
        rng = np.random.default_rng(5)
        for shape in self.SHAPES:
            require_contraction(with_top_singular_value(rng, *shape, 0.9), Tolerances())
        assert calls == []


class TestRangeClosure:
    def test_zero_matrix(self):
        for shape in [(3, 2), (0, 0), (0, 3), (3, 0)]:
            basis = range_closure_basis(np.zeros(shape))
            assert basis.ambient_dim == shape[0] and basis.basis.shape == (shape[0], 0)

    def test_diagonal(self):
        basis = range_closure_basis(np.diag([1.0, 0.0]))
        assert basis.dim == 1
        assert abs(abs(basis.basis[0, 0]) - 1.0) < 1e-14

    def test_rank_two_product(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 4, 2) @ random_complex(rng, 2, 3)
        basis = range_closure_basis(m)
        # SVD rank oracle on the explicit product
        assert basis.dim == np.linalg.matrix_rank(m, tol=1e-10)
        assert basis.dim == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_gram_range_has_same_dimension(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        m = random_complex(rng, rows, cols)
        assert range_closure_basis(m).dim == range_closure_basis(m @ m.conj().T).dim


class TestPredicates:
    def test_unit_row_is_coisometry(self):
        assert is_coisometry(np.array([[0.0, 1.0, 0.0]]))

    def test_scalar_half_is_not(self):
        assert not is_coisometry(np.array([[0.5]]))

    def test_zero_rows_is_coisometry(self):
        # co-isometry onto the zero space, vacuously
        for shape in [(0, 3), (0, 0)]:
            assert is_coisometry(np.zeros(shape))
            assert coisometry_deficiency(np.zeros(shape)) == 0.0

    def test_zero_cols_is_isometry(self):
        for shape in [(3, 0), (0, 0)]:
            assert coisometry_deficiency(np.zeros(shape).T) == 0.0

    @pytest.mark.parametrize("shape", [(3, 0), (2, 3), (0, 2)])
    def test_zero_maps_miss_by_one(self, shape):
        # M M* - I = -I on a nonzero codomain, and M* M - I = -I on a nonzero domain
        m = np.zeros(shape)
        assert coisometry_deficiency(m) == (1.0 if shape[0] else 0.0)
        assert coisometry_deficiency(m.T) == (1.0 if shape[1] else 0.0)
        assert is_coisometry(m) == (shape[0] == 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_coisometry_iff_adjoint_isometry(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if rng.uniform() < 0.5:  # include genuine co-isometries
            m = haar_isometry(rng, m.shape[1], min(m.shape)).conj().T
        assert is_coisometry(m) == (coisometry_deficiency(m.conj()) <= 1e-8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), rows=st.integers(0, 6),
           cols=st.sampled_from([0, 1, 2, 5, 255, 256, 257, 600]))
    def test_deficiencies_match_svd_norm(self, seed, rows, cols):
        # narrow and wide matrices alike; the shared scale of roundoff is
        # the norm of the Gram together with the identity
        rng = np.random.default_rng(seed)
        m = random_complex(rng, rows, cols) / np.sqrt(max(cols, 1))
        expected = spectral_norm(m @ m.conj().T - np.eye(rows))
        assert abs(coisometry_deficiency(m) - expected) <= 1e-12 * max(1.0, expected)
        # the isometry deficiency of m.T: (m.T)* m.T - I is the conjugate of m m* - I
        assert abs(coisometry_deficiency(m.conj()) - expected) <= 1e-12 * max(1.0, expected)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), rows=st.integers(0, 6), cols=st.integers(0, 8),
           kind=st.sampled_from(["random", "isometric", "perturbed"]),
           factor=st.sampled_from([1 - 1e-6, 1 + 1e-6, 0.01, 0.5, 2.0, 100.0]))
    def test_coisometry_within_agrees_with_the_deficiency(self, seed, rows, cols, kind, factor):
        # limits just either side of the measured deficiency, and far from it,
        # so that both Frobenius bounds and the eigenvalue fallback decide
        rng = np.random.default_rng(seed)
        m = random_complex(rng, rows, cols) / np.sqrt(max(cols, 1))
        if kind != "random" and rows <= cols:
            m = haar_isometry(rng, cols, rows).conj().T
            if kind == "perturbed":
                m = m + 1e-9 * random_complex(rng, rows, cols)
        deficiency = coisometry_deficiency(m)
        limit = deficiency * factor
        assert coisometry_within(m, limit) == (deficiency <= limit)

    def test_exact_coisometry_has_positive_zero_deficiency(self):
        for value in (coisometry_deficiency(np.eye(3)[:2]), coisometry_deficiency(np.eye(3)[:, :2].T)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestSubspaces:
    def test_basis_must_be_orthonormal(self):
        with pytest.raises(InvalidInput):
            SubspaceBasis(2, np.array([[1.0], [1.0]]))

    def test_basis_has_at_most_ambient_dim_columns(self):
        with pytest.raises(DimensionMismatch, match="^subspace dimension 3 exceeds ambient dimension 2$"):
            SubspaceBasis(2, np.zeros((2, 3)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_read_only_copy_keeps_the_layout(self, order):
        m = np.asarray(random_complex(np.random.default_rng(4), 3, 4), order=order)
        r = read_only(m)
        assert not np.shares_memory(r, m) and not r.flags.writeable
        assert r.strides == m.strides
        np.testing.assert_array_equal(r, m)

    def test_orthocomplement_dimension(self):
        rng = np.random.default_rng(3)
        s = random_subspace(rng, 6, 2)
        assert orthocomplement(s).dim == 4

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_orthocomplement_of_zero_space_is_the_identity(self, n):
        comp = orthocomplement(SubspaceBasis(n, np.zeros((n, 0))))
        assert comp.basis.shape == (n, n) and comp.basis.dtype == np.complex128
        np.testing.assert_array_equal(comp.basis, np.eye(n))
        assert orthocomplement(comp).basis.shape == (n, 0)

    @pytest.mark.parametrize("dim", [0, 1, 3, 4])
    def test_orthocomplement_involution(self, dim):
        rng = np.random.default_rng(10 + dim)
        s = random_subspace(rng, 4, dim)
        twice = orthocomplement(orthocomplement(s))
        assert spectral_norm(twice.basis @ twice.basis.conj().T - s.basis @ s.basis.conj().T) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    norm=st.floats(0.0, 1.0),
)
def test_defect_identity_property(seed, rows, cols, norm):
    rng = np.random.default_rng(seed)
    n = random_contraction(rng, rows, cols, norm)
    d, space = defect(n)
    assert spectral_norm(d @ d - (np.eye(cols) - n.conj().T @ n)) <= 1e-10
    assert space.dim <= cols


def test_tolerances_reject_negative():
    with pytest.raises(InvalidInput):
        Tolerances(rank_tol=-1.0)


@pytest.mark.parametrize("value", [None, "1e-3", 1j, 1e-3 + 0j, math.nan, math.inf, 10**400])
@pytest.mark.parametrize("name", ["rank_tol", "contraction_slack", "identity_tol"])
def test_tolerances_reject_what_is_not_a_finite_real(name, value):
    with pytest.raises(InvalidInput, match=name):
        Tolerances(**{name: value})


@pytest.mark.parametrize("value", [[[1], [1, 2]], [["a"], ["b"]], [[{}]], "ab", np.zeros(2)])
def test_as_cmatrix_rejects_what_is_not_a_numeric_matrix(value):
    with pytest.raises(InvalidInput):
        as_cmatrix(value)
    with pytest.raises(InvalidInput):
        SubspaceBasis(2, value)


def test_as_cmatrix_checks_the_asked_columns():
    with pytest.raises(DimensionMismatch, match="^expected 3 columns, got 2$"):
        as_cmatrix(np.zeros((2, 2)), cols=3)


def test_numpy_linear_algebra_takes_zero_size_input():
    # opcore and dataset take zero-size matrices through the general code on
    # these facts, batched ones included; checked on numpy 2.4.6
    for n in (0, 1, 3):
        _, s, vh = np.linalg.svd(np.zeros((0, n), dtype=np.complex128), full_matrices=True)
        assert s.shape == (0,) and vh.shape == (n, n)
        np.testing.assert_array_equal(vh, np.eye(n))
    w, v = np.linalg.eigh(np.zeros((0, 0), dtype=np.complex128))
    assert w.shape == (0,) and v.shape == (0, 0)
    assert np.linalg.eigvalsh(np.zeros((0, 0), dtype=np.complex128)).shape == (0,)
    for shape, spectrum in (((3, 0, 0), (3, 0)), ((0, 2, 2), (0, 2)), ((0, 0, 0), (0, 0))):
        assert np.linalg.eigvalsh(np.zeros(shape, dtype=np.complex128)).shape == spectrum
    x = np.linalg.lstsq(np.zeros((3, 0), dtype=np.complex128), np.ones((3, 2)), rcond=None)[0]
    assert x.shape == (0, 2)
    x = np.linalg.lstsq(np.zeros((0, 3), dtype=np.complex128), np.zeros((0, 2)), rcond=None)[0]
    assert x.shape == (3, 2) and not x.any()
    assert np.linalg.svd(np.zeros((4, 2, 0), dtype=np.complex128), compute_uv=False).shape == (4, 0)
    # the certified contraction check factors a (0, 0) shifted Gram, and
    # reads a failed factorization as no certificate
    assert np.linalg.cholesky(np.zeros((0, 0), dtype=np.complex128)).shape == (0, 0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128))


def test_numpy_array_facts_of_the_cli_encoder():
    # rclkit.cli formats floats on these facts; checked on numpy 2.4.6
    records = np.zeros((3, 12), dtype=np.uint8)
    words = records[:, 4:12].view(np.uint32)          # a 4-byte-aligned column slice
    assert words.shape == (3, 2) and np.shares_memory(words, records)
    words[:] = np.frombuffer(b"0123abcd", dtype=np.uint32)
    assert records[1].tobytes() == bytes(4) + b"0123abcd"
    exact = [2.0 ** 53 + 2, 99999999999999984.0, 2.0 ** 62, float(2 ** 63 - 1024)]
    assert np.array(exact).astype(np.int64).tolist() == [int(x) for x in exact]
    q, r = np.divmod(np.array([10 ** 17 - 1, 0, 12345678901234567], dtype=np.int64), 10 ** 16)
    assert q.dtype == r.dtype == np.int64
    assert (q.tolist(), r.tolist()) == ([9, 0, 1], [9999999999999999, 0, 2345678901234567])
    text = np.frombuffer(b"a\0b\0\0c", dtype=np.uint8).reshape(2, 3)
    assert str(text[text != 0], "ascii") == "abc"               # C order, decoded from the buffer
    rows = np.arange(8.0).reshape(4, 2).take([-1, 5, 2], axis=0, mode="clip")
    assert rows.tolist() == [[0.0, 1.0], [6.0, 7.0], [4.0, 5.0]]
