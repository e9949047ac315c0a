import numpy as np
import pytest

from helpers import classical_dataset, haar_isometry, krylov_dataset, random_dataset
from rclkit.dataset import DataSet, underlying_contraction
from rclkit.errors import DimensionMismatch, InvalidInput, NotAContraction, NotContractive
from rclkit.interp import central_taylor
from rclkit.lifting import build_lifting, interpolant_from_solution, verify_rclt
from rclkit.opcore import spectral_norm
from rclkit.series import MatrixSeries


def tp_only(tp):
    """The data set whose only nonzero operator is ``T'``: ``H = H0 = {0}``."""
    n = tp.shape[0]
    return DataSet(np.zeros((n, 0)), tp, np.zeros((0, 0)), np.zeros((0, 0)))


class TestBuildLifting:
    def test_unitary_contraction_needs_no_extension(self):
        u = haar_isometry(np.random.default_rng(0), 3, 3)
        data = tp_only(u)
        u_prime = build_lifting(data, 8)
        assert data.defect_tp[1].dim == 0
        assert u_prime.shape == (3, 3)
        np.testing.assert_array_equal(u_prime, u)

    def test_zero_scalar_gives_truncated_shift(self):
        u_prime = build_lifting(tp_only(np.zeros((1, 1))), 4)
        expected = np.zeros((5, 5))
        for i in range(4):
            expected[i + 1, i] = 1.0
        np.testing.assert_allclose(u_prime, expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_intertwining_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        tp = 0.8 * haar_isometry(rng, 3, 3)
        u_prime = build_lifting(tp_only(tp), 6)
        hp = tp.shape[0]
        top_rows = u_prime[:hp, :]
        np.testing.assert_allclose(top_rows[:, :hp], tp, atol=1e-12)
        assert spectral_norm(top_rows[:, hp:]) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_isometric_off_the_final_block(self, seed):
        rng = np.random.default_rng(10 + seed)
        data = tp_only(0.7 * haar_isometry(rng, 2, 2))
        u_prime = build_lifting(data, 5)
        dt = data.defect_tp[1].dim
        kept = u_prime[:, : u_prime.shape[0] - dt]
        gram = kept.conj().T @ kept
        assert spectral_norm(gram - np.eye(kept.shape[1])) <= 1e-10

    def test_rejects_expansive_operator(self):
        with pytest.raises(NotAContraction):
            build_lifting(tp_only(1.2 * np.eye(2)), 3)

    def test_rejects_zero_blocks(self):
        with pytest.raises(InvalidInput):
            build_lifting(tp_only(np.eye(2)), 0)


class TestInterpolantFromSolution:
    def test_zero_solution_stacks_a_over_nothing(self):
        d = krylov_dataset(np.random.default_rng(1), n=3, a_norm=0.6)
        p = underlying_contraction(d)
        zero = MatrixSeries(np.zeros((8, p.y_dim, p.u_dim)))
        b = interpolant_from_solution(d, zero, 8)
        np.testing.assert_array_equal(b[: d.dim_hp, :], d.A)
        assert spectral_norm(b[d.dim_hp:, :]) == 0.0

    def test_unitary_tp_collapses_to_a(self):
        d = random_dataset(np.random.default_rng(2), tp_unitary=True)
        p = underlying_contraction(d)
        h = central_taylor(p, 7)
        b = interpolant_from_solution(d, h, 8)
        np.testing.assert_array_equal(b, d.A)

    @pytest.mark.parametrize("seed", range(6))
    def test_central_interpolant_is_contractive(self, seed):
        rng = np.random.default_rng(20 + seed)
        d = random_dataset(rng)
        p = underlying_contraction(d)
        b = interpolant_from_solution(d, central_taylor(p, 15), 16)
        assert spectral_norm(b) <= 1 + 1e-10

    def test_short_series_rejected(self):
        d = krylov_dataset(np.random.default_rng(3), n=3, a_norm=0.6)
        p = underlying_contraction(d)
        with pytest.raises(InvalidInput):
            interpolant_from_solution(d, central_taylor(p, 3), 8)

    def test_mis_shaped_series_is_a_dimension_mismatch(self):
        d = krylov_dataset(np.random.default_rng(3), n=3, a_norm=0.6)
        p = underlying_contraction(d)
        wrong = MatrixSeries(np.zeros((8, p.y_dim + 1, p.u_dim)))
        with pytest.raises(DimensionMismatch, match=f"data set needs {p.u_dim}->{p.y_dim}$"):
            interpolant_from_solution(d, wrong, 8)

    @pytest.mark.parametrize("blocks", [0, -2])
    def test_nonpositive_blocks_rejected(self, blocks):
        d = krylov_dataset(np.random.default_rng(3), n=3, a_norm=0.6)
        with pytest.raises(InvalidInput, match="at least one defect block"):
            interpolant_from_solution(d, central_taylor(underlying_contraction(d), 6), blocks)

    def test_ball_violation_rejected(self):
        d = krylov_dataset(np.random.default_rng(4), n=3, a_norm=0.6)
        p = underlying_contraction(d)
        big = MatrixSeries(tuple(np.full((p.y_dim, p.u_dim), 2.0, dtype=complex) for _ in range(6)))
        with pytest.raises(NotContractive):
            interpolant_from_solution(d, big, 6)


class TestVerify:
    @pytest.mark.parametrize("seed", range(8))
    def test_central_solution_roundtrip(self, seed):
        rng = np.random.default_rng(30 + seed)
        maker = [random_dataset, classical_dataset, krylov_dataset][seed % 3]
        d = maker(rng)
        p = underlying_contraction(d)
        blocks = 16
        h = central_taylor(p, blocks - 1)
        b = interpolant_from_solution(d, h, blocks)
        report = verify_rclt(d, b, blocks)
        assert report.projection_ok
        assert report.intertwine_ok
        assert report.max_retained_residual <= 1e-10

    def test_zero_defect_of_tp(self):
        # unitary T': no defect blocks, so every block residual is that of a 0-row block
        d = random_dataset(np.random.default_rng(8), tp_unitary=True)
        h = central_taylor(underlying_contraction(d), 5)
        report = verify_rclt(d, interpolant_from_solution(d, h, 6), 6)
        assert report.ok
        assert report.retained_residuals[1:] == (0.0,) * 5 and report.boundary_residual == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_residuals_match_block_rows(self, seed):
        d = krylov_dataset(np.random.default_rng(40 + seed), n=4, a_norm=0.7)
        p = underlying_contraction(d)
        fake = MatrixSeries(np.full((7, p.y_dim, p.u_dim), 0.1 / (seed + 1), dtype=complex))
        b = interpolant_from_solution(d, fake, 7)
        report = verify_rclt(d, b, 7)
        delta = build_lifting(d, 7) @ b @ d.R - b @ d.Q
        hp, dt = d.dim_hp, d.defect_tp[1].dim
        reference = [spectral_norm(delta[:hp])]
        reference += [spectral_norm(delta[hp + j * dt:hp + (j + 1) * dt]) for j in range(7)]
        assert all(type(r) is float for r in report.retained_residuals)
        np.testing.assert_allclose(report.retained_residuals + (report.boundary_residual,), reference,
                                   rtol=0, atol=1e-14)

    def test_boundary_residual_reported_separately(self):
        d = krylov_dataset(np.random.default_rng(5), n=4, a_norm=0.7)
        p = underlying_contraction(d)
        h = central_taylor(p, 9)
        report = verify_rclt(d, interpolant_from_solution(d, h, 10), 10)
        assert len(report.retained_residuals) == 10
        assert report.boundary_residual <= 1e-10

    def test_non_solution_fails_intertwining(self):
        d = krylov_dataset(np.random.default_rng(6), n=4, a_norm=0.7)
        p = underlying_contraction(d)
        constant = np.full((p.y_dim, p.u_dim), 0.1, dtype=complex)
        fake = MatrixSeries(tuple(constant.copy() for _ in range(8)))
        b = interpolant_from_solution(d, fake, 8)
        report = verify_rclt(d, b, 8)
        assert report.projection_ok
        assert not report.intertwine_ok
        assert report.max_retained_residual > 1e-4

    def test_projection_failure_detected(self):
        d = krylov_dataset(np.random.default_rng(7), n=3, a_norm=0.6)
        p = underlying_contraction(d)
        b = interpolant_from_solution(d, central_taylor(p, 7), 8)
        b = b.copy()
        b[0, 0] += 0.05
        report = verify_rclt(d, b, 8)
        assert not report.projection_ok

    @pytest.mark.parametrize("candidate, error", [
        (lambda shape: [[1], [1, 2]], InvalidInput),                  # ragged
        (lambda shape: np.full(shape, np.nan), InvalidInput),         # non-finite
        (lambda shape: np.zeros((shape[0] - 1, shape[1])), DimensionMismatch),
    ], ids=["ragged", "non_finite", "wrong_shape"])
    def test_candidate_is_checked_at_the_boundary(self, candidate, error):
        d = krylov_dataset(np.random.default_rng(7), n=3, a_norm=0.6)
        shape = (len(build_lifting(d, 2)), d.dim_h)
        with pytest.raises(error):
            verify_rclt(d, candidate(shape), 2)
