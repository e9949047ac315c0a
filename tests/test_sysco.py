import numpy as np
import pytest

from helpers import random_coisometric_system, random_contraction
from rclkit import sysco
from rclkit.errors import AuditFailure, InvalidInput
from rclkit.opcore import psd_order_leq, spectral_norm
from rclkit.sysco import (
    CoisometricSystem,
    coisometry_gap,
    gram_identity_audit,
    julia_system,
    observability_taylor,
    orbit,
    stacked_operator,
    transfer_taylor,
)


def dilation_of_half():
    return julia_system(np.array([[0.5]]))


class TestConstruction:
    def test_validation_rejects_broken_system(self):
        with pytest.raises(AuditFailure):
            CoisometricSystem(np.eye(2), np.eye(2), np.eye(2), np.eye(2))

    def test_unchecked_path_for_negative_controls(self):
        s = CoisometricSystem(np.eye(2), np.eye(2), np.eye(2), np.eye(2), validate=False)
        assert coisometry_gap(s) > 1.0

    def test_nonsquare_state_rejected(self):
        with pytest.raises(InvalidInput):
            CoisometricSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_generator_produces_coisometries(self, seed):
        s = random_coisometric_system(np.random.default_rng(seed))
        assert coisometry_gap(s) < 1e-12

    def test_block_invariants(self):
        # the two halves of the co-isometry identity, each checked directly
        s = random_coisometric_system(np.random.default_rng(7))
        x, w = s.state_dim, s.out_dim
        assert spectral_norm(s.B @ s.B.conj().T - (np.eye(x) - s.A @ s.A.conj().T)) < 1e-12
        assert spectral_norm(s.D @ s.D.conj().T + s.C @ s.C.conj().T - np.eye(w)) < 1e-12


class TestJulia:
    def test_scalar_half_blocks(self):
        s = dilation_of_half()
        root = np.sqrt(3) / 2
        assert s.A[0, 0] == pytest.approx(0.5)
        assert s.B[0, 0] == pytest.approx(root)
        assert s.C[0, 0] == pytest.approx(root)
        assert s.D[0, 0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_dilation_is_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        s = julia_system(random_contraction(rng, n, n, norm=float(rng.uniform(0.1, 1.0))))
        m = s.block_matrix()
        assert spectral_norm(m @ m.conj().T - np.eye(2 * n)) < 1e-12
        assert spectral_norm(m.conj().T @ m - np.eye(2 * n)) < 1e-12

    def test_transfer_values_stay_contractive(self):
        s = dilation_of_half()
        f = transfer_taylor(s, 40)
        assert spectral_norm(f.eval(0.5)) <= 1.0 + 1e-12


class TestTransferObservability:
    def test_zero_state_operator(self):
        s = random_coisometric_system(np.random.default_rng(1))
        flat = CoisometricSystem(np.zeros_like(s.A), s.B, s.C, s.D, validate=False)
        f = transfer_taylor(flat, 4)
        np.testing.assert_array_equal(f.coeff(0), s.D)
        np.testing.assert_array_equal(f.coeff(1), s.C @ s.B)
        assert spectral_norm(f.coeff(2)) == 0.0
        w = observability_taylor(flat, 3)
        np.testing.assert_array_equal(w.coeff(0), s.C)
        assert spectral_norm(w.coeff(1)) == 0.0

    def test_zero_output_map(self):
        s = random_coisometric_system(np.random.default_rng(2))
        silent = CoisometricSystem(s.A, s.B, np.zeros_like(s.C), s.D, validate=False)
        w = observability_taylor(silent, 5)
        assert all(spectral_norm(w.coeff(n)) == 0.0 for n in range(6))

    @pytest.mark.parametrize("seed", range(5))
    def test_observability_gram_in_unit_ball(self, seed):
        s = random_coisometric_system(np.random.default_rng(10 + seed))
        w = observability_taylor(s, 25)
        gram = sum(c.conj().T @ c for c in w.coeffs)
        assert psd_order_leq(gram, np.eye(s.state_dim))

    @pytest.mark.parametrize("seed", range(4))
    def test_transfer_series_matches_resolvent(self, seed):
        s = random_coisometric_system(np.random.default_rng(20 + seed))
        lam, order = 0.3, 40
        f = transfer_taylor(s, order)
        resolvent = np.linalg.solve(np.eye(s.state_dim) - lam * s.A, s.B)
        direct = s.D + lam * s.C @ resolvent
        tail = abs(lam) ** (order + 1) / (1 - abs(lam))
        assert spectral_norm(f.eval(lam) - direct) <= max(tail, 1e-12)


class TestOrbit:
    @pytest.mark.parametrize("rows,cols", [(2, 3), (0, 3), (2, 0), (0, 0)])
    def test_shape_and_powers(self, rows, cols):
        rng = np.random.default_rng(rows + cols)
        c, a = random_contraction(rng, rows, cols), random_contraction(rng, cols, cols)
        out = orbit(c, a, 5)
        assert out.shape == (6, rows, cols) and out.dtype == np.complex128
        for n in range(6):
            np.testing.assert_allclose(out[n], c @ np.linalg.matrix_power(a, n), rtol=0, atol=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInput):
            orbit(np.eye(2), np.eye(2), -1)


@pytest.mark.parametrize("blocks", [1, 4, 9])
def test_stacked_operator_runs_one_orbit(monkeypatch, blocks):
    s = random_coisometric_system(np.random.default_rng(60 + blocks))
    # two orbits, one per part, as the reference layout
    reference = np.hstack([
        transfer_taylor(s, blocks - 1).toeplitz(blocks),
        observability_taylor(s, blocks - 1).coeffs.reshape(blocks * s.out_dim, s.state_dim),
    ])
    calls = []

    def counted(*args):
        calls.append(args[2])
        return orbit(*args)

    monkeypatch.setattr(sysco, "orbit", counted)
    np.testing.assert_array_equal(stacked_operator(s, blocks), reference)
    assert calls == [blocks - 1]


class TestGramIdentityAudit:
    def test_scalar_dilation_is_exact(self):
        assert gram_identity_audit(dilation_of_half(), 12) < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_pass(self, seed):
        s = random_coisometric_system(np.random.default_rng(30 + seed))
        assert gram_identity_audit(s, 12) < 1e-10

    def test_perturbed_feedthrough_fails(self):
        s = dilation_of_half()
        broken = CoisometricSystem(s.A, s.B, s.C, s.D + 0.1, validate=False)
        with pytest.raises(AuditFailure) as excinfo:
            gram_identity_audit(broken, 12)
        assert excinfo.value.deviation >= 0.01

    def test_diagonal_blocks_are_identity(self):
        s = random_coisometric_system(np.random.default_rng(40))
        stacked = stacked_operator(s, 8)
        gram = stacked @ stacked.conj().T
        w = s.out_dim
        for n in range(8):
            block = gram[n * w:(n + 1) * w, n * w:(n + 1) * w]
            assert spectral_norm(block - np.eye(w)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_telescoping_sum(self, seed):
        # partial sums of C A^i B B* A*^i C* collapse against the state Gram
        s = random_coisometric_system(np.random.default_rng(50 + seed))
        a, b, c = s.A, s.B, s.C
        acc = np.zeros((s.out_dim, s.out_dim), dtype=complex)
        for n in range(1, 13):
            power = np.linalg.matrix_power(a, n - 1)
            term = c @ power @ b
            acc = acc + term @ term.conj().T
            direct = c @ c.conj().T - c @ np.linalg.matrix_power(a, n) @ np.linalg.matrix_power(
                a.conj().T, n) @ c.conj().T
            assert spectral_norm(acc - direct) < 1e-11
