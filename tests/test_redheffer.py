import dataclasses
from collections import Counter

import numpy as np
import pytest

from helpers import (
    ORACLE_REGIMES,
    backward_shift_problem,
    coisometric_problem,
    random_complex,
    random_problem,
)
from rclkit import redheffer, series
from rclkit.errors import (
    AuditFailure,
    DimensionMismatch,
    InternalContradiction,
    InvalidInput,
    InvalidParameter,
    OutOfDisc,
)
from rclkit.interp import central_taylor, is_solution
from rclkit.opcore import Tolerances, adjoint, defect, spectral_norm
from rclkit.redheffer import (
    RedhefferRealization,
    SchurParameter,
    coefficient_matrix_audit,
    lft_solution,
    phi_eval,
    phi_taylor,
    realize,
)
from rclkit.series import MatrixSeries
from rclkit.sysco import CoisometricSystem, orbit, transfer_from_orbit


class TestRealize:
    def test_coisometric_contraction_has_no_adjoint_defect(self):
        r = realize(coisometric_problem(np.random.default_rng(0)))
        assert r.defect_dim == 0

    def test_realization_blocks_are_read_only(self):
        r = realize(backward_shift_problem(4))
        for stored in (r.A, r.B, r.C, r.D):
            assert not stored.flags.writeable

    def test_backward_shift_state_operator(self):
        p = backward_shift_problem(6)
        r = realize(p)
        z = r.A.real
        # shifts e2..e5 down one slot, kills e0 and e1
        expected = np.zeros((6, 6))
        for k in range(2, 6):
            expected[k - 1, k] = 1.0
        np.testing.assert_allclose(z, expected, atol=1e-14)
        assert spectral_norm(r.A @ np.eye(6)[:, [1]]) < 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_block_identity_holds_for_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        r = realize(p)  # realize audits internally
        d_cols = defect_columns(r)
        w_hat = p.omega @ p.F.coords()
        gap = spectral_norm(d_cols @ d_cols.conj().T - (np.eye(p.y_dim + p.u_dim) - w_hat @ w_hat.conj().T))
        assert gap <= 1e-10

    def test_realization_is_a_system_with_the_problems_tolerances(self):
        p = random_problem(np.random.default_rng(4))
        p = dataclasses.replace(p, tol=Tolerances(identity_tol=1e-6))
        r = realize(p)
        assert isinstance(r, CoisometricSystem) and r.tol is p.tol

    def test_valid_realization_runs_one_svd_one_eigh_and_no_eigvalsh(self, monkeypatch):
        # the orthocomplement of F is the one SVD and the adjoint defect the
        # one eigh; omega* is not measured again (the problem's constructor
        # checked it), and every co-isometry check on a valid realization is
        # decided by its Frobenius bound
        p = random_problem(np.random.default_rng(3), u_dim=6, y_dim=2, f_dim=4)
        calls = count_lapack_calls(monkeypatch, ("svd", "eigh", "eigvalsh"))
        realize(p)
        assert calls == {"svd": 1, "eigh": 1}

    def test_broken_block_identity_is_an_internal_contradiction(self, monkeypatch):
        original = redheffer.defect_spectrum

        def inflated(n, tol):
            roots, vecs, space = original(n, tol)
            return 1.1 * roots, vecs, space

        monkeypatch.setattr(redheffer, "defect_spectrum", inflated)
        # the block Gram gains 0.21 D*^2, and D* has norm one: omega* has a kernel
        with pytest.raises(InternalContradiction, match=r"^realization block identity deviates by 2\.100e-01 \(tol 1\.0e-08\)$"):
            realize(random_problem(np.random.default_rng(7), u_dim=5, y_dim=2, f_dim=3))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("regime", sorted(ORACLE_REGIMES))
    def test_matches_the_realization_built_on_the_full_defect_operator(self, regime, seed):
        # D* on its defect space is read off the eigensolve; built from the
        # full D* instead, B and D agree to roundoff and the rest exactly
        p = ORACLE_REGIMES[regime](np.random.default_rng(150 + seed))
        r = realize(p)
        dstar, dspace = defect(adjoint(p.omega), p.tol)
        cols = dstar @ dspace.basis
        g = p.complement()
        np.testing.assert_allclose(r.B, cols[p.y_dim:], rtol=0, atol=1e-14)
        np.testing.assert_allclose(r.D, np.vstack([np.zeros((g.dim, dspace.dim)), cols[:p.y_dim]]), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(r.G.basis, g.basis)
        np.testing.assert_array_equal(r.DstarSpace.basis, dspace.basis)
        np.testing.assert_array_equal(r.A, p.state_operator())
        np.testing.assert_array_equal(r.C, np.vstack([g.coords(), p.output_row()]))


def count_lapack_calls(monkeypatch, names) -> Counter:
    """Calls of each ``np.linalg`` routine in ``names`` from here on."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestPhiEval:
    def test_phi11_vanishes_at_zero(self):
        rng = np.random.default_rng(1)
        r = realize(random_problem(rng, y_dim=1))
        phi11, _, _, _ = phi_eval(r, 0.0)
        assert spectral_norm(phi11) == 0.0

    def test_phi22_at_zero_is_first_central_coefficient(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, y_dim=2)
        r = realize(p)
        _, _, _, phi22 = phi_eval(r, 0.0)
        np.testing.assert_allclose(phi22, central_taylor(p, 0).coeffs[0], atol=1e-14)

    def test_coisometric_contraction_kills_phi21(self):
        r = realize(coisometric_problem(np.random.default_rng(3)))
        for lam in (0.0, 0.4, -0.2 + 0.3j):
            _, _, phi21, _ = phi_eval(r, lam)
            assert spectral_norm(phi21) == 0.0

    def test_outside_disc_rejected(self):
        r = realize(backward_shift_problem(4))
        with pytest.raises(OutOfDisc):
            phi_eval(r, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_phi11_strictly_contractive_inside_disc(self, seed):
        rng = np.random.default_rng(40 + seed)
        r = realize(random_problem(rng, y_dim=1))
        for lam in (0.2, 0.5j, -0.7):
            phi11, _, _, _ = phi_eval(r, lam)
            assert spectral_norm(phi11) < 1.0


class TestPhiTaylor:
    def test_phi22_reproduces_central_solution_exactly(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, y_dim=2)
        _, _, _, phi22 = phi_taylor(realize(p), 12)
        central = central_taylor(p, 12)
        for n in range(13):
            np.testing.assert_array_equal(phi22.coeffs[n], central.coeffs[n])

    def test_phi11_constant_term_is_zero(self):
        rng = np.random.default_rng(5)
        phi11, _, _, _ = phi_taylor(realize(random_problem(rng, y_dim=1)), 6)
        assert spectral_norm(phi11.coeffs[0]) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_series_evaluation_matches_phi_eval(self, seed):
        rng = np.random.default_rng(50 + seed)
        r = realize(random_problem(rng, y_dim=int(rng.integers(0, 3))))
        lam, order = 0.25, 40
        tail = abs(lam) ** (order + 1) / (1 - abs(lam)) * 4
        evaluated = phi_eval(r, lam)
        expanded = phi_taylor(r, order)
        for direct, series_form in zip(evaluated, expanded):
            assert spectral_norm(series_form.eval(lam) - direct) <= max(tail, 1e-11)


class TestCoefficientMatrixAudit:
    @pytest.mark.parametrize("seed", range(8))
    def test_row_gram_is_identity_to_roundoff(self, seed):
        rng = np.random.default_rng(60 + seed)
        p = random_problem(rng, u_max=5)
        audit = coefficient_matrix_audit(realize(p), 10)
        assert audit.deficiency < 1e-9

    def test_specific_dimensions(self):
        rng = np.random.default_rng(61)
        p = random_problem(rng, u_dim=5, y_dim=2, f_dim=3)
        audit = coefficient_matrix_audit(realize(p), 10)
        assert audit.deficiency < 1e-9

    @pytest.mark.parametrize("blocks", [1, 4, 16])
    def test_deficiency_stays_at_roundoff_for_any_block_count(self, blocks):
        rng = np.random.default_rng(66)
        r = realize(random_problem(rng, u_dim=6, y_dim=2, f_dim=4))
        assert coefficient_matrix_audit(r, blocks).deficiency < 1e-9

    def test_trivial_output_space(self):
        rng = np.random.default_rng(62)
        p = random_problem(rng, u_dim=4, f_dim=2, y_dim=0)
        assert coefficient_matrix_audit(realize(p), 8).deficiency < 1e-9

    def test_zero_adjoint_defect(self):
        r = realize(coisometric_problem(np.random.default_rng(63)))
        assert r.defect_dim == 0
        assert coefficient_matrix_audit(r, 8).deficiency < 1e-9


class TestSchurParameter:
    def test_constant_contraction_accepted(self):
        SchurParameter.constant(np.array([[0.5]]))

    def test_expansive_constant_rejected(self):
        with pytest.raises(InvalidParameter):
            SchurParameter.constant(np.array([[1.5]]))

    def test_polynomial_toeplitz_norm_checked(self):
        # each coefficient is small but the multiplication operator is not
        with pytest.raises(InvalidParameter):
            SchurParameter((np.array([[0.8]]), np.array([[0.8]])))
        SchurParameter((np.array([[0.6]]), np.array([[0.3]])))

    @pytest.mark.parametrize("norm, eigvalsh_calls", [(0.9, 0), (1.5, 1)])
    def test_only_a_failing_check_measures_the_norm(self, monkeypatch, norm, eigvalsh_calls):
        # degree 3 with sum |v_k| = norm: a certified bound passes the
        # contraction at 0.9, and the one eigvalsh measures the failure
        rng = np.random.default_rng(8)
        coeffs = [random_complex(rng, 6, 4) * 0.5 ** k for k in range(4)]
        coeffs = np.array(coeffs) * (norm / sum(spectral_norm(c) for c in coeffs))
        calls = count_lapack_calls(monkeypatch, ("eigvalsh",))
        if norm < 1:
            SchurParameter(coeffs)
        else:
            with pytest.raises(InvalidParameter, match="^parameter multiplication norm "):
                SchurParameter(coeffs)
        assert calls["eigvalsh"] == eigvalsh_calls

    @pytest.mark.parametrize("coeffs", [
        (np.full((2, 3), 0.1), np.full((2, 3), 0.05), np.zeros((2, 3))),
        np.stack([np.full((2, 3), 0.1), np.full((2, 3), 0.05), np.zeros((2, 3))]),
        [[[0.1, 0.1, 0.1], [0.1, 0.1, 0.1]], np.full((2, 3), 0.05), np.zeros((2, 3))],
    ])
    def test_coefficients_are_one_array(self, coeffs):
        v = SchurParameter(coeffs)
        assert isinstance(v.coeffs, np.ndarray) and v.coeffs.dtype == np.complex128
        assert v.coeffs.shape == (3, 2, 3) and (v.out_dim, v.in_dim) == (2, 3)
        np.testing.assert_array_equal(v.coeffs[1], np.full((2, 3), 0.05))

    def test_three_dimensional_coefficient_rejected(self):
        with pytest.raises(DimensionMismatch):
            SchurParameter((np.zeros((1, 2, 2)),))

    @pytest.mark.parametrize("coeffs, error", [
        (0.5, DimensionMismatch),
        (None, DimensionMismatch),
        ((), InvalidInput),             # shape checks are the series': no constant coefficient
    ])
    def test_non_sequences_and_empty_parameters_rejected(self, coeffs, error):
        with pytest.raises(error):
            SchurParameter(coeffs)


class TestLftSolution:
    @pytest.mark.parametrize("seed", range(5))
    def test_zero_parameter_recovers_central_solution(self, seed):
        rng = np.random.default_rng(70 + seed)
        p = random_problem(rng)
        r = realize(p)
        zero = SchurParameter.constant(np.zeros((r.defect_dim, r.complement_dim)))
        h = lft_solution(r, zero, 10)
        central = central_taylor(p, 10)
        for n in range(11):
            assert spectral_norm(h.coeffs[n] - central.coeffs[n]) <= 1e-12

    def test_zero_adjoint_defect_pins_every_parameter(self):
        p = coisometric_problem(np.random.default_rng(71))
        r = realize(p)
        v = SchurParameter.constant(np.zeros((0, r.complement_dim)))
        h = lft_solution(r, v, 8)
        central = central_taylor(p, 8)
        for n in range(9):
            assert spectral_norm(h.coeffs[n] - central.coeffs[n]) <= 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_random_constant_parameter_yields_solution(self, seed):
        rng = np.random.default_rng(80 + seed)
        p = random_problem(rng, y_dim=int(rng.integers(1, 4)))
        r = realize(p)
        raw = random_complex(rng, r.defect_dim, r.complement_dim)
        nrm = spectral_norm(raw)
        v = SchurParameter.constant(0.9 * raw / nrm if nrm > 0 else raw)
        report = is_solution(p, lft_solution(r, v, 12))
        assert report.interp_ok and report.ball_ok

    def test_polynomial_parameter_yields_solution(self):
        rng = np.random.default_rng(81)
        p = random_problem(rng, u_dim=5, f_dim=3, y_dim=2)
        r = realize(p)
        c0 = 0.4 * random_complex(rng, r.defect_dim, r.complement_dim)
        c1 = 0.3 * random_complex(rng, r.defect_dim, r.complement_dim)
        for c in (c0, c1):
            c /= max(1.0, 2 * spectral_norm(c))
        report = is_solution(p, lft_solution(r, SchurParameter((c0, c1)), 12))
        assert report.interp_ok and report.ball_ok

    def test_dimension_mismatch_rejected(self):
        r = realize(backward_shift_problem(5))
        with pytest.raises(DimensionMismatch):
            lft_solution(r, SchurParameter.constant(np.zeros((1, 7))), 4)


def series_lft(realization: RedhefferRealization, parameter: SchurParameter, order: int) -> MatrixSeries:
    """Reference ``Phi22 + Phi21 V (I - Phi11 V)^{-1} Phi12`` in truncated
    series arithmetic: ``series.mul`` and ``series.inv``, with each sum
    formed on the ``(order + 1, out, in)`` coefficient arrays."""
    phi11, phi12, phi21, phi22 = phi_taylor(realization, order)
    v = MatrixSeries(parameter.coeffs)
    inner = -series.mul(phi11, v, order).coeffs
    inner[0] += np.eye(realization.complement_dim)
    chain = series.mul(series.mul(phi21, v, order), series.inv(MatrixSeries(inner), order), order)
    return MatrixSeries(phi22.coeffs + series.mul(chain, phi12, order).coeffs)


def random_schur_parameter(rng, realization: RedhefferRealization, degree: int) -> SchurParameter:
    """Polynomial parameter whose coefficient norms sum to 0.9, so it is Schur class."""
    coeffs = [random_complex(rng, realization.defect_dim, realization.complement_dim)
              for _ in range(degree + 1)]
    total = sum(spectral_norm(c) for c in coeffs)
    return SchurParameter(tuple(0.9 * c / total if total > 0 else c for c in coeffs))


class TestLftOracle:
    """The closed-loop recursion against series arithmetic on the four ``Phi``s."""

    @pytest.mark.parametrize("degree", range(4))
    @pytest.mark.parametrize("regime", sorted(ORACLE_REGIMES))
    def test_matches_series_lft(self, regime, degree):
        rng = np.random.default_rng(90 + 10 * degree + sorted(ORACLE_REGIMES).index(regime))
        r = realize(ORACLE_REGIMES[regime](rng))
        self.assert_matches_series_lft(r, random_schur_parameter(rng, r, degree), 64)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_series_lft_on_random_problems(self, seed):
        rng = np.random.default_rng(110 + seed)
        r = realize(random_problem(rng))
        self.assert_matches_series_lft(r, random_schur_parameter(rng, r, seed % 4), 80)

    @staticmethod
    def assert_matches_series_lft(r, v, order):
        fast, reference = lft_solution(r, v, order), series_lft(r, v, order)
        assert fast.order == order
        assert (fast.out_dim, fast.in_dim) == (reference.out_dim, reference.in_dim)
        for n in range(order + 1):
            assert np.max(np.abs(fast.coeffs[n] - reference.coeffs[n]), initial=0.0) <= 1e-13

    def test_uses_no_series_products_or_inverses(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("lft_solution must not use series arithmetic")

        monkeypatch.setattr(series, "mul", forbidden)
        monkeypatch.setattr(series, "inv", forbidden)
        rng = np.random.default_rng(120)
        r = realize(random_problem(rng, u_dim=6, y_dim=2, f_dim=3))
        h = lft_solution(r, random_schur_parameter(rng, r, 2), 64)
        assert h.order == 64

    def test_negative_order_rejected(self):
        r = realize(backward_shift_problem(4))
        with pytest.raises(InvalidInput):
            lft_solution(r, SchurParameter.constant(np.zeros((r.defect_dim, r.complement_dim))), -1)


def defect_columns(r: RedhefferRealization) -> np.ndarray:
    """``[D*_Y; D*_U]``: ``D*`` on its defect space, read back from the system."""
    return np.vstack([r.D[r.complement_dim:], r.B])


def with_state_operator(r: RedhefferRealization, z) -> RedhefferRealization:
    """``r`` with its state operator replaced, unvalidated: a broken realization."""
    return dataclasses.replace(r, A=z, validate=False)


def top_bottom_coefficient_matrix(p, r: RedhefferRealization, blocks: int) -> np.ndarray:
    """``[[T_Phi11, Gamma_Phi12], [T_Phi21, Gamma_Phi22]]`` from matrix powers
    of ``r``'s ``Z``, with ``w1 P_F`` from ``p``."""
    d_cols = defect_columns(r)
    d_y, d_u = d_cols[:p.y_dim], d_cols[p.y_dim:]
    powers = [np.linalg.matrix_power(r.A, n) for n in range(blocks)]

    def strip(row, const):
        toeplitz = [const] + [row @ z @ d_u for z in powers[:-1]]
        return np.block([[toeplitz[i - k] if k <= i else np.zeros_like(const) for k in range(blocks)]
                         + [row @ powers[i]] for i in range(blocks)])

    g = r.G.coords()
    return np.vstack([strip(g, np.zeros((r.complement_dim, r.defect_dim))),
                      strip(p.output_row(), d_y)])


@pytest.mark.parametrize("blocks", [1, 4, 16])
@pytest.mark.parametrize("regime", sorted(ORACLE_REGIMES))
def test_audit_matches_top_bottom_layout(regime, blocks):
    rng = np.random.default_rng(130 + sorted(ORACLE_REGIMES).index(regime))
    p = ORACLE_REGIMES[regime](rng)
    r = realize(p)
    matrix = top_bottom_coefficient_matrix(p, r, blocks)
    expected = spectral_norm(matrix @ matrix.conj().T - np.eye(matrix.shape[0]))
    assert abs(coefficient_matrix_audit(r, blocks).deficiency - expected) <= 1e-12
    # the same comparison where the deficiency is far from roundoff
    broken = with_state_operator(r, 0.5 * r.A)
    matrix = top_bottom_coefficient_matrix(p, broken, blocks)
    expected = spectral_norm(matrix @ matrix.conj().T - np.eye(matrix.shape[0]))
    try:
        deficiency = coefficient_matrix_audit(broken, blocks).deficiency
    except AuditFailure as exc:
        deficiency = exc.deviation
    assert abs(deficiency - expected) <= 1e-12 * max(1.0, expected)


def test_negative_control_breaks_the_audit():
    p = backward_shift_problem(5)
    r = realize(p)
    broken = with_state_operator(r, r.A + 0.05 * np.eye(5))
    with pytest.raises(AuditFailure) as excinfo:
        coefficient_matrix_audit(broken, 6)
    assert excinfo.value.deviation > 1e-3


@pytest.mark.parametrize("regime", sorted(ORACLE_REGIMES))
def test_every_series_has_the_dimensions_of_its_map(regime):
    """A series reads its dimensions off its coefficient array; each library
    series must still map the spaces the paper's function maps."""
    rng = np.random.default_rng(140 + sorted(ORACLE_REGIMES).index(regime))
    p = ORACLE_REGIMES[regime](rng)
    r = realize(p)
    y, u, g, d, order = p.y_dim, p.u_dim, r.complement_dim, r.defect_dim, 6
    assert central_taylor(p, order).coeffs.shape == (order + 1, y, u)
    shapes = [phi.coeffs.shape for phi in phi_taylor(r, order)]
    assert shapes == [(order + 1, g, d), (order + 1, g, u), (order + 1, y, d), (order + 1, y, u)]
    for degree in (0, 2):
        h = lft_solution(r, random_schur_parameter(rng, r, degree), order)
        assert h.coeffs.shape == (order + 1, y, u)
    transfer = transfer_from_orbit(r, orbit(r.C, r.A, order))
    assert transfer.coeffs.shape == (order + 1, g + y, d)
