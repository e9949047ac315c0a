from importlib.resources import files

import numpy as np
import pytest

from helpers import (
    ORACLE_REGIMES,
    backward_shift_problem,
    central_resolvent_oracle,
    coisometric_problem,
    random_contraction,
    random_problem,
    random_subspace,
)
from rclkit.errors import DimensionMismatch, InternalContradiction, InvalidInput, NotAContraction
from rclkit.interp import (
    InterpProblem,
    UniquenessKind,
    central_coefficients_coisometric,
    central_taylor,
    is_solution,
    scan_bound,
    second_solution_witness,
    uniqueness,
)
from rclkit.opcore import SubspaceBasis, Tolerances, spectral_norm
from rclkit import redheffer
from rclkit.cli import load_problem_file
from rclkit.redheffer import SchurParameter, lft_solution, realize
from rclkit.series import MatrixSeries


class TestProblemConstruction:
    def test_rejects_expansive_operator(self):
        basis = SubspaceBasis(1, np.eye(1, dtype=complex))
        with pytest.raises(NotAContraction):
            InterpProblem(1, 1, basis, np.array([[1.0]]), np.array([[1.0]]))

    def test_contraction_slack_comes_from_tolerances(self):
        basis = SubspaceBasis(1, np.eye(1, dtype=complex))
        omega1, omega2 = np.array([[1.0 + 1e-8]]), np.zeros((1, 1))
        with pytest.raises(NotAContraction):
            InterpProblem(1, 1, basis, omega1, omega2)
        p = InterpProblem(1, 1, basis, omega1, omega2, Tolerances(contraction_slack=1e-6))
        assert p == InterpProblem(1, 1, basis, omega1, omega2, Tolerances(contraction_slack=1e-7))

    def test_later_writes_to_the_callers_arrays_do_not_reach_the_problem(self):
        basis = np.eye(2, 1, dtype=complex)
        w1, w2 = np.array([[0.5]], dtype=complex), np.array([[0.5], [0.0]], dtype=complex)
        p = InterpProblem(2, 1, SubspaceBasis(2, basis), w1, w2)
        for caller in (basis, w1, w2):
            caller[0, 0] = 5.0
        np.testing.assert_array_equal(p.omega, [[0.5], [0.5], [0.0]])
        np.testing.assert_array_equal(p.F.basis, np.eye(2, 1))
        for stored in (p.omega1, p.omega2, p.F.basis):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0, 0] = 5.0

    def test_subspace_must_live_in_the_state_space(self):
        with pytest.raises(DimensionMismatch, match=r"^F lives in C\^3 but the problem has u_dim=2$"):
            InterpProblem(2, 1, SubspaceBasis(3, np.eye(3, 1)), np.zeros((1, 1)), np.zeros((2, 1)))

    def test_empty_domain_is_legal(self):
        p = random_problem(np.random.default_rng(0), f_dim=0, u_dim=3, y_dim=2)
        assert p.f_dim == 0
        assert central_taylor(p, 2).coeffs[1].shape == (2, 3)


class TestCentralTaylor:
    def test_nilpotent_when_omega2_vanishes(self):
        rng = np.random.default_rng(1)
        basis = random_subspace(rng, 3, 2)
        omega1 = np.array([[0.4, 0.1], [0.0, 0.2]])
        p = InterpProblem(3, 2, basis, omega1, np.zeros((3, 2)))
        h = central_taylor(p, 4)
        assert spectral_norm(h.coeffs[0] - omega1 @ basis.coords()) < 1e-14
        for n in range(1, 5):
            assert spectral_norm(h.coeffs[n]) == 0.0

    def test_backward_shift_golden_coefficients(self):
        p = backward_shift_problem(6)
        h = central_taylor(p, 5)
        expected = np.zeros((6, 1, 6))
        for n in range(5):
            expected[n, 0, n + 1] = 1.0
        for n in range(6):
            np.testing.assert_array_equal(h.coeffs[n], expected[n])

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_sum_matches_resolvent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, y_dim=max(1, seed % 3))
        lam, order = 0.3, 32
        h = central_taylor(p, order)
        # independent oracle: direct linear solve; the partial sum can only
        # miss by the geometric tail of the coefficient bound
        tail = abs(lam) ** (order + 1) / (1 - abs(lam))
        gap = spectral_norm(h.eval(lam) - central_resolvent_oracle(p, lam))
        assert gap <= max(tail, 1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInput):
            central_taylor(backward_shift_problem(4), -1)


class TestIsSolution:
    @pytest.mark.parametrize("seed", range(6))
    def test_central_solution_verifies(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        report = is_solution(p, central_taylor(p, 12))
        assert report.interp_ok and report.ball_ok
        assert report.max_interp_residual <= 1e-12

    @pytest.mark.parametrize("source", ["central", "constant_parameter"])
    @pytest.mark.parametrize("regime", sorted(ORACLE_REGIMES))
    def test_degenerate_regimes(self, regime, source):
        rng = np.random.default_rng(40 + sorted(ORACLE_REGIMES).index(regime))
        p = ORACLE_REGIMES[regime](rng)
        order = 9
        if source == "central":
            h = central_taylor(p, order)
        else:
            r = realize(p)
            v = random_contraction(rng, r.defect_dim, r.complement_dim, 0.5)
            h = lft_solution(r, SchurParameter.constant(v), order)
        report = is_solution(p, h)
        assert len(report.interp_residuals) == order + 1
        assert all(type(res) is float for res in report.interp_residuals)
        assert report.ok
        # the per-coefficient recursion residuals as reference
        basis = p.F.basis
        reference = [spectral_norm(h.coeffs[0] @ basis - p.omega1)]
        reference += [spectral_norm(h.coeffs[n + 1] @ basis - h.coeffs[n] @ p.omega2) for n in range(order)]
        np.testing.assert_allclose(report.interp_residuals, reference, rtol=0, atol=1e-14)

    def test_overflowing_gram_is_invalid_input(self):
        p = backward_shift_problem(6)
        large = is_solution(p, MatrixSeries(np.full((3, 1, 6), 1e153 + 0j)))
        assert not large.ball_ok and np.isfinite(large.gram_excess)
        with pytest.raises(InvalidInput, match="overflow"):
            is_solution(p, MatrixSeries(np.full((3, 1, 6), 1e200 + 0j)))

    def test_candidate_needs_h0_and_h1(self):
        with pytest.raises(InvalidInput, match="^candidate series must carry at least coefficients h0 and h1$"):
            is_solution(backward_shift_problem(4), MatrixSeries(np.zeros((1, 1, 4))))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 4)])
    def test_candidate_must_map_u_into_y(self, shape):
        out_dim, in_dim = shape
        with pytest.raises(DimensionMismatch, match=f"^series maps {in_dim}->{out_dim}, problem needs 4->1$"):
            is_solution(backward_shift_problem(4), MatrixSeries(np.zeros((3, *shape))))

    def test_zero_series_fails_at_constant_term(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, y_dim=1, f_dim=2, u_dim=3)
        report = is_solution(p, MatrixSeries(np.zeros((5, 1, 3))))
        assert not report.interp_ok
        assert report.interp_residuals[0] > 1e-3
        assert report.ball_ok

    def test_ball_violation_detected(self):
        # recursion-compatible coefficients whose Gram exceeds the unit ball:
        # add a large constant on the complement of F
        p = backward_shift_problem(4)
        h = central_taylor(p, 4)
        coeffs = list(h.coeffs)
        bumped = coeffs[0].copy()
        bumped[0, 0] = 1.2  # e0 lies outside F, recursion is untouched
        coeffs[0] = bumped
        report = is_solution(p, MatrixSeries(tuple(coeffs)))
        assert report.interp_ok
        assert not report.ball_ok
        assert report.gram_excess > 0.1

    def test_gram_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, y_dim=2)
        h = central_taylor(p, 15)
        prev = np.zeros((p.u_dim, p.u_dim), dtype=complex)
        for n in range(16):
            gram = prev + h.coeffs[n].conj().T @ h.coeffs[n]
            assert np.linalg.eigvalsh(gram - prev).min() >= -1e-8
            prev = gram
        assert np.linalg.eigvalsh((1 + 1e-9) * np.eye(p.u_dim) - prev).min() >= -1e-8


class TestUniqueness:
    def test_full_domain(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, u_dim=4, f_dim=4, y_dim=2)
        assert uniqueness(p).kind is UniquenessKind.FULL_DOMAIN

    def test_trivial_output_space(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, u_dim=4, f_dim=2, y_dim=0)
        assert uniqueness(p).kind is UniquenessKind.COISOMETRIC_CHAIN

    def test_backward_shift_fails_at_last_index(self):
        p = backward_shift_problem(6)
        verdict = uniqueness(p)
        assert verdict.kind is UniquenessKind.NOT_UNIQUE
        assert verdict.failing_n == 5
        assert verdict.failing_n <= scan_bound(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_failure_index_within_bound(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, y_dim=int(rng.integers(1, 4)))
        verdict = uniqueness(p)
        if verdict.kind is UniquenessKind.NOT_UNIQUE:
            assert verdict.failing_n <= scan_bound(p)

    def test_too_loose_identity_tol_is_a_contradiction(self):
        # with identity_tol 10 every chain step passes as a co-isometry, which
        # scan_bound proves impossible for y_dim > 0
        p = backward_shift_problem(6)
        loose = InterpProblem(p.u_dim, p.y_dim, p.F, p.omega1, p.omega2, Tolerances(identity_tol=10.0))
        with pytest.raises(InternalContradiction, match="identity_tol is too loose$"):
            uniqueness(loose)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng)
        assert uniqueness(p) == uniqueness(p)


class TestCentralCoisometry:
    def test_trivial_output_space_is_coisometric(self):
        rng = np.random.default_rng(7)
        p = random_problem(rng, u_dim=3, f_dim=2, y_dim=0)
        assert central_coefficients_coisometric(p, 4)

    def test_backward_shift_is_not(self):
        p = backward_shift_problem(6)
        assert not central_coefficients_coisometric(p, 6)

    def test_order_below_bound_rejected(self):
        p = backward_shift_problem(6)
        with pytest.raises(InvalidInput):
            central_coefficients_coisometric(p, 2)

    def test_trivial_output_space_needs_order_one(self):
        # scan_bound is 0 when Y = {0}: every order decides, so one past it suffices
        p = random_problem(np.random.default_rng(9), u_dim=5, f_dim=3, y_dim=0)
        assert scan_bound(p) == 0
        assert central_coefficients_coisometric(p, scan_bound(p) + 1)
        with pytest.raises(InvalidInput, match="below the decisive bound 1"):
            central_coefficients_coisometric(p, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_uniqueness_verdict_off_full_domain(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = random_problem(rng)
        if p.f_dim == p.u_dim:
            return
        order = p.f_dim // max(1, p.y_dim) + 1
        expected = uniqueness(p).kind is UniquenessKind.COISOMETRIC_CHAIN
        assert central_coefficients_coisometric(p, order) == expected


class TestSecondSolutionWitness:
    def test_unique_problem_has_no_witness(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng, u_dim=3, f_dim=3, y_dim=1)
        assert second_solution_witness(p) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_is_a_verified_second_solution(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = random_problem(rng, y_dim=int(rng.integers(1, 4)))
        if uniqueness(p).kind is not UniquenessKind.NOT_UNIQUE:
            p = random_problem(rng, u_dim=4, f_dim=2, y_dim=1)
        witness = second_solution_witness(p, order=16, seed=seed)
        assert witness is not None
        assert witness.gap > 1e-6
        assert witness.first_diff_index <= 16
        report = is_solution(p, witness.solution)
        assert report.interp_ok and report.ball_ok
        central_report = is_solution(p, central_taylor(p, 16))
        assert central_report.interp_ok and central_report.ball_ok

    def test_backward_shift_difference_is_localized(self):
        p = backward_shift_problem(6)
        witness = second_solution_witness(p, order=12, seed=0)
        assert witness.first_diff_index >= 5

    def test_witness_deterministic_given_seed(self):
        # the construction draws nothing at random: every seed gives one witness
        p = backward_shift_problem(5)
        w1 = second_solution_witness(p, order=10, seed=0)
        w2 = second_solution_witness(p, order=10, seed=42)
        np.testing.assert_array_equal(w1.parameter, w2.parameter)
        np.testing.assert_array_equal(w1.solution.coeffs, w2.solution.coeffs)

    def test_order_below_failing_index_rejected(self, monkeypatch):
        def no_realization(*args):
            raise AssertionError("realization built for an order that cannot separate")

        monkeypatch.setattr(redheffer, "realize", no_realization)
        with pytest.raises(InvalidInput, match=r"order 3 .* index 5"):
            second_solution_witness(backward_shift_problem(6), order=3)

    def test_one_construction_per_witness(self, monkeypatch):
        calls = {"phi_taylor": 0, "lft_solution": 0, "phi_eval": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(redheffer, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(redheffer, name, counted)

        class NoRandom:
            def __getattr__(self, attr):
                raise AssertionError(f"numpy.random.{attr} used by the witness")

        p = random_problem(np.random.default_rng(210), u_dim=7, y_dim=2, f_dim=4)
        monkeypatch.setattr(np, "random", NoRandom())
        assert second_solution_witness(p, order=16) is not None
        assert calls == {"phi_taylor": 1, "lft_solution": 1, "phi_eval": 0}


EXAMPLES = files("rclkit").joinpath("examples")

#: Seeded problem makers: generic random problems with ``y`` in {1, 2, 3},
#: backward shifts of every length 2..12 and the bundled examples.
WITNESS_CASES = {
    **{f"random-y{y}-{seed}": lambda y=y, seed=seed: random_problem(np.random.default_rng(1000 * y + seed), y_dim=y)
       for y in (1, 2, 3) for seed in range(12)},
    **{f"shift{n}": lambda n=n: backward_shift_problem(n) for n in range(2, 13)},
    **{name: lambda name=name: load_problem_file(str(EXAMPLES / f"{name}.json")).problem()
       for name in ("classical_cl", "ex22_trunc6", "relaxed_np_n4")},
}


@pytest.mark.parametrize("case", list(WITNESS_CASES))
def test_solutions_first_differ_at_the_chain_failure_index(case):
    # the paper's condition seen from the solution side: two solutions can
    # first differ exactly where the co-isometry chain first fails
    p = WITNESS_CASES[case]()
    verdict = uniqueness(p)
    witness = second_solution_witness(p, order=16)
    if verdict.unique:
        assert witness is None
        return
    assert witness.first_diff_index == verdict.failing_n
    assert is_solution(p, witness.solution).ok
    assert witness.gap > 0.5


@pytest.mark.parametrize("seed", range(10))
def test_recursion_identity_property(seed):
    rng = np.random.default_rng(300 + seed)
    p = random_problem(rng)
    h = central_taylor(p, 20)
    basis = p.F.basis
    assert spectral_norm(h.coeffs[0] @ basis - p.omega1) <= 1e-12
    for n in range(20):
        assert spectral_norm(h.coeffs[n + 1] @ basis - h.coeffs[n] @ p.omega2) <= 1e-12


def test_coisometric_problem_is_unique():
    p = coisometric_problem(np.random.default_rng(12))
    assert uniqueness(p).unique
