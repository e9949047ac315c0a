"""Every check on a data set or problem uses the tolerances that input carries.

Each case below is one input whose verdict, or exception, differs between
``DEFAULT_TOL`` and a changed ``Tolerances`` stored on the ``DataSet``,
``InterpProblem`` or ``CoisometricSystem``; none of these functions takes a
tolerance of its own.
"""

import dataclasses
import inspect
from fractions import Fraction

import numpy as np
import pytest

from helpers import haar_isometry, knife_edge, knife_edge_matrix
from rclkit import dataset, interp, lifting, opcore, redheffer, sysco
from rclkit.dataset import DataSet, preset_relaxed_rq
from rclkit.errors import (
    AuditFailure,
    IllPosedData,
    InternalContradiction,
    InvalidInput,
    NotAContraction,
    NotContractive,
    RclkitError,
)
from rclkit.interp import InterpProblem
from rclkit.opcore import DEFAULT_TOL, SubspaceBasis, Tolerances, spectral_norm
from rclkit.series import MatrixSeries
from rclkit.sysco import CoisometricSystem

LOOSE_IDENTITY = Tolerances(identity_tol=1e-2)
LOOSE_SLACK = Tolerances(contraction_slack=1e-6)


def near_intertwining(tol):
    """``T'AR - AQ`` has norm 1e-3."""
    return DataSet(np.eye(1), 0.999 * np.eye(1), np.eye(1), np.eye(1), tol)


def slightly_expansive_a(tol):
    """``norm(A) = 1 + 1e-8``; every other constraint holds exactly."""
    return DataSet((1 + 1e-8) * np.eye(2), np.eye(2), np.eye(2), np.eye(2), tol)


def nearly_strict_a(tol):
    """``norm(A) = 0.99``, left-invertible ``R``, ``Q`` onto ``H``; ``T' = I``
    keeps ``T'AR = AQ`` exact."""
    return DataSet(0.99 * np.eye(2), np.eye(2), np.eye(2), np.eye(2), tol)


def small_defect_eigenvalue(tol):
    """``I - A*A`` has eigenvalues 0 and about 2e-7."""
    return DataSet(np.diag([1.0, 1 - 1e-7]), np.eye(2), np.eye(2), np.eye(2), tol)


def sliding_block(tol):
    """Scalar sliding-block ``R, Q`` with ``norm(A) = 1 - 1e-4``; ``T'A R``
    and ``A Q`` both vanish."""
    r, q = preset_relaxed_rq(2, 1)
    return DataSet(np.diag([1 - 1e-4, 0.0]), np.diag([0.0, 0.5]), r, q, tol)


def zero_data(tol):
    return DataSet(np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1), np.eye(1), tol)


def line_problem(w1, w2, tol):
    """``U = C^2``, ``Y = C``, ``F`` spanned by the first basis vector."""
    return InterpProblem(2, 1, SubspaceBasis(2, np.eye(2)[:, :1]), np.array([[w1]]), np.array([[w2], [0.0]]), tol)


def near_coisometric_w1(tol):
    """``w1 w1* = 1 - 2e-4``: the chain fails at 0, or at 1 with ``identity_tol`` 1e-3."""
    return line_problem(0.9999, 0.01, tol)


def perturbed_central(tol):
    """The central solution of :func:`near_coisometric_w1` with 1e-4 added to ``h_0``."""
    h = interp.central_taylor(near_coisometric_w1(tol), 4)
    return MatrixSeries(h.coeffs + 1e-4 * (np.arange(5) == 0)[:, None, None])


def nearly_coisometric_omega(tol):
    """The adjoint defect has an eigenvalue of about 2e-5."""
    return line_problem(1 - 1e-5, 0.0, tol)


def broken_realization(tol):
    """The realization of :func:`nearly_coisometric_omega` with ``Z`` shifted by 1e-5."""
    r = redheffer.realize(nearly_coisometric_omega(tol))
    return dataclasses.replace(r, A=r.A + 1e-5 * np.eye(2), validate=False)


def nearly_coisometric_system(tol):
    """The unitary dilation of ``1/2`` with ``D`` moved by 1e-5: its Gram
    identity deviates by about 1e-5."""
    s = sysco.julia_system(np.array([[0.5]]))
    return CoisometricSystem(s.A, s.B, s.C, s.D + 1e-5, validate=False, tol=tol)


#: function -> (changed tolerances, verdict of a call at given tolerances,
#: verdict at ``DEFAULT_TOL``, verdict at the changed tolerances); an
#: exception type stands for the call raising it.
CASES = {
    dataset.validate: (
        LOOSE_IDENTITY, lambda tol: dataset.validate(near_intertwining(tol)).ok, False, True),
    dataset.underlying_contraction: (
        LOOSE_SLACK, lambda tol: dataset.underlying_contraction(slightly_expansive_a(tol)).tol,
        IllPosedData, LOOSE_SLACK),
    dataset.suboptimal_uniqueness: (
        # I - A*A = 0.0199 I: A is strict at the default cut, norm one at rank_tol 0.1
        Tolerances(rank_tol=0.1), lambda tol: dataset.suboptimal_uniqueness(nearly_strict_a(tol)).decision,
        dataset.Decision.UNIQUE, dataset.Decision.NOT_APPLICABLE),
    dataset.perpendicularity_report: (
        Tolerances(rank_tol=1e-6), lambda tol: dataset.perpendicularity_report(small_defect_eigenvalue(tol)).kernel_dim,
        1, 2),
    dataset.norm_one_rq_uniqueness: (
        # I - A*A has the eigenvalue 2e-4: norm one at rank_tol 1e-3, with the trichotomy
        Tolerances(rank_tol=1e-3), lambda tol: dataset.norm_one_rq_uniqueness(sliding_block(tol)).decision,
        dataset.Decision.NOT_UNIQUE, dataset.Decision.UNIQUE),
    lifting.interpolant_from_solution: (
        LOOSE_SLACK,
        lambda tol: lifting.interpolant_from_solution(zero_data(tol), MatrixSeries([[[1 + 1e-8]]]), 1).shape,
        NotContractive, (2, 1)),
    lifting.verify_rclt: (
        LOOSE_IDENTITY, lambda tol: lifting.verify_rclt(near_intertwining(tol), np.array([[1.0], [0.0]]), 1).intertwine_ok,
        False, True),
    interp.is_solution: (
        Tolerances(identity_tol=1e-3),
        lambda tol: interp.is_solution(near_coisometric_w1(tol), perturbed_central(tol)).interp_ok,
        False, True),
    interp.uniqueness: (
        Tolerances(identity_tol=1e-3), lambda tol: interp.uniqueness(near_coisometric_w1(tol)).failing_n, 0, 1),
    interp.central_coefficients_coisometric: (
        # h_0 = [1, 0] and h_1 = h_2 = 0: the stacked deficiency is exactly 1
        Tolerances(identity_tol=1.0),
        lambda tol: interp.central_coefficients_coisometric(line_problem(1.0, 0.0, tol), 2), False, True),
    interp.second_solution_witness: (
        Tolerances(identity_tol=1e-3),
        lambda tol: interp.second_solution_witness(near_coisometric_w1(tol), 0).first_diff_index,
        0, InvalidInput),
    redheffer.realize: (
        Tolerances(rank_tol=1e-4), lambda tol: redheffer.realize(nearly_coisometric_omega(tol)).defect_dim,
        3, InternalContradiction),
    redheffer.coefficient_matrix_audit: (
        Tolerances(identity_tol=1e-3), lambda tol: redheffer.coefficient_matrix_audit(broken_realization(tol), 4).blocks,
        AuditFailure, 4),
    sysco.gram_identity_audit: (
        Tolerances(identity_tol=1e-3), lambda tol: sysco.gram_identity_audit(nearly_coisometric_system(tol), 4) > 1e-8,
        AuditFailure, True),
}


def verdict_at(case, tol):
    try:
        return case(tol)
    except RclkitError as exc:
        return type(exc)


@pytest.mark.parametrize("function", CASES, ids=lambda f: f.__name__)
def test_verdict_follows_the_inputs_tolerances(function):
    changed, case, at_default, at_changed = CASES[function]
    assert verdict_at(case, DEFAULT_TOL) == at_default
    assert verdict_at(case, changed) == at_changed


@pytest.mark.parametrize("function", CASES, ids=lambda f: f.__name__)
def test_takes_no_tolerance_of_its_own(function):
    assert "tol" not in inspect.signature(function).parameters


#: Every contraction check of the library, each on a matrix of norm ``x``:
#: it raises, or returns False, when it rejects that norm.
CONTRACTION_CHECKS = {
    "defect": lambda x, tol: opcore.defect(np.array([[x]]), tol),
    "InterpProblem": lambda x, tol: line_problem(x, 0.0, tol),
    "SchurParameter.constant": lambda x, tol: redheffer.SchurParameter.constant(np.array([[x]]), tol),
    # T' = R = Q = I: the contraction of A is the only constraint in question
    "validate": lambda x, tol: dataset.validate(DataSet(np.array([[x]]), np.eye(1), np.eye(1), np.eye(1), tol)).ok,
    # the interpolant is [0; x]
    "interpolant_from_solution": lambda x, tol: lifting.interpolant_from_solution(
        zero_data(tol), MatrixSeries([[[x]]]), 1),
}


@pytest.mark.parametrize("slack, x", list(knife_edge()))
def test_every_contraction_check_gives_one_verdict_at_the_knife_edge(slack, x):
    # fl(1 + 1e-10) - 1 = 1.0000000827e-10 is past the slack: the rule is
    # ``norm - 1 > contraction_slack`` at every site, not ``norm > 1 + slack``
    assert spectral_norm(np.array([[x]])) == x
    tol = Tolerances(contraction_slack=slack)
    verdicts = {name: verdict_at(lambda t: check(x, t), tol) for name, check in CONTRACTION_CHECKS.items()}
    accepted = {name: verdict is not False and not isinstance(verdict, type) for name, verdict in verdicts.items()}
    assert set(accepted.values()) == {x - 1.0 <= slack}, verdicts


def knife_edge_draws(size, draws=120):
    """``(rng, tol)`` for seeded knife-edge matrices of one size, half of them
    at each ``contraction_slack`` of :func:`helpers.knife_edge`."""
    rng = np.random.default_rng(1000 + size)
    for draw in range(draws):
        yield rng, Tolerances(contraction_slack=(1e-10, 1e-6)[draw % 2])


@pytest.mark.parametrize("size", range(2, 9))
def test_validate_accepts_a_data_set_iff_its_defect_exists_at_the_knife_edge(size):
    verdicts = []
    for rng, tol in knife_edge_draws(size):
        rows = int(rng.integers(2, 9))
        a = knife_edge_matrix(rng, rows, size, tol.contraction_slack)
        data = DataSet(a, np.zeros((rows, rows)), np.zeros((size, 0)), np.zeros((size, 0)), tol)
        valid = dataset.validate(data).ok
        try:
            data.defect_a
        except NotAContraction:
            assert not valid, f"validate accepts A of norm {spectral_norm(a)!r}, defect_a rejects it"
        else:
            assert valid, f"validate rejects A of norm {spectral_norm(a)!r}, defect_a accepts it"
        verdicts.append(valid)
    assert set(verdicts) == {True, False}    # the draws straddle the edge


@pytest.mark.parametrize("size", range(2, 9))
def test_a_problem_is_admitted_iff_the_measured_norm_of_its_adjoint_passes_at_the_knife_edge(size):
    # realize takes the defect of omega* with no contraction check of its
    # own, trusting the one its problem made: that check must be the
    # measured rule on omega*, and realize must then run
    verdicts = []
    for rng, tol in knife_edge_draws(size):
        y, f = int(rng.integers(0, 4)), int(rng.integers(1, size + 1))
        w = knife_edge_matrix(rng, y + size, f, tol.contraction_slack)
        nrm = spectral_norm(opcore.adjoint(w))
        try:
            problem = InterpProblem(size, y, SubspaceBasis(size, haar_isometry(rng, size, f)), w[:y], w[y:], tol)
        except NotAContraction:
            assert opcore.exceeds_one(nrm, tol), f"InterpProblem rejects omega* of measured norm {nrm!r}"
            verdicts.append(False)
            continue
        assert not opcore.exceeds_one(nrm, tol), f"InterpProblem admits omega* of measured norm {nrm!r}"
        verdicts.append(True)
        try:
            redheffer.realize(problem)
        except InternalContradiction:
            pass    # a norm past 1 can miss the block identity by more than identity_tol
    assert set(verdicts) == {True, False}    # the draws straddle the edge


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("name", ["rank_tol", "contraction_slack", "identity_tol"])
def test_tolerances_reject_bools(name, value):
    with pytest.raises(InvalidInput, match=f"^tolerance {name} must be a nonnegative finite real"):
        Tolerances(**{name: value})


def test_tolerances_name_an_integer_beyond_the_float_range():
    with pytest.raises(InvalidInput, match="^tolerance rank_tol is too large for a float$"):
        Tolerances(rank_tol=10**400)


@pytest.mark.parametrize("value", [1, np.float32(1e-3), Fraction(1, 3), np.int64(2)])
@pytest.mark.parametrize("name", ["rank_tol", "contraction_slack", "identity_tol"])
def test_tolerances_store_floats(name, value):
    stored = getattr(Tolerances(**{name: value}), name)
    assert type(stored) is float and stored == float(value)


def test_fraction_tolerances_reach_the_realization_audit():
    # the audit's message formats identity_tol with ``.1e``, which a Fraction
    # does not support on every Python version
    tol = Tolerances(rank_tol=Fraction(1, 10**4), identity_tol=Fraction(1, 10**8))
    with pytest.raises(InternalContradiction, match=r"\(tol 1\.0e-08\)$"):
        redheffer.realize(nearly_coisometric_omega(tol))
