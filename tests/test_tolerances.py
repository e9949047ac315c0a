"""Every check on a data set or problem uses the tolerances that input carries.

Each case below is one input whose verdict, or exception, differs between
``DEFAULT_TOL`` and a changed ``Tolerances`` stored on the ``DataSet`` or
``InterpProblem``; none of these functions takes a tolerance of its own.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from rclkit import dataset, interp, lifting, redheffer
from rclkit.dataset import DataSet, preset_relaxed_rq
from rclkit.errors import (
    AuditFailure,
    IllPosedData,
    InternalContradiction,
    InvalidInput,
    NotContractive,
    RclkitError,
)
from rclkit.interp import InterpProblem
from rclkit.opcore import DEFAULT_TOL, SubspaceBasis, Tolerances
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
    s = r.system
    return dataclasses.replace(r, system=CoisometricSystem(s.A + 1e-5 * np.eye(2), s.B, s.C, s.D, validate=False))


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
