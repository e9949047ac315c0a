"""Linear-fractional parametrization of all solutions of an interpolation problem.

With ``G = U (-) F``, ``Z = w2 P_F`` and ``D*`` the defect operator of the
adjoint of the stacked contraction, the four coefficient functions

    ``Phi11(lam) = lam P_G (I - lam Z)^{-1} P_U D*``
    ``Phi12(lam) =     P_G (I - lam Z)^{-1}``
    ``Phi21(lam) = P_Y D* + lam w1 P_F (I - lam Z)^{-1} P_U D*``
    ``Phi22(lam) =          w1 P_F (I - lam Z)^{-1}``

share one state operator ``Z``, and every solution of the problem arises as

    ``H(lam) = Phi22(lam) + Phi21(lam) V(lam) (I - Phi11(lam) V(lam))^{-1} Phi12(lam)``

for a Schur-class parameter ``V`` mapping ``G`` into the adjoint defect
space. ``Phi22`` is exactly the central solution, so ``V = 0`` recovers it.

Sharing ``Z``, the four functions are one ``sysco.CoisometricSystem``
``{Z, D*_U, [P_G; w1 P_F], [0; D*_Y]}`` with transfer function
``[Phi11; Phi21]`` and observability function ``[Phi12; Phi22]``: their
expansions, the truncated coefficient operator and its row-Gram audit (a
finite exact sum, so roundoff at every block count) are that system's.
Each ``H_V`` is a system too: closing the loop through a polynomial ``V``
of degree ``m`` gives state size ``u + m dim G`` and coefficients in O(N)
small products (``lft_solution``); for constant ``V``,
``h_n = (w1 P_F + D*_Y V P_G)(Z + D*_U V P_G)^n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AuditFailure, DimensionMismatch, InternalContradiction, InvalidParameter, OutOfDisc
from .opcore import (
    DEFAULT_TOL,
    CMatrix,
    SubspaceBasis,
    Tolerances,
    adjoint,
    as_cmatrix,
    defect,
    require_contraction,
)
from .series import MatrixSeries
from .sysco import (
    CoisometricSystem,
    gram_identity_audit,
    orbit,
    stacked_operator,
    transfer_from_orbit,
)

if TYPE_CHECKING:
    from .interp import InterpProblem


@dataclass(frozen=True)
class RedhefferRealization:
    """Shared state-space data realizing the four coefficient functions.

    ``DstarSpace`` spans the range closure of ``D*``, the defect operator of
    the adjoint of the padded contraction, inside ``C^(y+u)`` (``Y`` on top
    of ``U``); ``system.B`` and ``system.D`` hold ``D*`` on that space.
    """

    problem: InterpProblem
    G: SubspaceBasis                # complement of F inside C^u
    DstarSpace: SubspaceBasis       # inside C^(y+u)
    #: ``{Z, D*_U, [P_G; w1 P_F], [0; D*_Y]}`` with ``Z = w2 P_F``: transfer
    #: function ``[Phi11; Phi21]``, observability function ``[Phi12; Phi22]``.
    system: CoisometricSystem

    @property
    def defect_dim(self) -> int:
        return self.DstarSpace.dim

    @property
    def complement_dim(self) -> int:
        return self.G.dim


def realize(problem: InterpProblem) -> RedhefferRealization:
    """Build the shared realization; its system's constructor audits the
    defining block identity.

    The block matrix ``[[Z, D*_U], [P_G, 0], [w1 P_F, D*_Y]]`` of
    ``realization.system`` must be a co-isometry; a deviation beyond the
    problem's ``identity_tol`` means the realization is internally
    inconsistent.

    Raises:
        InternalContradiction: when that audit fails.
    """
    tol = problem.tol
    dstar, dspace = defect(adjoint(problem.omega), tol)    # defect of the adjoint
    cols = dstar @ dspace.basis                              # D* on its defect space
    g = problem.complement()
    output = np.vstack([g.coords(), problem.output_row()])
    feedthrough = np.vstack([np.zeros((g.dim, dspace.dim), dtype=np.complex128), cols[:problem.y_dim]])
    try:
        system = CoisometricSystem(problem.state_operator(), cols[problem.y_dim:], output, feedthrough, tol=tol)
    except AuditFailure as exc:
        raise InternalContradiction(
            f"realization block identity deviates by {exc.deviation:.3e} (tol {tol.identity_tol:.1e})"
        ) from exc
    return RedhefferRealization(problem, g, dspace, system)


def phi_eval(realization: RedhefferRealization, lam: complex):
    """Evaluate the four coefficient functions at one point of the open disc.

    A single linear solve with ``I - lam Z`` is shared by all four values.

    Raises:
        OutOfDisc: for ``abs(lam) >= 1``.
    """
    if abs(lam) >= 1.0:
        raise OutOfDisc(f"evaluation point {lam!r} lies outside the open unit disc")
    s, g, u = realization.system, realization.complement_dim, realization.problem.u_dim
    g_coords, out_row, d_y = s.C[:g], s.C[g:], s.D[g:]
    rhs = np.hstack([s.B, np.eye(u, dtype=np.complex128)])
    resolvent = np.linalg.solve(np.eye(u, dtype=np.complex128) - lam * s.A, rhs)
    r_du, r_full = resolvent[:, : s.in_dim], resolvent[:, s.in_dim:]
    phi11 = lam * (g_coords @ r_du)
    phi12 = g_coords @ r_full
    phi21 = d_y + lam * (out_row @ r_du)
    phi22 = out_row @ r_full
    return phi11, phi12, phi21, phi22


def phi_taylor(realization: RedhefferRealization, order: int):
    """Taylor coefficients of the four functions to the given order.

    The transfer coefficients of ``realization.system`` split into
    ``Phi11`` over ``Phi21``, its observability coefficients into ``Phi12``
    over ``Phi22``; one ``orbit`` gives both. The ``Phi22`` coefficients
    are the central solution's, and ``Phi11`` has zero constant term.
    """
    s, g = realization.system, realization.complement_dim
    observ = orbit(s.C, s.A, order)
    transfer = transfer_from_orbit(s, observ).coeffs
    return (
        MatrixSeries(transfer[:, :g]),
        MatrixSeries(observ[:, :g]),
        MatrixSeries(transfer[:, g:]),
        MatrixSeries(observ[:, g:]),
    )


def truncated_coefficient_matrix(realization: RedhefferRealization, blocks: int) -> CMatrix:
    """The ``blocks``-block truncation of the stacked coefficient operator,
    its rows ordered by block index (``G`` over ``Y`` within each block)."""
    return stacked_operator(realization.system, blocks)


@dataclass(frozen=True)
class CoefficientAudit:
    blocks: int
    deficiency: float       # norm of (row Gram - identity)


def coefficient_matrix_audit(realization: RedhefferRealization, blocks: int) -> CoefficientAudit:
    """Check the row Gram of the truncated coefficient operator against the identity.

    This is the stacked Gram identity of ``realization.system``. Every entry
    of the row Gram is a finite exact sum, so the deficiency is pure
    roundoff for any block count; a larger value is a hard failure.

    Raises:
        AuditFailure: when the deficiency exceeds the problem's ``identity_tol``.
    """
    return CoefficientAudit(blocks, gram_identity_audit(realization.system, blocks, realization.problem.tol))


@dataclass(frozen=True)
class SchurParameter(MatrixSeries):
    """Polynomial free parameter with contractive multiplication operator.

    A ``MatrixSeries`` of degree ``m``: ``coeffs[k]`` maps ``G`` (dimension
    ``in_dim``) into the adjoint defect space (dimension ``out_dim``).
    Contractivity (``opcore.require_contraction``, else ``InvalidParameter``)
    is checked on the block-Toeplitz truncation of all coefficients, which
    bounds the multiplication-operator norm from below; exact Schur-class
    membership of a polynomial would be a semi-infinite condition.
    """

    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        multiplication = self.toeplitz(self.order + 1)
        require_contraction(multiplication, self.tol, InvalidParameter, "parameter multiplication norm")

    @classmethod
    def constant(cls, value, tol: Tolerances = DEFAULT_TOL) -> "SchurParameter":
        return cls((as_cmatrix(value),), tol)


def lft_solution(
    realization: RedhefferRealization, parameter: SchurParameter, order: int
) -> MatrixSeries:
    """Taylor coefficients of the solution generated by a free parameter.

    ``H_V`` is the transfer function of a closed loop: the state ``x`` of
    the shared realization feeds ``g = P_G x`` through ``V`` back into the
    adjoint defect channel, ``e_n = sum_k V_k g_{n-k}``, so that
    ``x_{n+1} = Z x_n + D*_U e_n`` and ``h_n = w1 P_F x_n + D*_Y e_n``.
    For ``V = V_0 + ... + V_m lam^m`` the stacked state
    ``[x; g_{n-1}; ...; g_{n-m}]`` has size ``u + m dim G``, and
    ``h_n = (C A^n)[:, :u]`` with

        ``A = [[Z + D*_U V_0 P_G, D*_U V_1, ..., D*_U V_m],
               [P_G,              0,        ...,  0      ],
               [0,                I,        ...,  0      ], ...]``
        ``C =  [w1 P_F + D*_Y V_0 P_G, D*_Y V_1, ..., D*_Y V_m]``

    (the identity blocks shift the ``g`` register down). The rows of
    ``C A^n`` are ``sysco.orbit``, as for ``interp.central_taylor``: one
    small matrix product per order, with no series product and no series
    inverse. The
    loop is well posed for every parameter because ``Phi11`` vanishes at 0;
    ``V = 0`` gives back the central solution.
    """
    if (parameter.out_dim, parameter.in_dim) != (realization.defect_dim, realization.complement_dim):
        raise DimensionMismatch(
            f"parameter is {parameter.out_dim}x{parameter.in_dim}, expected "
            f"{realization.defect_dim}x{realization.complement_dim}"
        )
    s, g_dim = realization.system, realization.complement_dim
    u, y = s.state_dim, realization.problem.y_dim
    d_u, p_g, out_row, d_y = s.B, s.C[:g_dim], s.C[g_dim:], s.D[g_dim:]
    v0, v_tail = parameter.coeffs[0], parameter.coeffs[1:]
    size = u + len(v_tail) * g_dim

    a = np.zeros((size, size), dtype=np.complex128)
    c = np.zeros((y, size), dtype=np.complex128)
    a[:u, :u] = s.A + d_u @ v0 @ p_g
    c[:, :u] = out_row + d_y @ v0 @ p_g
    if len(v_tail):
        v_rest = np.hstack(v_tail)
        a[:u, u:] = d_u @ v_rest
        c[:, u:] = d_y @ v_rest
        a[u:u + g_dim, :u] = p_g
        a[u + g_dim:, u:size - g_dim] = np.eye(size - u - g_dim)

    return MatrixSeries(orbit(c, a, order)[:, :, :u])
