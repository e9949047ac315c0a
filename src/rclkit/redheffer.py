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

Because the four functions share ``Z``, each ``H_V`` is itself a
state-space system: closing the loop through a polynomial ``V`` of degree
``m`` gives a realization with state size ``u + m dim G`` whose Taylor
coefficients follow from one matrix recursion, O(N) small products up to
order ``N`` (``lft_solution``). For constant ``V`` it reads
``h_n = (w1 P_F + D*_Y V P_G)(Z + D*_U V P_G)^n``. No truncated series
product or inverse is needed; ``phi_taylor`` serves the audits.

The stacked multiplication/coefficient operator built from the four
functions is a co-isometry; because block row ``i`` of its truncation only
involves coefficients ``0..i``, each entry of the truncated row Gram is a
finite exact sum and the audit here holds to roundoff at every block count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AuditFailure,
    DimensionMismatch,
    InternalContradiction,
    InvalidInput,
    InvalidParameter,
    OutOfDisc,
)
from .interp import InterpProblem
from .opcore import (
    CMatrix,
    SubspaceBasis,
    Tolerances,
    _resolve_tol,
    adjoint,
    as_cmatrix,
    defect,
    spectral_norm,
)
from .series import MatrixSeries


@dataclass(frozen=True)
class RedhefferRealization:
    """Shared state-space data realizing the four coefficient functions.

    ``Dstar`` is the full (y+u) x (y+u) defect operator of the adjoint of
    the padded contraction; ``DstarSpace`` spans its range closure. The
    coordinates follow the stacking ``Y`` on top of ``U``.
    """

    problem: InterpProblem
    Z: CMatrix                      # u x u state operator w2 P_F
    Dstar: CMatrix                  # (y+u) x (y+u)
    DstarSpace: SubspaceBasis       # inside C^(y+u)
    G: SubspaceBasis                # complement of F inside C^u

    @property
    def defect_dim(self) -> int:
        return self.DstarSpace.dim

    @property
    def complement_dim(self) -> int:
        return self.G.dim

    def defect_columns(self) -> CMatrix:
        """``D*`` restricted to its defect space: a (y+u) x defect_dim matrix."""
        return self.Dstar @ self.DstarSpace.basis

    def _split_defect_columns(self) -> tuple[CMatrix, CMatrix]:
        cols = self.defect_columns()
        y = self.problem.y_dim
        return cols[:y, :], cols[y:, :]


def realize(problem: InterpProblem, tol: Tolerances | None = None) -> RedhefferRealization:
    """Build the shared realization and audit its defining block identity.

    The block matrix ``[[w P_F, D*], [P_G, 0]]`` from ``U (+) defect`` into
    ``(Y (+) U) (+) G`` must be a co-isometry; a deviation beyond
    ``identity_tol`` means the realization is internally inconsistent.
    """
    tol = _resolve_tol(tol)
    w_hat = problem.omega @ problem.F.coords()             # (y+u) x u
    dstar, dspace = defect(adjoint(problem.omega), tol)    # defect of the adjoint
    g = problem.complement()
    realization = RedhefferRealization(problem, problem.state_operator(), dstar, dspace, g)

    d_cols = realization.defect_columns()
    top = np.hstack([w_hat, d_cols])
    bottom = np.hstack([g.coords(), np.zeros((g.dim, dspace.dim), dtype=np.complex128)])
    block = np.vstack([top, bottom])
    deviation = spectral_norm(block @ adjoint(block) - np.eye(block.shape[0]))
    if deviation > tol.identity_tol:
        raise InternalContradiction(
            f"realization block identity deviates by {deviation:.3e} (tol {tol.identity_tol:.1e})"
        )
    return realization


def phi_eval(realization: RedhefferRealization, lam: complex):
    """Evaluate the four coefficient functions at one point of the open disc.

    A single linear solve with ``I - lam Z`` is shared by all four values.

    Raises:
        OutOfDisc: for ``abs(lam) >= 1``.
    """
    if abs(lam) >= 1.0:
        raise OutOfDisc(f"evaluation point {lam!r} lies outside the open unit disc")
    p = realization.problem
    u = p.u_dim
    d_y, d_u = realization._split_defect_columns()
    rhs = np.hstack([d_u, np.eye(u, dtype=np.complex128)])
    resolvent = np.linalg.solve(np.eye(u, dtype=np.complex128) - lam * realization.Z, rhs)
    r_du, r_full = resolvent[:, : d_u.shape[1]], resolvent[:, d_u.shape[1]:]
    g_coords = realization.G.coords()
    out_row = p.output_row()
    phi11 = lam * (g_coords @ r_du)
    phi12 = g_coords @ r_full
    phi21 = d_y + lam * (out_row @ r_du)
    phi22 = out_row @ r_full
    return phi11, phi12, phi21, phi22


def phi_taylor(realization: RedhefferRealization, order: int):
    """Taylor coefficients of the four functions to the given order.

    The expansions follow the geometric series of the shared resolvent:
    the ``Phi22`` coefficients reproduce the central solution exactly, and
    ``Phi11`` has zero constant term.
    """
    if order < 0:
        raise InvalidInput(f"order must be nonnegative, got {order}")
    p = realization.problem
    z = realization.Z
    d_y, d_u = realization._split_defect_columns()
    d_dim, g_dim = realization.defect_dim, realization.complement_dim

    g_rows = [realization.G.coords()]
    out_rows = [p.output_row()]
    for _ in range(order):
        g_rows.append(g_rows[-1] @ z)
        out_rows.append(out_rows[-1] @ z)

    c11 = [np.zeros((g_dim, d_dim), dtype=np.complex128)]
    c21 = [d_y]
    for n in range(1, order + 1):
        c11.append(g_rows[n - 1] @ d_u)
        c21.append(out_rows[n - 1] @ d_u)
    phi11 = MatrixSeries(tuple(c11), g_dim, d_dim)
    phi12 = MatrixSeries(tuple(g_rows), g_dim, p.u_dim)
    phi21 = MatrixSeries(tuple(c21), p.y_dim, d_dim)
    phi22 = MatrixSeries(tuple(out_rows), p.y_dim, p.u_dim)
    return phi11, phi12, phi21, phi22


def _stack_blocks(toeplitz: MatrixSeries, column: MatrixSeries, blocks: int) -> CMatrix:
    """One strip ``[T_phi, Gamma_phi]`` of the truncated coefficient operator."""
    h, wt, wc = toeplitz.out_dim, toeplitz.in_dim, column.in_dim
    strip = np.zeros((blocks * h, blocks * wt + wc), dtype=np.complex128)
    for i in range(blocks):
        for k in range(i + 1):
            strip[i * h:(i + 1) * h, k * wt:(k + 1) * wt] = toeplitz.coeff(i - k)
        strip[i * h:(i + 1) * h, blocks * wt:] = column.coeff(i)
    return strip


def truncated_coefficient_matrix(realization: RedhefferRealization, blocks: int) -> CMatrix:
    """The ``blocks``-block truncation of the stacked coefficient operator."""
    if blocks < 1:
        raise InvalidInput(f"need at least one block, got {blocks}")
    phi11, phi12, phi21, phi22 = phi_taylor(realization, blocks - 1)
    top = _stack_blocks(phi11, phi12, blocks)
    bottom = _stack_blocks(phi21, phi22, blocks)
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class CoefficientAudit:
    blocks: int
    deficiency: float       # norm of (row Gram - identity)


def coefficient_matrix_audit(
    realization: RedhefferRealization, blocks: int, tol: Tolerances | None = None
) -> CoefficientAudit:
    """Check the row Gram of the truncated coefficient operator against the identity.

    Every entry of the row Gram is a finite exact sum, so the deficiency is
    pure roundoff for any block count; a larger value is a hard failure.

    Raises:
        AuditFailure: when the deficiency exceeds ``identity_tol``.
    """
    tol = _resolve_tol(tol)
    matrix = truncated_coefficient_matrix(realization, blocks)
    deficiency = spectral_norm(matrix @ adjoint(matrix) - np.eye(matrix.shape[0]))
    if deficiency > tol.identity_tol:
        raise AuditFailure(
            f"coefficient-matrix row Gram deviates by {deficiency:.3e} on {blocks} blocks", deficiency
        )
    return CoefficientAudit(blocks, deficiency)


def coefficient_matrix_unitary_gap(realization: RedhefferRealization, blocks: int) -> float:
    """Column-Gram gap of the leading coefficient columns of the truncation.

    The full coefficient operator is unitary when the stacked contraction is
    isometric and the state operator is pointwise stable. A truncation can
    never witness that exactly: its trailing Toeplitz columns are cut off at
    birth. The columns fed by coefficient zero - the first Toeplitz strip
    together with the stacked-coefficient columns - do fill in as the block
    count grows, and their Gram is a PSD-increasing partial sum bounded by
    the identity, so the reported gap decreases with ``blocks``. Decay
    toward 0 is the finite-size shadow of unitarity; this is a trend
    indicator, never a verdict.
    """
    matrix = truncated_coefficient_matrix(realization, blocks)
    d = realization.defect_dim
    leading = np.hstack([matrix[:, :d], matrix[:, blocks * d:]])
    return spectral_norm(adjoint(leading) @ leading - np.eye(leading.shape[1]))


@dataclass(frozen=True)
class SchurParameter:
    """Polynomial free parameter with contractive multiplication operator.

    ``coeffs[k]`` maps ``G`` into the adjoint defect space. Contractivity is
    checked through the lower-triangular block-Toeplitz truncation built
    from all coefficients, which bounds the multiplication-operator norm
    from below; exact Schur-class membership of a polynomial would be a
    semi-infinite condition.
    """

    coeffs: tuple[CMatrix, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidParameter("parameter needs at least a constant coefficient")
        first = as_cmatrix(self.coeffs[0])
        rows, cols = first.shape
        coeffs = tuple(as_cmatrix(c, rows=rows, cols=cols) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        k = len(coeffs)
        toeplitz = np.zeros((k * rows, k * cols), dtype=np.complex128)
        for i in range(k):
            for j in range(i + 1):
                toeplitz[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols] = coeffs[i - j]
        if spectral_norm(toeplitz) > 1.0 + 1e-10:
            raise InvalidParameter(
                f"parameter multiplication norm {spectral_norm(toeplitz):.17g} exceeds 1 + slack"
            )

    @classmethod
    def constant(cls, value) -> "SchurParameter":
        return cls((as_cmatrix(value),))

    @property
    def out_dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def in_dim(self) -> int:
        return self.coeffs[0].shape[1]

    def as_series(self) -> MatrixSeries:
        return MatrixSeries(self.coeffs, self.out_dim, self.in_dim)


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
    ``C A^n`` are iterated as in ``interp.central_taylor``: one small matrix
    product per order, with no series product and no series inverse. The
    loop is well posed for every parameter because ``Phi11`` vanishes at 0;
    ``V = 0`` gives back the central solution.
    """
    if (parameter.out_dim, parameter.in_dim) != (realization.defect_dim, realization.complement_dim):
        raise DimensionMismatch(
            f"parameter is {parameter.out_dim}x{parameter.in_dim}, expected "
            f"{realization.defect_dim}x{realization.complement_dim}"
        )
    if order < 0:
        raise InvalidInput(f"order must be nonnegative, got {order}")
    p = realization.problem
    u, g_dim = p.u_dim, realization.complement_dim
    d_y, d_u = realization._split_defect_columns()
    p_g = realization.G.coords()
    v0, *v_tail = parameter.coeffs
    size = u + len(v_tail) * g_dim

    a = np.zeros((size, size), dtype=np.complex128)
    c = np.zeros((p.y_dim, size), dtype=np.complex128)
    a[:u, :u] = realization.Z + d_u @ v0 @ p_g
    c[:, :u] = p.output_row() + d_y @ v0 @ p_g
    if v_tail:
        v_rest = np.hstack(v_tail)
        a[:u, u:] = d_u @ v_rest
        c[:, u:] = d_y @ v_rest
        a[u:u + g_dim, :u] = p_g
        a[u + g_dim:, u:size - g_dim] = np.eye(size - u - g_dim)

    row = c
    coeffs = [row[:, :u]]
    for _ in range(order):
        row = row @ a
        coeffs.append(row[:, :u])
    return MatrixSeries(tuple(coeffs), p.y_dim, u)
