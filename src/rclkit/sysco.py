"""Co-isometric state-space systems and their exact stacked Gram identity.

A quadruple ``{A, B, C, D}`` is co-isometric when the block matrix
``[[A, B], [C, D]]`` satisfies ``M M* = I``. Its transfer function
``F(lam) = D + lam C (I - lam A)^{-1} B`` and observability function
``W(lam) = C (I - lam A)^{-1}`` then satisfy, blockwise and with finite
exact sums at every truncation,

    ``T_F T_F* + G_W G_W* = I``

where ``T_F`` is the lower-triangular block Toeplitz matrix of transfer
coefficients and ``G_W`` stacks the observability coefficients.

This is the library's one system type: the Redheffer realization of the
solution family is one, and ``orbit`` is its one ``C A^n`` recursion: one
array that reshapes into ``G_W`` and, times ``B``, gives ``F``'s coefficients.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import AuditFailure, InvalidInput
from .opcore import (
    CMatrix,
    Tolerances,
    _resolve_tol,
    adjoint,
    as_cmatrix,
    coisometry_deficiency,
    defect,
)
from .series import MatrixSeries


@dataclass(frozen=True)
class CoisometricSystem:
    """Validated at construction; pass ``validate=False`` to build a
    deliberately broken system for negative-control audits."""

    A: CMatrix  # state -> state
    B: CMatrix  # input -> state
    C: CMatrix  # state -> output
    D: CMatrix  # input -> output
    validate: InitVar[bool] = True
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, validate, tol):
        A = as_cmatrix(self.A)
        x = A.shape[0]
        if A.shape[1] != x:
            raise InvalidInput(f"state operator must be square, got {A.shape}")
        object.__setattr__(self, "A", A)
        B = as_cmatrix(self.B, rows=x)
        object.__setattr__(self, "B", B)
        C = as_cmatrix(self.C, cols=x)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", as_cmatrix(self.D, rows=C.shape[0], cols=B.shape[1]))
        if validate:
            deviation = coisometry_gap(self)
            limit = _resolve_tol(tol).identity_tol
            if deviation > limit:
                raise AuditFailure(
                    f"system block matrix deviates from a co-isometry by {deviation:.3e}", deviation
                )

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def in_dim(self) -> int:
        return self.B.shape[1]

    @property
    def out_dim(self) -> int:
        return self.C.shape[0]

    def block_matrix(self) -> CMatrix:
        return np.block([[self.A, self.B], [self.C, self.D]])


def coisometry_gap(system: CoisometricSystem) -> float:
    return coisometry_deficiency(system.block_matrix())


def julia_system(T, tol: Tolerances | None = None) -> CoisometricSystem:
    """The canonical unitary dilation of a square contraction, as a system.

    ``A = T``, ``B`` the defect of ``T*``, ``C`` the defect of ``T`` and
    ``D = -T*``; the block matrix is unitary, so in particular co-isometric.
    Serves as a parameterized generator of test systems.
    """
    T = as_cmatrix(T)
    if T.shape[0] != T.shape[1]:
        raise InvalidInput(f"expected a square contraction, got shape {T.shape}")
    d_t, _ = defect(T, tol)
    d_tstar, _ = defect(adjoint(T), tol)
    return CoisometricSystem(T, d_tstar, d_t, -adjoint(T), tol=tol)


def orbit(C: CMatrix, A: CMatrix, n: int) -> np.ndarray:
    """``C, C A, ..., C A^n`` as one ``(n + 1, rows, cols)`` array, one matrix
    product per step: the observability recursion behind every coefficient
    expansion and solution."""
    if n < 0:
        raise InvalidInput(f"order must be nonnegative, got {n}")
    out = np.empty((n + 1,) + C.shape, dtype=np.complex128)
    out[0] = C
    for k in range(n):
        np.matmul(out[k], A, out=out[k + 1])
    return out


def observability_taylor(system: CoisometricSystem, order: int) -> MatrixSeries:
    """Coefficients ``W_n = C A^n`` of the observability function."""
    return MatrixSeries(orbit(system.C, system.A, order), system.out_dim, system.state_dim)


def transfer_from_orbit(system: CoisometricSystem, observ: np.ndarray) -> MatrixSeries:
    """Transfer coefficients ``F_0 = D`` and ``F_n = C A^(n-1) B`` from the
    observability coefficients ``orbit(C, A, order)``, to the same order."""
    coeffs = np.concatenate([system.D[None], observ[:-1] @ system.B])
    return MatrixSeries(coeffs, system.out_dim, system.in_dim)


def transfer_taylor(system: CoisometricSystem, order: int) -> MatrixSeries:
    """Coefficients ``F_0 = D`` and ``F_n = C A^(n-1) B`` of the transfer function."""
    return transfer_from_orbit(system, orbit(system.C, system.A, order))


def stacked_operator(system: CoisometricSystem, blocks: int) -> CMatrix:
    """``[T_F, G_W]`` truncated to the given number of block rows; one orbit
    serves both parts."""
    if blocks < 1:
        raise InvalidInput(f"need at least one block, got {blocks}")
    v, w, x = system.in_dim, system.out_dim, system.state_dim
    observ = orbit(system.C, system.A, blocks - 1)
    out = np.empty((blocks * w, blocks * v + x), dtype=np.complex128)
    transfer_from_orbit(system, observ).toeplitz(blocks, out)
    out[:, blocks * v:] = observ.reshape(blocks * w, x)
    return out


def gram_identity_audit(system: CoisometricSystem, blocks: int, tol: Tolerances | None = None) -> float:
    """Max deviation of ``T_F T_F* + G_W G_W*`` from the identity.

    Every entry is a finite exact sum, so the deviation is pure roundoff
    for a genuine co-isometric system.

    Raises:
        AuditFailure: when the deviation exceeds ``identity_tol``; this is
            the signal that the input system is not co-isometric.
    """
    tol = _resolve_tol(tol)
    deviation = coisometry_deficiency(stacked_operator(system, blocks))
    if deviation > tol.identity_tol:
        raise AuditFailure(
            f"stacked Gram identity deviates by {deviation:.3e} on {blocks} blocks", deviation
        )
    return deviation
