"""Truncated isometric dilation and the solution-to-interpolant map.

The canonical shift extension of a contraction ``T'`` on ``H'`` lives on
``H'`` plus a stack of defect-space copies; keeping ``M`` copies gives the
block matrix ``[[T', 0], [E D_T', S_M]]`` with ``E`` the embedding into the
first copy and ``S_M`` the truncated block shift. The truncation breaks the
isometry only on the final copy, whose outgoing image is dropped.

A solution ``H`` of the interpolation problem attached to a data set maps
to the interpolant ``B = [A ; h_0 D_A ; h_1 D_A ; ...]``, which satisfies
the projection identity exactly and the shift-intertwining identity
``U' B R = B Q`` on every retained block row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataSet
from .errors import DimensionMismatch, InvalidInput, NotContractive
from .opcore import DEFAULT_TOL, CMatrix, SubspaceBasis, Tolerances, defect, spectral_norm, spectral_norms
from .series import MatrixSeries


@dataclass(frozen=True)
class TruncatedLifting:
    """``Uprime`` acts on C^(hp + defect_dim * blocks); the final defect block
    is the truncation boundary where the isometry fails."""

    Tp: CMatrix
    blocks: int
    Uprime: CMatrix
    defect_basis: SubspaceBasis   # defect space of T' inside H'

    @property
    def hp_dim(self) -> int:
        return self.Tp.shape[0]

    @property
    def defect_dim(self) -> int:
        return self.defect_basis.dim

    @property
    def total_dim(self) -> int:
        return self.Uprime.shape[0]


def build_lifting(Tp, blocks: int, tol: Tolerances = DEFAULT_TOL) -> TruncatedLifting:
    """Assemble the truncated shift extension of a contraction.

    Raises:
        NotAContraction: via the defect computation, when ``Tp`` is not a
            contraction.
    """
    if blocks < 1:
        raise InvalidInput(f"need at least one defect block, got {blocks}")
    d_tp, space = defect(Tp, tol)
    Tp = np.asarray(Tp, dtype=np.complex128)
    hp, dt = Tp.shape[0], space.dim
    total = hp + dt * blocks
    u = np.zeros((total, total), dtype=np.complex128)
    u[:hp, :hp] = Tp
    u[hp:hp + dt, :hp] = space.coords() @ d_tp
    # the block shift: defect copy j feeds copy j + 1
    u[hp + dt:, hp:total - dt] = np.eye((blocks - 1) * dt)
    return TruncatedLifting(Tp, blocks, u, space)


def interpolant_from_solution(data: DataSet, H: MatrixSeries, blocks: int) -> CMatrix:
    """Stack ``A`` over the blocks ``h_n D_A`` (in defect coordinates) for n < blocks.

    Raises:
        InvalidInput: when ``blocks < 1``, when ``H`` carries fewer than
            ``blocks`` coefficients or when its dimensions do not match the
            data set's defect spaces.
        NotContractive: when the stacked interpolant exceeds norm
            1 + ``data.tol.contraction_slack``, which happens exactly when
            ``H`` leaves the coefficient ball.
    """
    tol = data.tol
    if blocks < 1:
        raise InvalidInput(f"need at least one defect block, got {blocks}")
    if H.order < blocks - 1:
        raise InvalidInput(f"series order {H.order} cannot fill {blocks} blocks")
    d_a, space_a = defect(data.A, tol)
    _, space_tp = defect(data.Tp, tol)
    if (H.out_dim, H.in_dim) != (space_tp.dim, space_a.dim):
        raise InvalidInput(
            f"series maps {H.in_dim}->{H.out_dim}, data set needs {space_a.dim}->{space_tp.dim}"
        )
    lift_rows = space_a.coords() @ d_a      # defect coordinates of D_A
    lifted = (H.coeffs[:blocks] @ lift_rows).reshape(blocks * H.out_dim, data.dim_h)
    b = np.vstack([data.A, lifted])
    nrm = spectral_norm(b)
    if nrm > 1.0 + tol.contraction_slack:
        raise NotContractive(f"interpolant norm {nrm:.17g} exceeds 1 + slack")
    return b


@dataclass(frozen=True)
class LiftReport:
    """Block-row residuals of ``U'BR - BQ``; the final defect block is the
    truncation boundary and is excluded from the pass/fail verdict."""

    projection_ok: bool
    intertwine_ok: bool
    retained_residuals: tuple[float, ...]
    boundary_residual: float

    @property
    def max_retained_residual(self) -> float:
        return max(self.retained_residuals)

    @property
    def ok(self) -> bool:
        return self.projection_ok and self.intertwine_ok


def verify_rclt(data: DataSet, B, blocks: int) -> LiftReport:
    """Verify the two lifting identities for a candidate interpolant.

    ``projection_ok`` demands the top block of ``B`` equal ``A`` exactly;
    ``intertwine_ok`` demands every retained block row of ``U'BR - BQ``
    vanish within ``data.tol.identity_tol``. The final block row is
    reported separately: its residual is bounded by the discarded
    coefficient tail, not by the identity.
    """
    lift = build_lifting(data.Tp, blocks, data.tol)
    hp, dt = lift.hp_dim, lift.defect_dim
    B = np.asarray(B, dtype=np.complex128)
    if B.shape != (lift.total_dim, data.dim_h):
        raise DimensionMismatch(
            f"interpolant has shape {B.shape}, lifting expects {(lift.total_dim, data.dim_h)}"
        )
    projection_ok = bool(np.array_equal(B[:hp, :], data.A))
    delta = lift.Uprime @ B @ data.R - B @ data.Q
    residuals = [spectral_norm(delta[:hp, :])]
    residuals += spectral_norms(delta[hp:].reshape(blocks, dt, data.dim_h0)).tolist()
    boundary = residuals[-1]
    retained = tuple(residuals[:-1])
    return LiftReport(
        projection_ok=projection_ok,
        intertwine_ok=all(r <= data.tol.identity_tol for r in retained),
        retained_residuals=retained,
        boundary_residual=boundary,
    )
