"""Truncated isometric dilation and the solution-to-interpolant map.

The canonical shift extension of a contraction ``T'`` on ``H'`` lives on
``H'`` plus a stack of copies of its defect space ``Y``; keeping ``M``
copies gives the block matrix ``[[T', 0], [D_T', S_M]]`` with ``D_T'``
written in ``Y``-coordinates (it lands in the first copy) and ``S_M`` the
truncated block shift. The truncation breaks the isometry only on the final
copy, whose outgoing image is dropped.

A solution ``H`` of the interpolation problem attached to a data set maps
to the interpolant ``B = [A ; h_0 D_A ; h_1 D_A ; ...]``, which satisfies
the projection identity exactly and the shift-intertwining identity
``U' B R = B Q`` on every retained block row.

Every function here takes the data set and reads its defect geometry,
``data.defect_a`` and ``data.defect_tp``, so the lifting uses the same
coordinates on ``U = D_A`` and ``Y = D_T'`` as the underlying contraction
of :mod:`rclkit.dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataSet
from .errors import DimensionMismatch, InvalidInput, NotContractive
from .opcore import CMatrix, as_cmatrix, require_contraction, spectral_norm, spectral_norms
from .series import MatrixSeries


def build_lifting(data: DataSet, blocks: int) -> CMatrix:
    """The truncated shift extension ``U'`` of ``data.Tp``, acting on
    ``C^(dim H' + dim Y * blocks)``; the final defect block is the
    truncation boundary where the isometry fails.

    Raises:
        InvalidInput: when ``blocks < 1``.
        NotAContraction: via ``data.defect_tp``, when ``T'`` is not a
            contraction.
    """
    if blocks < 1:
        raise InvalidInput(f"need at least one defect block, got {blocks}")
    d_tp, space = data.defect_tp
    hp, dt = data.dim_hp, space.dim
    total = hp + dt * blocks
    u = np.zeros((total, total), dtype=np.complex128)
    u[:hp, :hp] = data.Tp
    u[hp:hp + dt, :hp] = d_tp
    # the block shift: defect copy j feeds copy j + 1
    u[hp + dt:, hp:total - dt] = np.eye((blocks - 1) * dt)
    return u


def interpolant_from_solution(data: DataSet, H: MatrixSeries, blocks: int) -> CMatrix:
    """Stack ``A`` over the blocks ``h_n D_A`` (in defect coordinates) for n < blocks.

    Raises:
        InvalidInput: when ``blocks < 1`` or ``H`` has fewer than ``blocks`` coefficients.
        DimensionMismatch: when ``H`` does not map ``U`` into ``Y``, the data set's defect spaces.
        NotContractive: when the stacked interpolant fails ``opcore.require_contraction``
            at ``data.tol``, which happens exactly when ``H`` leaves the coefficient ball.
    """
    if blocks < 1:
        raise InvalidInput(f"need at least one defect block, got {blocks}")
    if H.order < blocks - 1:
        raise InvalidInput(f"series order {H.order} cannot fill {blocks} blocks")
    d_a, u, y = data.defect_a[0], data.defect_a[1].dim, data.defect_tp[1].dim
    if (H.out_dim, H.in_dim) != (y, u):
        raise DimensionMismatch(f"series maps {H.in_dim}->{H.out_dim}, data set needs {u}->{y}")
    lifted = (H.coeffs[:blocks] @ d_a).reshape(blocks * H.out_dim, data.dim_h)
    b = np.vstack([data.A, lifted])
    require_contraction(b, data.tol, NotContractive, "interpolant norm")
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

    Raises:
        InvalidInput: when ``B`` is not one finite 2-D complex array.
        DimensionMismatch: when its shape is not that of the lifting.
    """
    u_prime = build_lifting(data, blocks)
    hp, dt = data.dim_hp, data.defect_tp[1].dim
    B = as_cmatrix(B, rows=len(u_prime), cols=data.dim_h)
    projection_ok = bool(np.array_equal(B[:hp, :], data.A))
    delta = u_prime @ B @ data.R - B @ data.Q
    residuals = [spectral_norm(delta[:hp, :])]
    residuals += spectral_norms(delta[hp:].reshape(blocks, dt, data.dim_h0)).tolist()
    *retained, boundary = residuals
    intertwine_ok = all(r <= data.tol.identity_tol for r in retained)
    return LiftReport(projection_ok, intertwine_ok, tuple(retained), boundary)
