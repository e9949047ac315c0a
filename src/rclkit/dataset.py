"""Data sets for the relaxed commutant lifting problem.

A data set consists of a contraction ``A : H -> H'``, a contraction ``T'``
on ``H'`` and a pair ``R, Q : H0 -> H`` subject to

    ``T' A R = A Q``   and   ``R* R <= Q* Q``.

The isometric dilation of ``T'`` is never stored: the canonical
shift-extension construction (module :mod:`rclkit.lifting`) is assumed
throughout, which removes an unverifiable degree of freedom.

A data set derives its geometry once, at three rank cuts: the defect spaces
``U`` of ``A`` and ``Y`` of ``T'``, as ``DataSet.defect_a = (U.coords() @ D_A, U)``
and ``DataSet.defect_tp = (Y.coords() @ D_T', Y)``, and the domain
``DataSet.domain = F = closure(range(D_A Q))`` in ``U``-coordinates. Every
uniqueness verdict flips at one of them (``dim U``, ``dim F`` or ``dim Y``),
and the analyzers below decide each fact there. This module and
:mod:`rclkit.lifting` read only these, so a solution and its lifting share
one set of coordinates.

From a valid data set this module builds the underlying contraction
``w : F -> Y (+) U`` determined by ``w D_A Q = [D_T' A R ; D_A R]``, and
provides the specialized uniqueness analyzers for the sub-optimal case and
for the scalar sliding-block shape of R and Q. All of them raise
``IllPosedData`` on data that fails :func:`validate`.

A data set carries its own :class:`~rclkit.opcore.Tolerances`: every check
below reads ``data.tol``, and the underlying contraction inherits it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IllPosedData, InvalidInput
from .interp import InterpProblem
from .opcore import (
    DEFAULT_TOL,
    CMatrix,
    SubspaceBasis,
    Tolerances,
    adjoint,
    as_cmatrix,
    defect,
    orthocomplement,
    range_closure_basis,
    read_only,
    spectral_norm,
)

#: Residual allowed for the defining identity of the underlying contraction.
OMEGA_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class DataSet:
    """The four operators as read-only copies, which later changes to the
    caller's arrays cannot reach; the space dimensions, the two defect
    geometries and the domain derived from them, each once; the tolerances of
    every check."""

    A: CMatrix    # H -> H'
    Tp: CMatrix   # H' -> H'
    R: CMatrix    # H0 -> H
    Q: CMatrix    # H0 -> H
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self):
        A = as_cmatrix(self.A)
        hp, h = A.shape
        Tp = as_cmatrix(self.Tp, rows=hp, cols=hp)
        R = as_cmatrix(self.R, rows=h)
        Q = as_cmatrix(self.Q, rows=h, cols=R.shape[1])
        for name, M in zip(("A", "Tp", "R", "Q"), (A, Tp, R, Q)):
            object.__setattr__(self, name, read_only(M))

    def _geometry(self, N: CMatrix) -> tuple[CMatrix, SubspaceBasis]:
        d, space = defect(N, self.tol)    # NotAContraction when N is not a contraction
        return read_only(space.coords() @ d), space

    @cached_property
    def defect_a(self) -> tuple[CMatrix, SubspaceBasis]:
        """``(U.coords() @ D_A, U)``: ``D_A`` onto its defect space, in its coordinates."""
        return self._geometry(self.A)

    @cached_property
    def defect_tp(self) -> tuple[CMatrix, SubspaceBasis]:
        """``(Y.coords() @ D_T', Y)``: likewise for ``T'``."""
        return self._geometry(self.Tp)

    @cached_property
    def domain(self) -> SubspaceBasis:
        """``F = closure(range(D_A Q))`` in ``U``-coordinates: the cut that sets ``dim F``."""
        return range_closure_basis(self.defect_a[0] @ self.Q, self.tol)

    @property
    def dim_h0(self) -> int:
        return self.R.shape[1]

    @property
    def dim_h(self) -> int:
        return self.A.shape[1]

    @property
    def dim_hp(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class Violation:
    constraint: str
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(data: DataSet) -> ValidationReport:
    """Check the three defining constraints, reporting residual magnitudes.

    Contraction residuals are the norm excess over 1; the intertwining
    residual is ``norm(T'AR - AQ)``; the order residual is the amount by
    which the smallest eigenvalue of ``Q*Q - R*R`` goes negative.

    Raises:
        InvalidInput: when the operator norms allow an entry of those
            residuals, or of a product forming them, to overflow.
    """
    tol = data.tol
    violations = []
    a_norm, tp_norm = spectral_norm(data.A), spectral_norm(data.Tp)
    for name, nrm in (("A_contraction", a_norm), ("Tp_contraction", tp_norm)):
        if nrm - 1.0 > tol.contraction_slack:
            violations.append(Violation(name, nrm - 1.0))
    # T'A, T'AR, AQ, Q*Q and R*R, their partial sums and the residuals
    # (Hermitized) stay below 4 * bound in modulus
    r_norm, q_norm = spectral_norm(data.R), spectral_norm(data.Q)
    rq = max(1.0, r_norm, q_norm)
    bound = max(1.0, tp_norm) * max(1.0, a_norm) * rq * rq    # float products saturate at inf
    if bound > np.finfo(np.float64).max / 4:
        raise InvalidInput(f"norms of A, T', R, Q ({a_norm:.3g}, {tp_norm:.3g}, {r_norm:.3g}, {q_norm:.3g}) "
                           "overflow the residuals T'AR - AQ and Q*Q - R*R")
    intertwine = spectral_norm(data.Tp @ data.A @ data.R - data.A @ data.Q)
    if intertwine > tol.identity_tol:
        violations.append(Violation("intertwining", intertwine))
    gram_gap = adjoint(data.Q) @ data.Q - adjoint(data.R) @ data.R
    gram_gap = (gram_gap + adjoint(gram_gap)) / 2.0
    deficit = -float(np.linalg.eigvalsh(gram_gap).min(initial=np.inf))
    if deficit > tol.identity_tol:
        violations.append(Violation("gram_order", deficit))
    return ValidationReport(tuple(violations))


def _require_valid(data: DataSet) -> None:
    """Raise ``IllPosedData`` naming every constraint the data set violates."""
    report = validate(data)
    if not report.ok:
        names = ", ".join(v.constraint for v in report.violations)
        raise IllPosedData(f"data set violates: {names}")


def underlying_contraction(data: DataSet) -> InterpProblem:
    """Build the underlying contraction of a valid data set.

    The defining identity only pins ``w`` on ``range(D_A Q)``; in finite
    dimensions the extension to its closure ``F`` is a least-squares solve
    in F-coordinates, audited afterwards: the identity residual must stay
    below ``1e-9`` and the result must be a contraction.

    Raises:
        IllPosedData: when validation fails, the residual audit fails, or
            the solved operator is not a contraction.
    """
    tol = data.tol
    _require_valid(data)
    d_a, space_a = data.defect_a
    d_tp, space_tp = data.defect_tp
    u_dim, y_dim = space_a.dim, space_tp.dim

    f = data.domain
    lhs = f.coords() @ (d_a @ data.Q)                       # F-coordinates of D_A Q
    rhs = np.vstack([d_tp @ data.A @ data.R, d_a @ data.R])
    omega = np.linalg.lstsq(lhs.T, rhs.T, rcond=None)[0].T
    residual = spectral_norm(omega @ lhs - rhs)
    if residual > OMEGA_RESIDUAL_TOL:
        raise IllPosedData(f"defining identity residual {residual:.3e} exceeds {OMEGA_RESIDUAL_TOL:.1e}")
    nrm = spectral_norm(omega)
    if nrm > 1.0 + tol.contraction_slack:
        raise IllPosedData(f"underlying operator has norm {nrm:.17g}; data set is inconsistent")
    return InterpProblem(u_dim, y_dim, f, omega[:y_dim, :], omega[y_dim:, :], tol)


def preset_relaxed_rq(n: int, v_dim: int) -> tuple[CMatrix, CMatrix]:
    """The sliding-block pair ``R = [I; 0]``, ``Q = [0; I]`` on V^(n-1) -> V^n.

    Both are isometries exactly; ``n = 1`` yields empty-domain maps.
    """
    if n < 1 or v_dim < 0:
        raise InvalidInput(f"need n >= 1 and v_dim >= 0, got n={n}, v_dim={v_dim}")
    eye = np.eye((n - 1) * v_dim, dtype=np.complex128)
    zeros = np.zeros((v_dim, (n - 1) * v_dim), dtype=np.complex128)
    r = np.vstack([eye, zeros])
    q = np.vstack([zeros, eye])
    return r, q


def has_relaxed_rq_shape(data: DataSet) -> bool:
    """Whether R and Q are exactly the scalar sliding-block pair ``preset_relaxed_rq(h, 1)``."""
    if data.dim_h0 != data.dim_h - 1:
        return False
    r, q = preset_relaxed_rq(data.dim_h, 1)
    return np.array_equal(data.R, r) and np.array_equal(data.Q, q)


class Decision(enum.Enum):
    UNIQUE = "unique"
    NOT_UNIQUE = "not_unique"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class UniquenessDecision:
    decision: Decision
    reason: str = ""


def _attains_norm_one(data: DataSet) -> bool:
    """Whether ``norm(A) = 1``, decided at the cut that sets ``dim U`` for
    the trichotomy: ``I - A*A`` keeps an eigenvalue at or below
    ``rank_tol * max(1, mu_max)``, so the defect space of ``A`` misses a
    direction of ``H``."""
    return data.defect_a[1].dim < data.dim_h


def suboptimal_uniqueness(data: DataSet) -> UniquenessDecision:
    """Uniqueness in the sub-optimal case: strict ``A`` and left-invertible ``R``.

    ``A`` is strict when its defect space is all of ``H``: the ``defect``
    cut that also decides ``dim U``, so no second threshold can split the
    two verdicts. ``R`` is left invertible when its range closure has
    dimension ``dim H0``, at the relative cut of ``range_closure_basis``, so
    scaling ``R`` and ``Q`` together leaves the verdict alone; a wide ``R``
    (``dim H0 > dim H``) never is.

    When applicable, the interpolant is unique iff ``closure(Q H0) = H`` or
    ``T'`` has trivial defect (is an isometry). ``D_A`` is invertible for strict
    ``A``, so the first reads ``dim F = dim U``, at the trichotomy's cut.
    Invalid data raises ``IllPosedData``.
    """
    _require_valid(data)
    if _attains_norm_one(data):
        return UniquenessDecision(Decision.NOT_APPLICABLE, "A is not a strict contraction")
    if range_closure_basis(data.R, data.tol).dim != data.dim_h0:
        return UniquenessDecision(Decision.NOT_APPLICABLE, "R is not left invertible")
    q_onto = data.domain.dim == data.defect_a[1].dim
    tp_isometry = data.defect_tp[1].dim == 0
    if q_onto or tp_isometry:
        return UniquenessDecision(Decision.UNIQUE)
    return UniquenessDecision(Decision.NOT_UNIQUE)


@dataclass(frozen=True)
class PerpendicularityReport:
    """Geometry of ``G = defect(A) (-) F`` inside ``H``.

    ``D_A G`` is perpendicular to ``range(Q)``, and to the kernel of ``D_A`` by
    construction (it lies in ``U``). In finite dimensions ``range(Q)`` and
    that kernel span ``H`` iff ``F = U``, so ``f_equals_defect_space`` reads
    the lemma's hypothesis at the cut that sets ``dim F``;
    ``kernel_dim = dim H - dim U``.
    """

    q_residual: float
    g_image_perp_q: bool
    f_equals_defect_space: bool
    kernel_dim: int


def perpendicularity_report(data: DataSet) -> PerpendicularityReport:
    """Measure the geometry of ``G``; invalid data raises ``IllPosedData``."""
    tol = data.tol
    _require_valid(data)
    d_a, space_a = data.defect_a
    f = data.domain
    g_in_h = space_a.basis @ orthocomplement(f).basis      # basis of G inside H
    image = space_a.basis @ d_a @ g_in_h                   # D_A G, which lies in U
    q_residual = spectral_norm(adjoint(data.Q) @ image)
    return PerpendicularityReport(
        q_residual=q_residual,
        g_image_perp_q=q_residual <= tol.identity_tol,
        f_equals_defect_space=f.dim == space_a.dim,
        kernel_dim=data.dim_h - space_a.dim,
    )


def norm_one_rq_uniqueness(data: DataSet) -> UniquenessDecision:
    """Uniqueness for the scalar sliding-block shape: decided by ``norm(A) = 1``.

    Applicable only when R and Q have the sliding-block shape with
    one-dimensional blocks and ``T'`` has a nontrivial defect. The norm-one
    test is a knife-edge condition, decided where the trichotomy decides
    it: ``norm(A) = 1`` iff the ``defect`` cut at ``rank_tol`` drops a
    direction of ``I - A*A``, so ``dim U < dim H``. Invalid data raises
    ``IllPosedData``.
    """
    _require_valid(data)
    if not has_relaxed_rq_shape(data):
        return UniquenessDecision(Decision.NOT_APPLICABLE, "R, Q lack the scalar sliding-block shape")
    if data.defect_tp[1].dim == 0:
        return UniquenessDecision(Decision.NOT_APPLICABLE, "T' has trivial defect")
    if _attains_norm_one(data):
        return UniquenessDecision(Decision.UNIQUE)
    return UniquenessDecision(Decision.NOT_UNIQUE)
