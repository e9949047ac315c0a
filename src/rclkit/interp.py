"""Interpolation problems defined by a contraction split over a subspace.

The data is a contraction ``w = [w1; w2] : F -> Y (+) U`` with ``F`` a
subspace of ``U``. Sought are functions ``H`` analytic on the unit disc,
with values mapping ``U`` into ``Y`` and coefficient operator of norm at
most one, satisfying

    ``w1 + lam * H(lam) * w2 = H(lam)|_F``      (lam in the disc).

Matching powers of ``lam`` turns this into the coefficient recursion
``h_0|_F = w1`` and ``h_{n+1}|_F = h_n w2``, which the verifier checks on
the whole ``(N + 1, y, u)`` coefficient array at once. The distinguished
solution

    ``H_c(lam) = w1 P_F (I - lam w2 P_F)^{-1}``

(``P_F`` the projection of ``U`` onto ``F``) always exists; this module
computes its Taylor coefficients (the ``sysco.orbit`` of ``w1 P_F`` under
``w2 P_F``), decides whether it is the only solution, and produces an
explicit second solution whenever it is not, one that first differs from
``H_c`` where the co-isometry chain first fails. Every threshold verdict
uses the tolerances the problem carries (``InterpProblem.tol``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import redheffer
from .errors import DimensionMismatch, InternalContradiction, InvalidInput
from .opcore import (
    DEFAULT_TOL,
    CMatrix,
    SubspaceBasis,
    Tolerances,
    adjoint,
    as_cmatrix,
    is_coisometry,
    orthocomplement,
    read_only,
    require_contraction,
    spectral_norm,
    spectral_norms,
)
from .series import MatrixSeries
from .sysco import orbit


@dataclass(frozen=True)
class InterpProblem:
    """The contraction ``[w1; w2] : F -> Y (+) U`` with ``F`` inside ``U``.

    ``omega1`` (y_dim x dim F) and ``omega2`` (u_dim x dim F) act on
    F-coordinates; ``F.basis`` embeds those coordinates into ``C^u_dim``.
    Both are stored as read-only copies, which later writes to the caller's
    arrays cannot reach. ``tol`` holds the thresholds of every check on the
    problem: the stacked operator's adjoint must pass
    ``opcore.require_contraction`` (``NotAContraction`` otherwise), and the
    verdicts of this module and of :mod:`rclkit.redheffer` read it from here.
    """

    u_dim: int
    y_dim: int
    F: SubspaceBasis
    omega1: CMatrix
    omega2: CMatrix
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self):
        if self.F.ambient_dim != self.u_dim:
            raise DimensionMismatch(
                f"F lives in C^{self.F.ambient_dim} but the problem has u_dim={self.u_dim}"
            )
        f = self.F.dim
        object.__setattr__(self, "omega1", read_only(as_cmatrix(self.omega1, rows=self.y_dim, cols=f)))
        object.__setattr__(self, "omega2", read_only(as_cmatrix(self.omega2, rows=self.u_dim, cols=f)))
        # omega*, whose defect realize takes with no check of its own: the
        # norms of M and M* can differ in the last bit
        require_contraction(adjoint(self.omega), self.tol, what="stacked operator norm")

    @property
    def f_dim(self) -> int:
        return self.F.dim

    @property
    def omega(self) -> CMatrix:
        """The stacked (y_dim + u_dim) x dim F contraction."""
        return np.vstack([self.omega1, self.omega2])

    def state_operator(self) -> CMatrix:
        """``w2 P_F`` as a map of C^u_dim into itself."""
        return self.omega2 @ self.F.coords()

    def output_row(self) -> CMatrix:
        """``w1 P_F`` as a map of C^u_dim into C^y_dim."""
        return self.omega1 @ self.F.coords()

    def complement(self) -> SubspaceBasis:
        """``G = U (-) F``."""
        return orthocomplement(self.F)


def central_taylor(problem: InterpProblem, order: int) -> MatrixSeries:
    """Taylor coefficients ``h_n = w1 P_F (w2 P_F)^n`` of the central solution.

    The orbit of ``w1 P_F`` under ``w2 P_F``; no matrix inversion is involved.
    """
    coeffs = orbit(problem.output_row(), problem.state_operator(), order)
    return MatrixSeries(coeffs)


@dataclass(frozen=True)
class SolutionReport:
    """Outcome of checking a candidate solution.

    ``interp_residuals[n]`` is the norm of the n-th coefficient-recursion
    defect; ``gram_excess`` is how far the coefficient Gram matrix sticks
    out of the unit ball (0 when inside).
    """

    interp_ok: bool
    ball_ok: bool
    interp_residuals: tuple[float, ...]
    gram_excess: float

    @property
    def max_interp_residual(self) -> float:
        return max(self.interp_residuals)

    @property
    def ok(self) -> bool:
        return self.interp_ok and self.ball_ok


def is_solution(problem: InterpProblem, H: MatrixSeries) -> SolutionReport:
    """Check the coefficient recursion and the coefficient-Gram ball bound.

    ``interp_ok`` holds iff ``h_0 F.basis = w1`` and
    ``h_{n+1} F.basis = h_n w2`` for every ``n < H.order`` within
    the problem's ``identity_tol``; ``ball_ok`` holds iff
    ``sum_n h_n* h_n <= (1 + identity_tol) I``.
    """
    if H.order < 1:
        raise InvalidInput("candidate series must carry at least coefficients h0 and h1")
    if (H.out_dim, H.in_dim) != (problem.y_dim, problem.u_dim):
        raise DimensionMismatch(
            f"series maps {H.in_dim}->{H.out_dim}, problem needs {problem.u_dim}->{problem.y_dim}"
        )
    h = H.coeffs
    stacked = h.reshape((H.order + 1) * H.out_dim, H.in_dim)
    # |re|, |im| <= peak bounds each entry of gram + gram* by 4 · rows · peak²
    peak = max(np.max(np.abs(h.real), initial=0.0), np.max(np.abs(h.imag), initial=0.0))
    if peak > np.sqrt(np.finfo(np.float64).max / (4 * max(1, stacked.shape[0]))):
        raise InvalidInput(f"candidate coefficients up to {peak:.3g} overflow the Gram sum_n h_n* h_n")
    # h_0 against w1, then h_(n+1) against h_n w2: one GEMM each on the stacked rows
    delta = (stacked @ problem.F.basis).reshape(H.order + 1, H.out_dim, problem.f_dim)
    delta[0] -= problem.omega1
    delta[1:] -= (stacked[: H.order * H.out_dim] @ problem.omega2).reshape(delta[1:].shape)
    residuals = spectral_norms(delta)
    gram = adjoint(stacked) @ stacked
    # max(0, lambda_max - 1), and 0 when U = {0}
    excess = float(np.max(np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0), initial=1.0)) - 1.0
    limit = problem.tol.identity_tol
    return SolutionReport(bool(np.all(residuals <= limit)), excess <= limit, tuple(residuals.tolist()), excess)


class UniquenessKind(enum.Enum):
    """Why (or whether) the central solution is the only solution."""

    FULL_DOMAIN = "unique_i"          # F is all of U
    COISOMETRIC_CHAIN = "unique_ii"   # every w1 (P_F w2)^n is a co-isometry
    NOT_UNIQUE = "not_unique"


@dataclass(frozen=True)
class UniquenessVerdict:
    kind: UniquenessKind
    failing_n: int | None = None

    @property
    def unique(self) -> bool:
        return self.kind is not UniquenessKind.NOT_UNIQUE


def scan_bound(problem: InterpProblem) -> int:
    """Largest chain index that must be examined: ``floor(dim F / y_dim)``.

    If ``w1 (P_F w2)^n`` were a co-isometry for every ``n`` up to this bound,
    the subspaces ``(w2* P_F*)^n w1* Y`` would be mutually orthogonal inside
    ``F``, each of dimension ``y_dim``, exceeding ``dim F`` - impossible. So
    a failure is guaranteed within the bound whenever ``y_dim > 0``.
    """
    return problem.f_dim // problem.y_dim if problem.y_dim else 0


def uniqueness(problem: InterpProblem) -> UniquenessVerdict:
    """Decide whether the central solution is the only solution.

    The trichotomy is exact in finite dimensions: F = U, or Y = {0} (the
    only way the co-isometry chain can survive when U is finite
    dimensional), or a chain failure at some index within ``scan_bound``.

    Raises:
        InternalContradiction: if the scan exhausts its bound without a
            failure while ``y_dim > 0`` - a sign the tolerance is too loose.
    """
    if problem.f_dim == problem.u_dim:
        return UniquenessVerdict(UniquenessKind.FULL_DOMAIN)
    if problem.y_dim == 0:
        return UniquenessVerdict(UniquenessKind.COISOMETRIC_CHAIN)
    step = problem.F.coords() @ problem.omega2  # P_F w2 on F-coordinates
    for n, chain in enumerate(orbit(problem.omega1, step, scan_bound(problem))):
        if not is_coisometry(chain, problem.tol):
            return UniquenessVerdict(UniquenessKind.NOT_UNIQUE, failing_n=n)
    raise InternalContradiction(
        "co-isometry chain survived past its guaranteed failure bound; identity_tol is too loose"
    )


def central_coefficients_coisometric(problem: InterpProblem, order: int) -> bool:
    """Whether the stacked-coefficient operator of the central solution is a co-isometry.

    Checks ``h_i h_j* = delta_ij I_Y`` for all ``0 <= i, j <= order`` at once,
    as the co-isometry deficiency of the stacked coefficients; the
    caller must supply ``order >= scan_bound(problem) + 1`` so that a
    failure cannot hide beyond the truncation.
    """
    needed = scan_bound(problem) + 1
    if order < needed:
        raise InvalidInput(f"order {order} is below the decisive bound {needed}")
    stacked = central_taylor(problem, order).coeffs.reshape((order + 1) * problem.y_dim, problem.u_dim)
    return is_coisometry(stacked, problem.tol)


@dataclass(frozen=True)
class SecondSolution:
    """A constant free parameter whose solution differs from the central one."""

    parameter: CMatrix            # contraction from G into the adjoint defect space
    solution: MatrixSeries
    first_diff_index: int
    gap: float


#: Power-iteration steps for the top singular direction of ``L_n``. The
#: witness needs only ``L_n(V) != 0``, so the steps buy gap, not correctness.
_POWER_STEPS = 30


def second_solution_witness(problem: InterpProblem, order: int = 32, seed: int = 0) -> SecondSolution | None:
    """Produce a verified second solution, or ``None`` when the solution is unique.

    Every solution is ``H_V = H_c + Phi21 V (I - Phi11 V)^{-1} Phi12``, and
    ``Phi11(0) = 0``. So for a constant ``V`` the solutions agree below the
    chain-failure index ``n = uniqueness(problem).failing_n``, and their
    difference at ``n`` is linear in ``V``:

        ``L_n(V) = sum_{i+j=n} Phi21_i V Phi12_j``.

    The witness parameter is ``0.9 V / |V|`` for ``V`` the top right
    singular direction of ``L_n``, found by ``_POWER_STEPS`` steps of power
    iteration with ``L_n`` and ``L_n*`` from the all-ones start (each step
    is ``n + 1`` small products, both ways through the ``y x dim G``
    intermediate; the Kronecker matrix of ``L_n`` is never formed). One
    ``lft_solution`` gives its solution.

    The construction is deterministic. ``seed`` is ignored; it keeps its
    place so that positional callers keep working.

    Raises:
        InvalidInput: when ``order`` is below ``n``, where no two solutions differ.
        InternalContradiction: when ``L_n`` vanishes on the start or the
            candidate does not separate from the central solution.
    """
    return _witness(problem, uniqueness(problem), order)


def _witness(problem: InterpProblem, verdict: UniquenessVerdict, order: int) -> SecondSolution | None:
    """:func:`second_solution_witness` given the problem's ``verdict``."""
    if verdict.unique:
        return None
    n = verdict.failing_n
    if order < n:
        raise InvalidInput(
            f"witness order {order} is below the chain-failure index {n}; no two solutions differ before it"
        )

    realization = redheffer.realize(problem)
    _, phi12, phi21, _ = redheffer.phi_taylor(realization, n)
    left, right = phi21.coeffs, phi12.coeffs[::-1]   # Phi21_i beside Phi12_(n-i)
    left_adj, right_adj = adjoint(left), adjoint(right)
    v = np.ones((realization.defect_dim, realization.complement_dim), dtype=np.complex128)
    for _ in range(_POWER_STEPS):
        image = (left @ v @ right).sum(axis=0)
        size = np.linalg.norm(image)
        if size == 0.0:
            raise InternalContradiction(f"the difference map at chain-failure index {n} vanishes")
        v = (left_adj @ ((image / size) @ right_adj)).sum(axis=0)
    param = 0.9 * v / spectral_norm(v)

    candidate = redheffer.lft_solution(realization, redheffer.SchurParameter.constant(param, problem.tol), order)
    gaps = spectral_norms(candidate.coeffs - central_taylor(problem, order).coeffs)
    separated = gaps > 10.0 * problem.tol.identity_tol
    if not separated.any():
        raise InternalContradiction("failed to separate two solutions of a non-unique problem")
    return SecondSolution(param, candidate, int(np.argmax(separated)), float(gaps.max()))
