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
explicit second solution whenever it is not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalContradiction,
    InvalidInput,
    NotAContraction,
)
from .opcore import (
    CMatrix,
    SubspaceBasis,
    Tolerances,
    _resolve_tol,
    adjoint,
    as_cmatrix,
    is_coisometry,
    orthocomplement,
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
    The stacked norm may exceed 1 by at most ``tol.contraction_slack``
    (default tolerances when ``tol`` is None).
    """

    u_dim: int
    y_dim: int
    F: SubspaceBasis
    omega1: CMatrix
    omega2: CMatrix
    tol: Tolerances | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.F.ambient_dim != self.u_dim:
            raise DimensionMismatch(
                f"F lives in C^{self.F.ambient_dim} but the problem has u_dim={self.u_dim}"
            )
        f = self.F.dim
        object.__setattr__(self, "omega1", as_cmatrix(self.omega1, rows=self.y_dim, cols=f))
        object.__setattr__(self, "omega2", as_cmatrix(self.omega2, rows=self.u_dim, cols=f))
        nrm = spectral_norm(np.vstack([self.omega1, self.omega2]))
        if nrm > 1.0 + _resolve_tol(self.tol).contraction_slack:
            raise NotAContraction(f"stacked operator norm {nrm:.17g} exceeds 1 + slack")

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
    return MatrixSeries(coeffs, problem.y_dim, problem.u_dim)


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


def is_solution(problem: InterpProblem, H: MatrixSeries, tol: Tolerances | None = None) -> SolutionReport:
    """Check the coefficient recursion and the coefficient-Gram ball bound.

    ``interp_ok`` holds iff ``h_0 F.basis = w1`` and
    ``h_{n+1} F.basis = h_n w2`` for every ``n < H.order`` within
    ``identity_tol``; ``ball_ok`` holds iff ``sum_n h_n* h_n <= (1+tol) I``.
    """
    tol = _resolve_tol(tol)
    if H.order < 1:
        raise InvalidInput("candidate series must carry at least coefficients h0 and h1")
    if (H.out_dim, H.in_dim) != (problem.y_dim, problem.u_dim):
        raise DimensionMismatch(
            f"series maps {H.in_dim}->{H.out_dim}, problem needs {problem.u_dim}->{problem.y_dim}"
        )
    h = H.coeffs
    # h_0 against w1, then h_(n+1) against h_n w2
    targets = np.concatenate([problem.omega1[None], h[:-1] @ problem.omega2])
    residuals = spectral_norms(h @ problem.F.basis - targets)
    stacked = h.reshape((H.order + 1) * H.out_dim, H.in_dim)
    gram = adjoint(stacked) @ stacked
    # max(0, lambda_max - 1), and 0 when U = {0}
    excess = float(np.max(np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0), initial=1.0)) - 1.0
    interp_ok = bool(np.all(residuals <= tol.identity_tol))
    return SolutionReport(interp_ok, excess <= tol.identity_tol, tuple(residuals.tolist()), excess)


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
    if problem.y_dim == 0:
        return 0
    return problem.f_dim // problem.y_dim


def uniqueness(problem: InterpProblem, tol: Tolerances | None = None) -> UniquenessVerdict:
    """Decide whether the central solution is the only solution.

    The trichotomy is exact in finite dimensions: F = U, or Y = {0} (the
    only way the co-isometry chain can survive when U is finite
    dimensional), or a chain failure at some index within ``scan_bound``.

    Raises:
        InternalContradiction: if the scan exhausts its bound without a
            failure while ``y_dim > 0`` - a sign the tolerance is too loose.
    """
    tol = _resolve_tol(tol)
    if problem.f_dim == problem.u_dim:
        return UniquenessVerdict(UniquenessKind.FULL_DOMAIN)
    if problem.y_dim == 0:
        return UniquenessVerdict(UniquenessKind.COISOMETRIC_CHAIN)
    step = problem.F.coords() @ problem.omega2  # P_F w2 on F-coordinates
    for n, chain in enumerate(orbit(problem.omega1, step, scan_bound(problem))):
        if not is_coisometry(chain, tol):
            return UniquenessVerdict(UniquenessKind.NOT_UNIQUE, failing_n=n)
    raise InternalContradiction(
        "co-isometry chain survived past its guaranteed failure bound; identity_tol is too loose"
    )


def central_coefficients_coisometric(problem: InterpProblem, order: int, tol: Tolerances | None = None) -> bool:
    """Whether the stacked-coefficient operator of the central solution is a co-isometry.

    Checks ``h_i h_j* = delta_ij I_Y`` for all ``0 <= i, j <= order`` at once,
    as the co-isometry deficiency of the stacked coefficients; the
    caller must supply ``order >= floor(dim F / max(1, y_dim)) + 1`` so that
    a failure cannot hide beyond the truncation.
    """
    tol = _resolve_tol(tol)
    needed = problem.f_dim // max(1, problem.y_dim) + 1
    if order < needed:
        raise InvalidInput(f"order {order} is below the decisive bound {needed}")
    stacked = central_taylor(problem, order).coeffs.reshape((order + 1) * problem.y_dim, problem.u_dim)
    return is_coisometry(stacked, tol)


@dataclass(frozen=True)
class SecondSolution:
    """A constant free parameter whose solution differs from the central one."""

    parameter: CMatrix            # contraction from G into the adjoint defect space
    solution: MatrixSeries
    first_diff_index: int
    gap: float


_LAMBDA_GRID = (0.0, 0.3, -0.3, 0.3j, -0.3j, 0.6, -0.6, 0.6j, -0.6j)


def _top_right_singular_vector(M: CMatrix) -> tuple[np.ndarray, float]:
    if min(M.shape) == 0:
        return np.zeros(M.shape[1], dtype=np.complex128), 0.0
    _, s, vh = np.linalg.svd(M)
    return vh[0].conj(), float(s[0])


def second_solution_witness(
    problem: InterpProblem,
    order: int = 32,
    seed: int = 0,
    tol: Tolerances | None = None,
) -> SecondSolution | None:
    """Produce a verified second solution, or ``None`` when the solution is unique.

    The construction follows the non-uniqueness mechanism directly: find a
    point ``lam`` on a small grid inside the disc where both off-diagonal
    coefficient functions of the solution family are nonzero, pick the
    dominant singular vectors ``u`` of ``Phi12(lam)`` and ``h`` of
    ``Phi21(lam)``, and build the rank-one contraction sending
    ``Phi12(lam)u + delta*Phi11(lam)h`` to ``delta*h`` (zero on its
    orthocomplement). The scale ``delta = |Phi12(lam)u| / (|Phi11(lam)h| + 2)``
    keeps that map a contraction with margin. If the whole grid fails to
    separate the solutions, a seeded random search over constant contractive
    parameters takes over.
    """
    tol = _resolve_tol(tol)
    verdict = uniqueness(problem, tol)
    if verdict.unique:
        return None

    from . import redheffer  # deferred: redheffer depends on this module's types

    realization = redheffer.realize(problem, tol)
    d_dim, g_dim = realization.defect_dim, realization.complement_dim
    if d_dim == 0 or g_dim == 0:
        raise InternalContradiction("non-unique problem produced a degenerate solution family")
    central = central_taylor(problem, order).coeffs
    threshold = 10.0 * tol.identity_tol

    def assess(param: CMatrix) -> SecondSolution | None:
        candidate = redheffer.lft_solution(
            realization, redheffer.SchurParameter.constant(param, tol), order
        )
        gaps = spectral_norms(candidate.coeffs - central)
        gap = float(gaps.max())
        if gap <= threshold:
            return None
        first = int(np.argmax(gaps > threshold))
        return SecondSolution(param, candidate, first, gap)

    best: SecondSolution | None = None
    for lam in _LAMBDA_GRID:
        phi11, phi12, phi21, _ = redheffer.phi_eval(realization, lam)
        u, s12 = _top_right_singular_vector(phi12)
        h, s21 = _top_right_singular_vector(phi21)
        if s12 < 1e-14 or s21 < 1e-14:
            continue
        f12u = phi12 @ u
        f11h = phi11 @ h
        delta = float(np.linalg.norm(f12u)) / (float(np.linalg.norm(f11h)) + 2.0)
        w = f12u + delta * f11h
        wnorm2 = float(np.vdot(w, w).real)
        param = delta * np.outer(h, w.conj()) / wnorm2
        found = assess(param)
        if found is not None and (best is None or found.gap > best.gap):
            best = found
    if best is not None:
        return best

    rng = np.random.default_rng(seed)
    for _ in range(64):
        raw = rng.standard_normal((d_dim, g_dim)) + 1j * rng.standard_normal((d_dim, g_dim))
        param = 0.9 * raw / max(spectral_norm(raw), 1e-30)
        found = assess(param)
        if found is not None:
            return found
    raise InternalContradiction("failed to separate two solutions of a non-unique problem")
