"""Dense complex-matrix primitives: norms, defect operators, range closures,
subspace algebra, and contraction/isometry/co-isometry predicates.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Zero-dimensional matrices (0 rows and/or 0 columns) are first-class: they
represent maps into or out of the zero space, and every operation below
handles them without caller-side branching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotAContraction

#: Alias for documentation purposes: a 2-D complex128 ndarray.
CMatrix = np.ndarray


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library.

    Attributes:
        rank_tol: relative cut deciding numerical rank / defect dimensions.
        contraction_slack: roundoff allowance when checking operator norms
            against 1; values above the slack are hard errors, never
            silently renormalized.
        identity_tol: allowance when checking exact operator identities
            (intertwining relations, Gram identities, co-isometry defects).
    """

    rank_tol: float = 1e-10
    contraction_slack: float = 1e-10
    identity_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol", "contraction_slack", "identity_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InvalidInput(f"tolerance {name} must be a nonnegative finite real, got {value!r}")


DEFAULT_TOL = Tolerances()


def _resolve_tol(tol: Tolerances | None) -> Tolerances:
    return DEFAULT_TOL if tol is None else tol


def as_cmatrix(value, rows: int | None = None, cols: int | None = None) -> CMatrix:
    """Coerce ``value`` to a finite 2-D complex128 array, optionally checking its shape."""
    M = np.asarray(value, dtype=np.complex128)
    if M.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise InvalidInput("matrix has non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {M.shape[1]}")
    return M


def adjoint(M: CMatrix) -> CMatrix:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(M.conj(), -1, -2)


def spectral_norm(M) -> float:
    """Largest singular value of ``M``; 0 for any zero-dimensional matrix."""
    return float(spectral_norms(as_cmatrix(M)[None])[0])


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a ``(k, rows, cols)`` stack,
    by one batched SVD; 0 for every block of a zero-size stack."""
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.size == 0:
        return np.zeros(stack.shape[0])
    return np.linalg.norm(stack, 2, axis=(1, 2))


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of C^ambient_dim given by a matrix with orthonormal columns.

    ``basis`` has shape ``(ambient_dim, dim)``; ``basis* @ basis = I`` is
    verified at construction within ``1e-12 * ambient_dim``.
    """

    ambient_dim: int
    basis: CMatrix

    def __post_init__(self):
        basis = as_cmatrix(self.basis, rows=self.ambient_dim)
        object.__setattr__(self, "basis", basis)
        k = basis.shape[1]
        if k > self.ambient_dim:
            raise DimensionMismatch(f"subspace dimension {k} exceeds ambient dimension {self.ambient_dim}")
        if isometry_deficiency(basis) > 1e-12 * max(1, self.ambient_dim):
            raise InvalidInput("subspace basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> CMatrix:
        """Orthogonal projector of C^ambient onto the subspace (ambient x ambient)."""
        return self.basis @ adjoint(self.basis)

    def coords(self) -> CMatrix:
        """Projection onto the subspace viewed as a map onto it (dim x ambient)."""
        return adjoint(self.basis)


def full_space(n: int) -> SubspaceBasis:
    """The whole of C^n."""
    return SubspaceBasis(n, np.eye(n, dtype=np.complex128))


def range_closure_basis(M, tol: Tolerances | None = None) -> SubspaceBasis:
    """Orthonormal basis of the range of ``M``.

    Rank is decided by singular values exceeding ``rank_tol * sigma_max``
    (dimension 0 when ``sigma_max == 0``), which keeps the cut scale
    invariant.
    """
    tol = _resolve_tol(tol)
    M = as_cmatrix(M)
    n = M.shape[0]
    if min(M.shape) == 0:
        return SubspaceBasis(n, np.zeros((n, 0), dtype=np.complex128))
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    if s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol.rank_tol * s[0]))
    return SubspaceBasis(n, u[:, :rank])


def defect(N, tol: Tolerances | None = None) -> tuple[CMatrix, SubspaceBasis]:
    """Defect operator and defect space of a contraction.

    Returns ``(D, space)`` where ``D`` is the Hermitian PSD square root of
    ``I - N*N`` (eigenvalues clamped at 0 from below) and ``space`` spans the
    closure of ``range(D)``.

    The rank cut acts on the eigenvalues of ``I - N*N`` with threshold
    ``rank_tol * max(1, mu_max)``: for a contraction that matrix has norm at
    most 1 + slack, so the cut is effectively absolute at ``rank_tol``. A
    cut relative to the largest singular value of ``D`` itself would keep
    pure-roundoff directions for near-isometric ``N``.

    Raises:
        NotAContraction: if ``spectral_norm(N) > 1 + contraction_slack``.
    """
    tol = _resolve_tol(tol)
    N = as_cmatrix(N)
    nrm = spectral_norm(N)
    if nrm > 1.0 + tol.contraction_slack:
        raise NotAContraction(f"operator norm {nrm:.17g} exceeds 1 + slack")
    q = N.shape[1]
    gram = np.eye(q, dtype=np.complex128) - adjoint(N) @ N
    gram = (gram + adjoint(gram)) / 2.0
    if q == 0:
        D = np.zeros((0, 0), dtype=np.complex128)
        return D, SubspaceBasis(0, D)
    mu, vecs = np.linalg.eigh(gram)
    mu = np.clip(mu, 0.0, None)
    # descending order for deterministic bases
    order = np.argsort(mu)[::-1]
    mu, vecs = mu[order], vecs[:, order]
    D = (vecs * np.sqrt(mu)) @ adjoint(vecs)
    D = (D + adjoint(D)) / 2.0
    cut = tol.rank_tol * max(1.0, float(mu[0]))
    rank = int(np.sum(mu > cut))
    return D, SubspaceBasis(q, vecs[:, :rank])


#: Columns per slab of a Gram sum: no conjugate copy of a whole operator is held.
_GRAM_SLAB = 256


def coisometry_deficiency(M) -> float:
    """``norm(M M* - I)``; 0 for a matrix with 0 rows (co-isometry onto {0}).

    ``M M*`` is summed over column slabs and the identity subtracted in
    place; the result is Hermitian, so its eigenvalues give the norm.
    """
    M = as_cmatrix(M)
    p = M.shape[0]
    if p == 0:
        return 0.0
    gram = M[:, :_GRAM_SLAB] @ adjoint(M[:, :_GRAM_SLAB])
    for j in range(_GRAM_SLAB, M.shape[1], _GRAM_SLAB):
        slab = M[:, j:j + _GRAM_SLAB]
        gram += slab @ adjoint(slab)
    gram.ravel()[:: p + 1] -= 1.0
    return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def is_coisometry(M, tol: Tolerances | None = None) -> bool:
    """True iff ``M M* = I`` within ``identity_tol``."""
    tol = _resolve_tol(tol)
    return coisometry_deficiency(M) <= tol.identity_tol


def isometry_deficiency(M) -> float:
    """``norm(M* M - I)``; 0 for a matrix with 0 columns. ``M* M`` is the
    conjugate of ``M^T (M^T)*``, so this is the transpose's co-isometry deficiency."""
    return coisometry_deficiency(as_cmatrix(M).T)


def is_isometry(M, tol: Tolerances | None = None) -> bool:
    """True iff ``M* M = I`` within ``identity_tol``."""
    tol = _resolve_tol(tol)
    return isometry_deficiency(M) <= tol.identity_tol


def psd_order_leq(P, Q, tol: Tolerances | None = None) -> bool:
    """True iff ``Q - P`` is positive semidefinite up to ``identity_tol``.

    Both operands must be square of equal size; they are Hermitized before
    the eigenvalue test.
    """
    tol = _resolve_tol(tol)
    P = as_cmatrix(P)
    Q = as_cmatrix(Q)
    if P.shape != Q.shape or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"psd_order_leq needs equal square shapes, got {P.shape} and {Q.shape}")
    if P.shape[0] == 0:
        return True
    diff = Q - P
    diff = (diff + adjoint(diff)) / 2.0
    return float(np.linalg.eigvalsh(diff)[0]) >= -tol.identity_tol


def orthocomplement(space: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement within the ambient space."""
    n, k = space.ambient_dim, space.dim
    if k == 0:
        return full_space(n)
    # null space of basis*, i.e. the trailing right singular directions
    _, _, vh = np.linalg.svd(adjoint(space.basis), full_matrices=True)
    return SubspaceBasis(n, adjoint(vh[k:, :]))


def join(s1: SubspaceBasis, s2: SubspaceBasis, tol: Tolerances | None = None) -> SubspaceBasis:
    """Closed linear span of two subspaces of the same ambient space."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")
    return range_closure_basis(np.hstack([s1.basis, s2.basis]), tol)
