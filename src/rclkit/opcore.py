"""Dense complex-matrix primitives: norms, defect operators, range closures,
subspace algebra, and contraction/isometry/co-isometry predicates.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Zero-dimensional matrices (0 rows and/or 0 columns) are first-class: they
represent maps into or out of the zero space, and every operation below
takes them through the same code as any other matrix, with no branch on a
zero dimension. Each reduction over a possibly empty spectrum names the
value of its empty case (``initial=``).

Each threshold check costs only what its verdict needs. A spectral norm is
the square root of the top eigenvalue of the short-side Gram, for a whole
stack in one batched ``eigvalsh`` (``spectral_norms``). Every contraction
verdict, ``defect``'s too, is ``require_contraction``: it passes a matrix
whose Frobenius norm, or failing that a Cholesky factor of its shifted
short-side Gram, certifies a norm a relative margin below ``1 + slack``,
and measures ``spectral_norm`` otherwise; that one value decides every
failure and every norm inside the margin, and words the message. The margin
exceeds the roundoff of both bounds and of the measurement, so each verdict
is the measured norm's. ``coisometry_within`` decides
``norm(M M* - I) <= limit`` from the Frobenius norm of the deviation, which
bounds its spectral norm from above and, divided by the square root of its
size, from below, and computes eigenvalues only when ``limit`` falls
between the two bounds; ``coisometry_deficiency`` is the exact measured
value. ``defect_spectrum`` is the one eigensolve of ``I - N*N``; ``defect``
forms ``D`` from it, and ``redheffer.realize`` reads ``D*`` on its defect
space off it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotAContraction

#: Alias for documentation purposes: a 2-D complex128 ndarray.
CMatrix = np.ndarray


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library.

    Each value is stored as a ``float``; anything but a nonnegative finite
    real that fits a float (a bool included) is ``InvalidInput``.

    Attributes:
        rank_tol: relative cut deciding numerical rank / defect dimensions.
        contraction_slack: roundoff allowance when checking operator norms
            against 1 (:func:`exceeds_one`); norms beyond it are hard
            errors, never silently renormalized.
        identity_tol: allowance when checking exact operator identities
            (intertwining relations, Gram identities, co-isometry defects).
    """

    rank_tol: float = 1e-10
    contraction_slack: float = 1e-10
    identity_tol: float = 1e-8

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if isinstance(value, numbers.Real) and not isinstance(value, bool):
                try:
                    value = float(value)
                except OverflowError as exc:
                    raise InvalidInput(f"tolerance {name} is too large for a float") from exc
            if not (isinstance(value, float) and 0 <= value < math.inf):
                raise InvalidInput(f"tolerance {name} must be a nonnegative finite real, got {value!r}")
            object.__setattr__(self, name, value)


DEFAULT_TOL = Tolerances()


def as_cmatrix(value, rows: int | None = None, cols: int | None = None) -> CMatrix:
    """Coerce ``value`` to a finite 2-D complex128 array, optionally checking its shape."""
    try:
        M = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("matrix entries do not form one 2-D array of complex numbers") from exc
    if M.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("matrix has non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {M.shape[1]}")
    return M


def read_only(M: CMatrix) -> CMatrix:
    """A copy of ``M`` that refuses writes, so no later write, to the
    caller's array or through the copy, gets past the checks made when it
    was stored. It keeps ``M``'s memory layout, and with it the bits of every
    product formed from it."""
    M = M.copy(order="K")
    M.flags.writeable = False
    return M


def adjoint(M: CMatrix) -> CMatrix:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(M.conj(), -1, -2)


def spectral_norm(M) -> float:
    """Largest singular value of ``M``; 0 for any zero-dimensional matrix."""
    return float(spectral_norms(as_cmatrix(M)[None])[0])


@np.errstate(over="ignore")
def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a ``(k, rows, cols)`` stack;
    0 for every block of a zero-size stack, ``inf`` beyond the float range.

    Each value is the square root of the top eigenvalue of the matrix's
    short-side Gram, all by one batched ``eigvalsh``. Before the Gram is
    formed each matrix is scaled by the exact power of two that brings its
    largest real or imaginary part in modulus into ``[1/2, 1)``, so the Gram neither
    overflows nor underflows; the norm is scaled back by the same power.
    """
    stack = np.ascontiguousarray(stack, dtype=np.complex128)
    parts = stack.view(np.float64)    # real and imaginary parts side by side
    exponent = np.frexp(np.abs(parts).max(axis=(-2, -1), initial=0.0))[1]
    scaled = np.ldexp(parts, -exponent[:, None, None]).view(np.complex128)
    if scaled.shape[-2] > scaled.shape[-1]:
        scaled = np.swapaxes(scaled, -1, -2)    # M^T has the singular values of M
    top = np.linalg.eigvalsh(scaled @ adjoint(scaled)).max(axis=-1, initial=0.0)
    return np.ldexp(np.sqrt(top), exponent)


def exceeds_one(nrm: float, tol: Tolerances) -> bool:
    """The one contraction rule, ``nrm - 1 > contraction_slack``, in this form at every site."""
    return nrm - 1.0 > tol.contraction_slack


def _contraction_margin(shape) -> float:
    """Relative margin below ``1 + slack`` within which no bound may pass a
    matrix of this shape: above the roundoff of its Frobenius norm and
    short-side Gram, of a Cholesky factor (Higham, Thm 10.3: about
    ``n (n + 1) eps``) and of ``eigvalsh``, so that every matrix a bound
    passes also passes its measured ``spectral_norm``."""
    n = max(shape)
    return max(2.0 ** -26, 8 * n * n * np.finfo(np.float64).eps)


@np.errstate(over="ignore")
def _certified_contraction(M: CMatrix, slack: float) -> bool:
    """Whether ``norm(M) <= (1 + slack)(1 - margin)`` is certified: by the
    Frobenius norm, else by a Cholesky factor of ``(1 + slack)^2 (1 - margin) I - G``
    for ``G`` the short-side Gram (not tried when the Frobenius norm is not
    finite or so large that ``G`` could overflow). False settles nothing."""
    limit = (1.0 + slack) * (1.0 - _contraction_margin(M.shape))
    frobenius = float(np.linalg.norm(M))
    if frobenius <= limit:
        return True
    if not frobenius <= 1e150:
        return False
    if M.shape[0] > M.shape[1]:
        M = M.T    # M^T has the singular values of M
    shifted = -(M @ adjoint(M))
    shifted.ravel()[:: M.shape[0] + 1] += (1.0 + slack) * limit
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def require_contraction(M, tol: Tolerances, error: type = NotAContraction, what: str = "operator norm") -> None:
    """Raise ``error("<what> <norm> exceeds 1 + slack")`` when ``spectral_norm(M)`` fails ``exceeds_one``.

    A matrix that a certified bound places a margin below ``1 + slack``
    passes without ``eigvalsh``; any other matrix is measured, and the
    measured norm decides and words the verdict. The margin only chooses
    between the two ways to the same verdict.
    """
    M = as_cmatrix(M)
    if _certified_contraction(M, tol.contraction_slack):
        return
    nrm = spectral_norm(M)
    if exceeds_one(nrm, tol):
        raise error(f"{what} {nrm:.17g} exceeds 1 + slack")


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of C^ambient_dim given by a matrix with orthonormal columns.

    ``basis`` has shape ``(ambient_dim, dim)``; ``basis* @ basis = I`` is
    verified at construction within ``1e-12 * ambient_dim``, on a read-only
    copy that later writes to the caller's array cannot reach.
    """

    ambient_dim: int
    basis: CMatrix

    def __post_init__(self):
        basis = read_only(as_cmatrix(self.basis, rows=self.ambient_dim))
        object.__setattr__(self, "basis", basis)
        k = basis.shape[1]
        if k > self.ambient_dim:
            raise DimensionMismatch(f"subspace dimension {k} exceeds ambient dimension {self.ambient_dim}")
        if not coisometry_within(basis.T, 1e-12 * max(1, self.ambient_dim)):    # basis* basis = I
            raise InvalidInput("subspace basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coords(self) -> CMatrix:
        """Projection onto the subspace viewed as a map onto it (dim x ambient)."""
        return adjoint(self.basis)


def range_closure_basis(M, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the range of ``M``.

    Rank is decided by singular values exceeding ``rank_tol * sigma_max``
    (dimension 0 when ``sigma_max == 0``), which keeps the cut scale
    invariant.
    """
    M = as_cmatrix(M)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol.rank_tol * s.max(initial=0.0)))
    return SubspaceBasis(M.shape[0], u[:, :rank])


def defect_spectrum(N, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, CMatrix, SubspaceBasis]:
    """The eigensystem behind :func:`defect`, with no contraction check.

    Returns ``(roots, vecs, space)``: the square roots of the eigenvalues of
    ``I - N*N`` (clamped at 0 from below) in descending order, their
    eigenvectors as the columns of ``vecs``, so that ``D = vecs diag(roots) vecs*``,
    and the defect space spanned by the leading columns the rank cut keeps.
    ``D`` on that space is ``space.basis * roots[:space.dim]``.

    The rank cut acts on the eigenvalues of ``I - N*N`` with threshold
    ``rank_tol * max(1, mu_max)``: for a contraction that matrix has norm at
    most 1 + slack, so the cut is effectively absolute at ``rank_tol``. A
    cut relative to the largest singular value of ``D`` itself would keep
    pure-roundoff directions for near-isometric ``N``.
    """
    N = as_cmatrix(N)
    q = N.shape[1]
    gram = np.eye(q, dtype=np.complex128) - adjoint(N) @ N
    gram = (gram + adjoint(gram)) / 2.0
    mu, vecs = np.linalg.eigh(gram)
    mu = np.clip(mu, 0.0, None)
    # descending order for deterministic bases
    order = np.argsort(mu)[::-1]
    mu, vecs = mu[order], vecs[:, order]
    cut = tol.rank_tol * float(mu.max(initial=1.0))
    rank = int(np.sum(mu > cut))
    return np.sqrt(mu), vecs, SubspaceBasis(q, vecs[:, :rank])


def defect(N, tol: Tolerances = DEFAULT_TOL) -> tuple[CMatrix, SubspaceBasis]:
    """Defect operator and defect space of a contraction.

    Returns ``(D, space)`` where ``D`` is the Hermitian PSD square root of
    ``I - N*N`` (eigenvalues clamped at 0 from below) and ``space`` spans the
    closure of ``range(D)``, both from :func:`defect_spectrum`.

    The contraction check is :func:`require_contraction`, before ``N*N`` is formed.

    Raises:
        NotAContraction: if ``norm(N) - 1 > contraction_slack``.
    """
    require_contraction(N, tol)
    roots, vecs, space = defect_spectrum(N, tol)
    D = (vecs * roots) @ adjoint(vecs)
    D = (D + adjoint(D)) / 2.0
    return D, space


@np.errstate(over="ignore", invalid="ignore")
def _coisometry_gap(M) -> CMatrix:
    """``M M* - I``, made exactly Hermitian, so that its Frobenius norm and
    its eigenvalues measure one matrix even where the entries are roundoff;
    the identity is subtracted in place, and an overflow is left as ``inf``."""
    M = as_cmatrix(M)
    gram = M @ adjoint(M)
    gap = (gram + adjoint(gram)) / 2.0
    gap.ravel()[:: M.shape[0] + 1] -= 1.0
    return gap


def hermitian_norm(E: CMatrix) -> float:
    """Spectral norm of the Hermitian matrix with ``E``'s lower triangle; 0 if empty, inf if not finite."""
    if not np.all(np.isfinite(E)):
        return math.inf
    return float(np.abs(np.linalg.eigvalsh(E)).max(initial=0.0))


def coisometry_deficiency(M) -> float:
    """``norm(M M* - I)``, measured exactly; 0 for a matrix with 0 rows
    (co-isometry onto {0})."""
    return hermitian_norm(_coisometry_gap(M))


@np.errstate(over="ignore")
def coisometry_within(M, limit: float) -> bool:
    """Whether ``coisometry_deficiency(M) <= limit``.

    The Frobenius norm ``f`` of the ``r``-square ``M M* - I`` bounds its
    spectral norm from above and ``f / sqrt(r)`` from below; the
    eigenvalues are computed only when ``limit`` lies between the two.
    """
    gap = _coisometry_gap(M)
    frobenius = float(np.linalg.norm(gap))
    if frobenius <= limit:
        return True
    if limit * math.sqrt(gap.shape[0]) < frobenius < math.inf:    # an overflowed f bounds nothing
        return False
    return hermitian_norm(gap) <= limit


def is_coisometry(M, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``M M* = I`` within ``identity_tol``."""
    return coisometry_within(M, tol.identity_tol)


def orthocomplement(space: SubspaceBasis) -> SubspaceBasis:
    """Orthogonal complement within the ambient space."""
    # null space of basis*, i.e. the trailing right singular directions
    # (all of them, I_n, when the subspace is {0})
    _, _, vh = np.linalg.svd(adjoint(space.basis), full_matrices=True)
    return SubspaceBasis(space.ambient_dim, adjoint(vh[space.dim:, :]))
