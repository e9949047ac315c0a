"""Co-isometric state-space systems and their exact stacked Gram identity.

A quadruple ``{A, B, C, D}`` is co-isometric when the block matrix
``[[A, B], [C, D]]`` satisfies ``M M* = I``. Its transfer function
``F(lam) = D + lam C (I - lam A)^{-1} B`` and observability function
``W(lam) = C (I - lam A)^{-1}`` then satisfy, blockwise and with finite
exact sums at every truncation,

    ``T_F T_F* + G_W G_W* = I``

where ``T_F`` is the lower-triangular block Toeplitz matrix of transfer
coefficients and ``G_W`` stacks the observability coefficients.

The audit of that identity never forms ``[T_F, G_W]``. Its deviation
``E = [T_F, G_W][T_F, G_W]* - I`` follows from the system's own block
matrix by the one-step recursion

    ``E_(i+1)(j+1) = E_ij + W_i X W_j*``,  ``W_i = C A^i``,  ``X = AA* + BB* - I``,

from the first block column ``E_00 = CC* + DD* - I``,
``E_i0 = W_(i-1) (DB* + CA*)*``. For ``b`` blocks, ``w`` outputs, ``v``
inputs and ``x`` states that is O(b² w² x) work plus one ``eigvalsh`` of
the ``bw``-square ``E``, against O(b³ w² v) for the explicit product of the
``bw × (bv + x)`` operator, which ``stacked_operator`` still builds as the
reference.

This is the library's one system type: the Redheffer realization of the
solution family is a subclass, and ``orbit`` is its one ``C A^n`` recursion: one
array that reshapes into ``G_W`` and, times ``B``, gives ``F``'s coefficients.
``orbit``'s docstring states when it doubles.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import AuditFailure, InvalidInput
from .opcore import (
    DEFAULT_TOL,
    CMatrix,
    Tolerances,
    adjoint,
    as_cmatrix,
    coisometry_deficiency,
    coisometry_within,
    defect,
    hermitian_norm,
    read_only,
)
from .series import MatrixSeries


@dataclass(frozen=True)
class CoisometricSystem:
    """Validated at construction: ``AuditFailure``, carrying the deviation,
    when the block matrix misses a co-isometry by more than ``identity_tol``.
    ``A``, ``B``, ``C`` and ``D`` are stored as read-only copies, which later
    writes to the caller's arrays cannot reach.
    Pass ``validate=False`` to build a deliberately broken system for
    negative-control audits. ``tol`` holds the thresholds of that check and
    of the system's Gram audit (:func:`gram_identity_audit`)."""

    A: CMatrix  # state -> state
    B: CMatrix  # input -> state
    C: CMatrix  # state -> output
    D: CMatrix  # input -> output
    validate: InitVar[bool] = True
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self, validate):
        A = as_cmatrix(self.A)
        x = A.shape[0]
        if A.shape[1] != x:
            raise InvalidInput(f"state operator must be square, got {A.shape}")
        B = as_cmatrix(self.B, rows=x)
        C = as_cmatrix(self.C, cols=x)
        D = as_cmatrix(self.D, rows=C.shape[0], cols=B.shape[1])
        for name, M in zip("ABCD", (A, B, C, D)):
            object.__setattr__(self, name, read_only(M))
        if validate:
            block = self.block_matrix()
            if not coisometry_within(block, self.tol.identity_tol):
                deviation = coisometry_deficiency(block)    # the exact value, for the error
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


def julia_system(T, tol: Tolerances = DEFAULT_TOL) -> CoisometricSystem:
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
    """``C, C A, ..., C A^n`` as one ``(n + 1, rows, cols)`` array: the
    observability recursion behind every coefficient expansion and solution.

    By doubling, the blocks ``k, ..., k + m - 1`` (``m = min(k, n + 1 - k)``)
    are the first ``m`` blocks times ``P = A^k`` in one stacked product, and
    ``P`` is squared between steps: ``bit_length(n)`` products of up to
    ``(n + 1) / 2 * rows`` rows and ``bit_length(n) - 1`` squarings of the
    ``cols``-square ``P``. That runs only when the squarings cost fewer flops
    than the orbit itself, ``bit_length(n) cols³ < n rows cols²``; otherwise
    it is one small product per step. An empty orbit needs no product.
    """
    if n < 0:
        raise InvalidInput(f"order must be nonnegative, got {n}")
    rows, cols = C.shape
    try:
        out = np.empty((n + 1, rows, cols), dtype=np.complex128)   # first: a hopeless order fails at once
    except ValueError as exc:   # past numpy's array-size limit, which no allocation reaches
        raise MemoryError(f"Unable to allocate {n + 1} orbit blocks of {rows}x{cols}: {exc}") from exc
    if not out.size:
        return out
    flat = out.reshape((n + 1) * rows, cols)   # a view of the fresh array, never a copy
    out[0] = C
    if n.bit_length() * cols**3 < n * rows * cols**2:
        power, k = A, 1
        while k <= n:
            m = min(k, n + 1 - k)
            np.matmul(flat[:m * rows], power, out=flat[k * rows:(k + m) * rows])
            k += m
            if k <= n:
                power = power @ power
    else:
        for k in range(n):
            np.matmul(out[k], A, out=out[k + 1])
    return out


def transfer_from_orbit(system: CoisometricSystem, observ: np.ndarray) -> MatrixSeries:
    """Transfer coefficients ``F_0 = D`` and ``F_n = C A^(n-1) B`` from the
    observability coefficients ``orbit(C, A, order)``, to the same order."""
    coeffs = np.concatenate([system.D[None], observ[:-1] @ system.B])
    return MatrixSeries(coeffs)


def stacked_operator(system: CoisometricSystem, blocks: int) -> CMatrix:
    """``[T_F, G_W]`` truncated to the given number of block rows; one orbit
    serves both parts."""
    if blocks < 1:
        raise InvalidInput(f"need at least one block, got {blocks}")
    observ = orbit(system.C, system.A, blocks - 1)
    transfer = transfer_from_orbit(system, observ).toeplitz(blocks)
    return np.hstack([transfer, observ.reshape(blocks * system.out_dim, system.state_dim)])


@np.errstate(over="ignore", invalid="ignore")    # an overflow is an InvalidInput below
def gram_identity_audit(system: CoisometricSystem, blocks: int) -> float:
    """Max deviation of ``T_F T_F* + G_W G_W*`` from the identity.

    Builds ``E = [T_F, G_W][T_F, G_W]* - I`` by the module's recursion,
    never the stacked operator: block row ``r`` is row ``r - 1`` shifted
    right plus ``(W X)_(r-1) [W_0, ..., W_(r-1)]*``, written into its slice,
    lower block triangle only (all that ``eigvalsh`` reads). Cost: O(b² w² x)
    plus one ``eigvalsh`` of the ``bw``-square ``E``, whose spectral norm is
    the deviation.

    Every entry is a finite exact sum, so the deviation is pure roundoff
    for a genuine co-isometric system. A system with no states or no
    outputs has an empty orbit, so ``E`` is ``E_00`` repeated down its
    diagonal: it is audited on one block, whatever ``blocks`` is, and its
    messages name ``blocks``.

    Raises:
        InvalidInput: for ``blocks < 1``, or when ``C A^i`` or ``E`` overflows.
        AuditFailure: when the deviation exceeds the system's
            ``identity_tol``; this is the signal that the input system is
            not co-isometric.
    """
    if blocks < 1:
        raise InvalidInput(f"need at least one block, got {blocks}")
    A, B, C, D = system.A, system.B, system.C, system.D
    x, w = system.state_dim, system.out_dim
    b = blocks if x and w else 1    # with an empty orbit, E is E_00 down its diagonal
    observ = orbit(C, A, max(b - 2, 0))[:b - 1]
    if not np.all(np.isfinite(observ)):
        raise InvalidInput("series has non-finite coefficients")
    try:
        E = np.zeros((b * w, b * w), dtype=np.complex128)
    except ValueError as exc:   # past numpy's array-size limit
        raise MemoryError(f"Unable to allocate the {b * w}-square Gram deviation: {exc}") from exc
    E[:w, :w] = C @ adjoint(C) + D @ adjoint(D) - np.eye(w)
    E[w:, :w] = (observ @ (B @ adjoint(D) + A @ adjoint(C))).reshape((b - 1) * w, w)
    left = observ @ (A @ adjoint(A) + B @ adjoint(B) - np.eye(x))   # (W X)_i
    right = adjoint(observ.reshape((b - 1) * w, x))                 # [W_0* ... W_(b-2)*]
    for r in range(1, b):
        lo, hi = r * w, (r + 1) * w
        row = E[lo:hi, w:hi]
        np.matmul(left[r - 1], right[:, :lo], out=row)
        row += E[lo - w:lo, :lo]
    deviation = hermitian_norm(E)    # inf when an entry of E or of its spectrum passes the float range
    if deviation == np.inf:
        raise InvalidInput(f"stacked Gram identity overflows on {blocks} blocks")
    if deviation > system.tol.identity_tol:
        raise AuditFailure(
            f"stacked Gram identity deviates by {deviation:.3e} on {blocks} blocks", deviation
        )
    return deviation
