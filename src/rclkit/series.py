"""Truncated matrix-coefficient power series.

Coefficients are exact for the truncated algebra: no approximation enters
beyond floating-point roundoff. Truncation orders are explicit arguments
everywhere, never ambient state.

``MatrixSeries(coeffs)`` is the container every module returns: one
complex array of shape ``(order + 1, out_dim, in_dim)``, its only field, so
the order and both dimensions are read off its shape and nothing can
disagree with it; a whole series is multiplied, sliced, stacked or normed
by one array operation. Its ``toeplitz`` is the library's one
block-Toeplitz assembly; ``eval`` checks a series pointwise and
``truncate`` pads or cuts it to an order. The arithmetic
below (Cauchy products and inverses cost O(N^2) products to order ``N``)
is a reference: the library itself generates solutions by state-space
recursions, and the tests use these functions as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotInvertible
from .opcore import CMatrix


def _shape_of(c) -> str:
    try:
        return str(np.shape(c))
    except ValueError:  # the coefficient is itself a ragged nested list
        return "ragged"


@dataclass(frozen=True)
class MatrixSeries:
    """Coefficients c0..cN of an analytic function, as one
    ``(N + 1, out_dim, in_dim)`` complex128 array; the order and both
    dimensions are read off its shape."""

    coeffs: np.ndarray

    def __post_init__(self):
        try:
            coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        except ValueError as exc:
            shapes = [_shape_of(c) for c in self.coeffs]
            if len(set(shapes)) == 1 and shapes[0] != "ragged":    # well formed, so an entry is not a number
                raise InvalidInput("series coefficients are not complex numbers") from exc
            raise DimensionMismatch(
                f"series coefficients do not form one complex array: shapes {', '.join(shapes)}"
            ) from exc
        except TypeError as exc:
            raise InvalidInput("series coefficients are not complex numbers") from exc
        if coeffs.shape[:1] == (0,):
            raise InvalidInput("a series needs at least the constant coefficient")
        if coeffs.ndim != 3:
            raise DimensionMismatch(
                f"expected coefficients of shape (order + 1, out_dim, in_dim), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInput("series has non-finite coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def out_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def in_dim(self) -> int:
        return self.coeffs.shape[2]

    def eval(self, lam: complex) -> CMatrix:
        """Horner evaluation of the truncated polynomial at ``lam``."""
        acc = self.coeffs[-1].copy()
        for c in self.coeffs[-2::-1]:
            acc = c + lam * acc
        return acc

    def toeplitz(self, blocks: int) -> CMatrix:
        """Lower block-Toeplitz matrix ``[c_(i-k)]`` with ``blocks`` block rows.

        Blocks above the diagonal and coefficients beyond the order are zero.
        """
        if blocks < 1:
            raise InvalidInput(f"need at least one block, got {blocks}")
        h, w = self.out_dim, self.in_dim
        out = np.empty((blocks * h, blocks * w), dtype=np.complex128)
        # block row i is a window of [c_(blocks-1), ..., c_1, c_0, 0, ..., 0]
        strip = np.zeros((h, (2 * blocks - 1) * w), dtype=np.complex128)
        k = min(blocks, self.order + 1)
        strip[:, (blocks - k) * w:blocks * w] = self.coeffs[k - 1::-1].transpose(1, 0, 2).reshape(h, k * w)
        for i in range(blocks):
            out[i * h:(i + 1) * h] = strip[:, (blocks - 1 - i) * w:(2 * blocks - 1 - i) * w]
        return out

    def truncate(self, order: int) -> "MatrixSeries":
        """Pad with zeros or drop coefficients so the result has the given order."""
        coeffs = np.zeros((order + 1, self.out_dim, self.in_dim), dtype=np.complex128)
        kept = min(order, self.order) + 1
        coeffs[:kept] = self.coeffs[:kept]
        return MatrixSeries(coeffs)


def add(a: MatrixSeries, b: MatrixSeries, order: int) -> MatrixSeries:
    if (a.out_dim, a.in_dim) != (b.out_dim, b.in_dim):
        raise DimensionMismatch(f"cannot add {a.out_dim}x{a.in_dim} and {b.out_dim}x{b.in_dim} series")
    return MatrixSeries(a.truncate(order).coeffs + b.truncate(order).coeffs)


def scale(a: MatrixSeries, factor: complex) -> MatrixSeries:
    return MatrixSeries(factor * a.coeffs)


def mul(a: MatrixSeries, b: MatrixSeries, order: int) -> MatrixSeries:
    """Cauchy product truncated at ``order``."""
    if a.in_dim != b.out_dim:
        raise DimensionMismatch(f"cannot multiply {a.out_dim}x{a.in_dim} by {b.out_dim}x{b.in_dim} series")
    out = np.zeros((order + 1, a.out_dim, b.in_dim), dtype=np.complex128)
    for n in range(order + 1):
        for k in range(n + 1):
            if k <= a.order and n - k <= b.order:
                out[n] += a.coeffs[k] @ b.coeffs[n - k]
    return MatrixSeries(out)


def inv(a: MatrixSeries, order: int) -> MatrixSeries:
    """Multiplicative inverse, requiring an invertible constant term.

    Coefficients solve ``b_n = -a0^{-1} * sum_{k=1..n} a_k b_{n-k}`` with
    ``b_0 = a0^{-1}``.
    """
    if a.out_dim != a.in_dim:
        raise DimensionMismatch(f"only square series are invertible, got {a.out_dim}x{a.in_dim}")
    d = a.out_dim
    a0 = a.coeffs[0]
    if d == 0:
        return MatrixSeries(np.zeros((order + 1, 0, 0), dtype=np.complex128))
    svals = np.linalg.svd(a0, compute_uv=False)
    if svals[-1] == 0.0:
        raise NotInvertible("constant term is singular (condition number inf)")
    cond = float(svals[0] / svals[-1])
    try:
        a0_inv = np.linalg.inv(a0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - svd check fires first
        raise NotInvertible(f"constant term is singular (condition number {cond:.3e})") from exc
    out = np.empty((order + 1, d, d), dtype=np.complex128)
    out[0] = a0_inv
    for n in range(1, order + 1):
        acc = np.zeros((d, d), dtype=np.complex128)
        for k in range(1, n + 1):
            if k <= a.order:
                acc += a.coeffs[k] @ out[n - k]
        out[n] = -a0_inv @ acc
    return MatrixSeries(out)


def shift(a: MatrixSeries, k: int) -> MatrixSeries:
    """Multiply by lambda^k, displacing every coefficient upward by ``k``."""
    if k < 0:
        raise InvalidInput(f"shift exponent must be nonnegative, got {k}")
    zeros = np.zeros((k, a.out_dim, a.in_dim), dtype=np.complex128)
    return MatrixSeries(np.concatenate([zeros, a.coeffs]))
