"""Seeded input generation for the benchmark, in numpy only.

A problem is the plain tuple of arrays ``Prob(u, y, Fb, w1, w2)``: ``Fb``
(u x f) has orthonormal columns spanning ``F`` and ``[w1; w2]`` is the
stacked contraction on F-coordinates. A data set is ``DS(A, Tp, R, Q)``.
Every generator takes a ``numpy.random.Generator``; the same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np


class Prob(NamedTuple):
    u: int
    y: int
    Fb: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    @property
    def f(self) -> int:
        return self.Fb.shape[1]


class DS(NamedTuple):
    A: np.ndarray
    Tp: np.ndarray
    R: np.ndarray
    Q: np.ndarray


def cnormal(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def isometry(rng, n, k):
    """n x k matrix with orthonormal columns (k <= n)."""
    if k == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    q, r = np.linalg.qr(cnormal(rng, n, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def contraction(rng, rows, cols, norm):
    m = cnormal(rng, rows, cols)
    return m * (norm / np.linalg.norm(m, 2)) if min(rows, cols) else m


def random_problem(rng, u, y, f, norm=0.9) -> Prob:
    """Generic problem: random F and a stacked strict contraction of the given norm."""
    stacked = contraction(rng, y + u, f, norm) if f else np.zeros((y + u, 0), dtype=np.complex128)
    return Prob(u, y, isometry(rng, u, f), stacked[:y], stacked[y:])


def coisometric_problem(rng, u) -> Prob:
    """Zero adjoint defect: y = 0, F = U and a unitary second component."""
    return Prob(u, 0, np.eye(u, dtype=np.complex128), np.zeros((0, u), dtype=np.complex128),
                isometry(rng, u, u))


def shift_chain_problem(rng, u, y, f) -> Prob:
    """Isometric problem whose chain ``w1 (P_F w2)^n`` stays co-isometric
    for ``n < f // y`` and breaks at ``n = f // y``.

    In F-coordinates ``w1`` reads the first ``y`` coordinates (rotated by a
    random unitary on Y) and ``P_F w2`` shifts coordinates down by ``y``.
    """
    fb = isometry(rng, u, f)
    w1 = np.zeros((y, f), dtype=np.complex128)
    w1[:, :y] = isometry(rng, y, y)
    w2 = np.zeros((u, f), dtype=np.complex128)
    w2[:, y:] = fb[:, : f - y]
    return Prob(u, y, fb, w1, w2)


def schur_polynomial(rng, rows, cols, degree, norm) -> list[np.ndarray]:
    """Coefficients ``v_k`` of a Schur-class matrix polynomial: scaled so that
    ``sum |v_k| = norm``, which bounds ``|V|`` on the whole circle."""
    coeffs = [cnormal(rng, rows, cols) * 0.5 ** k for k in range(degree + 1)]
    if rows * cols == 0:
        return coeffs
    total = sum(np.linalg.norm(c, 2) for c in coeffs)
    return [c * (norm / total) for c in coeffs]


def random_dataset(rng, h0, h, hp, a_norm=0.7, tp_norm=0.8) -> DS:
    """Valid data set with ``dim H0 = h0 < dim H = h`` and ``dim H' = hp``.

    ``R`` is left invertible, ``Q`` makes ``Q*Q - R*R`` PSD by construction,
    and ``A`` is drawn from the null space of ``A -> T'AR - AQ`` so the
    intertwining identity holds to roundoff. For a generic draw the
    underlying contraction has ``(u, y, dim F) = (h, hp, h0)``.
    """
    svals = rng.uniform(0.4, 0.9, size=h0)
    r = isometry(rng, h, h0) * svals
    extra = cnormal(rng, h0, h0) * 0.4
    gram = r.conj().T @ r + extra.conj().T @ extra
    mu, vecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    q = isometry(rng, h, h0) @ ((vecs * np.sqrt(np.clip(mu, 0, None))) @ vecs.conj().T)
    tp = contraction(rng, hp, hp, tp_norm)
    constraint = np.kron(r.T, tp) - np.kron(q.T, np.eye(hp))
    _, s, vh = np.linalg.svd(constraint)
    rank = int(np.sum(s > 1e-10 * s[0]))
    null_basis = vh[rank:].conj().T
    a = (null_basis @ cnormal(rng, null_basis.shape[1], 1)).reshape((hp, h), order="F")
    a = a * (a_norm / np.linalg.norm(a, 2))
    return DS(a, tp, r, q)


def julia_blocks(T) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unitary dilation ``{T, D_T*, D_T, -T*}`` of a square contraction."""
    n = T.shape[0]

    def root(m):
        mu, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        return (v * np.sqrt(np.clip(mu, 0, None))) @ v.conj().T

    return T, root(np.eye(n) - T @ T.conj().T), root(np.eye(n) - T.conj().T @ T), -T.conj().T


def coisometric_blocks(rng, x, w, v):
    """State, input and output dimensions ``x, v, w`` with ``v >= w``: the block
    matrix is the adjoint of a random isometry, so its rows are orthonormal."""
    m = isometry(rng, x + v, x + w).conj().T
    return m[:x, :x], m[:x, x:], m[x:, :x], m[x:, x:]


# ---------------------------------------------------------------------------
# JSON writing, in the [re, im] matrix convention of the command line.

def mat_json(M) -> list:
    """Nested ``[re, im]`` lists of a matrix, or of a stack of matrices."""
    M = np.asarray(M, dtype=np.complex128)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def problem_doc(p: Prob, **extra) -> dict:
    doc = {"omega": {"u_dim": p.u, "y_dim": p.y, "F_basis": mat_json(p.Fb),
                     "omega1": mat_json(p.w1), "omega2": mat_json(p.w2)}}
    doc.update(extra)
    return doc


def dataset_doc(d: DS) -> dict:
    return {"A": mat_json(d.A), "Tprime": mat_json(d.Tp), "R": mat_json(d.R), "Q": mat_json(d.Q)}


def series_doc(coeffs: np.ndarray) -> dict:
    n, out_dim, in_dim = coeffs.shape
    return {"order": n - 1, "out_dim": out_dim, "in_dim": in_dim, "coeffs": mat_json(coeffs)}


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))   # dumps uses the C encoder, dump does not


def parse_mat(obj, cols=0) -> np.ndarray:
    """Decode an ``[re, im]`` nested-array matrix; an empty list has ``cols`` columns."""
    if not obj:
        return np.zeros((0, cols), dtype=np.complex128)
    a = np.asarray(obj, dtype=float)
    if a.ndim == 2:          # rows present but each of width 0
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    return a[..., 0] + 1j * a[..., 1]


def parse_problem(doc) -> Prob:
    om = doc["omega"]
    u, y = int(om["u_dim"]), int(om["y_dim"])
    fb = parse_mat(om["F_basis"]).reshape(u, -1)
    f = fb.shape[1]
    return Prob(u, y, fb, parse_mat(om["omega1"], f).reshape(y, f), parse_mat(om["omega2"], f).reshape(u, f))


def parse_dataset(doc) -> DS:
    a = parse_mat(doc["A"])
    r = parse_mat(doc["R"])
    return DS(a, parse_mat(doc["Tprime"]), r, parse_mat(doc["Q"], r.shape[1]))


def parse_series(doc) -> np.ndarray:
    out_dim, in_dim = int(doc["out_dim"]), int(doc["in_dim"])
    return np.stack([parse_mat(c, in_dim).reshape(out_dim, in_dim) for c in doc["coeffs"]])
