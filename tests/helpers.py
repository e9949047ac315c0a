"""Random instance generators shared across the test modules.

Every generator takes an explicit ``numpy.random.Generator`` so tests stay
reproducible; dataset generators build their instances so the defining
identities hold to roundoff by construction.
"""

from __future__ import annotations

import numpy as np

from rclkit.dataset import DataSet, preset_relaxed_rq
from rclkit.interp import InterpProblem
from rclkit.opcore import SubspaceBasis, spectral_norm
from rclkit.sysco import CoisometricSystem


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_isometry(rng, n, k):
    """n x k matrix with orthonormal columns (k <= n)."""
    if k == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    q, r = np.linalg.qr(random_complex(rng, n, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_contraction(rng, rows, cols, norm=0.9):
    m = random_complex(rng, rows, cols)
    s = spectral_norm(m)
    return m * (norm / s) if s > 0 else m


def random_subspace(rng, ambient, dim):
    return SubspaceBasis(ambient, haar_isometry(rng, ambient, dim))


def random_problem(rng, u_max=8, y_max=3, norm=0.9, u_dim=None, y_dim=None, f_dim=None):
    """Generic strict-contraction problem with all dimensions drawn at random."""
    u = int(rng.integers(1, u_max + 1)) if u_dim is None else u_dim
    y = int(rng.integers(0, y_max + 1)) if y_dim is None else y_dim
    f = int(rng.integers(0, u + 1)) if f_dim is None else f_dim
    basis = random_subspace(rng, u, f)
    stacked = random_contraction(rng, y + u, f, norm) if f else np.zeros((y + u, 0))
    return InterpProblem(u, y, basis, stacked[:y], stacked[y:])


def coisometric_problem(rng, u_max=6):
    """Problem whose stacked contraction is a co-isometry.

    In finite dimensions this forces y = 0 and F = U with a unitary second
    component, which is exactly the degenerate zero-adjoint-defect case.
    """
    u = int(rng.integers(1, u_max + 1))
    unitary = haar_isometry(rng, u, u)
    return InterpProblem(u, 0, SubspaceBasis(u, np.eye(u, dtype=np.complex128)),
                         np.zeros((0, u)), unitary)


#: Problem makers for the generic case and each degenerate dimension:
#: ``Y = {0}``, ``F = U``, ``F = {0}`` and zero adjoint defect.
ORACLE_REGIMES = {
    "generic": lambda rng: random_problem(rng, u_dim=6, y_dim=2, f_dim=3),
    "no_output": lambda rng: random_problem(rng, u_dim=5, y_dim=0, f_dim=2),
    "full_domain": lambda rng: random_problem(rng, u_dim=5, y_dim=2, f_dim=5),
    "empty_domain": lambda rng: random_problem(rng, u_dim=4, y_dim=2, f_dim=0),
    "zero_adjoint_defect": coisometric_problem,
}


def backward_shift_problem(n=6):
    """Finite truncation of the classic non-co-isometric uniqueness instance.

    U = C^n, Y = C, F spanned by e1..e_{n-1}; the first F-vector maps to 1
    in Y, the rest shift down one slot inside U. At every finite truncation
    the co-isometry chain breaks at index n-1, so the truncated problem is
    not unique even though its infinite-dimensional parent is.
    """
    basis = np.zeros((n, n - 1), dtype=np.complex128)
    for i in range(n - 1):
        basis[i + 1, i] = 1.0
    omega1 = np.zeros((1, n - 1), dtype=np.complex128)
    omega1[0, 0] = 1.0
    omega2 = np.zeros((n, n - 1), dtype=np.complex128)
    for c in range(1, n - 1):
        omega2[c, c] = 1.0
    return InterpProblem(n, 1, SubspaceBasis(n, basis), omega1, omega2)


def central_resolvent_oracle(problem, lam):
    """Independent evaluation of the central solution via one linear solve."""
    z = problem.omega2 @ problem.F.basis.conj().T
    resolvent = np.linalg.solve(np.eye(problem.u_dim) - lam * z, np.eye(problem.u_dim))
    return (problem.omega1 @ problem.F.basis.conj().T) @ resolvent


def random_coisometric_system(rng, state_max=5, out_max=3):
    """System whose block matrix has exactly orthonormal rows."""
    x = int(rng.integers(1, state_max + 1))
    w = int(rng.integers(1, out_max + 1))
    v = w + int(rng.integers(0, 3))
    m = haar_isometry(rng, x + v, x + w).conj().T
    return CoisometricSystem(m[:x, :x], m[:x, x:], m[x:, :x], m[x:, x:])


def random_dataset(rng, h0=None, h=None, hp=None, a_norm=None, tp_norm=None, tp_unitary=False):
    """Valid data set with the intertwining identity solved exactly.

    ``R`` has singular values bounded away from 0 (left invertible), ``Q``
    is built so ``Q*Q - R*R`` is PSD by construction, and ``A`` is drawn
    from the null space of the linear map ``A -> T'AR - AQ`` and scaled.
    The generator uses ``h > h0`` so that null space is never trivial.
    """
    h0 = int(rng.integers(1, 4)) if h0 is None else h0
    h = h0 + int(rng.integers(1, 3)) if h is None else h
    hp = int(rng.integers(1, 4)) if hp is None else hp
    a_norm = float(rng.uniform(0.3, 0.85)) if a_norm is None else a_norm

    svals = rng.uniform(0.4, 0.9, size=h0)
    r = haar_isometry(rng, h, h0) * svals
    extra = random_complex(rng, h0, h0) * 0.4
    gram = r.conj().T @ r + extra.conj().T @ extra
    mu, vecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    gram_root = (vecs * np.sqrt(np.clip(mu, 0, None))) @ vecs.conj().T
    q = haar_isometry(rng, h, h0) @ gram_root

    if tp_unitary:
        tp = haar_isometry(rng, hp, hp)
    else:
        tp = random_contraction(rng, hp, hp, tp_norm or float(rng.uniform(0.2, 0.9)))

    constraint = np.kron(r.T, tp) - np.kron(q.T, np.eye(hp))
    _, s, vh = np.linalg.svd(constraint)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    null_basis = vh[rank:].conj().T            # (hp*h) x null_dim, column-major vec
    if null_basis.shape[1] == 0:
        a = np.zeros((hp, h), dtype=np.complex128)
    else:
        coef = random_complex(rng, null_basis.shape[1], 1)
        a = (null_basis @ coef).reshape((hp, h), order="F")
        s_a = spectral_norm(a)
        a = a * (a_norm / s_a) if s_a > 0 else a
    return DataSet(a, tp, r, q)


def classical_dataset(rng, dim=3, a_norm=0.7):
    """R identity, Q unitary, T' = Q, A a contraction polynomial in Q."""
    q = haar_isometry(rng, dim, dim)
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = sum(c * np.linalg.matrix_power(q, k) for k, c in enumerate(coeffs))
    a = a * (a_norm / spectral_norm(a))
    return DataSet(a, q, np.eye(dim), q)


def q_onto_dataset(rng, dim=3, a_norm=0.6, defect_scale=0.5):
    """R identity, Q unitary (onto), T' norm-one but with nontrivial defect.

    Built around a shared eigenpair: with ``Q w = lam w`` and ``T' v = lam v``
    the rank-one ``A = a v w*`` satisfies ``T' A = A Q`` exactly, while the
    rest of ``T'`` is strictly contractive.
    """
    q = haar_isometry(rng, dim, dim)
    lam_all, vecs = np.linalg.eig(q)
    lam, w = lam_all[0], vecs[:, [0]]
    w = w / np.linalg.norm(w)
    v = random_complex(rng, dim, 1)
    v = v / np.linalg.norm(v)
    perp = np.eye(dim) - v @ v.conj().T
    tp = lam * (v @ v.conj().T) + defect_scale * (perp @ random_contraction(rng, dim, dim, 1.0) @ perp)
    a = a_norm * (v @ w.conj().T)
    return DataSet(a, tp, np.eye(dim), q)


def krylov_dataset(rng, n=4, a_norm=0.7, hp=2, tp_norm=0.7):
    """Scalar sliding-block R, Q with the Krylov-structured A they force."""
    r, q = preset_relaxed_rq(n, 1)
    tp = random_contraction(rng, hp, hp, tp_norm)
    seed_col = random_complex(rng, hp, 1)
    cols = [seed_col]
    for _ in range(n - 1):
        cols.append(tp @ cols[-1])
    a = np.hstack(cols)
    a = a * (a_norm / spectral_norm(a))
    return DataSet(a, tp, r, q)


def residual_audit_dataset():
    """Valid data whose ``D_A Q = diag(0.87, 0.87e-12)`` loses its second
    direction at the F cut while ``R`` keeps it at 5e-5, so the defining
    identity ``w D_A Q = [D_T' A R; D_A R]`` of the underlying contraction
    misses by ``norm([D_T' A R; D_A R] e2) = 5e-5``."""
    return DataSet(0.5 * np.eye(2), np.diag([1.0, 2e-8]), np.diag([1.0, 5e-5]), np.diag([1.0, 1e-12]))


def json_matrix(m):
    """Nested ``[re, im]`` lists of a complex matrix, built entry by entry
    so test files do not depend on the codec under test."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def knife_edge():
    """``(slack, x)`` for ``x`` equal to ``fl(1 + slack)`` and each of its two
    neighbours; the 1x1 matrix ``[[x]]`` has spectral norm exactly ``x``."""
    for slack in (1e-10, 1e-6):
        edge = 1.0 + slack
        for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
            yield slack, float(x)
