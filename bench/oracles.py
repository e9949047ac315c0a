"""Independent numpy-only oracles for every operation kind of the benchmark.

Each oracle checks a property the method must have, never a copy of the
library's current output: the interpolation identity at points of the disc,
the coefficient ball, closed-form pointwise values of the central and
linear-fractional solutions, an own co-isometry chain scan, own row-Gram
deficiencies, own data-set validation and the shift-extension identities.
Nothing here imports ``rclkit``. A failed check raises :class:`OracleError`.

Where a result is only defined up to a choice of orthonormal coordinates
(the complement ``G`` of ``F`` and the adjoint defect space, in which a free
parameter is written), the caller passes the coordinates the library chose;
:func:`frame` validates them against own defect computations first.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from problems import DS, Prob

#: Allowance for exact identities (the library's default ``identity_tol``).
IDENTITY_TOL = 1e-8
#: Roundoff allowance for pointwise values.
POINT_TOL = 1e-9
#: Norm slack accepted for contractions.
SLACK = 1e-10
#: Relative rank cut for defect spaces and range closures.
RANK_TOL = 1e-10

#: Two points of the disc, one near the centre and one near the boundary,
#: so both low and high coefficients are visible.
POINTS = (0.5 * np.exp(0.7j), 0.95 * np.exp(2.9j))


class OracleError(AssertionError):
    """An output violates a property the method must have."""


def require(cond, message: str) -> None:
    if not cond:
        raise OracleError(message)


def adj(m):
    return m.conj().T


def norm2(m) -> float:
    return float(np.linalg.norm(m, 2)) if min(np.shape(m)) else 0.0


def hermitian_dev(m) -> float:
    """``max |eig(M M* - I)|``, by a Hermitian eigensolver (no SVD)."""
    if m.shape[0] == 0:
        return 0.0
    dev = m @ adj(m) - np.eye(m.shape[0])
    return float(np.max(np.abs(np.linalg.eigvalsh((dev + adj(dev)) / 2.0))))


def psd_root(m, vectors=False):
    """Hermitian square root of a PSD matrix and its eigenvalues (descending),
    with the eigenvectors when asked."""
    mu, v = np.linalg.eigh((m + adj(m)) / 2.0)
    mu = np.clip(mu, 0.0, None)[::-1]
    v = v[:, ::-1]
    root = (v * np.sqrt(mu)) @ adj(v)
    return (root, mu, v) if vectors else (root, mu)


def psd_rank(mu) -> int:
    return int(np.sum(mu > RANK_TOL * max(1.0, float(mu[0])))) if mu.size else 0


def point_tol(lam, n: int) -> float:
    """Allowance at ``lam`` for a polynomial of degree ``n`` whose coefficients
    each carry up to ``IDENTITY_TOL`` of error: ``IDENTITY_TOL * sum |lam|^k``."""
    r = abs(lam)
    return IDENTITY_TOL * (1 - r ** (n + 1)) / (1 - r)


def horner(coeffs: np.ndarray, lam) -> np.ndarray:
    acc = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        acc = c + lam * acc
    return acc


def state(p: Prob) -> np.ndarray:
    """``Z = w2 P_F`` on ``C^u``."""
    return p.w2 @ adj(p.Fb)


# ---------------------------------------------------------------------------
# Solutions.

def check_solution(p: Prob, coeffs) -> None:
    """``coeffs`` (N+1, y, u) is a truncated solution: the coefficient ball
    ``sum h_n* h_n <= I`` holds, and ``w1 + lam H(lam) w2 = H(lam)|_F`` holds
    at two points up to the exact truncation term ``lam^(N+1) h_N w2``."""
    coeffs = np.asarray(coeffs)
    require(coeffs.ndim == 3 and coeffs.shape[1:] == (p.y, p.u),
            f"series shape {coeffs.shape} does not map C^{p.u} to C^{p.y}")
    n_top = coeffs.shape[0] - 1
    if p.u:
        gram = np.einsum("nij,nik->jk", coeffs.conj(), coeffs)
        top = float(np.linalg.eigvalsh((gram + adj(gram)) / 2.0)[-1])
        require(top <= 1.0 + IDENTITY_TOL, f"coefficient Gram exceeds the unit ball by {top - 1.0:.3e}")
    for lam in POINTS:
        h = horner(coeffs, lam)
        tail = lam ** (n_top + 1) * (coeffs[-1] @ p.w2)
        resid = norm2(p.w1 + lam * (h @ p.w2) - h @ p.Fb - tail)
        require(resid <= point_tol(lam, n_top + 1), f"interpolation identity fails at lam={lam:.3f} by {resid:.3e}")


def central_coeffs(p: Prob, order: int) -> np.ndarray:
    z = state(p)
    out = np.empty((order + 1, p.y, p.u), dtype=np.complex128)
    row = p.w1 @ adj(p.Fb)
    for n in range(order + 1):
        out[n] = row
        row = row @ z
    return out


def check_central(p: Prob, coeffs, order: int) -> None:
    """Truncated central series against ``w1 P_F (I - (lam Z)^(N+1)) (I - lam Z)^-1``."""
    check_solution(p, coeffs)
    require(len(coeffs) == order + 1, f"central series has order {len(coeffs) - 1}, asked {order}")
    z = state(p)
    eye = np.eye(p.u)
    for lam in POINTS:
        trunc = eye - np.linalg.matrix_power(lam * z, order + 1)
        want = p.w1 @ adj(p.Fb) @ trunc @ np.linalg.inv(eye - lam * z)
        err = norm2(horner(coeffs, lam) - want)
        require(err <= POINT_TOL, f"central series misses the closed form at lam={lam:.3f} by {err:.3e}")


class Frame(NamedTuple):
    """Own realization data in the library's coordinates for ``G`` and the defect space."""

    p: Prob
    G: np.ndarray      # u x g, orthonormal, orthogonal to F
    DE: np.ndarray     # (y+u) x d: own D* on the chosen defect-space coordinates


def frame(p: Prob, G, E) -> Frame:
    """Validate the library's coordinates against own computations.

    ``E`` must be orthonormal and span the range of the own defect operator
    ``D* = (I - w w*)^(1/2)``; ``G`` must be orthonormal, orthogonal to
    ``F`` and of dimension ``u - dim F``.
    """
    G = np.asarray(G, dtype=np.complex128).reshape(p.u, -1)
    omega = np.vstack([p.w1, p.w2])
    dstar, mu, vecs = psd_root(np.eye(p.y + p.u) - omega @ adj(omega), vectors=True)
    rank = psd_rank(mu)
    E = np.asarray(E, dtype=np.complex128).reshape(p.y + p.u, -1)
    require(E.shape[1] == rank, f"defect space has dimension {E.shape[1]}, own rank {rank}")
    require(hermitian_dev(adj(E)) <= 1e-12 * max(1, p.u), "defect coordinates are not orthonormal")
    miss = norm2(vecs[:, :rank] - E @ adj(E) @ vecs[:, :rank])
    require(miss <= IDENTITY_TOL, f"defect coordinates miss the range of D* by {miss:.3e}")
    require(G.shape[1] == p.u - p.f, f"complement has dimension {G.shape[1]}, expected {p.u - p.f}")
    require(hermitian_dev(adj(G)) <= 1e-12 * max(1, p.u), "complement coordinates are not orthonormal")
    require(norm2(adj(p.Fb) @ G) <= 1e-12 * max(1, p.u), "complement is not orthogonal to F")
    return Frame(p, G, dstar @ E)


def lft_value(fr: Frame, v_coeffs, lam) -> np.ndarray:
    """``Phi22 + Phi21 V (I - Phi11 V)^-1 Phi12`` at one point, from the closed forms."""
    p = fr.p
    res = np.linalg.inv(np.eye(p.u) - lam * state(p))
    out_row = p.w1 @ adj(p.Fb) @ res
    d_y, d_u = fr.DE[: p.y], fr.DE[p.y:]
    phi11 = lam * (adj(fr.G) @ res @ d_u)
    phi12 = adj(fr.G) @ res
    phi21 = d_y + lam * (out_row @ d_u)
    v = horner(np.asarray(v_coeffs), lam)
    inner = np.eye(fr.G.shape[1]) - phi11 @ v
    return out_row + phi21 @ v @ np.linalg.solve(inner, phi12)


def check_lft(fr: Frame, v_coeffs, coeffs, order: int) -> None:
    """A parameter's solution is a solution and matches the pointwise
    linear-fractional formula, up to the ball-bounded tail ``r^(N+1)/(1-r)``."""
    check_solution(fr.p, coeffs)
    require(len(coeffs) == order + 1, f"solution has order {len(coeffs) - 1}, asked {order}")
    r = 0.8 if 0.8 ** (order + 1) / 0.2 <= POINT_TOL / 10 else 0.5
    for lam in (r * np.exp(0.7j), 0.5 * r * np.exp(2.9j)):
        tail = abs(lam) ** (order + 1) / (1 - abs(lam))
        err = norm2(horner(coeffs, lam) - lft_value(fr, v_coeffs, lam))
        require(err <= point_tol(lam, order) + tail, f"solution misses the linear-fractional formula at lam={lam:.3f} by {err:.3e}")


def check_is_solution(p: Prob, coeffs, interp_ok, ball_ok, residuals, gram_excess) -> None:
    """A verifier's report against own recursion residuals and Gram excess."""
    own = [norm2(coeffs[0] @ p.Fb - p.w1)]
    own += [norm2(coeffs[n + 1] @ p.Fb - coeffs[n] @ p.w2) for n in range(len(coeffs) - 1)]
    require(len(residuals) == len(own), f"{len(residuals)} residuals reported, {len(own)} expected")
    worst = max(abs(a - b) for a, b in zip(residuals, own))
    require(worst <= 1e-12, f"recursion residuals differ from own ones by {worst:.3e}")
    require(interp_ok == (max(own) <= IDENTITY_TOL), "interpolation verdict disagrees with own residuals")
    gram = np.einsum("nij,nik->jk", coeffs.conj(), coeffs) if p.u else np.zeros((0, 0))
    excess = max(0.0, float(np.linalg.eigvalsh((gram + adj(gram)) / 2.0)[-1]) - 1.0) if p.u else 0.0
    require(abs(gram_excess - excess) <= 1e-12, f"Gram excess {gram_excess:.3e} differs from own {excess:.3e}")
    require(ball_ok == (excess <= IDENTITY_TOL), "ball verdict disagrees with own Gram excess")


# ---------------------------------------------------------------------------
# Uniqueness and witnesses.

def uniqueness_scan(p: Prob) -> tuple[str, int | None]:
    """Own verdict: ``F = U``, ``Y = {0}``, or the first chain index ``n`` at
    which ``w1 (P_F w2)^n`` stops being a co-isometry."""
    if p.f == p.u:
        return "unique_i", None
    if p.y == 0:
        return "unique_ii", None
    step = adj(p.Fb) @ p.w2
    chain = p.w1
    for n in range(p.f // p.y + 1):
        if hermitian_dev(chain) > IDENTITY_TOL:
            return "not_unique", n
        chain = chain @ step
    raise OracleError("co-isometry chain survived its guaranteed failure bound")


def check_uniqueness(p: Prob, kind: str, failing_n) -> None:
    want = uniqueness_scan(p)
    require((kind, failing_n) == want, f"verdict {(kind, failing_n)} but own chain scan gives {want}")


def check_witness(fr: Frame | None, p: Prob, parameter, coeffs, first_diff, gap, order: int) -> None:
    """``None`` exactly when own scan says unique; otherwise the parameter's
    solution passes :func:`check_lft` and differs from the central one."""
    unique = uniqueness_scan(p)[0] != "not_unique"
    if parameter is None:
        require(unique, "no witness returned for a problem own scan finds not unique")
        return
    require(not unique, "witness returned for a problem own scan finds unique")
    check_lft(fr, [parameter], coeffs, order)
    require(norm2(parameter) <= 1.0 + SLACK, "witness parameter is not a contraction")
    gaps = [norm2(d) for d in np.asarray(coeffs) - central_coeffs(p, order)]
    thr = 10 * IDENTITY_TOL
    require(max(gaps) > thr, f"witness equals the central solution (gap {max(gaps):.3e})")
    require(abs(gap - max(gaps)) <= 1e-9 + 1e-6 * max(gaps), f"reported gap {gap:.6e}, own {max(gaps):.6e}")
    require(gaps[first_diff] > thr / 2 and all(g < 2 * thr for g in gaps[:first_diff]),
            f"first differing coefficient reported at {first_diff}, own gaps disagree")


# ---------------------------------------------------------------------------
# Audits.

def toeplitz_gram_deviation(toeplitz, column) -> float:
    """``max |eig(M M* - I)|`` for ``M = [T, Gamma]``, the lower-triangular block
    Toeplitz matrix of ``toeplitz[k]`` beside the stacked ``column[i]``.

    The row Gram is built from the recurrence
    ``S_ij = S_(i-1)(j-1) + T_i T_j*`` without forming ``M``, so it is
    independent of the library's assembly and needs less memory than it.
    """
    blocks, h = len(toeplitz), toeplitz[0].shape[0]
    gram = np.empty((blocks * h, blocks * h), dtype=np.complex128)
    prev = [np.zeros((h, h), dtype=np.complex128)] * blocks
    for i in range(blocks):
        row = []
        for j in range(blocks):
            s = (prev[j - 1] if j else 0.0) + toeplitz[i] @ adj(toeplitz[j])
            row.append(s)
            gram[i * h:(i + 1) * h, j * h:(j + 1) * h] = s + column[i] @ adj(column[j])
        prev = row
    if gram.shape[0] == 0:
        return 0.0
    gram -= np.eye(gram.shape[0])
    return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def coefficient_deficiency(fr: Frame, blocks: int) -> float:
    """Own row-Gram deficiency of the ``blocks``-block coefficient operator
    ``[[T_Phi11, Gamma_Phi12], [T_Phi21, Gamma_Phi22]]``, with the rows of
    each block index taken together (a permutation, which keeps the spectrum)."""
    p = fr.p
    z = state(p)
    d_y, d_u = fr.DE[: p.y], fr.DE[p.y:]
    column = [np.vstack([adj(fr.G), p.w1 @ adj(p.Fb)])]
    for _ in range(blocks - 1):
        column.append(column[-1] @ z)
    toeplitz = [np.vstack([np.zeros((fr.G.shape[1], fr.DE.shape[1])), d_y])]
    toeplitz += [c @ d_u for c in column[:-1]]
    return toeplitz_gram_deviation(toeplitz, column)


def system_deficiency(A, B, C, D, blocks: int) -> float:
    """Own deficiency of ``T_F T_F* + G_W G_W* = I`` for a state-space system:
    transfer coefficients ``D, CB, CAB, ...`` and observability ``C A^n``."""
    transfer, observ = [D], [C]
    for _ in range(blocks - 1):
        transfer.append(observ[-1] @ B)
        observ.append(observ[-1] @ A)
    return toeplitz_gram_deviation(transfer, observ)


def check_deficiency(reported: float, own: float) -> None:
    """An audited identity: both deficiencies are roundoff, or they agree."""
    if own <= IDENTITY_TOL:
        require(0.0 <= reported <= IDENTITY_TOL, f"reported deficiency {reported:.3e}, own {own:.3e}")
    else:
        require(abs(reported - own) <= 1e-6 * own, f"reported deficiency {reported:.6e}, own {own:.6e}")


# ---------------------------------------------------------------------------
# Data sets and the lifting.

def dataset_violations(d: DS) -> list[str]:
    """Own check of the defining constraints of a data set."""
    bad = []
    if norm2(d.A) > 1.0 + SLACK:
        bad.append("A_contraction")
    if norm2(d.Tp) > 1.0 + SLACK:
        bad.append("Tp_contraction")
    if norm2(d.Tp @ d.A @ d.R - d.A @ d.Q) > IDENTITY_TOL:
        bad.append("intertwining")
    if d.R.shape[1]:
        gap = adj(d.Q) @ d.Q - adj(d.R) @ d.R
        if float(np.linalg.eigvalsh((gap + adj(gap)) / 2.0)[0]) < -IDENTITY_TOL:
            bad.append("gram_order")
    return bad


def check_omega(d: DS, p: Prob) -> None:
    """The underlying contraction of a data set, coordinate-free.

    With ``X = D_A Q``, ``Y1 = D_T' A R``, ``Y2 = D_A R`` and ``K+`` the
    pseudo-inverse of the F-coordinates of ``X``, the identity
    ``w D_A Q = [D_T' A R; D_A R]`` forces one unitary ``W`` with
    ``W* w*w W = K+* (Y1*Y1 + Y2*Y2) K+`` and
    ``W* (P_F w2) W = K+* X* Y2 K+``. Spectra and joint traces of the pair
    are compared, together with the dimensions ``u = rank D_A``,
    ``y = rank D_T'`` and ``dim F = rank X``.
    """
    hp, h = d.A.shape
    d_a, mu_a = psd_root(np.eye(h) - adj(d.A) @ d.A)
    d_t, mu_t = psd_root(np.eye(hp) - adj(d.Tp) @ d.Tp)
    require((p.u, p.y) == (psd_rank(mu_a), psd_rank(mu_t)),
            f"(u, y) = {(p.u, p.y)}, own defect ranks {(psd_rank(mu_a), psd_rank(mu_t))}")
    x = d_a @ d.Q
    if min(x.shape):
        _, s, vh = np.linalg.svd(x)
        f = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    else:
        f = 0
    require(p.f == f, f"dim F = {p.f}, own rank of D_A Q is {f}")
    require(hermitian_dev(adj(p.Fb)) <= 1e-12 * max(1, p.u), "F basis is not orthonormal")
    omega = np.vstack([p.w1, p.w2])
    require(norm2(omega) <= 1.0 + SLACK, "underlying operator is not a contraction")
    if f == 0:
        return
    k_plus = adj(vh[:f]) / s[:f]
    y1, y2 = d_t @ d.A @ d.R, d_a @ d.R
    m_own = adj(k_plus) @ (adj(y1) @ y1 + adj(y2) @ y2) @ k_plus
    n_own = adj(k_plus) @ adj(x) @ y2 @ k_plus
    m, n = adj(omega) @ omega, adj(p.Fb) @ p.w2
    err = float(np.max(np.abs(np.linalg.eigvalsh(m) - np.linalg.eigvalsh((m_own + adj(m_own)) / 2.0))))
    pairs = [(n, n_own), (n @ n, n_own @ n_own), (n @ n @ n, n_own @ n_own @ n_own), (m @ n, m_own @ n_own)]
    err = max([err] + [abs(np.trace(a) - np.trace(b)) / f for a, b in pairs])
    require(err <= 1e-7, f"underlying contraction violates its defining identity by {err:.3e}")


def check_lifting(d: DS, B, blocks: int, projection_ok, intertwine_ok, retained, boundary) -> None:
    """A lifting report against the shift extension ``[[T', 0], [E D_T', S]]``
    applied block by block to the interpolant ``B``.

    Block rows ``j >= 1`` of ``U'BR - BQ`` are ``b_(j-1) R - b_j Q`` and are
    recomputed exactly; row 0 of the defect copies, ``E* D_T' A R - b_0 Q``,
    depends on the library's coordinates ``E`` and is checked through its
    Gram matrix. ``B`` itself must carry ``A`` on top and be a contraction.
    """
    hp, h = d.A.shape
    B = np.asarray(B)
    dt, rest = divmod(B.shape[0] - hp, blocks)
    require(rest == 0 and B.shape[1] == h, f"interpolant shape {B.shape} does not fit {blocks} blocks")
    require(bool(np.array_equal(B[:hp], d.A)) == bool(projection_ok) == True,
            "top block of the interpolant is not A")
    bb = adj(B) @ B
    require(float(np.linalg.eigvalsh((bb + adj(bb)) / 2.0)[-1]) <= 1.0 + 2 * SLACK, "interpolant is not a contraction")
    copies = [B[hp + j * dt: hp + (j + 1) * dt] for j in range(blocks)]
    own = [norm2(d.Tp @ d.A @ d.R - d.A @ d.Q), None]
    own += [norm2(copies[j - 1] @ d.R - copies[j] @ d.Q) for j in range(1, blocks)]
    d_t, _ = psd_root(np.eye(hp) - adj(d.Tp) @ d.Tp)
    top = d_t @ d.A @ d.R
    first = copies[0] @ d.Q
    gram_gap = norm2(adj(top) @ top - adj(first) @ first)
    reported = list(retained) + [boundary]
    require(len(reported) == blocks + 1, f"{len(reported)} block rows reported, {blocks + 1} expected")
    for j, (a, b) in enumerate(zip(reported, own)):
        if b is None:
            require((a <= IDENTITY_TOL) == (gram_gap <= IDENTITY_TOL),
                    f"first defect row residual {a:.3e} disagrees with its Gram gap {gram_gap:.3e}")
        else:
            require(abs(a - b) <= 1e-12 + 1e-6 * b, f"block row {j} residual {a:.3e}, own {b:.3e}")
    want = all(r <= IDENTITY_TOL for r in own[:1] + own[2:blocks]) and gram_gap <= IDENTITY_TOL
    require(bool(intertwine_ok) == want, "intertwining verdict disagrees with own residuals")
