"""Every object of the paper is defined up to a unitary change of coordinates.

The library picks its own coordinates (by ``eigh`` and ``svd``), so these
properties rotate the input by seeded Haar unitaries and check that nothing
coordinate-free moves:

- a data set ``(A, T', R, Q)`` and ``(W'AW*, W'T'W'*, WRW0*, WQW0*)`` give
  the same ``validate`` verdict, the same ``dim U``, ``dim F`` and ``dim Y``,
  the same uniqueness verdict and ``failing_n``, and central interpolants
  whose Grams obey ``B*B -> W B*B W*``;
- a problem ``(F.basis, w)`` and ``(V_U F.basis V_F*, diag(V_Y, V_U) w V_F*)``
  give central coefficients ``h_n -> V_Y h_n V_U*``, and realizations whose
  Gram audits stay at roundoff.

Near a threshold a rotation may move a verdict by roundoff, which is no
defect. So the data-set properties assert only on draws whose every cut
lies 100x clear of its threshold, with the margins computed here from the
spectra of ``I - A*A``, ``I - T'*T'`` and ``D_A Q`` and from the residuals
``validate`` compares.
"""

import numpy as np
import pytest

from helpers import (
    ORACLE_REGIMES,
    backward_shift_problem,
    classical_dataset,
    haar_isometry,
    krylov_dataset,
    q_onto_dataset,
    random_dataset,
    random_problem,
)
from rclkit import dataset, interp, lifting, redheffer, sysco
from rclkit.dataset import DataSet
from rclkit.interp import InterpProblem
from rclkit.opcore import SubspaceBasis, adjoint

#: Order of the central solution, and block rows of its interpolant.
ORDER = 12
#: Factor by which every margin must clear its threshold.
CLEARANCE = 100.0


def halved_tp_dataset(rng) -> DataSet:
    """An invalid data set: with ``T'`` halved, ``T'AR - AQ`` is about half of ``T'AR``."""
    d = random_dataset(rng)
    return DataSet(d.A, 0.5 * d.Tp, d.R, d.Q)


DATASET_MAKERS = {
    "random": random_dataset,
    "random_unitary_tp": lambda rng: random_dataset(rng, tp_unitary=True),
    "classical": classical_dataset,
    "q_onto": q_onto_dataset,
    "krylov": krylov_dataset,
    "halved_tp": halved_tp_dataset,
}


def haar_unitary(rng, n):
    return haar_isometry(rng, n, n)


def clear(values, threshold) -> bool:
    """Whether every value lies at least ``CLEARANCE`` times clear of ``threshold``."""
    return all(v <= threshold / CLEARANCE or v >= CLEARANCE * threshold for v in values)


def defect_eigenvalues(N) -> np.ndarray:
    """Eigenvalues of ``I - N*N``, clamped at 0 as the defect cut reads them."""
    gram = np.eye(N.shape[1]) - adjoint(N) @ N
    return np.clip(np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0), 0.0, None)


def margins_clear(data: DataSet) -> bool:
    """Whether each rank cut and each ``validate`` comparison is 100x clear."""
    tol = data.tol
    mu_a, mu_tp = defect_eigenvalues(data.A), defect_eigenvalues(data.Tp)
    cuts = [(mu, tol.rank_tol * max(1.0, mu.max(initial=1.0))) for mu in (mu_a, mu_tp)]
    vecs = np.linalg.eigh(np.eye(data.dim_h) - adjoint(data.A) @ data.A)[1]
    d_a = (vecs * np.sqrt(mu_a)) @ adjoint(vecs)       # mu_a is ascending, as eigh's own order
    s = np.linalg.svd(d_a @ data.Q, compute_uv=False)
    cuts.append((s, tol.rank_tol * s.max(initial=0.0)))
    a_norm, tp_norm = (np.linalg.norm(M, 2) if M.size else 0.0 for M in (data.A, data.Tp))
    gap = adjoint(data.Q) @ data.Q - adjoint(data.R) @ data.R
    checks = [
        ([a_norm - 1.0, tp_norm - 1.0], tol.contraction_slack),
        ([np.linalg.norm(data.Tp @ data.A @ data.R - data.A @ data.Q, 2)], tol.identity_tol),
        ([-np.linalg.eigvalsh((gap + adjoint(gap)) / 2.0).min(initial=np.inf)], tol.identity_tol),
    ]
    return all(clear(values, threshold) for values, threshold in cuts + checks)


def dims(data: DataSet) -> tuple[int, int, int]:
    """``(dim U, dim F, dim Y)``."""
    return data.defect_a[1].dim, data.domain.dim, data.defect_tp[1].dim


@pytest.mark.parametrize("maker", sorted(DATASET_MAKERS))
def test_a_rotated_data_set_keeps_every_verdict_and_dimension(maker):
    checked = 0
    for seed in range(12):
        rng = np.random.default_rng(5000 + seed)
        data = DATASET_MAKERS[maker](rng)
        w, w_prime, w0 = (haar_unitary(rng, n) for n in (data.dim_h, data.dim_hp, data.dim_h0))
        rotated = DataSet(w_prime @ data.A @ adjoint(w), w_prime @ data.Tp @ adjoint(w_prime),
                          w @ data.R @ adjoint(w0), w @ data.Q @ adjoint(w0))
        if not margins_clear(data):
            continue
        checked += 1
        reports = [dataset.validate(d) for d in (data, rotated)]
        assert [v.constraint for v in reports[0].violations] == [v.constraint for v in reports[1].violations]
        assert dims(rotated) == dims(data)
        if not reports[0].ok:
            continue
        problems = [dataset.underlying_contraction(d) for d in (data, rotated)]
        verdicts = [interp.uniqueness(p) for p in problems]
        assert verdicts[1] == verdicts[0]
        grams = []
        for d, p in zip((data, rotated), problems):
            b = lifting.interpolant_from_solution(d, interp.central_taylor(p, ORDER), ORDER + 1)
            grams.append(adjoint(b) @ b)
        np.testing.assert_allclose(grams[1], w @ grams[0] @ adjoint(w), rtol=0, atol=1e-12)
    assert checked >= 6, f"only {checked} of 12 draws lie clear of every threshold"


PROBLEM_MAKERS = dict(ORACLE_REGIMES, random=random_problem)


def rotate(rng, p: InterpProblem):
    """``p`` in new coordinates, with the Haar unitaries ``(V_Y, V_U)`` that took it there."""
    v_y, v_u, v_f = (haar_unitary(rng, n) for n in (p.y_dim, p.u_dim, p.f_dim))
    rotated = InterpProblem(p.u_dim, p.y_dim, SubspaceBasis(p.u_dim, v_u @ p.F.basis @ adjoint(v_f)),
                            v_y @ p.omega1 @ adjoint(v_f), v_u @ p.omega2 @ adjoint(v_f), p.tol)
    return rotated, v_y, v_u


@pytest.mark.parametrize("maker", sorted(PROBLEM_MAKERS))
@pytest.mark.parametrize("seed", range(4))
def test_a_rotated_problem_rotates_its_central_coefficients(maker, seed):
    rng = np.random.default_rng(6000 + seed)
    p = PROBLEM_MAKERS[maker](rng)
    rotated, v_y, v_u = rotate(rng, p)
    h, h_rotated = (interp.central_taylor(q, ORDER).coeffs for q in (p, rotated))
    np.testing.assert_allclose(h_rotated, v_y @ h @ adjoint(v_u), rtol=0, atol=1e-12)
    for q in (p, rotated):
        assert sysco.gram_identity_audit(redheffer.realize(q), 8) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_rotated_shift_chain_fails_at_the_same_index(n):
    # every chain step is an exact co-isometry up to the last, which misses
    # by 1: each step lies clear of identity_tol by construction
    p = backward_shift_problem(n)
    rotated, _, _ = rotate(np.random.default_rng(7000 + n), p)
    verdict = interp.uniqueness(rotated)
    assert verdict == interp.uniqueness(p) and verdict.failing_n == n - 1
