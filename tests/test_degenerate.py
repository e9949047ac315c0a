"""End-to-end properties over the degenerate regimes.

Problems and data sets are drawn with ``Y = {0}``, ``dim F`` in ``{0, u}``
and zero defect beside the generic case, and data sets also with a wide
``R`` (``dim H0 > dim H``). Over every draw: each witness is a
verified solution, the uniqueness trichotomy agrees with the co-isometry of
the central coefficients, a problem written as a file reads back through
``rclkit omega`` as the same text, and the paper's two special-case
analyzers agree with the trichotomy wherever they apply (valid data sets
only: both reject an invalid one).
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    classical_dataset,
    coisometric_problem,
    haar_isometry,
    krylov_dataset,
    q_onto_dataset,
    random_complex,
    random_contraction,
    random_dataset,
    random_problem,
)
from rclkit.cli import EXIT_OK, _dump_json, main, problem_to_json
from rclkit.dataset import (
    DataSet,
    Decision,
    norm_one_rq_uniqueness,
    preset_relaxed_rq,
    suboptimal_uniqueness,
    underlying_contraction,
    validate,
)
from rclkit.interp import (
    UniquenessKind,
    central_coefficients_coisometric,
    is_solution,
    second_solution_witness,
    uniqueness,
)
from rclkit.opcore import spectral_norm


def draw_problem(rng, regime):
    u = int(rng.integers(1, 7))
    y = int(rng.integers(1, 4))
    if regime == "no_output":
        return random_problem(rng, u_dim=u, y_dim=0, f_dim=int(rng.integers(0, u + 1)))
    if regime == "empty_domain":
        return random_problem(rng, u_dim=u, y_dim=y, f_dim=0)
    if regime == "full_domain":
        return random_problem(rng, u_dim=u, y_dim=y, f_dim=u)
    if regime == "zero_adjoint_defect":
        return coisometric_problem(rng)
    return random_problem(rng, u_dim=u, y_dim=y, f_dim=int(rng.integers(0, u + 1)))


def empty_domain_dataset(rng):
    """``H0 = {0}``, so ``F = {0}``; ``T'`` unitary half of the time (``Y = {0}``)."""
    h, hp = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    a = random_contraction(rng, hp, h, float(rng.uniform(0.2, 0.9)))
    tp = haar_isometry(rng, hp, hp) if rng.uniform() < 0.5 else random_contraction(rng, hp, hp)
    return DataSet(a, tp, np.zeros((h, 0)), np.zeros((h, 0)))


def shift_dataset(rng):
    """Scalar sliding-block ``R, Q`` with ``A = a [e_1 ... e_n]`` and ``T'`` the
    shift; ``a = 1`` makes ``A`` an isometry, so ``D_A = 0`` and ``U = F = {0}``."""
    n = int(rng.integers(2, 5))
    hp = n + int(rng.integers(0, 3))
    a = 1.0 if rng.uniform() < 0.5 else float(rng.uniform(0.1, 0.95))
    r, q = preset_relaxed_rq(n, 1)
    return DataSet(a * np.eye(hp, n), np.eye(hp, k=-1), r, q)


def wide_r_dataset(rng):
    """``R = Q`` wide (``dim H0 > dim H``) of rank ``k <= dim H``, with ``T'``
    the identity on the range of ``A``, so ``T'AR = AQ`` to roundoff. ``A`` is
    strict, so ``dim F = k``; ``R`` has a kernel and is never left invertible."""
    h = int(rng.integers(1, 4))
    h0, hp, k = h + int(rng.integers(1, 3)), h + int(rng.integers(0, 3)), int(rng.integers(0, h + 1))
    v = haar_isometry(rng, hp, hp)
    a = v[:, :h] @ random_contraction(rng, h, h, float(rng.uniform(0.2, 0.9)))
    blocks = np.zeros((hp, hp), dtype=np.complex128)
    blocks[:h, :h] = np.eye(h)
    blocks[h:, h:] = random_contraction(rng, hp - h, hp - h, float(rng.uniform(0.2, 0.9)))
    rq = random_complex(rng, h, k) @ random_complex(rng, k, h0)
    rq = rq / max(1.0, spectral_norm(rq))
    return DataSet(a, v @ blocks @ v.conj().T, rq, rq)


#: Data-set makers for the generic case and each degenerate regime.
DATASET_REGIMES = {
    "generic": lambda rng: random_dataset(rng),
    "no_output": lambda rng: random_dataset(rng, tp_unitary=True),        # Y = {0}
    "full_domain": lambda rng: q_onto_dataset(rng),                     # Q onto H, so F = U
    "classical": lambda rng: classical_dataset(rng, dim=int(rng.integers(1, 5))),
    "empty_domain": empty_domain_dataset,                                # F = {0}
    "zero_defect": shift_dataset,                                        # D_A = 0 when a = 1
    "sliding_block": lambda rng: krylov_dataset(rng, n=int(rng.integers(2, 5)),
                                                a_norm=float(rng.choice([0.5, 0.9, 1.0]))),
    "wide_r": wide_r_dataset,                                            # dim H0 > dim H
}

PROBLEM_REGIMES = ["generic", "no_output", "empty_domain", "full_domain", "zero_adjoint_defect"]


def problems(regime, seed):
    """The drawn problem, and the underlying contraction of the drawn data set."""
    rng = np.random.default_rng(seed)
    yield draw_problem(rng, regime)
    data = DATASET_REGIMES[regime if regime in DATASET_REGIMES else "zero_defect"](rng)
    yield underlying_contraction(data)


@settings(max_examples=30, deadline=None)
@given(regime=st.sampled_from(PROBLEM_REGIMES), seed=st.integers(0, 10**6))
@example(regime="empty_domain", seed=0)
@example(regime="zero_adjoint_defect", seed=0)
def test_every_witness_is_a_solution(regime, seed):
    for p in problems(regime, seed):
        verdict = uniqueness(p)
        w = second_solution_witness(p, 8)
        assert (w is None) == verdict.unique
        if w is not None:
            assert is_solution(p, w.solution).ok
            assert w.first_diff_index == verdict.failing_n


@settings(max_examples=30, deadline=None)
@given(regime=st.sampled_from(PROBLEM_REGIMES), seed=st.integers(0, 10**6))
@example(regime="no_output", seed=0)
@example(regime="full_domain", seed=0)
def test_uniqueness_agrees_with_coefficient_coisometry(regime, seed):
    for p in problems(regime, seed):
        verdict = uniqueness(p)
        coisometric = central_coefficients_coisometric(p, p.f_dim // max(1, p.y_dim) + 1)
        if verdict.kind is UniquenessKind.FULL_DOMAIN:
            # F = U decides uniqueness alone; with Y = {0} the chain holds too
            assert coisometric or p.y_dim > 0
        else:
            assert coisometric == verdict.unique


@settings(max_examples=30, deadline=None)
@given(regime=st.sampled_from(PROBLEM_REGIMES), seed=st.integers(0, 10**6))
@example(regime="empty_domain", seed=0)
@example(regime="no_output", seed=0)
def test_omega_round_trip_is_byte_identical(regime, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        for p in problems(regime, seed):
            text = "".join(_dump_json(problem_to_json(p))) + "\n"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["omega", path]) == EXIT_OK
            assert out.getvalue() == text


@settings(max_examples=40, deadline=None)
@given(regime=st.sampled_from(sorted(DATASET_REGIMES)), seed=st.integers(0, 10**6))
@example(regime="zero_defect", seed=0)
@example(regime="empty_domain", seed=0)
@example(regime="wide_r", seed=0)
def test_special_cases_agree_with_the_trichotomy(regime, seed):
    data = DATASET_REGIMES[regime](np.random.default_rng(seed))
    assert validate(data).ok
    unique = uniqueness(underlying_contraction(data)).unique
    for analyzer in (suboptimal_uniqueness, norm_one_rq_uniqueness):
        decision = analyzer(data).decision
        if decision is not Decision.NOT_APPLICABLE:
            assert (decision is Decision.UNIQUE) == unique, analyzer.__name__
    if regime == "wide_r":
        assert suboptimal_uniqueness(data).reason == "R is not left invertible"
    if regime == "zero_defect" and spectral_norm(data.A) == 1.0:
        assert data.defect_a[1].dim == 0 and norm_one_rq_uniqueness(data).decision is Decision.UNIQUE
