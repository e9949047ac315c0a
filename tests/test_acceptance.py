"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Every tolerance is pinned here, not deferred to configuration.
"""

import time

import numpy as np
import pytest

from helpers import (
    backward_shift_problem,
    classical_dataset,
    coisometric_problem,
    krylov_dataset,
    q_onto_dataset,
    random_coisometric_system,
    random_contraction,
    random_dataset,
    random_problem,
)
from rclkit.dataset import (
    Decision,
    norm_one_rq_uniqueness,
    perpendicularity_report,
    suboptimal_uniqueness,
    underlying_contraction,
    validate,
)
from rclkit.errors import AuditFailure
from rclkit.interp import (
    UniquenessKind,
    central_coefficients_coisometric,
    central_taylor,
    is_solution,
    scan_bound,
    second_solution_witness,
    uniqueness,
)
from rclkit.lifting import interpolant_from_solution, verify_rclt
from rclkit.opcore import spectral_norm
from rclkit.redheffer import coefficient_matrix_audit, realize
from rclkit.sysco import CoisometricSystem, gram_identity_audit, julia_system


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.2f}s exceeds {self.limit}s budget"


def announce(number, name, detail):
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


def problem_pool(count=200, seed=1000):
    """Random problems covering all three verdict branches."""
    pool = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        if i % 5 == 0:
            pool.append(random_problem(rng, u_max=8, y_max=3, f_dim=None, u_dim=None, y_dim=0))
        elif i % 5 == 1:
            u = int(rng.integers(1, 9))
            pool.append(random_problem(rng, u_dim=u, f_dim=u, y_dim=int(rng.integers(0, 4))))
        elif i % 7 == 2:
            pool.append(coisometric_problem(rng))
        else:
            pool.append(random_problem(rng, u_max=8, y_max=3))
    return pool


def dataset_pool(count=50, seed=2000, strict=True):
    """Valid data sets with strict A and left-invertible R, across regimes."""
    pool = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        kind = i % 10
        if kind < 4:
            pool.append(random_dataset(rng, a_norm=float(rng.uniform(0.3, 0.8))))
        elif kind < 6:
            pool.append(classical_dataset(rng, a_norm=float(rng.uniform(0.4, 0.8))))
        elif kind < 8:
            pool.append(q_onto_dataset(rng, a_norm=float(rng.uniform(0.3, 0.7))))
        elif kind == 8:
            pool.append(random_dataset(rng, a_norm=float(rng.uniform(0.3, 0.8)), tp_unitary=True))
        else:
            pool.append(krylov_dataset(rng, n=int(rng.integers(3, 6)),
                                       a_norm=float(rng.uniform(0.4, 0.8))))
    return pool


def test_criterion_1_central_recursion():
    watch = Stopwatch(5.0)
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(100 + i)
        p = random_problem(rng, u_max=8, y_max=3)
        h = central_taylor(p, 21)
        basis = p.F.basis
        worst = max(worst, spectral_norm(h.coeffs[0] @ basis - p.omega1))
        for n in range(21):
            worst = max(worst, spectral_norm(h.coeffs[n + 1] @ basis - h.coeffs[n] @ p.omega2))
    assert worst <= 1e-11
    watch.check()
    announce(1, "central-solution recursion", f"100 problems, max residual {worst:.2e}, {watch.elapsed:.2f}s")


def test_criterion_2_system_gram_identity():
    watch = Stopwatch(5.0)
    worst = 0.0
    systems = [random_coisometric_system(np.random.default_rng(300 + i)) for i in range(50)]
    systems += [julia_system(np.array([[a]])) for a in (0.0, 0.3, 0.5, 0.9, 1.0)]
    for i in range(5):
        rng = np.random.default_rng(400 + i)
        n = int(rng.integers(1, 5))
        systems.append(julia_system(random_contraction(rng, n, n, norm=float(rng.uniform(0.1, 1.0)))))
    for s in systems:
        worst = max(worst, gram_identity_audit(s, 12))
    assert worst <= 1e-9

    controls = 0
    for i in range(5):
        s = systems[i]
        broken = CoisometricSystem(s.A, s.B, s.C, s.D + 0.1, validate=False)
        with pytest.raises(AuditFailure) as excinfo:
            gram_identity_audit(broken, 12)
        assert excinfo.value.deviation > 1e-2
        controls += 1
    watch.check()
    announce(2, "stacked transfer/observability Gram",
             f"{len(systems)} systems <= {worst:.2e}, {controls} negative controls, {watch.elapsed:.2f}s")


def test_criterion_3_coefficient_matrix_gram():
    watch = Stopwatch(10.0)
    worst = 0.0
    count = 0
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        if i % 10 == 8:
            p = random_problem(rng, u_max=6, y_dim=0)          # trivial output space
        elif i % 10 == 9:
            p = coisometric_problem(rng)                        # zero adjoint defect
        else:
            p = random_problem(rng, u_max=6, y_max=3)
        audit = coefficient_matrix_audit(realize(p), 10)
        worst = max(worst, audit.deficiency)
        count += 1
    assert worst <= 1e-9
    watch.check()
    announce(3, "coefficient-matrix row Gram", f"{count} problems <= {worst:.2e}, {watch.elapsed:.2f}s")


def test_criterion_4_uniqueness_with_witnesses():
    watch = Stopwatch(30.0)
    pool = problem_pool(200)
    not_unique = 0
    for i, p in enumerate(pool):
        verdict = uniqueness(p)
        expected_unique = (p.f_dim == p.u_dim) or (p.y_dim == 0)
        assert verdict.unique == expected_unique, f"problem {i} disagrees with the finite-dimension rule"
        if verdict.unique:
            continue
        not_unique += 1
        witness = second_solution_witness(p, order=24, seed=i)
        assert witness is not None
        assert witness.gap > 1e-6
        central = central_taylor(p, 24)
        for candidate in (witness.solution, central):
            report = is_solution(p, candidate)
            assert report.interp_ok and report.ball_ok
    watch.check()
    announce(4, "uniqueness trichotomy + witnesses",
             f"200 problems, {not_unique} witnessed non-unique, {watch.elapsed:.2f}s")


def test_criterion_5_coefficient_coisometry_equivalence():
    pool = problem_pool(200)
    checked = 0
    for p in pool:
        if p.f_dim == p.u_dim:
            continue
        order = p.f_dim // max(1, p.y_dim) + 1
        expected = uniqueness(p).kind is UniquenessKind.COISOMETRIC_CHAIN
        assert central_coefficients_coisometric(p, order) == expected
        checked += 1
    announce(5, "coefficient-operator co-isometry equivalence", f"{checked} problems with F != U agree")


def test_criterion_6_backward_shift_golden():
    # The infinite-dimensional parent of this instance has a unique solution
    # through the co-isometry chain; no finite truncation can reproduce that,
    # and the failure index below is exactly where the truncation bites.
    # The orbit (rows 1, cols 6) keeps the loop at order 5 and doubles at 40.
    p = backward_shift_problem(6)
    for order in (5, 40):
        h = central_taylor(p, order)
        expected = np.zeros((order + 1, 1, 6))
        for n in range(5):
            expected[n, 0, n + 1] = 1.0
        np.testing.assert_array_equal(h.coeffs, expected)
    verdict = uniqueness(p)
    assert verdict.kind is UniquenessKind.NOT_UNIQUE
    assert verdict.failing_n == 5
    assert verdict.failing_n == scan_bound(p)
    announce(6, "truncated shift golden instance", "coefficients exact, chain breaks at n=5")


def test_criterion_7_dataset_corollaries():
    watch = Stopwatch(30.0)
    suboptimal_pool = dataset_pool(50, seed=3000)
    agreements = 0
    for i, d in enumerate(suboptimal_pool):
        assert validate(d).ok
        decision = suboptimal_uniqueness(d)
        assert decision.decision is not Decision.NOT_APPLICABLE
        p = underlying_contraction(d)
        verdict = uniqueness(p)
        assert (decision.decision is Decision.UNIQUE) == verdict.unique
        if not verdict.unique:
            witness = second_solution_witness(p, order=24, seed=i)
            assert witness is not None and witness.gap > 1e-6
        agreements += 1

    norm_targets = [0.5, 0.9, 1.0, 0.9, 0.5] * 4
    norm_agreements = 0
    for i, target in enumerate(norm_targets):
        d = krylov_dataset(np.random.default_rng(4000 + i), n=4, a_norm=target)
        decision = norm_one_rq_uniqueness(d)
        assert decision.decision is not Decision.NOT_APPLICABLE
        verdict = uniqueness(underlying_contraction(d))
        assert (decision.decision is Decision.UNIQUE) == verdict.unique
        assert (decision.decision is Decision.UNIQUE) == (target == 1.0)
        norm_agreements += 1

    worst_perp = 0.0
    for i, target in enumerate(norm_targets):
        d = krylov_dataset(np.random.default_rng(4000 + i), n=4, a_norm=target)
        report = perpendicularity_report(d)
        worst_perp = max(worst_perp, report.q_residual)
    for d in suboptimal_pool:
        report = perpendicularity_report(d)
        worst_perp = max(worst_perp, report.q_residual)
    assert worst_perp <= 1e-10
    watch.check()
    announce(7, "data-set corollaries",
             f"{agreements} sub-optimal + {norm_agreements} sliding-block decisions agree, "
             f"perpendicularity residual {worst_perp:.2e}, {watch.elapsed:.2f}s")


def test_criterion_8_lifting_round_trip():
    watch = Stopwatch(10.0)
    blocks = 32
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(6000 + i)
        maker = [random_dataset, classical_dataset, krylov_dataset, q_onto_dataset][i % 4]
        d = maker(rng)
        p = underlying_contraction(d)
        h = central_taylor(p, blocks - 1)
        b = interpolant_from_solution(d, h, blocks)
        report = verify_rclt(d, b, blocks)
        assert report.projection_ok, f"data set {i}: projection must hold exactly"
        assert report.max_retained_residual <= 1e-10, f"data set {i}"
        worst = max(worst, report.max_retained_residual)
    assert worst <= 1e-10
    watch.check()
    announce(8, "lifting round trip", f"50 data sets, max retained residual {worst:.2e}, {watch.elapsed:.2f}s")
