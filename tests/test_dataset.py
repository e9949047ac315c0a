import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    classical_dataset,
    haar_isometry,
    krylov_dataset,
    q_onto_dataset,
    random_dataset,
    residual_audit_dataset,
)
from rclkit import dataset
from rclkit.dataset import (
    DataSet,
    Decision,
    norm_one_rq_uniqueness,
    perpendicularity_report,
    preset_relaxed_rq,
    suboptimal_uniqueness,
    underlying_contraction,
    validate,
)
from rclkit.errors import DimensionMismatch, IllPosedData, InvalidInput
from rclkit.interp import UniquenessKind, uniqueness
from rclkit.opcore import coisometry_deficiency, defect, orthocomplement, range_closure_basis, spectral_norm


class TestDataSet:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DataSet(np.eye(2), np.eye(2), np.eye(3), np.eye(3))

    def test_ragged_operator_rejected(self):
        with pytest.raises(InvalidInput):
            DataSet([[1], [1, 2]], np.eye(2), np.eye(1), np.eye(1))

    def test_dims(self):
        d = random_dataset(np.random.default_rng(0), h0=2, h=4, hp=3)
        assert (d.dim_h0, d.dim_h, d.dim_hp) == (2, 4, 3)

    def test_caller_arrays_do_not_reach_the_data_set(self):
        d = random_dataset(np.random.default_rng(1))
        arrays = [m.copy() for m in (d.A, d.Tp, d.R, d.Q)]
        data = DataSet(*arrays)
        d_a, space_a = data.defect_a            # derived before the change, d.defect_tp after
        for m in arrays:
            m *= 0.5
        for stored, original in zip((data.A, data.Tp, data.R, data.Q), (d.A, d.Tp, d.R, d.Q)):
            np.testing.assert_array_equal(stored, original)
            with pytest.raises(ValueError):
                stored[0, 0] = 7.0
        assert data.defect_a[0] is d_a and data.defect_a[1] is space_a
        np.testing.assert_array_equal(d_a, d.defect_a[0])
        np.testing.assert_array_equal(data.defect_tp[0], d.defect_tp[0])
        np.testing.assert_array_equal(data.defect_tp[1].basis, d.defect_tp[1].basis)

    def test_defect_geometry_is_derived_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dataset, "defect", lambda *args: calls.append(args) or defect(*args))
        d = random_dataset(np.random.default_rng(2))
        for _ in range(3):
            d_a, space_a = d.defect_a
            d_tp, space_tp = d.defect_tp
        assert len(calls) == 2
        # each map is D in the coordinates of its own defect space
        projector = space_a.basis @ space_a.basis.conj().T
        np.testing.assert_allclose(space_a.basis @ d_a, defect(d.A)[0] @ projector, atol=1e-12)
        assert d_tp.shape == (space_tp.dim, d.dim_hp)

    def test_domain_is_derived_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dataset, "range_closure_basis",
                            lambda *args: calls.append(args) or range_closure_basis(*args))
        d = random_dataset(np.random.default_rng(3))
        p = underlying_contraction(d)
        assert suboptimal_uniqueness(d).decision is not Decision.NOT_APPLICABLE
        report = perpendicularity_report(d)
        # F once; the one other cut is the left invertibility of R
        assert [args[0] is d.R for args in calls] == [False, True]
        assert p.F is d.domain and report.f_equals_defect_space == (p.f_dim == p.u_dim)


class TestValidate:
    def test_all_zero_data_is_valid(self):
        d = DataSet(np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1), np.eye(1))
        assert validate(d).ok

    def test_gram_order_violation_reports_residual(self):
        d = DataSet(np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1), 0.5 * np.eye(1))
        report = validate(d)
        assert not report.ok
        assert report.violations[0].constraint == "gram_order"
        assert report.violations[0].residual == pytest.approx(0.75)

    def test_gram_order_allows_larger_q(self):
        d = DataSet(np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1), 2.0 * np.eye(1))
        assert validate(d).ok

    def test_intertwining_violation(self):
        d = DataSet(np.eye(1), 0.5 * np.eye(1), np.eye(1), np.eye(1))
        report = validate(d)
        assert [v.constraint for v in report.violations] == ["intertwining"]
        assert report.violations[0].residual == pytest.approx(0.5)

    @pytest.mark.parametrize("a_scale, rq_scale", [(0.5, 1e200), (1e200, 1.0)], ids=["R_Q", "A_Tp"])
    def test_overflowing_residuals_rejected(self, a_scale, rq_scale):
        e1 = np.eye(2)[:, :1]
        d = DataSet(a_scale * np.eye(2), a_scale * np.eye(2), rq_scale * e1, 0.5 * rq_scale * e1)
        with pytest.raises(InvalidInput, match="overflow"):
            validate(d)
        with pytest.raises(InvalidInput, match="overflow"):
            underlying_contraction(d)

    def test_largest_representable_residuals_validate(self):
        e1 = np.eye(2)[:, :1]
        report = validate(DataSet(0.5 * np.eye(2), 0.5 * np.eye(2), 1e153 * e1, 0.5e153 * e1))
        assert [v.constraint for v in report.violations] == ["gram_order"]
        assert report.violations[0].residual == pytest.approx(0.75e306)

    def test_expansive_a_detected(self):
        d = DataSet(1.5 * np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        assert any(v.constraint == "A_contraction" for v in validate(d).violations)

    @pytest.mark.parametrize("seed", range(5))
    def test_classical_construction_is_valid(self, seed):
        d = classical_dataset(np.random.default_rng(seed))
        report = validate(d)
        assert report.ok
        assert spectral_norm(d.Tp @ d.A @ d.R - d.A @ d.Q) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_datasets_are_valid(self, seed):
        assert validate(random_dataset(np.random.default_rng(seed))).ok


class TestUnderlyingContraction:
    def test_classical_gives_isometry(self):
        d = classical_dataset(np.random.default_rng(1))
        p = underlying_contraction(d)
        assert coisometry_deficiency(p.omega.T) <= 1e-8

    def test_unitary_tp_gives_trivial_output_space(self):
        d = random_dataset(np.random.default_rng(2), tp_unitary=True)
        p = underlying_contraction(d)
        assert p.y_dim == 0
        assert p.omega1.shape == (0, p.f_dim)

    @pytest.mark.parametrize("seed", range(8))
    def test_defining_identity_residual(self, seed):
        rng = np.random.default_rng(10 + seed)
        d = random_dataset(rng)
        p = underlying_contraction(d)
        d_a, space_a = defect(d.A)
        d_tp, space_tp = defect(d.Tp)
        lhs = p.omega @ (p.F.coords() @ space_a.coords() @ d_a @ d.Q)
        rhs = np.vstack([
            space_tp.coords() @ d_tp @ d.A @ d.R,
            space_a.coords() @ d_a @ d.R,
        ])
        assert spectral_norm(lhs - rhs) < 1e-10
        assert spectral_norm(p.omega) <= 1 + 1e-9

    def test_invalid_data_rejected(self):
        d = DataSet(np.eye(1), 0.5 * np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(IllPosedData):
            underlying_contraction(d)

    def test_expansive_result_is_ill_posed(self, monkeypatch):
        # InterpProblem's own contraction check judges the solved operator,
        # here the isometry of a classical data set scaled by 1.1
        build = dataset.InterpProblem
        monkeypatch.setattr(dataset, "InterpProblem",
                            lambda u, y, f, w1, w2, tol: build(u, y, f, 1.1 * w1, 1.1 * w2, tol))
        message = r"^underlying operator: stacked operator norm 1\.1\d* exceeds 1 \+ slack; data set is inconsistent$"
        with pytest.raises(IllPosedData, match=message):
            underlying_contraction(classical_dataset(np.random.default_rng(1)))

    def test_residual_audit_catches_a_dropped_direction(self):
        d = residual_audit_dataset()
        assert validate(d).ok
        with pytest.raises(IllPosedData, match=r"^defining identity residual 5\.000e-05 exceeds 1\.0e-09$"):
            underlying_contraction(d)


@pytest.mark.parametrize("analyzer", [suboptimal_uniqueness, perpendicularity_report, norm_one_rq_uniqueness])
def test_special_cases_reject_invalid_data(analyzer):
    # R*R <= Q*Q fails: validate reports gram_order 0.75
    e1 = np.eye(2)[:, :1]
    d = DataSet(0.5 * np.eye(2), 0.5 * np.eye(2), e1, 0.5 * e1)
    with pytest.raises(IllPosedData, match="gram_order"):
        analyzer(d)


class TestPresetRelaxedRQ:
    def test_degenerate_single_block(self):
        r, q = preset_relaxed_rq(1, 3)
        assert r.shape == (3, 0) and q.shape == (3, 0)

    def test_two_blocks_scalar(self):
        r, q = preset_relaxed_rq(2, 1)
        np.testing.assert_array_equal(r, [[1.0], [0.0]])
        np.testing.assert_array_equal(q, [[0.0], [1.0]])

    @pytest.mark.parametrize("n,v", [(0, 1), (2, -1)])
    def test_rejects_no_block_or_a_negative_dimension(self, n, v):
        with pytest.raises(InvalidInput, match=f"^need n >= 1 and v_dim >= 0, got n={n}, v_dim={v}$"):
            preset_relaxed_rq(n, v)

    @pytest.mark.parametrize("n,v", [(2, 1), (3, 2), (5, 1), (4, 3)])
    def test_both_are_exact_isometries(self, n, v):
        r, q = preset_relaxed_rq(n, v)
        eye = np.eye((n - 1) * v)
        np.testing.assert_array_equal(r.conj().T @ r, eye)
        np.testing.assert_array_equal(q.conj().T @ q, eye)


class TestSuboptimalUniqueness:
    def test_norm_one_a_not_applicable(self):
        d = krylov_dataset(np.random.default_rng(3), n=4, a_norm=1.0)
        result = suboptimal_uniqueness(d)
        assert result.decision is Decision.NOT_APPLICABLE
        assert "strict" in result.reason

    def test_unitary_tp_branch(self):
        d = random_dataset(np.random.default_rng(4), a_norm=0.5, tp_unitary=True)
        assert suboptimal_uniqueness(d).decision is Decision.UNIQUE

    def test_q_onto_branch(self):
        d = q_onto_dataset(np.random.default_rng(5))
        assert suboptimal_uniqueness(d).decision is Decision.UNIQUE

    def test_not_unique_case(self):
        d = krylov_dataset(np.random.default_rng(6), n=3, a_norm=0.6)
        assert suboptimal_uniqueness(d).decision is Decision.NOT_UNIQUE

    @pytest.mark.parametrize("rq, left_invertible", [
        (np.zeros((2, 0)), True),                  # H0 = {0}: vacuously
        (np.diag([1.0, 2e-10]), True),             # smallest singular value above rank_tol * largest
        (np.diag([1.0, 1e-10]), False),            # ... at it
        (np.eye(2)[:, :1], True),                  # tall
        (np.eye(2, 3), False),                     # wide: full row rank, and a kernel
        (np.ones((2, 2)) / 2, False),              # square, rank one
        (np.zeros((0, 2)), False),                 # H = {0}, dim H0 = 2
        (1e-12 * np.eye(2), True),                 # tiny but exact: the cut is relative
    ])
    def test_left_invertibility_counts_singular_values(self, rq, left_invertible):
        # A strict, T' = I and Q = R keep every constraint exact
        h = rq.shape[0]
        d = DataSet(0.5 * np.eye(h), np.eye(h), rq, rq)
        assert validate(d).ok
        result = suboptimal_uniqueness(d)
        assert (result.reason == "R is not left invertible") != left_invertible

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), exponent=st.floats(-14, 0))
    def test_decision_is_invariant_under_scaling_r_and_q(self, seed, exponent):
        # (sR, sQ) keeps both constraints and every range: only the scale moves
        rng = np.random.default_rng(seed)
        maker = [random_dataset, classical_dataset, q_onto_dataset, krylov_dataset][seed % 4]
        d = maker(rng)
        s = 10.0 ** exponent
        scaled = DataSet(d.A, d.Tp, s * d.R, s * d.Q)
        assert validate(scaled).ok
        assert suboptimal_uniqueness(scaled) == suboptimal_uniqueness(d)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_interpolation_verdict(self, seed):
        rng = np.random.default_rng(40 + seed)
        maker = [random_dataset, classical_dataset, q_onto_dataset][seed % 3]
        d = maker(rng)
        result = suboptimal_uniqueness(d)
        if result.decision is Decision.NOT_APPLICABLE:
            return
        verdict = uniqueness(underlying_contraction(d))
        assert (result.decision is Decision.UNIQUE) == verdict.unique

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(-10, -9).map(lambda e: 10.0 ** e))
    @example(s=1.2e-10)
    @example(s=1.5e-10)
    @example(s=1.9e-10)
    def test_knife_edge_agrees_with_the_trichotomy(self, s):
        # D_A Q = diag(0.87, 0.99 s) keeps its second direction at the cut
        # that sets dim F for s above about 0.88e-10, while Q = diag(2, s)
        # alone would keep it only for s above 2e-10: "Q onto H" is decided
        # at the first cut
        a = np.vstack([np.diag([0.9, 0.1]), np.zeros((1, 2))])
        rq = np.diag([2.0, s])
        d = DataSet(a, np.diag([1.0, 1.0, 0.5]), rq, rq)
        assert validate(d).ok
        decision = suboptimal_uniqueness(d).decision
        unique = uniqueness(underlying_contraction(d)).unique
        assert decision is Decision.NOT_APPLICABLE or (decision is Decision.UNIQUE) == unique


class TestPerpendicularity:
    @pytest.mark.parametrize("seed", range(8))
    def test_image_perpendicular_on_valid_data(self, seed):
        rng = np.random.default_rng(20 + seed)
        maker = [random_dataset, classical_dataset, krylov_dataset][seed % 3]
        report = perpendicularity_report(maker(rng))
        assert report.g_image_perp_q and report.q_residual <= 1e-10

    def test_q_onto_fills_the_defect_space(self):
        report = perpendicularity_report(classical_dataset(np.random.default_rng(7)))
        assert report.f_equals_defect_space and report.q_residual <= 1e-10

    def test_span_implies_full_domain(self):
        # whenever range(Q) and ker D_A together span H, F fills the defect
        # space; in finite dimensions the converse holds too. Norm-one A
        # spans H with Q not onto, random data sets do not span it.
        makers = [random_dataset, lambda rng: krylov_dataset(rng, n=4, a_norm=1.0), q_onto_dataset]
        spans = 0
        for seed in range(12):
            d = makers[seed % 3](np.random.default_rng(50 + seed))
            parts = [range_closure_basis(d.Q).basis, orthocomplement(d.defect_a[1]).basis]
            span = range_closure_basis(np.hstack(parts))
            spans += span.dim == d.dim_h
            assert perpendicularity_report(d).f_equals_defect_space == (span.dim == d.dim_h)
        assert spans == 8

    def test_engineered_gap_between_f_and_defect_space(self):
        # norm-one A whose norm-attaining vector avoids range(Q): the domain
        # subspace stays strictly inside the defect space
        a = np.diag([1.0, 0.6, 0.7])
        tp = np.diag([0.5, 1.0, 0.5])
        q = np.zeros((3, 1))
        q[1, 0] = 1.0
        d = DataSet(a, tp, q.copy(), q)
        assert validate(d).ok
        report = perpendicularity_report(d)
        assert not report.f_equals_defect_space
        assert report.g_image_perp_q and report.q_residual <= 1e-10
        assert report.kernel_dim == 1


class TestNormOneUniqueness:
    def test_strict_contraction_branch(self):
        d = krylov_dataset(np.random.default_rng(8), n=4, a_norm=0.9)
        assert norm_one_rq_uniqueness(d).decision is Decision.NOT_UNIQUE

    def test_norm_one_branch(self):
        d = krylov_dataset(np.random.default_rng(9), n=4, a_norm=1.0)
        assert norm_one_rq_uniqueness(d).decision is Decision.UNIQUE

    def test_wrong_shape_not_applicable(self):
        d = classical_dataset(np.random.default_rng(10))
        assert norm_one_rq_uniqueness(d).decision is Decision.NOT_APPLICABLE

    def test_trivial_defect_not_applicable(self):
        rng = np.random.default_rng(11)
        r, q = preset_relaxed_rq(3, 1)
        d = DataSet(np.zeros((2, 3)), haar_isometry(rng, 2, 2), r, q)
        result = norm_one_rq_uniqueness(d)
        assert result.decision is Decision.NOT_APPLICABLE
        assert "defect" in result.reason

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(-13, -6).map(lambda e: 10.0 ** e), seed=st.integers(0, 10**6))
    @example(delta=1e-10, seed=4002)
    @example(delta=1e-9, seed=4002)
    @example(delta=5e-9, seed=4002)
    def test_knife_edge_agrees_with_the_trichotomy(self, delta, seed):
        # I - A*A has its smallest eigenvalue near 2 delta, on either side of
        # the rank cut; each analyzer decides "norm(A) = 1" at that cut
        d = krylov_dataset(np.random.default_rng(seed), n=4, a_norm=1.0 - delta)
        unique = uniqueness(underlying_contraction(d)).unique
        assert (norm_one_rq_uniqueness(d).decision is Decision.UNIQUE) == unique
        decision = suboptimal_uniqueness(d).decision
        assert decision is Decision.NOT_APPLICABLE or (decision is Decision.UNIQUE) == unique

    @pytest.mark.parametrize("seed,a_norm", [(0, 0.5), (1, 0.9), (2, 1.0), (3, 1.0), (4, 0.7)])
    def test_agrees_with_interpolation_verdict(self, seed, a_norm):
        d = krylov_dataset(np.random.default_rng(60 + seed), n=4, a_norm=a_norm)
        decision = norm_one_rq_uniqueness(d).decision
        verdict = uniqueness(underlying_contraction(d))
        assert (decision is Decision.UNIQUE) == verdict.unique
        if a_norm == 1.0:
            assert verdict.kind is UniquenessKind.FULL_DOMAIN
