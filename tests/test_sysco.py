import numpy as np
import pytest

from helpers import haar_isometry, random_coisometric_system, random_contraction, sequential_orbit
from rclkit import dataset, redheffer, sysco
from rclkit.errors import AuditFailure, InvalidInput
from rclkit.opcore import DEFAULT_TOL, coisometry_deficiency, spectral_norm
from rclkit.sysco import (
    CoisometricSystem,
    gram_identity_audit,
    julia_system,
    orbit,
    stacked_operator,
    transfer_from_orbit,
)


class CountingMatmul:
    """numpy, with a count of the ``matmul`` calls that write into a given
    ``out``: in ``orbit``, one per step on the loop and one per stacked
    product when it doubles (the squarings of ``A`` are not counted)."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.calls += "out" in kwargs
        return np.matmul(*args, **kwargs)


def dilation_of_half():
    return julia_system(np.array([[0.5]]))


class TestConstruction:
    def test_validation_rejects_broken_system(self):
        with pytest.raises(AuditFailure):
            CoisometricSystem(np.eye(2), np.eye(2), np.eye(2), np.eye(2))

    def test_unchecked_path_for_negative_controls(self):
        s = CoisometricSystem(np.eye(2), np.eye(2), np.eye(2), np.eye(2), validate=False)
        assert coisometry_deficiency(s.block_matrix()) > 1.0

    def test_later_writes_to_the_callers_arrays_do_not_reach_the_system(self):
        dilation = dilation_of_half()
        blocks = [M.copy() for M in (dilation.A, dilation.B, dilation.C, dilation.D)]
        s = CoisometricSystem(*blocks)
        for caller in blocks:
            caller[0, 0] = 5.0
        np.testing.assert_array_equal(s.block_matrix(), dilation.block_matrix())
        for stored in (s.A, s.B, s.C, s.D):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0, 0] = 5.0

    def test_nonsquare_state_rejected(self):
        with pytest.raises(InvalidInput):
            CoisometricSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)))

    def test_ragged_block_rejected(self):
        with pytest.raises(InvalidInput):
            CoisometricSystem(np.zeros((2, 2)), [[1.0], [1.0, 2.0]], np.zeros((1, 2)), np.zeros((1, 1)))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_generator_produces_coisometries(self, seed):
        s = random_coisometric_system(np.random.default_rng(seed))
        assert coisometry_deficiency(s.block_matrix()) < 1e-12

    def test_block_invariants(self):
        # the two halves of the co-isometry identity, each checked directly
        s = random_coisometric_system(np.random.default_rng(7))
        x, w = s.state_dim, s.out_dim
        assert spectral_norm(s.B @ s.B.conj().T - (np.eye(x) - s.A @ s.A.conj().T)) < 1e-12
        assert spectral_norm(s.D @ s.D.conj().T + s.C @ s.C.conj().T - np.eye(w)) < 1e-12


class TestJulia:
    def test_scalar_half_blocks(self):
        s = dilation_of_half()
        root = np.sqrt(3) / 2
        assert s.A[0, 0] == pytest.approx(0.5)
        assert s.B[0, 0] == pytest.approx(root)
        assert s.C[0, 0] == pytest.approx(root)
        assert s.D[0, 0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_dilation_is_unitary(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        s = julia_system(random_contraction(rng, n, n, norm=float(rng.uniform(0.1, 1.0))))
        m = s.block_matrix()
        assert spectral_norm(m @ m.conj().T - np.eye(2 * n)) < 1e-12
        assert spectral_norm(m.conj().T @ m - np.eye(2 * n)) < 1e-12

    def test_transfer_values_stay_contractive(self):
        s = dilation_of_half()
        f = transfer_from_orbit(s, orbit(s.C, s.A, 40))
        assert spectral_norm(f.eval(0.5)) <= 1.0 + 1e-12

    def test_nonsquare_contraction_rejected(self):
        with pytest.raises(InvalidInput, match=r"^expected a square contraction, got shape \(2, 3\)$"):
            julia_system(np.zeros((2, 3)))


class TestTransferObservability:
    def test_zero_state_operator(self):
        s = random_coisometric_system(np.random.default_rng(1))
        flat = CoisometricSystem(np.zeros_like(s.A), s.B, s.C, s.D, validate=False)
        f = transfer_from_orbit(flat, orbit(flat.C, flat.A, 4))
        np.testing.assert_array_equal(f.coeffs[0], s.D)
        np.testing.assert_array_equal(f.coeffs[1], s.C @ s.B)
        assert spectral_norm(f.coeffs[2]) == 0.0
        w = orbit(flat.C, flat.A, 3)
        np.testing.assert_array_equal(w[0], s.C)
        assert spectral_norm(w[1]) == 0.0

    def test_zero_output_map(self):
        s = random_coisometric_system(np.random.default_rng(2))
        silent = CoisometricSystem(s.A, s.B, np.zeros_like(s.C), s.D, validate=False)
        w = orbit(silent.C, silent.A, 5)
        assert all(spectral_norm(w[n]) == 0.0 for n in range(6))

    @pytest.mark.parametrize("seed", range(5))
    def test_observability_gram_in_unit_ball(self, seed):
        s = random_coisometric_system(np.random.default_rng(10 + seed))
        w = orbit(s.C, s.A, 25)
        gram = sum(c.conj().T @ c for c in w)
        assert np.linalg.eigvalsh(np.eye(s.state_dim) - gram).min() >= -1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_transfer_series_matches_resolvent(self, seed):
        s = random_coisometric_system(np.random.default_rng(20 + seed))
        lam, order = 0.3, 40
        f = transfer_from_orbit(s, orbit(s.C, s.A, order))
        resolvent = np.linalg.solve(np.eye(s.state_dim) - lam * s.A, s.B)
        direct = s.D + lam * s.C @ resolvent
        tail = abs(lam) ** (order + 1) / (1 - abs(lam))
        assert spectral_norm(f.eval(lam) - direct) <= max(tail, 1e-12)


class TestOrbit:
    @pytest.mark.parametrize("rows,cols", [(2, 3), (0, 3), (2, 0), (0, 0)])
    def test_shape_and_powers(self, rows, cols):
        rng = np.random.default_rng(rows + cols)
        c, a = random_contraction(rng, rows, cols), random_contraction(rng, cols, cols)
        out = orbit(c, a, 5)
        assert out.shape == (6, rows, cols) and out.dtype == np.complex128
        for n in range(6):
            np.testing.assert_allclose(out[n], c @ np.linalg.matrix_power(a, n), rtol=0, atol=1e-14)

    # orbit doubles iff bit_length(n) cols < n rows: (2, 8) from n = 31 on,
    # (8, 64) at n = 128 only, (32, 64) at n = 7 and from n = 9 on; (8, 136),
    # the closed-loop shape of a polynomial parameter, never up to n = 128;
    # n = 0 never. The zero-size shapes make no product at all.
    DOUBLING = {(2, 8): {31, 32, 33, 128}, (8, 64): {128}, (32, 64): {7, 9, 31, 32, 33, 128}}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 128])
    @pytest.mark.parametrize("rows,cols", [(2, 8), (8, 64), (8, 136), (32, 64), (0, 3), (2, 0), (0, 0)])
    def test_matches_the_sequential_loop_on_both_sides_of_the_rule(self, monkeypatch, rows, cols, n):
        rng = np.random.default_rng(1000 * rows + cols)
        c, a = random_contraction(rng, rows, cols, 1.5), random_contraction(rng, cols, cols)
        counting = CountingMatmul()
        monkeypatch.setattr(sysco, "np", counting)
        out = orbit(c, a, n)
        doubles = n in self.DOUBLING.get((rows, cols), ())
        assert counting.calls == (0 if not rows * cols else n.bit_length() if doubles else n)
        assert out.shape == (n + 1, rows, cols) and out.dtype == np.complex128
        bound = 16 * (n + 1) * np.finfo(float).eps * max(1.0, spectral_norm(c))
        np.testing.assert_allclose(out, sequential_orbit(c, a, n), rtol=0, atol=bound)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInput):
            orbit(np.eye(2), np.eye(2), -1)


@pytest.mark.parametrize("blocks", [1, 4, 9])
def test_stacked_operator_runs_one_orbit(monkeypatch, blocks):
    s = random_coisometric_system(np.random.default_rng(60 + blocks))
    # two orbits, one per part, as the reference layout
    reference = np.hstack([
        transfer_from_orbit(s, orbit(s.C, s.A, blocks - 1)).toeplitz(blocks),
        orbit(s.C, s.A, blocks - 1).reshape(blocks * s.out_dim, s.state_dim),
    ])
    calls = []

    def counted(*args):
        calls.append(args[2])
        return orbit(*args)

    monkeypatch.setattr(sysco, "orbit", counted)
    np.testing.assert_array_equal(stacked_operator(s, blocks), reference)
    assert calls == [blocks - 1]


class TestGramIdentityAudit:
    def test_scalar_dilation_is_exact(self):
        assert gram_identity_audit(dilation_of_half(), 12) < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_pass(self, seed):
        s = random_coisometric_system(np.random.default_rng(30 + seed))
        assert gram_identity_audit(s, 12) < 1e-10

    def test_perturbed_feedthrough_fails(self):
        s = dilation_of_half()
        broken = CoisometricSystem(s.A, s.B, s.C, s.D + 0.1, validate=False)
        with pytest.raises(AuditFailure) as excinfo:
            gram_identity_audit(broken, 12)
        assert excinfo.value.deviation >= 0.01

    def test_diagonal_blocks_are_identity(self):
        s = random_coisometric_system(np.random.default_rng(40))
        stacked = stacked_operator(s, 8)
        gram = stacked @ stacked.conj().T
        w = s.out_dim
        for n in range(8):
            block = gram[n * w:(n + 1) * w, n * w:(n + 1) * w]
            assert spectral_norm(block - np.eye(w)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_telescoping_sum(self, seed):
        # partial sums of C A^i B B* A*^i C* collapse against the state Gram
        s = random_coisometric_system(np.random.default_rng(50 + seed))
        a, b, c = s.A, s.B, s.C
        acc = np.zeros((s.out_dim, s.out_dim), dtype=complex)
        for n in range(1, 13):
            power = np.linalg.matrix_power(a, n - 1)
            term = c @ power @ b
            acc = acc + term @ term.conj().T
            direct = c @ c.conj().T - c @ np.linalg.matrix_power(a, n) @ np.linalg.matrix_power(
                a.conj().T, n) @ c.conj().T
            assert spectral_norm(acc - direct) < 1e-11


def shaped_system(rng, x, w, v):
    """A system with ``x`` states, ``w`` outputs and ``v`` inputs: co-isometric
    when ``w <= v``, otherwise (no co-isometry exists) an unchecked contraction."""
    if w <= v:
        m, validate = haar_isometry(rng, x + v, x + w).conj().T, True
    else:
        m, validate = random_contraction(rng, x + w, x + v), False
    return CoisometricSystem(m[:x, :x], m[:x, x:], m[x:, :x], m[x:, x:], validate=validate)


#: name -> generator of a system from a random generator
SOURCES = {
    "coisometric": random_coisometric_system,
    "julia": lambda rng: julia_system(random_contraction(rng, 3, 3, norm=float(rng.uniform(0.1, 1.0)))),
    "out_dim_0": lambda rng: shaped_system(rng, 3, 0, 2),
    "state_dim_0": lambda rng: shaped_system(rng, 0, 2, 3),
    "in_dim_0": lambda rng: shaped_system(rng, 3, 2, 0),
}

#: name -> the unchecked system it makes of a given one
DEFECTS = {
    "none": lambda s: s,
    "A_half": lambda s: CoisometricSystem(0.5 * s.A, s.B, s.C, s.D, validate=False),
    "A_grown": lambda s: CoisometricSystem(1.05 * s.A, s.B, s.C, s.D, validate=False),
    "D_shifted": lambda s: CoisometricSystem(s.A, s.B, s.C, s.D + 0.1, validate=False),
}


def audited_deviation(system, blocks):
    try:
        return gram_identity_audit(system, blocks)
    except AuditFailure as exc:
        return exc.deviation


@pytest.mark.parametrize("blocks", [1, 2, 9])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_audit_matches_the_explicit_product(source, defect, blocks):
    # the recursion against the Gram of the stacked operator itself
    for seed in range(3):
        system = DEFECTS[defect](SOURCES[source](np.random.default_rng(seed)))
        got = audited_deviation(system, blocks)
        want = coisometry_deficiency(stacked_operator(system, blocks))
        roundoff = DEFAULT_TOL.identity_tol
        assert (got <= roundoff and want <= roundoff) or got == pytest.approx(want, rel=1e-6), (got, want)


def test_audit_never_forms_the_stacked_operator(monkeypatch):
    def refuse(*args):
        raise AssertionError("the audit formed [T_F, G_W]")

    monkeypatch.setattr(sysco, "stacked_operator", refuse)
    s = random_coisometric_system(np.random.default_rng(70))
    assert gram_identity_audit(s, 16) < 1e-10
    with pytest.raises(AuditFailure):
        gram_identity_audit(DEFECTS["A_grown"](s), 16)


@pytest.mark.parametrize("needs_blocks", [gram_identity_audit, stacked_operator])
def test_audit_needs_a_block(needs_blocks):
    with pytest.raises(InvalidInput, match="^need at least one block, got 0$"):
        needs_blocks(dilation_of_half(), 0)


@pytest.mark.parametrize("scale, message", [
    (1e10, "series has non-finite coefficients"),      # C A^n overflows
    (1e5, "stacked Gram identity overflows on 40 blocks"),   # C A^n finite, W X W* not
])
def test_overflow_is_invalid_input(scale, message):
    s = CoisometricSystem(scale * np.eye(2), np.eye(2), np.eye(2), np.eye(2), validate=False)
    # the overflow is reported by the error alone: filterwarnings = error
    # turns any numpy RuntimeWarning into a failure here
    with pytest.raises(InvalidInput, match=message):
        gram_identity_audit(s, 40)


def isometric_a_realization():
    """The realization of the data set ``A = I_2``, ``T' = I_2 / 2``,
    ``R = Q = 0``: ``A`` is an isometry, so the realization has no states."""
    data = dataset.DataSet(np.eye(2), 0.5 * np.eye(2), np.zeros((2, 1)), np.zeros((2, 1)))
    return redheffer.realize(dataset.underlying_contraction(data))


def stateless_system(rng):
    """An unchecked system with no states, 1 to 4 outputs and a random ``D``."""
    w = int(rng.integers(1, 5))
    D = random_contraction(rng, w, int(rng.integers(0, 6)), norm=float(rng.uniform(0.5, 1.5)))
    return CoisometricSystem(np.zeros((0, 0)), np.zeros((0, D.shape[1])), np.zeros((w, 0)), D, validate=False)


@pytest.mark.parametrize("source", [*range(8), "isometric_A"])
def test_audit_without_states_is_the_audit_of_one_block(source):
    # an empty orbit leaves E_00 down the diagonal of E at every block count
    if source == "isometric_A":
        system = isometric_a_realization()
    else:
        system = stateless_system(np.random.default_rng(90 + source))
    assert system.state_dim == 0
    for blocks in (2, 50, 10**6):
        assert audited_deviation(system, blocks) == audited_deviation(system, 1)


def test_failure_without_states_names_the_requested_blocks():
    s = CoisometricSystem(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.array([[2.0]]), validate=False)
    with pytest.raises(AuditFailure, match=r"^stacked Gram identity deviates by 3\.000e\+00 on 1000000 blocks$"):
        gram_identity_audit(s, 10**6)
