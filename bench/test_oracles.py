"""Negative controls for the benchmark's oracles, and a smoke round per workload.

Each oracle must accept a correct result and reject a deliberately wrong
one, so a check that always passes is caught. Run with

    python3 -m pytest bench/test_oracles.py -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import rclkit  # noqa: E402
import rclkit.cli  # noqa: E402,F401

import oracles as orc  # noqa: E402
import problems as pb  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def rejects(fn, *args):
    with pytest.raises(orc.OracleError):
        fn(*args)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def problem(rng):
    return pb.random_problem(rng, 12, 3, 7)


def central(p, order):
    return wl.coeffs_of(rclkit.central_taylor(wl.to_rk(rclkit, p), order))


def test_solution_and_central_reject_perturbed_coefficients(problem):
    h = central(problem, 128)
    orc.check_central(problem, h, 128)
    for n, eps in ((1, 1e-6), (100, 1e-3)):
        bad = h.copy()
        bad[n, 0, 0] += eps
        rejects(orc.check_central, problem, bad, 128)
    low = h.copy()
    low[1, 0, 0] += 1e-6
    rejects(orc.check_solution, problem, low)
    rejects(orc.check_solution, problem, 2.0 * h)


def test_lft_rejects_solution_of_another_parameter(rng, problem):
    real = rclkit.realize(wl.to_rk(rclkit, problem))
    fr = wl.frame_of(real, problem)
    v = pb.schur_polynomial(rng, real.defect_dim, real.complement_dim, 2, 0.8)
    h = wl.coeffs_of(rclkit.lft_solution(real, rclkit.SchurParameter(tuple(v)), 32))
    orc.check_lft(fr, v, h, 32)
    other = [c.copy() for c in v]
    other[0] *= 0.5
    rejects(orc.check_lft, fr, other, h, 32)


def test_frame_rejects_foreign_coordinates(rng):
    # An isometric problem, so the adjoint defect space is a proper subspace.
    problem = pb.shift_chain_problem(rng, 12, 2, 8)
    real = rclkit.realize(wl.to_rk(rclkit, problem))
    orc.frame(problem, real.G.basis, real.DstarSpace.basis)
    rejects(orc.frame, problem, problem.Fb[:, : real.complement_dim], real.DstarSpace.basis)
    e = real.DstarSpace.basis
    rotated = np.roll(np.eye(e.shape[0]), 1, axis=0) @ e
    rejects(orc.frame, problem, real.G.basis, rotated)


def test_uniqueness_rejects_flipped_verdict_and_index(rng):
    p = pb.shift_chain_problem(rng, 12, 2, 8)
    orc.check_uniqueness(p, "not_unique", 4)
    rejects(orc.check_uniqueness, p, "not_unique", 0)
    rejects(orc.check_uniqueness, p, "unique_ii", None)
    full = pb.random_problem(rng, 6, 2, 6)
    orc.check_uniqueness(full, "unique_i", None)
    rejects(orc.check_uniqueness, full, "not_unique", 0)


def test_witness_rejects_central_and_unique_cases(problem):
    rp = wl.to_rk(rclkit, problem)
    w = rclkit.second_solution_witness(rp, 32)
    fr = wl.frame_of(rclkit.realize(rp), problem)
    orc.check_witness(fr, problem, w.parameter, wl.coeffs_of(w.solution), w.first_diff_index, w.gap, 32)
    zero = np.zeros_like(w.parameter)
    rejects(orc.check_witness, fr, problem, zero, central(problem, 32), 0, 0.0, 32)
    rejects(orc.check_witness, fr, problem, w.parameter, wl.coeffs_of(w.solution), w.first_diff_index, 2 * w.gap, 32)
    rejects(orc.check_witness, None, problem, None, None, None, None, 32)


def test_is_solution_rejects_flipped_verdicts(problem):
    rp = wl.to_rk(rclkit, problem)
    series = rclkit.central_taylor(rp, 16)
    rep = rclkit.is_solution(rp, series)
    h = wl.coeffs_of(series)
    orc.check_is_solution(problem, h, rep.interp_ok, rep.ball_ok, rep.interp_residuals, rep.gram_excess)
    rejects(orc.check_is_solution, problem, h, False, rep.ball_ok, rep.interp_residuals, rep.gram_excess)
    rejects(orc.check_is_solution, problem, h, rep.interp_ok, rep.ball_ok, (1e-3,) + rep.interp_residuals[1:],
            rep.gram_excess)


def test_audits_reject_misreported_deficiency(rng):
    blocks = pb.coisometric_blocks(rng, 6, 2, 3)
    own = orc.system_deficiency(*blocks, 8)
    orc.check_deficiency(rclkit.gram_identity_audit(rclkit.CoisometricSystem(*blocks), 8), own)
    broken = list(blocks)
    broken[3] = broken[3] + 0.1
    bad_own = orc.system_deficiency(*broken, 8)
    assert bad_own > 1e-3
    rejects(orc.check_deficiency, 1e-15, bad_own)
    with pytest.raises(rclkit.AuditFailure) as info:
        rclkit.gram_identity_audit(rclkit.CoisometricSystem(*broken, validate=False), 8)
    orc.check_deficiency(info.value.deviation, bad_own)


def test_coefficient_audit_against_own_and_broken_frame(problem):
    real = rclkit.realize(wl.to_rk(rclkit, problem))
    fr = wl.frame_of(real, problem)
    orc.check_deficiency(rclkit.coefficient_matrix_audit(real, 8).deficiency, orc.coefficient_deficiency(fr, 8))
    broken = fr._replace(DE=1.2 * fr.DE)
    rejects(orc.check_deficiency, 1e-15, orc.coefficient_deficiency(broken, 8))


def test_omega_rejects_perturbed_contraction(rng):
    data = pb.random_dataset(rng, 5, 8, 2)
    p = wl.prob_of(rclkit.underlying_contraction(rclkit.DataSet(*data)))
    orc.check_omega(data, p)
    bad = p._replace(w2=p.w2 + 1e-4 * np.ones_like(p.w2))
    rejects(orc.check_omega, data, bad)
    rejects(orc.check_omega, data, p._replace(y=p.y + 1))


def test_lifting_rejects_broken_interpolant_and_verdict(rng):
    data = pb.random_dataset(rng, 5, 8, 2)
    rd = rclkit.DataSet(*data)
    p = rclkit.underlying_contraction(rd)
    blocks = 8
    b = rclkit.interpolant_from_solution(rd, rclkit.central_taylor(p, blocks - 1), blocks)
    rep = rclkit.verify_rclt(rd, b, blocks)
    args = (rep.projection_ok, rep.intertwine_ok, rep.retained_residuals, rep.boundary_residual)
    orc.check_lifting(data, b, blocks, *args)
    rejects(orc.check_lifting, data, b, blocks, rep.projection_ok, False, *args[2:])
    bad = b.copy()
    bad[data.A.shape[0] + 3, 0] += 1e-3
    rejects(orc.check_lifting, data, bad, blocks, *args)
    top = b.copy()
    top[0, 0] += 1e-12
    rejects(orc.check_lifting, data, top, blocks, *args)


def test_dataset_violations_flag_broken_intertwining(rng):
    data = pb.random_dataset(rng, 5, 8, 2)
    assert orc.dataset_violations(data) == []
    assert "intertwining" in orc.dataset_violations(data._replace(Tp=0.5 * data.Tp))


def test_cli_checks_reject_wrong_output(tmp_path, rng):
    ops = wl.cli(rclkit, rng, str(tmp_path))
    central_op = next(op for op in ops if op.kind == "central")
    good = central_op.run()
    assert central_op.check(good) is None
    doc = json.loads(good.out)
    doc["coeffs"][1][0][0][0] += 1e-6
    rejects(central_op.check, wl.CliResult(good.code, json.dumps(doc), good.err))
    rejects(central_op.check, wl.CliResult(1, good.out, good.err))


def test_slack_fault_is_counted_as_failed(tmp_path, rng):
    op = wl._slack_op(rclkit, str(tmp_path))
    res = op.run()
    assert res.code == 2 and wl.SLACK_FAULT in res.err
    assert op.check(res) is True
    rejects(op.check, wl.CliResult(1, "", "other failure"))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_one_round_passes_every_oracle(workload, tmp_path):
    ops = wl.WORKLOADS[workload](rclkit, np.random.default_rng(3), str(tmp_path))
    failed = [op.kind for op in ops if op.check(op.run())]
    assert failed == (["unique"] if workload == "cli" else [])


def test_traced_counts_repeat(tmp_path):
    tracer = tr.Tracer()
    ops = wl.family(rclkit, np.random.default_rng(3), str(tmp_path))
    tracer.install(rclkit)
    try:
        counts = []
        for _ in range(2):
            for op in ops:
                op.run()
            counts.append(tracer.take()[1])
    finally:
        for mod in [m for k, m in sys.modules.items() if k.startswith("rclkit")]:
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__qualname__", "").startswith("Tracer._wrap"):
                    setattr(mod, attr, value.__wrapped__)
        rclkit.cli.json = __import__("json")
    assert counts[0] == counts[1]
    assert counts[0]["series.mul.calls"] > 0 and counts[0]["witness.lft_calls"] > 0
