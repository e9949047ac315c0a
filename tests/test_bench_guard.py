"""The benchmark in ``bench/`` drives the library from outside this suite.

These tests pin what it relies on: every name ``bench/tracer.py`` wraps
resolves on its ``rclkit`` module, and the call forms and result fields of
``bench/workloads.py`` still bind, so a library change that would break the
benchmark fails here. ``bench/tracer.py`` is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import rclkit as rk
from helpers import random_contraction, random_dataset, random_problem

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for short, names in load_tracer().TRACED.items():
        module = importlib.import_module(f"rclkit.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rclkit.{short}.{name}"


def test_family_call_forms_bind():
    rng = np.random.default_rng(0)
    p = random_problem(rng, u_dim=6, y_dim=2, f_dim=3)
    rp = rk.InterpProblem(p.u_dim, p.y_dim, rk.SubspaceBasis(p.u_dim, p.F.basis), p.omega1, p.omega2)
    real = rk.redheffer.realize(rp)
    assert real.G.basis.shape == (6, real.complement_dim)
    assert real.DstarSpace.basis.shape == (8, real.defect_dim)
    shape = (real.defect_dim, real.complement_dim)

    verdict = rk.interp.uniqueness(rp)
    assert (verdict.kind.value, verdict.failing_n) == ("not_unique", 0)
    assert rk.interp.central_taylor(rp, 8).coeffs.shape == (9, 2, 6)
    h = rk.redheffer.lft_solution(real, rk.redheffer.SchurParameter.constant(random_contraction(rng, *shape, 0.5)), 8)
    report = rk.interp.is_solution(rp, h)
    assert report.ok and report.interp_ok and report.ball_ok
    assert len(report.interp_residuals) == 9 and report.gram_excess <= 1e-8
    v_poly = [random_contraction(rng, *shape, 0.3) for _ in range(3)]
    assert rk.redheffer.lft_solution(real, rk.redheffer.SchurParameter(tuple(v_poly)), 8).order == 8
    w = rk.interp.second_solution_witness(rp, 32, 0)
    assert w.parameter.shape == shape and w.solution.order == 32
    assert w.first_diff_index == 0 and w.gap > 0


def test_pipeline_call_forms_bind():
    rng = np.random.default_rng(1)
    d = random_dataset(rng)
    rd = rk.DataSet(d.A, d.Tp, d.R, d.Q)
    problem = rk.dataset.underlying_contraction(rd)
    assert problem.F.basis.shape == (problem.u_dim, problem.f_dim)
    assert problem.omega1.shape[0] == problem.y_dim and problem.omega2.shape[0] == problem.u_dim
    h = rk.interp.central_taylor(problem, 7)
    b = rk.lifting.interpolant_from_solution(rd, h, 8)
    rep = rk.lifting.verify_rclt(rd, b, 8)
    assert rep.ok and rep.projection_ok and rep.intertwine_ok
    assert len(rep.retained_residuals) == 8 and rep.boundary_residual >= 0.0


def test_audit_call_forms_bind():
    rng = np.random.default_rng(2)
    real = rk.redheffer.realize(random_problem(rng, u_dim=6, y_dim=2, f_dim=3))
    audit = rk.redheffer.coefficient_matrix_audit(real, 8)
    assert audit.blocks == 8 and audit.deficiency <= 1e-8
    julia = rk.sysco.julia_system(random_contraction(rng, 4, 4, 0.9))
    system = rk.sysco.CoisometricSystem(julia.A, julia.B, julia.C, julia.D)
    assert rk.sysco.gram_identity_audit(system, 8) <= 1e-8
