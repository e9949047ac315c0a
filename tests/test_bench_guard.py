"""The benchmark in ``bench/`` drives the library from outside this suite.

These tests pin what it relies on: every name ``bench/tracer.py`` wraps
resolves on its ``rclkit`` module, every dotted library name in a
``bench/*.py`` file resolves, and the call forms and result fields of
``bench/workloads.py`` still bind, so a library change that would break the
benchmark fails here. The ``bench/`` files are only read: ``tracer.py`` is
loaded by path, the others are parsed.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

import rclkit as rk
import rclkit.cli  # noqa: F401  (the benchmark loads it)
from helpers import random_contraction, random_dataset, random_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
#: Names under which the ``bench/`` files refer to the ``rclkit`` package.
PACKAGE_NAMES = ("rclkit", "rk")


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


def library_names(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain rooted at the package in one ``bench/`` file,
    such as ``("DataSet",)`` for ``rk.DataSet`` or ``("cli", "main")``."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in PACKAGE_NAMES:
            chains.add(tuple(reversed(parts)))
    return chains


def test_every_library_name_in_bench_resolves():
    resolved = 0
    for path in sorted(BENCH.glob("*.py")):
        for chain in library_names(path):
            target = rk
            for depth, name in enumerate(chain, 1):
                assert hasattr(target, name), f"{path.name}: rclkit.{'.'.join(chain[:depth])}"
                target = getattr(target, name)
            resolved += 1
    assert resolved >= 30   # the parse found the benchmark's uses


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


def test_read_json_reads_through_the_module_json_load(tmp_path, monkeypatch):
    # bench/tracer.py times a file's decoding by swapping cli.json for a
    # proxy whose load it wraps; a reader around it would count as encoding
    read = []

    def load(fh, **kwargs):
        read.append(fh.name)
        return json.load(fh, **kwargs)

    monkeypatch.setattr(rclkit.cli, "json", load_tracer()._JsonProxy(load))
    rng = np.random.default_rng(3)
    problem, series = tmp_path / "problem.json", tmp_path / "series.json"
    p = random_problem(rng, u_dim=6, y_dim=2, f_dim=3)
    problem.write_text("".join(rclkit.cli._dump_json(rclkit.cli.problem_to_json(p))))
    series.write_text("".join(rclkit.cli._dump_json(rclkit.cli.series_to_json(rk.interp.central_taylor(p, 4)))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert rclkit.cli.main(["verify", str(problem), "--solution", str(series)]) == 0
    assert read == [str(problem), str(series)]
