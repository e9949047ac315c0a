"""Command-line front end.

Problem files are JSON documents in exactly one of two forms::

    {"A": M, "Tprime": M, "R": M, "Q": M, ...}            # data-set form
    {"omega": {"u_dim": n, "y_dim": n, "F_basis": M,
               "omega1": M, "omega2": M}, ...}            # direct form

where a matrix ``M`` is a row-major nested array whose entries are
two-element arrays ``[re, im]``. Both forms accept optional ``"tolerances"``
(any of ``rank_tol``, ``contraction_slack``, ``identity_tol``) and an
optional integer ``"seed"``, which is checked and otherwise unused: the
witness of ``unique --witness`` is deterministic. The environment
variable ``RCLKIT_TOL`` overrides ``identity_tol`` last.

Exit codes: 0 on success, 1 on validation failure, 2 on parse error (with a
diagnostic on standard error). All floating-point output is rendered in
scientific notation with 17 significant digits, so identical inputs and
flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dataset, interp, lifting, redheffer, sysco
from .errors import AuditFailure, RclkitError
from .opcore import SubspaceBasis, Tolerances
from .series import MatrixSeries

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


class ParseFailure(Exception):
    """File-level problem: malformed JSON or schema violation."""


# ---------------------------------------------------------------------------
# JSON encoding: floats as %.16e, complex scalars as [re, im] pairs.

def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ParseFailure(f"cannot serialize non-finite value {x!r}")
    return f"{x:.16e}"


def _dump_json(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dump_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ParseFailure(f"cannot serialize object of type {type(obj).__name__}")


def matrix_to_json(M) -> list:
    """Nested ``[re, im]`` lists of a matrix, or of a stack of matrices."""
    M = np.asarray(M, dtype=np.complex128)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def series_to_json(s: MatrixSeries) -> dict:
    return {
        "order": s.order,
        "out_dim": s.out_dim,
        "in_dim": s.in_dim,
        "coeffs": matrix_to_json(s.coeffs),
    }


# ---------------------------------------------------------------------------
# JSON decoding.

def _read_json(path: str, what: str):
    """The JSON document in ``path``; ``what`` names the file in diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # malformed JSON or text that is not UTF-8
        raise ParseFailure(f"malformed JSON in {what} {path}: {exc}") from exc


def _parse_entry(entry) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise ParseFailure(f"matrix entry must be a two-element [re, im] array, got {entry!r}")
    try:
        return complex(entry[0], entry[1])
    except OverflowError as exc:   # a JSON integer beyond the float range
        raise ParseFailure("matrix entry is too large for a float") from exc


def parse_matrix(obj, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Decode a nested-array matrix; empty row lists take ``cols`` from context."""
    if not isinstance(obj, list):
        raise ParseFailure(f"matrix must be a list of rows, got {type(obj).__name__}")
    if not obj:
        out = np.zeros((0, cols or 0), dtype=np.complex128)
    else:
        parsed_rows = []
        width = None
        for row in obj:
            if not isinstance(row, list):
                raise ParseFailure("matrix rows must be lists")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseFailure("matrix rows have inconsistent lengths")
            parsed_rows.append([_parse_entry(e) for e in row])
        out = np.array(parsed_rows, dtype=np.complex128).reshape(len(obj), width or 0)
        if not np.all(np.isfinite(out)):
            raise ParseFailure("matrix has non-finite entries")
    if rows is not None and out.shape[0] != rows:
        raise ParseFailure(f"expected {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ParseFailure(f"expected {cols} columns, got {out.shape[1]}")
    return out


def parse_series(obj) -> MatrixSeries:
    try:
        order = int(obj["order"])
        out_dim = int(obj["out_dim"])
        in_dim = int(obj["in_dim"])
        raw = obj["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"malformed series object: {exc}") from exc
    if order < 0:
        raise ParseFailure(f"series order must be nonnegative, got {order}")
    if not isinstance(raw, list) or len(raw) != order + 1:
        raise ParseFailure("series coefficient count does not match its order")
    return MatrixSeries([parse_matrix(c, rows=out_dim, cols=in_dim) for c in raw], out_dim, in_dim)


@dataclass
class ProblemFile:
    data: dataset.DataSet | None
    omega: interp.InterpProblem | None
    tol: Tolerances

    def problem(self) -> interp.InterpProblem:
        if self.omega is not None:
            return self.omega
        return dataset.underlying_contraction(self.data, self.tol)

    def require_dataset(self) -> dataset.DataSet:
        if self.data is None:
            raise ParseFailure("this command needs the data-set form (A, Tprime, R, Q)")
        return self.data


def _parse_tolerances(obj) -> Tolerances:
    fields = {"rank_tol", "contraction_slack", "identity_tol"}
    values = {}
    if obj is not None:
        if not isinstance(obj, dict) or not set(obj) <= fields:
            raise ParseFailure(f"tolerances must be a dict with keys among {sorted(fields)}")
        for key, val in obj.items():
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ParseFailure(f"tolerance {key} must be a number")
            try:
                values[key] = float(val)
            except OverflowError as exc:
                raise ParseFailure(f"tolerance {key} is too large for a float") from exc
    env = os.environ.get("RCLKIT_TOL")
    if env is not None:
        try:
            values["identity_tol"] = float(env)
        except ValueError as exc:
            raise ParseFailure(f"RCLKIT_TOL is not a number: {env!r}") from exc
    try:
        return Tolerances(**values)
    except RclkitError as exc:
        raise ParseFailure(str(exc)) from exc


def load_problem_file(path: str) -> ProblemFile:
    doc = _read_json(path, "problem file")
    if not isinstance(doc, dict):
        raise ParseFailure("problem file must be a JSON object")

    dataset_keys = {"A", "Tprime", "R", "Q"}
    has_dataset = bool(dataset_keys & set(doc))
    has_omega = "omega" in doc
    if has_dataset == has_omega:
        raise ParseFailure("exactly one of the data-set form and the omega form must be present")

    tol = _parse_tolerances(doc.get("tolerances"))
    seed = doc.get("seed", 0)   # accepted for older files; the witness needs none
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParseFailure("seed must be an integer")

    try:
        if has_dataset:
            if not dataset_keys <= set(doc):
                raise ParseFailure(f"data-set form needs all of {sorted(dataset_keys)}")
            data = dataset.DataSet(
                parse_matrix(doc["A"]),
                parse_matrix(doc["Tprime"]),
                parse_matrix(doc["R"]),
                parse_matrix(doc["Q"]),
            )
            return ProblemFile(data, None, tol)
        om = doc["omega"]
        if not isinstance(om, dict):
            raise ParseFailure("omega form must be an object")
        try:
            u_dim = int(om["u_dim"])
            y_dim = int(om["y_dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseFailure(f"omega form needs integer u_dim and y_dim: {exc}") from exc
        basis = parse_matrix(om.get("F_basis"), rows=u_dim)
        f = SubspaceBasis(u_dim, basis)
        problem = interp.InterpProblem(
            u_dim,
            y_dim,
            f,
            parse_matrix(om.get("omega1"), rows=y_dim, cols=f.dim),
            parse_matrix(om.get("omega2"), rows=u_dim, cols=f.dim),
            tol,
        )
        return ProblemFile(None, problem, tol)
    except RclkitError as exc:
        raise ParseFailure(f"problem file is structurally invalid: {exc}") from exc


def problem_to_json(p: interp.InterpProblem) -> dict:
    return {
        "omega": {
            "u_dim": p.u_dim,
            "y_dim": p.y_dim,
            "F_basis": matrix_to_json(p.F.basis),
            "omega1": matrix_to_json(p.omega1),
            "omega2": matrix_to_json(p.omega2),
        }
    }


# ---------------------------------------------------------------------------
# Subcommands. Each returns (exit_code, payload).

def cmd_validate(pf: ProblemFile, args) -> tuple[int, dict]:
    report = dataset.validate(pf.require_dataset(), pf.tol)
    payload = {
        "valid": report.ok,
        "violations": [
            {"constraint": v.constraint, "residual": v.residual} for v in report.violations
        ],
    }
    return (EXIT_OK if report.ok else EXIT_INVALID), payload


def cmd_omega(pf: ProblemFile, args) -> tuple[int, dict]:
    return EXIT_OK, problem_to_json(pf.problem())


def cmd_central(pf: ProblemFile, args) -> tuple[int, dict]:
    h = interp.central_taylor(pf.problem(), args.order)
    return EXIT_OK, series_to_json(h)


def cmd_unique(pf: ProblemFile, args) -> tuple[int, dict]:
    problem = pf.problem()
    verdict = interp.uniqueness(problem, pf.tol)
    payload: dict = {"verdict": verdict.kind.value}
    if verdict.failing_n is not None:
        payload["failing_n"] = verdict.failing_n
    if args.witness and not verdict.unique:
        witness = interp.second_solution_witness(problem, args.order, tol=pf.tol)
        payload["witness"] = {
            "parameter": matrix_to_json(witness.parameter),
            "first_diff_index": witness.first_diff_index,
            "gap": witness.gap,
            "solution": series_to_json(witness.solution),
        }
    return EXIT_OK, payload


def _load_parameter(path: str, tol: Tolerances) -> redheffer.SchurParameter:
    doc = _read_json(path, "parameter file")
    if not isinstance(doc, dict) or "coeffs" not in doc or not isinstance(doc["coeffs"], list):
        raise ParseFailure("parameter file must be an object with a 'coeffs' list")
    if not doc["coeffs"]:
        raise ParseFailure("parameter file needs at least one coefficient")
    mats = [parse_matrix(c) for c in doc["coeffs"]]
    return redheffer.SchurParameter(tuple(mats), tol)


def cmd_solve(pf: ProblemFile, args) -> tuple[int, dict]:
    realization = redheffer.realize(pf.problem(), pf.tol)
    h = redheffer.lft_solution(realization, _load_parameter(args.param, pf.tol), args.order)
    return EXIT_OK, series_to_json(h)


def cmd_verify(pf: ProblemFile, args) -> tuple[int, dict]:
    h = parse_series(_read_json(args.solution, "solution file"))
    problem = pf.problem()
    report = interp.is_solution(problem, h, pf.tol)
    payload: dict = {
        "interp_ok": report.interp_ok,
        "ball_ok": report.ball_ok,
        "max_interp_residual": report.max_interp_residual,
        "gram_excess": report.gram_excess,
    }
    ok = report.ok
    if pf.data is not None:
        blocks = min(args.lifting_blocks, h.order + 1)
        b = lifting.interpolant_from_solution(pf.data, h, blocks, pf.tol)
        lift_report = lifting.verify_rclt(pf.data, b, blocks, pf.tol)
        payload["lifting"] = {
            "blocks": blocks,
            "projection_ok": lift_report.projection_ok,
            "intertwine_ok": lift_report.intertwine_ok,
            "max_retained_residual": lift_report.max_retained_residual,
            "boundary_residual": lift_report.boundary_residual,
        }
        ok = ok and lift_report.ok
    return (EXIT_OK if ok else EXIT_INVALID), payload


def cmd_audit(pf: ProblemFile, args) -> tuple[int, dict]:
    realization = redheffer.realize(pf.problem(), pf.tol)
    payload: dict = {"blocks": args.order}
    code = EXIT_OK
    try:
        audit = redheffer.coefficient_matrix_audit(realization, args.order, pf.tol)
        payload["redheffer_deficiency"] = audit.deficiency
    except AuditFailure as exc:
        payload["redheffer_deficiency"] = exc.deviation
        code = EXIT_INVALID
    if args.system is not None:
        doc = _read_json(args.system, "system file")
        if not isinstance(doc, dict) or not {"A", "B", "C", "D"} <= set(doc):
            raise ParseFailure("system file must carry matrices A, B, C, D")
        system = sysco.CoisometricSystem(
            parse_matrix(doc["A"]),
            parse_matrix(doc["B"]),
            parse_matrix(doc["C"]),
            parse_matrix(doc["D"]),
            validate=False,
        )
        try:
            payload["st_identity"] = sysco.gram_identity_audit(system, args.order, pf.tol)
        except AuditFailure as exc:
            payload["st_identity"] = exc.deviation
            code = EXIT_INVALID
    return code, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rclkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file (JSON)")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the data-set constraints")
    add("omega", cmd_omega, "emit the underlying contraction")
    p = add("central", cmd_central, "Taylor coefficients of the central solution")
    p.add_argument("--order", type=int, default=32)
    p = add("unique", cmd_unique, "decide uniqueness of the solution")
    p.add_argument("--witness", action="store_true", help="also construct a second solution when not unique")
    p.add_argument("--order", type=int, default=32)
    p = add("solve", cmd_solve, "solution generated by a free parameter")
    p.add_argument("--param", required=True, help="parameter file (JSON with 'coeffs')")
    p.add_argument("--order", type=int, default=32)
    p = add("verify", cmd_verify, "check a candidate solution (and, for data sets, its lift)")
    p.add_argument("--solution", required=True, help="solution series file (JSON)")
    p.add_argument("--lifting-blocks", type=int, default=32)
    p = add("audit", cmd_audit, "row-Gram audits of the coefficient operator")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--system", default=None, help="optional co-isometric system file to audit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pf = load_problem_file(args.file)
        code, payload = args.func(pf, args)
    except ParseFailure as exc:
        print(f"rclkit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RclkitError as exc:
        print(_dump_json({"error": f"{type(exc).__name__}: {exc}"}))
        return EXIT_INVALID
    print(_dump_json(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
