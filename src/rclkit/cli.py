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
variable ``RCLKIT_TOL`` overrides ``identity_tol`` last. The tolerances go
into the loaded data set or problem, and every check reads them from there.

Each matrix crosses the JSON boundary as one ``(rows, cols, 2)`` float array
of ``[re, im]`` pairs: decoded in one conversion, encoded as one piece of
text. A stack of matrices (a series' or a parameter's ``"coeffs"``) is
decoded one matrix at a time, so reading a long series never holds a
Python object per entry of the whole file. A report is formatted in full,
then written to standard output piece by piece, so no full-size copy of it
is built.

Exit codes: 0 on success, 1 on validation failure, 2 on parse error (with a
diagnostic on standard error). All floating-point output is rendered in
scientific notation with 17 significant digits, so identical inputs and
flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from json.scanner import py_make_scanner

import numpy as np

from . import dataset, interp, lifting, redheffer, sysco
from .errors import AuditFailure, NotContractive, RclkitError
from .opcore import SubspaceBasis, Tolerances
from .series import MatrixSeries

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


class ParseFailure(Exception):
    """File-level problem: malformed JSON or schema violation."""


# ---------------------------------------------------------------------------
# JSON encoding: floats as %.16e, complex scalars as [re, im] pairs.

def _dump_json(obj):
    """The JSON text of ``obj`` in pieces, in order; each ``(rows, cols, 2)``
    array from :func:`matrix_to_json` is one piece, from one row template."""
    if isinstance(obj, np.ndarray) and obj.ndim == 3:
        if not np.all(np.isfinite(obj)):
            raise ParseFailure(f"cannot serialize non-finite value {float(obj[~np.isfinite(obj)][0])!r}")
        rows, cols, _ = obj.shape
        row = "[" + ", ".join(["[%.16e, %.16e]"] * cols) + "]"
        yield ("[" + ", ".join([row] * rows) + "]") % tuple(obj.ravel().tolist())
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _dump_json(value)
        yield "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):   # a list, or a stack of matrices
        yield "["
        for i, value in enumerate(obj):
            if i:
                yield ", "
            yield from _dump_json(value)
        yield "]"
    elif isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ParseFailure(f"cannot serialize non-finite value {float(obj)!r}")
        yield f"{float(obj):.16e}"
    elif obj is None or isinstance(obj, (int, np.integer, str)):   # bools are ints
        yield json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    else:
        raise ParseFailure(f"cannot serialize object of type {type(obj).__name__}")


def matrix_to_json(M) -> np.ndarray:
    """The ``(..., rows, cols, 2)`` float array of ``[re, im]`` pairs of a
    matrix, or of a stack of matrices."""
    M = np.asarray(M, dtype=np.complex128)
    return np.stack([M.real, M.imag], axis=-1)


def series_to_json(s: MatrixSeries) -> dict:
    return {
        "order": s.order,
        "out_dim": s.out_dim,
        "in_dim": s.in_dim,
        "coeffs": matrix_to_json(s.coeffs),
    }


# ---------------------------------------------------------------------------
# JSON decoding.

_C_DECODER = json.JSONDecoder()
_WS = re.compile(r"[ \t\n\r]*")
#: The start of an array whose first entry is a matrix: a stack of matrices.
_STACK = re.compile(r"\[[ \t\n\r]*\[[ \t\n\r]*\[[ \t\n\r]*\[")


def _float_pairs(obj) -> np.ndarray | None:
    """The ``(rows, cols, 2)`` float array of a nonempty matrix whose entries
    are all JSON floats, else None."""
    pairs = np.array(obj, dtype=object)
    if pairs.ndim == 3 and pairs.shape[2] == 2 and pairs.size and set(map(type, pairs.flat)) == {float}:
        return pairs.astype(np.float64)
    return None


def _parse_array(s_and_end, scan_once):
    """An array that is a value of an object (or the whole document).

    A stack of matrices is decoded one entry at a time, and each entry that
    is a nonempty matrix of floats becomes its float array of pairs at
    once, so the decoded objects of one matrix at most are alive together.
    Any other array is decoded in one call of the C decoder."""
    s, end = s_and_end
    if not _STACK.match(s, end - 1):
        return _C_DECODER.raw_decode(s, end - 1)
    items, pos = [], end
    while True:
        item, pos = _C_DECODER.raw_decode(s, _WS.match(s, pos).end())
        pairs = _float_pairs(item)
        items.append(item if pairs is None else pairs)
        pos = _WS.match(s, pos).end()
        if s[pos:pos + 1] == "]":
            return items, pos + 1
        if s[pos:pos + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, pos)
        pos += 1


class _StackDecoder(json.JSONDecoder):
    """``json`` decoding in which a stack of matrices arrives as a list of
    ``(rows, cols, 2)`` float arrays: a series file of any order never holds
    a Python float and a list per entry of all its coefficients at once.
    A document it cannot decode goes to the standard decoder, whose
    diagnostic is reported."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.parse_array = _parse_array
        self.scan_once = py_make_scanner(self)

    def decode(self, s, *args):
        try:
            return super().decode(s, *args)
        except (ValueError, RecursionError):
            return _C_DECODER.decode(s)


def _as_lists(obj):
    """``obj`` with every matrix decoded to a float array back as nested
    lists, as the standard decoder gives it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [_as_lists(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    return obj


def _read_json(path: str, what: str):
    """The JSON document in ``path``; ``what`` names the file in diagnostics.
    Stacks of matrices in it may hold float arrays (see ``_StackDecoder``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, cls=_StackDecoder)
    except OSError as exc:
        raise ParseFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # malformed JSON or text that is not UTF-8
        raise ParseFailure(f"malformed JSON in {what} {path}: {exc}") from exc


def _integer(doc: dict, key: str, default=None) -> int:
    """``doc[key]`` if it is a JSON integer (bools are not), else ParseFailure;
    ``default`` stands in for a missing key."""
    value = doc.get(key, default)
    if type(value) is not int:
        raise ParseFailure(f"{key} must be an integer, got {_as_lists(value)!r}")
    return value


def _pairs_of_list(obj, cols: int | None) -> np.ndarray:
    """The float array of pairs of a nested-list matrix."""
    if not isinstance(obj, list):
        raise ParseFailure(f"matrix must be a list of rows, got {type(obj).__name__}")
    # a stack where one matrix belongs fails the shape check as nested lists
    obj = [item.tolist() if isinstance(item, np.ndarray) else item for item in obj]
    pairs = np.array(obj, dtype=object)
    if not obj:
        pairs = pairs.reshape(0, cols or 0, 2)
    elif pairs.ndim == 2 and pairs.shape[1] == 0:   # rows with no entries
        pairs = pairs.reshape(len(obj), 0, 2)
    if pairs.ndim != 3 or pairs.shape[2] != 2 or not set(map(type, pairs.flat)) <= {int, float}:
        raise ParseFailure("matrix must be a list of equal-length rows of [re, im] number pairs")
    try:
        return pairs.astype(np.float64)
    except OverflowError as exc:   # a JSON integer beyond the float range
        raise ParseFailure("matrix entry is too large for a float") from exc


def parse_matrix(obj, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Decode a nested-array matrix, or the ``(rows, cols, 2)`` float array
    of pairs that ``_StackDecoder`` makes of one; ``[]`` takes ``cols`` from
    context."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 3 and obj.shape[2] == 2:
        pairs = np.ascontiguousarray(obj)
    else:
        pairs = _pairs_of_list(obj, cols)
    if not np.all(np.isfinite(pairs)):
        raise ParseFailure("matrix has non-finite entries")
    out = pairs.view(np.complex128)[..., 0]
    if rows is not None and out.shape[0] != rows:
        raise ParseFailure(f"expected {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ParseFailure(f"expected {cols} columns, got {out.shape[1]}")
    return out


def parse_series(obj) -> MatrixSeries:
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise ParseFailure("series must be an object with a 'coeffs' list")
    order, out_dim, in_dim = (_integer(obj, key) for key in ("order", "out_dim", "in_dim"))
    if order < 0:
        raise ParseFailure(f"series order must be nonnegative, got {order}")
    if len(obj["coeffs"]) != order + 1:
        raise ParseFailure("series coefficient count does not match its order")
    return MatrixSeries([parse_matrix(c, rows=out_dim, cols=in_dim) for c in obj["coeffs"]])


@dataclasses.dataclass
class ProblemFile:
    """Exactly one of the two forms; either carries the file's tolerances."""

    data: dataset.DataSet | None
    omega: interp.InterpProblem | None

    def problem(self) -> interp.InterpProblem:
        if self.omega is not None:
            return self.omega
        return dataset.underlying_contraction(self.data)

    def require_dataset(self) -> dataset.DataSet:
        if self.data is None:
            raise ParseFailure("this command needs the data-set form (A, Tprime, R, Q)")
        return self.data


def _parse_tolerances(obj) -> Tolerances:
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    values = {} if obj is None else _as_lists(obj)    # Tolerances judges each value, as JSON decoded it
    if not isinstance(values, dict) or not set(values) <= fields:
        raise ParseFailure(f"tolerances must be a dict with keys among {sorted(fields)}")
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
    _integer(doc, "seed", 0)   # accepted for older files; the witness needs none

    try:
        if has_dataset:
            if not dataset_keys <= set(doc):
                raise ParseFailure(f"data-set form needs all of {sorted(dataset_keys)}")
            data = dataset.DataSet(*(parse_matrix(doc[key]) for key in ("A", "Tprime", "R", "Q")), tol)
            return ProblemFile(data, None)
        om = doc["omega"]
        if not isinstance(om, dict):
            raise ParseFailure("omega form must be an object")
        u_dim, y_dim = _integer(om, "u_dim"), _integer(om, "y_dim")
        basis = parse_matrix(om.get("F_basis"), rows=u_dim)
        f = SubspaceBasis(u_dim, basis)
        omega1 = parse_matrix(om.get("omega1"), rows=y_dim, cols=f.dim)
        omega2 = parse_matrix(om.get("omega2"), rows=u_dim, cols=f.dim)
        return ProblemFile(None, interp.InterpProblem(u_dim, y_dim, f, omega1, omega2, tol))
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
    report = dataset.validate(pf.require_dataset())
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
    verdict = interp.uniqueness(problem)
    payload: dict = {"verdict": verdict.kind.value}
    if verdict.failing_n is not None:
        payload["failing_n"] = verdict.failing_n
    if args.witness and not verdict.unique:
        witness = interp.second_solution_witness(problem, args.order)
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
    head = parse_matrix(doc["coeffs"][0])
    rows, cols = head.shape
    mats = [head] + [parse_matrix(c, rows=rows, cols=cols) for c in doc["coeffs"][1:]]
    return redheffer.SchurParameter(tuple(mats), tol)


def cmd_solve(pf: ProblemFile, args) -> tuple[int, dict]:
    realization = redheffer.realize(pf.problem())
    h = redheffer.lft_solution(realization, _load_parameter(args.param, realization.problem.tol), args.order)
    return EXIT_OK, series_to_json(h)


def cmd_verify(pf: ProblemFile, args) -> tuple[int, dict]:
    h = parse_series(_read_json(args.solution, "solution file"))
    problem = pf.problem()
    report = interp.is_solution(problem, h)
    payload: dict = {
        "interp_ok": report.interp_ok,
        "ball_ok": report.ball_ok,
        "max_interp_residual": report.max_interp_residual,
        "gram_excess": report.gram_excess,
    }
    ok = report.ok
    if pf.data is not None:
        blocks = min(args.lifting_blocks, h.order + 1)
        try:
            b = lifting.interpolant_from_solution(pf.data, h, blocks)
        except NotContractive as exc:   # h leaves the coefficient ball: no interpolant to lift
            payload["lifting"] = {"blocks": blocks, "error": f"NotContractive: {exc}"}
            return EXIT_INVALID, payload
        lift_report = lifting.verify_rclt(pf.data, b, blocks)
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
    realization = redheffer.realize(pf.problem())
    payload: dict = {"blocks": args.order}
    code = EXIT_OK
    try:
        audit = redheffer.coefficient_matrix_audit(realization, args.order)
        payload["redheffer_deficiency"] = audit.deficiency
    except AuditFailure as exc:
        payload["redheffer_deficiency"] = exc.deviation
        code = EXIT_INVALID
    if args.system is not None:
        doc = _read_json(args.system, "system file")
        if not isinstance(doc, dict) or not {"A", "B", "C", "D"} <= set(doc):
            raise ParseFailure("system file must carry matrices A, B, C, D")
        system = sysco.CoisometricSystem(*(parse_matrix(doc[key]) for key in "ABCD"), validate=False)
        try:
            payload["st_identity"] = sysco.gram_identity_audit(system, args.order, realization.problem.tol)
        except AuditFailure as exc:
            payload["st_identity"] = exc.deviation
            code = EXIT_INVALID
    return code, payload


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
        code, payload = EXIT_INVALID, {"error": f"{type(exc).__name__}: {exc}"}
    except MemoryError as exc:   # e.g. an --order whose arrays cannot be allocated
        code, payload = EXIT_INVALID, {"error": f"MemoryError: {exc}"}
    # every piece before the first write, so a value that cannot be
    # serialized prints nothing
    sys.stdout.writelines([*_dump_json(payload), "\n"])
    return code


if __name__ == "__main__":
    sys.exit(main())
