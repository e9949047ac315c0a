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
of ``[re, im]`` pairs. A long matrix, or a long stack of matrices (a
series' or a parameter's ``"coeffs"``), is decoded from its text by one
vectorized pass, about a thousand pairs at a time, with no Python float
per entry: it proves the array regular and every entry a JSON float, and
reads each value from its digits by a guarded double-double product, or by
``float`` itself where the guard does not prove the rounding, so every
value has the bits ``json`` gives it. An array the pass cannot prove
(integer entries, NaN, empty or ragged rows, whitespace other than one
space after a comma) and a short one go to the standard decoder, and each
of their matrices whose entries are all floats becomes a float array then;
what a file means, and every diagnostic, is the standard decoder's. A
whole stack of matrices is encoded by one vectorized pass that forms the
``%.16e`` text of about a thousand pairs at a time with no Python float per
entry; each value it cannot prove exact is formatted by ``%.16e`` itself,
so the text is Python's. A report is formatted in full, then written to
standard output piece by piece, so no full-size copy of it is built.

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
import math
import os
import re
import sys
from json.scanner import py_make_scanner

import numpy as np

from . import dataset, interp, jsonpairs, lifting, redheffer, sysco
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
#
# An array of pairs is formatted without a Python float per entry. For
# 1e-99 <= |x| < 1e99 and E = floor(log10 |x|), the 17 significant digits
# of x are the integer D nearest to V = |x| 10^(16 - E). The product of x
# and 10^(16 - E) held as a double-double, formed exactly by a Veltkamp
# TwoProduct, is p + t with |p + t - V| < 2^-46 (V < 2^57; 10^k is
# correctly rounded to hi and its remainder to lo). So D = p + round(t)
# is exact whenever floor(p + t) >= 10^16 (E was not one too large), D <
# 10^17 (nor one too small, and no carry into an 18th digit) and the
# fractional part of t is farther than 2^-40 from 1/2: V then lies on the
# same side of the half-integer as p + t, and exact ties, which "%.16e"
# rounds to even, always fall inside that window. Zeros are exact with
# D = 0 and E = 0. Every other entry, and every one that fails a guard,
# is formatted by "%.16e" itself, so each printed value is Python's.

#: Pairs formatted per piece of text: the working arrays stay small.
_CHUNK_PAIRS = 1024
#: Width of a float's field: "-d.dddddddddddddddde-ddd" at most.
_FIELD = 24
#: 2^27 + 1, the Veltkamp splitting factor of a double.
_SPLIT = 134217729.0
#: Decimal exponents of the fast path, indexed from 0 as ``E + 99``.
_EXPONENTS = range(-99, 99)
#: Bound on ``|t - round(t)|`` for exact digits: 2^6 times the error bound
#: away from 1/2, so only values within 2^-40 of a tie fall back.
_HALF_WINDOW = 0.5 - 2.0 ** -40


@functools.cache
def _format_tables():
    """``(pow10, exponent_text, digits, digit_scales)`` of the fast path,
    built on first use. Row ``E + 99`` of ``pow10`` is ``(hi, hi_head,
    hi_tail, lo)``: ``hi`` is ``10^(16 - E)`` correctly rounded, split in
    halves, and ``lo`` is the remainder, correctly rounded. Entry ``E + 99``
    of ``exponent_text`` is the 4 bytes ``e±dd`` as a ``uint32``, and
    ``digits[k]`` the 4 bytes of ``"%04d" % k``."""
    pow10 = np.empty((len(_EXPONENTS), 4))
    for row, e in zip(pow10, _EXPONENTS):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den                           # int division rounds correctly
        a, b = hi.as_integer_ratio()
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        row[:] = hi, head, hi - head, (num * b - a * den) / (den * b)
    exponent = np.frombuffer("".join(f"e{e:+03d}" for e in _EXPONENTS).encode(), dtype=np.uint32)
    two = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), dtype=np.uint16)
    four = np.empty((100, 100, 2), dtype=np.uint16)     # "%04d" % (100 i + j) is two[i] two[j]
    four[..., 0], four[..., 1] = two[:, None], two
    digits = four.view(np.uint32).ravel()
    return pow10, exponent, digits, np.array([10 ** 12, 10 ** 8, 10 ** 4, 1], dtype=np.int64)


def _format_floats(values: np.ndarray, fields: np.ndarray) -> None:
    """Write ``"%.16e" % x`` for each finite ``x`` in ``values`` into the
    NUL-filled ``_FIELD``-byte rows of ``fields``. Each row starts 1 byte
    past a multiple of 4, so that its columns ``3:19`` (the digits after
    the point) and ``19:23`` (``e±dd``) are 4-byte aligned."""
    pow10, exponent, digits, scales = _format_tables()
    mag = np.abs(values)
    fast = (mag >= 1e-99) & (mag < 1e99)
    # a wrong E from a clipped index or a rounded log10 fails the guards
    k = np.floor(np.log10(np.where(fast, mag, 1.0))).astype(np.intp) + 99
    hi, b_head, b_tail, lo = pow10.take(k, axis=0, mode="clip").T
    a = mag * fast
    # TwoProduct: a hi = p + err exactly; t = err + a lo
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    t = (a_head * b_head - p) + a_head * b_tail + a_tail * b_head + a_tail * b_tail + a * lo
    r = np.floor(t + 0.5)
    frac = t - r                           # in [-1/2, 1/2)
    D = p.astype(np.int64) + r.astype(np.int64)
    exact = (np.abs(frac) < _HALF_WINDOW) & (D - (frac < 0) >= 10 ** 16) & (D < 10 ** 17)
    lead, rest = np.divmod(D, 10 ** 16)
    fields[:, 0] = np.signbit(values) * ord("-")
    fields[:, 1] = lead + ord("0")
    fields[:, 2] = ord(".")
    fields[:, 3:19].view(np.uint32)[:] = digits[rest[:, None] // scales % 10000]
    fields[:, 19:23].view(np.uint32)[:, 0] = exponent.take(k, mode="clip")
    slow = np.flatnonzero(~exact & (mag != 0))
    if slow.size:
        text = b"".join(("%.16e" % x).encode().ljust(_FIELD, b"\0") for x in values[slow].tolist())
        fields[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD)


@functools.cache
def _record(depth: int) -> tuple[int, bytes]:
    """``(offset, template)`` of the record of one pair of an array with
    ``depth`` axes before the pair axis: two slots of equal width, one per
    float, each with the float's field at ``offset``. The re slot opens
    with ", ", room for ``depth`` openers and the pair's "["; the im slot
    with ", ", and ends in "]" and room for ``depth`` closers. ``offset``
    is 1 past a multiple of 4 and the slot width a multiple of 4, so the
    digits of every field are 4-byte aligned."""
    offset = (depth + 5) // 4 * 4 + 1
    slot = (offset + _FIELD + 1 + depth + 3) // 4 * 4
    re_slot = b", " + bytes(depth) + b"[" + bytes(offset - depth - 3)
    im_slot = b", " + bytes(offset - 2 + _FIELD) + b"]"
    return offset, re_slot.ljust(slot, b"\0") + im_slot.ljust(slot, b"\0")


def _pairs_text(pairs: np.ndarray):
    """The JSON text of a nonempty ``(..., rows, cols, 2)`` array of finite
    pairs, in pieces of at most ``_CHUNK_PAIRS`` pairs each.

    Each pair is laid out as a fixed-width NUL-padded record (see
    :func:`_record`), with its two floats written by
    :func:`_format_floats` and its openers and closers in their places;
    dropping the NULs leaves the text."""
    shape = pairs.shape[:-1]
    depth = len(shape)
    offset, template = _record(depth)
    slot = len(template) // 2
    # the entry i of the flattened pairs opens a list of axis j when
    # spans[j], the entry count of such a list, divides i, and closes one
    # when it divides i + 1
    spans = [math.prod(shape[j:]) for j in range(depth)]
    values = np.ascontiguousarray(pairs, dtype=np.float64).reshape(-1)
    total = values.size // 2
    for start in range(0, total, _CHUNK_PAIRS):
        n = min(_CHUNK_PAIRS, total - start)
        rec = np.empty((n, 2, slot), dtype=np.uint8)
        rec[:] = np.frombuffer(template, dtype=np.uint8).reshape(2, slot)
        for j, span in enumerate(spans):
            rec[-start % span::span, 0, 2 + j] = ord("[")
            rec[(-start - 1) % span::span, 1, offset + _FIELD + 1 + j] = ord("]")
        if not start:
            rec[0, 0, 0:2] = 0
        flat = rec.reshape(2 * n, slot)
        _format_floats(values[2 * start:2 * (start + n)], flat[:, offset:offset + _FIELD])
        yield str(flat[flat != 0], "ascii")      # decoded from the array's buffer, no bytes copy


def _dump_json(obj):
    """The JSON text of ``obj`` in pieces, in order; each nonempty ``(...,
    rows, cols, 2)`` array from :func:`matrix_to_json`, a whole stack
    included, is formatted in one vectorized pass (see :func:`_pairs_text`)."""
    if isinstance(obj, np.ndarray) and obj.ndim >= 3 and obj.size:
        if not np.all(np.isfinite(obj)):
            raise ParseFailure(f"cannot serialize non-finite value {float(obj[~np.isfinite(obj)][0])!r}")
        yield from _pairs_text(obj)
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _dump_json(value)
        yield "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):   # a list, or an empty or 1- or 2-axis array
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
# JSON decoding. A long matrix or stack of matrices is read by one
# vectorized pass (see ``jsonpairs``); a short one, and one the pass cannot
# prove, by the standard decoder, whose values and diagnostics are the
# reference either way.

_C_DECODER = json.JSONDecoder()
#: The opening of a matrix (three brackets) or of a stack of matrices
#: (four) whose first entry is a number.
_OPENING = re.compile(r"\[[ \t\n\r]*\[[ \t\n\r]*\[[ \t\n\r]*(\[[ \t\n\r]*)?[-0-9]")
#: A shorter array goes to the standard decoder: the fixed cost of the
#: pass's hundred or so numpy calls would exceed what it saves there.
_MIN_CHARS = 20000


def _float_pairs(obj) -> np.ndarray | None:
    """The ``(rows, cols, 2)`` float array of a nonempty matrix whose entries
    are all JSON floats, else None."""
    pairs = np.array(obj, dtype=object)
    if pairs.ndim == 3 and pairs.shape[2] == 2 and pairs.size and set(map(type, pairs.flat)) == {float}:
        return pairs.astype(np.float64)
    return None


def _decode_pairs(s: str, start: int, depth: int):
    """``(value, end)`` of the array of ``depth`` levels at ``s[start]``, in
    which each matrix whose entries are all floats is a ``(rows, cols, 2)``
    float array: read by :func:`jsonpairs.read_pairs` if the array is long
    and the pass proves it, else by the standard decoder."""
    end = s.find("]" * depth, start) + depth       # the end of a regular array
    if end - start >= _MIN_CHARS:
        value = jsonpairs.read_pairs(s, start, end, depth)
        if value is not None:
            return value, end
    value, end = _C_DECODER.raw_decode(s, start)
    if depth == 3:
        floats = _float_pairs(value)
        return (value if floats is None else floats), end
    return [item if (floats := _float_pairs(item)) is None else floats for item in value], end


def _parse_array(s_and_end, scan_once):
    """An array that is a value of an object (or the whole document): a
    matrix or a stack of matrices by :func:`_decode_pairs`, any other
    array as the standard decoder gives it."""
    s, end = s_and_end
    opening = _OPENING.match(s, end - 1)
    if opening:
        return _decode_pairs(s, end - 1, 4 if opening.group(1) else 3)
    return _C_DECODER.raw_decode(s, end - 1)


class _PairsDecoder(json.JSONDecoder):
    """``json`` decoding in which each matrix, and each matrix of a stack,
    whose entries are all floats arrives as a float array of pairs: a long
    series file that the pass proves never holds a Python float and a list
    per entry. A document it cannot decode goes to the standard decoder,
    whose diagnostic is reported."""

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
    Matrices and stacks of matrices in it may be float arrays (see
    ``_PairsDecoder``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, cls=_PairsDecoder)
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
    of pairs that ``_PairsDecoder`` makes of one; ``[]`` takes ``cols`` from
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


def _coefficients(doc) -> list | None:
    """``doc["coeffs"]`` if ``doc`` is an object whose ``"coeffs"`` is a
    list, else None. A matrix there, which the decoder may give as a float
    array, is the list of its rows, as the standard decoder gives it."""
    coeffs = doc.get("coeffs") if isinstance(doc, dict) else None
    if isinstance(coeffs, np.ndarray):
        coeffs = coeffs.tolist()
    return coeffs if isinstance(coeffs, list) else None


def parse_series(obj) -> MatrixSeries:
    coeffs = _coefficients(obj)
    if coeffs is None:
        raise ParseFailure("series must be an object with a 'coeffs' list")
    order, out_dim, in_dim = (_integer(obj, key) for key in ("order", "out_dim", "in_dim"))
    if order < 0:
        raise ParseFailure(f"series order must be nonnegative, got {order}")
    if len(coeffs) != order + 1:
        raise ParseFailure("series coefficient count does not match its order")
    return MatrixSeries([parse_matrix(c, rows=out_dim, cols=in_dim) for c in coeffs])


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
    coeffs = _coefficients(_read_json(path, "parameter file"))
    if coeffs is None:
        raise ParseFailure("parameter file must be an object with a 'coeffs' list")
    if not coeffs:
        raise ParseFailure("parameter file needs at least one coefficient")
    head = parse_matrix(coeffs[0])
    rows, cols = head.shape
    mats = [head] + [parse_matrix(c, rows=rows, cols=cols) for c in coeffs[1:]]
    return redheffer.SchurParameter(tuple(mats), tol)


def cmd_solve(pf: ProblemFile, args) -> tuple[int, dict]:
    realization = redheffer.realize(pf.problem())
    h = redheffer.lft_solution(realization, _load_parameter(args.param, realization.tol), args.order)
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
        payload["redheffer_deficiency"] = sysco.gram_identity_audit(realization, args.order)
    except AuditFailure as exc:
        payload["redheffer_deficiency"] = exc.deviation
        code = EXIT_INVALID
    if args.system is not None:
        doc = _read_json(args.system, "system file")
        if not isinstance(doc, dict) or not {"A", "B", "C", "D"} <= set(doc):
            raise ParseFailure("system file must carry matrices A, B, C, D")
        blocks = (parse_matrix(doc[key]) for key in "ABCD")
        system = sysco.CoisometricSystem(*blocks, validate=False, tol=realization.tol)
        try:
            payload["st_identity"] = sysco.gram_identity_audit(system, args.order)
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
    # every piece before the first write, so a payload with a value that
    # cannot be serialized, or whose text does not fit in memory, prints
    # only its error; that is no input file's fault, so it exits 1, not 2
    try:
        pieces = [*_dump_json(payload), "\n"]
    except (ParseFailure, MemoryError) as exc:
        code, pieces = EXIT_INVALID, [*_dump_json({"error": f"{type(exc).__name__}: {exc}"}), "\n"]
    sys.stdout.writelines(pieces)
    return code


if __name__ == "__main__":
    sys.exit(main())
