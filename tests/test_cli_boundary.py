"""A property at the command line's input boundary.

Whatever subtree of a valid problem, series, parameter or system file is
replaced or dropped, and whatever its ``"tolerances"`` hold, ``main`` exits
0, 1 or 2 without an exception escaping, prints one JSON line or nothing on
standard output and one line or nothing on standard error. The files are
small and every ``--order`` stays below the commands' defaults.
"""

import copy
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import json_matrix, random_contraction, reference_read_json
from rclkit import cli, interp, jsonpairs, redheffer
from rclkit.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    _coefficients,
    load_problem_file,
    main,
    parse_matrix,
    parse_series,
)
from rclkit.sysco import julia_system

EXAMPLES = files("rclkit").joinpath("examples")
ORDER = "3"

#: Argument lists per mutated file; ``{problem}`` and the like name the files.
COMMANDS = {
    "problem": (
        ["validate", "{problem}"],
        ["omega", "{problem}"],
        ["central", "{problem}", "--order", ORDER],
        ["unique", "{problem}", "--witness", "--order", ORDER],
        ["solve", "{problem}", "--param", "{param}", "--order", ORDER],
        ["verify", "{problem}", "--solution", "{series}", "--lifting-blocks", ORDER],
        ["audit", "{problem}", "--order", ORDER, "--system", "{system}"],
    ),
    "series": (["verify", "{problem}", "--solution", "{series}", "--lifting-blocks", ORDER],),
    "param": (["solve", "{problem}", "--param", "{param}", "--order", ORDER],),
    "system": (["audit", "{problem}", "--order", ORDER, "--system", "{system}"],),
}


def series_doc(coeffs):
    count, out_dim, in_dim = np.shape(coeffs)
    return {"order": count - 1, "out_dim": out_dim, "in_dim": in_dim, "coeffs": [json_matrix(c) for c in coeffs]}


def valid_files(name):
    """A bundled problem file and a valid series, parameter and system file
    for it, as JSON documents."""
    path = str(EXAMPLES / name)
    with open(path, encoding="utf-8") as fh:
        problem_doc = json.load(fh)
    problem = load_problem_file(path).problem()
    realization = redheffer.realize(problem)
    rng = np.random.default_rng(0)
    shape = (realization.defect_dim, realization.complement_dim)
    system = julia_system(random_contraction(rng, 2, 2, 0.5))
    return {
        "problem": problem_doc,
        "series": series_doc(interp.central_taylor(problem, 3).coeffs),
        "param": {"coeffs": [json_matrix(random_contraction(rng, *shape, 0.3)) for _ in range(2)]},
        "system": {key: json_matrix(getattr(system, key)) for key in "ABCD"},
    }


VALID = [valid_files(name) for name in ("classical_cl.json", "ex22_trunc6.json", "relaxed_np_n4.json")]

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), 2**64, 1e308, -1e-320]),
)
JUNK = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["coeffs", "order", "u_dim", "omega", "A", "identity_tol"]), inner, max_size=2),
    ),
    max_leaves=8,
)
#: Replacements for one number: finite, but of any size.
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.0 + 1e-10, 1e154, 1e308, 5e-324, 2**53 + 1]))
#: Tolerance values: bools, strings, huge integers, NaN, nested lists (a
#: stack of matrices among them) and anything else.
TOLERANCE_VALUES = st.one_of(
    st.booleans(), st.text(max_size=3),
    st.sampled_from([10**400, math.nan, math.inf, -1.0, 0, 1e-300, 1e-3, 1e300, [[[[1.0, 2.0]], [[3.0, 4.0]]]]]),
    st.lists(st.lists(st.floats(), max_size=2), max_size=2),
    JUNK,
)
TOLERANCES = st.one_of(
    st.dictionaries(st.sampled_from(["rank_tol", "contraction_slack", "identity_tol"]), TOLERANCE_VALUES,
                    min_size=1, max_size=3),
    JUNK,
)


def subtree_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from subtree_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from subtree_paths(value, path + (i,))


def subtree(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """``doc`` with one or two subtrees replaced or dropped, a number in it
    changed or its tolerances set."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        action = draw(st.sampled_from(["replace", "drop", "number", "tolerances"]))
        if action == "tolerances":
            if isinstance(doc, dict):
                doc["tolerances"] = draw(TOLERANCES)
            continue
        paths = list(subtree_paths(doc))
        if action == "number":
            paths = [path for path in paths if type(subtree(doc, path)) in (int, float)] or paths
        path = draw(st.sampled_from(paths))
        if not path:
            doc = {} if action == "drop" else draw(JUNK)
            continue
        parent = subtree(doc, path[:-1])
        if action != "drop":
            parent[path[-1]] = draw(JUNK if action == "replace" else NUMBERS)
        else:
            del parent[path[-1]]
    return doc


def strict_json(text):
    def reject(constant):
        raise AssertionError(f"stdout carries {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_answers_every_mutated_file_on_one_line(data):
    docs = dict(data.draw(st.sampled_from(VALID), label="valid files"))
    kind = data.draw(st.sampled_from(sorted(COMMANDS)), label="mutated file")
    docs[kind] = data.draw(mutated(docs[kind]), label=kind)
    command = data.draw(st.sampled_from(COMMANDS[kind]), label="command")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.format(**paths) for arg in command])
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_PARSE)
    if code == EXIT_PARSE:
        assert out == "" and err.startswith("rclkit: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == "" and out.endswith("\n") and out.count("\n") == 1
        strict_json(out)


# ---------------------------------------------------------------------------
# The same files as text: a few bytes changed inside their matrices must
# decode as the standard json decoder reads them.

#: Bytes written into matrices, and texts that strtod and JSON read apart.
MATRIX_BYTES = "0123456789.eE+-,[] \n"
STRTOD_TEXTS = ["01", "-01", "00.5", "1.", ".5", "-.5", "+1", "1.e5", "1e", "1e+", "1E400", "-0", "NaN",
                "Infinity", "1" * 400]
READERS = {
    "problem": lambda doc: [parse_matrix(m) for m in (
        [doc["omega"][k] for k in ("F_basis", "omega1", "omega2")] if "omega" in doc
        else [doc[k] for k in ("A", "Tprime", "R", "Q")])],
    "series": lambda doc: [parse_series(doc).coeffs],
    "param": lambda doc: [parse_matrix(c) for c in _coefficients(doc)],
    "system": lambda doc: [parse_matrix(doc[k]) for k in "ABCD"],
}


def outcome(read, kind, path):
    """The float64 bits of every matrix of a file, or the exception text."""
    try:
        return [(m.shape, m.view(np.float64).tobytes()) for m in READERS[kind](read(path, "test file"))]
    except Exception as exc:   # the standard reading fails alike, or the test fails
        return f"{type(exc).__name__}: {exc}"


def inside_matrices(text):
    """Offsets of the characters at list depth 2 or more: the matrices."""
    depth, offsets = 0, []
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if depth >= 2:
            offsets.append(i)
    return offsets


def assert_decoded_as_standard(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"{kind}.json")
        Path(path).write_text(text, encoding="utf-8")
        for min_chars in (0, jsonpairs._MIN_CHARS):       # the vectorized pass, then the route for short arrays
            with mock.patch.object(jsonpairs, "_MIN_CHARS", min_chars):
                assert outcome(cli._read_json, kind, path) == outcome(reference_read_json, kind, path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_changed_bytes_in_matrices_decode_as_standard(data):
    files = data.draw(st.sampled_from(VALID))
    kind = data.draw(st.sampled_from(sorted(READERS)))
    text = json.dumps(files[kind]) if data.draw(st.booleans()) else "".join(cli._dump_json(files[kind]))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(inside_matrices(text) or [0]))
        new = data.draw(st.text(MATRIX_BYTES, min_size=0, max_size=1))
        text = text[:at] + new + text[at + data.draw(st.integers(0, 1)):]
    assert_decoded_as_standard(kind, text)


def test_texts_strtod_and_json_read_apart_decode_as_standard():
    for files in VALID:
        for kind in READERS:
            text = json.dumps(files[kind])
            number = re.search(r"-?[0-9][0-9.eE+-]*", text[(inside_matrices(text) or [len(text)])[0]:])
            if number is None:       # every matrix of the file is empty
                continue
            at = inside_matrices(text)[0] + number.start()
            for bad in STRTOD_TEXTS:
                assert_decoded_as_standard(kind, text[:at] + bad + text[at + len(number.group()):])
