import json
import os
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from helpers import ORACLE_REGIMES, json_matrix, knife_edge, residual_audit_dataset
from rclkit import redheffer
from rclkit.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    ParseFailure,
    _as_lists,
    _dump_json,
    _read_json,
    build_parser,
    load_problem_file,
    main,
    matrix_to_json,
    parse_matrix,
    parse_series,
    series_to_json,
)
from rclkit.series import MatrixSeries

FIXTURES = files("rclkit").joinpath("examples")
CLASSICAL = str(FIXTURES / "classical_cl.json")
SHIFT6 = str(FIXTURES / "ex22_trunc6.json")
RELAXED = str(FIXTURES / "relaxed_np_n4.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def encode(obj) -> str:
    """The CLI's JSON text of ``obj``."""
    return "".join(_dump_json(obj))


def reference_text(m) -> str:
    """A matrix in the CLI's layout, formatted float by float with f-strings."""
    rows = ("[" + ", ".join(f"[{z.real:.16e}, {z.imag:.16e}]" for z in row) + "]" for row in m)
    return "[" + ", ".join(rows) + "]"


def _bad_entry(entry):
    def put(m):
        m[0][0] = entry
        return m
    return put


#: Malformed variants of a matrix given as nested ``[re, im]`` lists.
MALFORMED = {
    "bool": _bad_entry([True, False]),
    "bool_and_float": _bad_entry([True, 0.5]),
    "string": _bad_entry(["1.0", 0.0]),
    "null": _bad_entry([None, 0.0]),
    "object": _bad_entry({"re": 1.0, "im": 0.0}),
    "one_element": _bad_entry([1.0]),
    "three_elements": _bad_entry([1.0, 0.0, 0.0]),
    "empty_pair": _bad_entry([]),
    "ragged_rows": lambda m: [m[0], m[1][:-1]] + m[2:],
    "non_list_row": lambda m: [m[0], 1.0] + m[2:],
    "one_level_too_deep": lambda m: [[[e] for e in row] for row in m],
    "integer_beyond_float_range": _bad_entry([10**400, 0]),
    "nan": _bad_entry([float("nan"), 0.0]),
}


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0.5], [0, -1j]])
        back = parse_matrix(json.loads(encode(matrix_to_json(m))))
        np.testing.assert_array_equal(back, m)

    def test_empty_rows_take_cols_from_context(self):
        m = parse_matrix([], cols=4)
        assert m.shape == (0, 4)

    def test_zero_column_rows(self):
        m = parse_matrix([[], []])
        assert m.shape == (2, 0)

    def test_bad_entry_rejected(self):
        with pytest.raises(Exception):
            parse_matrix([[1.0]])

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_matrix_exits_two(self, capsys, tmp_path, case):
        doc = load_json(SHIFT6)
        doc["omega"]["omega2"] = MALFORMED[case](doc["omega"]["omega2"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "omega", str(path))
        assert code == EXIT_PARSE and out == "" and err

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_zero_size_round_trip(self, shape):
        m = np.zeros(shape, dtype=np.complex128)
        back = parse_matrix(json.loads(encode(matrix_to_json(m))), cols=shape[1])
        assert back.shape == shape

    def test_zero_row_stack_round_trip(self):
        s = MatrixSeries(np.zeros((3, 0, 3)))
        back = parse_series(json.loads(encode(series_to_json(s))))
        assert back.coeffs.shape == (3, 0, 3)

    def test_encoded_text_matches_fstrings(self):
        m = np.array([[complex(-0.0, 5e-324), complex(1e300, 1 / 3)]])
        assert encode(matrix_to_json(m)) == reference_text(m)
        assert encode([-0.0, 5e-324, 1e300, 1 / 3]) == f"[{-0.0:.16e}, {5e-324:.16e}, {1e300:.16e}, {1 / 3:.16e}]"

    def test_non_finite_output_rejected(self):
        with pytest.raises(ParseFailure):
            encode({"x": [1.0, float("inf")]})
        with pytest.raises(ParseFailure):
            encode(matrix_to_json([[complex(0.0, float("nan"))]]))


class TestByteGuard:
    """``omega`` on a direct-form file only decodes and re-encodes it, so
    full-precision input text must come back byte for byte on any BLAS."""

    @pytest.mark.parametrize("regime", ["generic", "no_output", "full_domain", "empty_domain"])
    def test_omega_reproduces_input_text(self, capsys, tmp_path, regime):
        p = ORACLE_REGIMES[regime](np.random.default_rng(8))
        text = (
            f'{{"omega": {{"u_dim": {p.u_dim}, "y_dim": {p.y_dim}, '
            f'"F_basis": {reference_text(p.F.basis)}, "omega1": {reference_text(p.omega1)}, '
            f'"omega2": {reference_text(p.omega2)}}}}}'
        )
        path = tmp_path / "direct.json"
        path.write_text(text)
        code, out, err = run(capsys, "omega", str(path))
        assert (code, out, err) == (EXIT_OK, text + "\n", "")


class TestValidateCommand:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", CLASSICAL)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["valid"] is True and payload["violations"] == []

    def test_violation_exits_one(self, capsys, tmp_path):
        doc = {
            "A": json_matrix(np.zeros((1, 1))),
            "Tprime": json_matrix(np.zeros((1, 1))),
            "R": json_matrix(np.eye(1)),
            "Q": json_matrix(0.5 * np.eye(1)),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert payload["violations"][0]["constraint"] == "gram_order"
        assert float(payload["violations"][0]["residual"]) == pytest.approx(0.75)

    @pytest.mark.parametrize("a_scale, rq_scale", [(0.5, 1e200), (1e200, 1.0)], ids=["R_Q", "A_Tp"])
    def test_overflowing_residuals_exit_one(self, capsys, tmp_path, a_scale, rq_scale):
        e1 = np.eye(2)[:, :1]
        doc = {
            "A": json_matrix(a_scale * np.eye(2)),
            "Tprime": json_matrix(a_scale * np.eye(2)),
            "R": json_matrix(rq_scale * e1),
            "Q": json_matrix(0.5 * rq_scale * e1),
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (EXIT_INVALID, "")
        message = json.loads(out)["error"]
        assert message.startswith("InvalidInput:") and "overflow" in message

    def test_omega_form_is_a_usage_error_here(self, capsys):
        code, _, err = run(capsys, "validate", SHIFT6)
        assert code == EXIT_PARSE
        assert "data-set form" in err


class TestParseErrors:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_PARSE and err

    def test_both_forms_rejected(self, capsys, tmp_path):
        doc = load_json(SHIFT6)
        doc["A"] = json_matrix(np.zeros((1, 1)))
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_PARSE and "exactly one" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.json")
        assert code == EXIT_PARSE and err


#: Documents whose stacks of matrices take every branch of the decoder.
STACK_DOCUMENTS = {
    "floats_and_whitespace": '{"coeffs": [ [ [ [1.5, -0.0] ] ] ,\n\t[[[2e3, 1E-2]],\r[[0.0, 5e-324]]]]}',
    "integer_entry": '{"coeffs": [[[[1, 2.0]]], [[[0.5, 0.5]]]]}',
    "empty_entries": '{"coeffs": [[[[1.0, 2.0]]], [], [[], []]]}',
    "ragged_entries": '{"coeffs": [[[[1.0, 2.0]], [[3.0]]], [[[1.0, 2.0], [3.0, 4.0]]]]}',
    "five_levels": '[[[[[1.0, 2.0]]]], [[[[3.0, 4.0]]]]]',
    "brackets_in_strings": '{"a": [[["]]]", [1.0, 2.0]]]], "b": [[[["[", "]"]]], [[[0.5, 1.5]]]]}',
    "nested_object": '{"omega": {"x": [[[[0.25, 0.5]]]], "y": [[1.0]]}, "seed": 3}',
    "nan_entry": '{"coeffs": [[[[NaN, 0.0]]]]}',
    "root_stack": '[[[[1.0, 2.0], [3.0, 4.0]]], [[[5.0, 6.0], [7.0, 8.0]]]]',
    "mixed_list": '{"v": [1.0, [2.0, [3.0]], "s", null, true]}',
}

#: Malformed documents with a stack of matrices in them.
BROKEN_STACKS = {
    "trailing_comma": '{"coeffs": [[[[1.0, 2.0]]],]}',
    "missing_comma": '{"coeffs": [[[[1.0, 2.0]]] [[[1.0, 2.0]]]]}',
    "unterminated": '{"coeffs": [[[[1.0, 2.0]]]',
    "extra_data": '{"coeffs": [[[[1.0, 2.0]]]]} [',
    "bad_number": '{"coeffs": [[[[1.0, 2.]]]]}',
    "byte_order_mark": '﻿{"coeffs": [[[[1.0, 2.0]]]]}',
}


class TestStackDecoding:
    """A stack of matrices decodes one matrix at a time into float arrays,
    while the document means what the standard decoder makes of it."""

    @staticmethod
    def read(tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        return _read_json(str(path), "test file"), path

    def test_series_arrives_as_float_arrays(self, tmp_path):
        rng = np.random.default_rng(3)
        s = MatrixSeries(list(rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))))
        text = encode(series_to_json(s))
        doc, _ = self.read(tmp_path, text)
        assert all(isinstance(c, np.ndarray) and c.shape == (3, 4, 2) for c in doc["coeffs"])
        got, want = parse_series(doc).coeffs, parse_series(json.loads(text)).coeffs
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

    @pytest.mark.parametrize("case", sorted(STACK_DOCUMENTS))
    def test_document_decodes_as_standard(self, tmp_path, case):
        text = STACK_DOCUMENTS[case]
        doc, _ = self.read(tmp_path, text)
        assert json.dumps(_as_lists(doc)) == json.dumps(json.loads(text))

    @pytest.mark.parametrize("case", sorted(BROKEN_STACKS))
    def test_malformed_document_reports_the_standard_diagnostic(self, tmp_path, case):
        text = BROKEN_STACKS[case]
        with pytest.raises(ValueError) as standard:
            json.loads(text)
        with pytest.raises(ParseFailure) as failure:
            self.read(tmp_path, text)
        assert str(failure.value) == f"malformed JSON in test file {tmp_path / 'doc.json'}: {standard.value}"

    def test_stack_in_place_of_a_scalar_or_matrix_fails_as_nested_lists(self, tmp_path):
        text = '{"order": [[[[1.5, 2.5]]]], "out_dim": 1, "in_dim": 1, "coeffs": [[[[1.0, 0.0]]]], "A": [[[[1.0, 0.0]]]]}'
        doc, _ = self.read(tmp_path, text)
        with pytest.raises(ParseFailure, match=r"order must be an integer, got \[\[\[\[1\.5, 2\.5\]\]\]\]$"):
            parse_series(doc)
        with pytest.raises(ParseFailure) as fast:
            parse_matrix(doc["A"])
        with pytest.raises(ParseFailure) as standard:
            parse_matrix(json.loads(text)["A"])
        assert str(fast.value) == str(standard.value)

    def test_series_never_holds_an_object_per_entry(self, tmp_path):
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal((65, 16, 16)) + 1j * rng.standard_normal((65, 16, 16))
        path = tmp_path / "series.json"
        path.write_text(encode(series_to_json(MatrixSeries(list(coeffs)))), encoding="utf-8")

        def peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        text = peak(lambda: path.read_text(encoding="utf-8"))
        standard = peak(lambda: load_json(path)) - text
        stacked = peak(lambda: _read_json(str(path), "series file")) - text
        assert stacked < 0.25 * standard


class TestOmegaCommand:
    def test_output_reparses_as_problem_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "omega", CLASSICAL)
        assert code == EXIT_OK
        path = tmp_path / "omega.json"
        path.write_text(out)
        pf = load_problem_file(str(path))
        assert pf.omega is not None
        # classical data: unitary T' means no output space at all
        assert pf.omega.y_dim == 0
        assert pf.omega.f_dim == pf.omega.u_dim

    def test_relaxed_fixture_dims(self, capsys, tmp_path):
        _, out, _ = run(capsys, "omega", RELAXED)
        path = tmp_path / "omega.json"
        path.write_text(out)
        pf = load_problem_file(str(path))
        assert pf.omega.u_dim == 4 and pf.omega.y_dim == 1 and pf.omega.f_dim == 3

    def test_residual_audit_failure_exits_one(self, capsys, tmp_path):
        d = residual_audit_dataset()
        path = tmp_path / "dropped.json"
        doc = {key: json_matrix(m) for key, m in zip(("A", "Tprime", "R", "Q"), (d.A, d.Tp, d.R, d.Q))}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (EXIT_OK, "") and json.loads(out)["valid"] is True
        code, out, err = run(capsys, "omega", str(path))
        assert (code, err) == (EXIT_INVALID, "")
        assert json.loads(out)["error"] == "IllPosedData: defining identity residual 5.000e-05 exceeds 1.0e-09"


class TestCentralCommand:
    def test_golden_coefficients(self, capsys):
        code, out, _ = run(capsys, "central", SHIFT6, "--order", "3")
        assert code == EXIT_OK
        series = parse_series(json.loads(out))
        assert series.order == 3
        for n in range(4):
            expected = np.zeros((1, 6))
            expected[0, n + 1] = 1.0
            np.testing.assert_array_equal(series.coeffs[n], expected)


class TestResourceErrors:
    @pytest.mark.parametrize("path", [SHIFT6, RELAXED], ids=["ex22_trunc6", "relaxed_np_n4"])
    @pytest.mark.parametrize("argv", [("central",), ("unique", "--witness"), ("audit",)],
                             ids=["central", "unique_witness", "audit"])
    def test_order_beyond_memory_is_a_json_error(self, capsys, path, argv):
        # no machine can allocate 10**15 coefficient blocks of these files
        code, out, err = run(capsys, argv[0], path, *argv[1:], "--order", str(10**15))
        assert code == EXIT_INVALID and err == ""
        assert json.loads(out)["error"].startswith("MemoryError: Unable to allocate")


class TestUniqueCommand:
    def test_shift_fixture_verdict(self, capsys):
        code, out, _ = run(capsys, "unique", SHIFT6)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "not_unique" and payload["failing_n"] == 5

    def test_classical_fixture_is_unique(self, capsys):
        _, out, _ = run(capsys, "unique", CLASSICAL)
        assert json.loads(out)["verdict"] == "unique_i"

    def test_witness_flag(self, capsys):
        code, out, _ = run(capsys, "unique", SHIFT6, "--witness", "--order", "12")
        assert code == EXIT_OK
        witness = json.loads(out)["witness"]
        assert witness["first_diff_index"] >= 5
        assert float(witness["gap"]) > 1e-6

    def test_witness_order_below_failing_index(self, capsys):
        code, out, err = run(capsys, "unique", SHIFT6, "--witness", "--order", "3")
        assert code == EXIT_INVALID and err == ""
        message = json.loads(out)["error"]
        assert message.startswith("InvalidInput:") and "order 3" in message and "index 5" in message

    @pytest.mark.parametrize("example", [CLASSICAL, SHIFT6, RELAXED], ids=["classical", "shift6", "relaxed"])
    @pytest.mark.parametrize("command", ["validate", "omega", "central", "unique", "solve", "verify", "audit"])
    def test_byte_identical_reruns(self, capsys, tmp_path, command, example):
        if command == "validate" and load_problem_file(example).data is None:
            pytest.skip("validate needs the data-set form")
        argv = [command, example]
        if command == "central":
            argv += ["--order", "12"]
        elif command == "unique":
            argv += ["--witness", "--order", "12"]
        elif command == "solve":
            pf = load_problem_file(example)
            r = redheffer.realize(pf.problem())
            value = 0.5 * np.ones((r.defect_dim, r.complement_dim)) / max(1, r.defect_dim * r.complement_dim)
            param = tmp_path / "v.json"
            param.write_text(json.dumps({"coeffs": [json_matrix(value), json_matrix(-value)]}))
            argv += ["--param", str(param), "--order", "12"]
        elif command == "verify":
            _, central, _ = run(capsys, "central", example, "--order", "12")
            solution = tmp_path / "h.json"
            solution.write_text(central)
            argv += ["--solution", str(solution)]
        elif command == "audit":
            argv += ["--order", "6"]
        code, first, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert run(capsys, *argv) == (code, first, "")


class TestSolveVerifyAudit:
    def test_zero_parameter_reproduces_central(self, capsys, tmp_path):
        param = tmp_path / "v.json"
        param.write_text(json.dumps({"coeffs": [json_matrix(np.zeros((2, 1)))]}))
        code, out, _ = run(capsys, "solve", SHIFT6, "--param", str(param), "--order", "5")
        assert code == EXIT_OK
        solved = parse_series(json.loads(out))
        _, central_out, _ = run(capsys, "central", SHIFT6, "--order", "5")
        central = parse_series(json.loads(central_out))
        for n in range(6):
            np.testing.assert_allclose(solved.coeffs[n], central.coeffs[n], atol=1e-12)

    def test_expansive_parameter_exits_one(self, capsys, tmp_path):
        param = tmp_path / "v.json"
        param.write_text(json.dumps({"coeffs": [json_matrix(2.0 * np.ones((2, 1)))]}))
        code, out, _ = run(capsys, "solve", SHIFT6, "--param", str(param))
        assert code == EXIT_INVALID
        assert "InvalidParameter" in json.loads(out)["error"]

    @pytest.mark.parametrize("kind", ["param", "solution", "system"])
    def test_malformed_auxiliary_file_exits_two(self, capsys, tmp_path, kind):
        # json reads NaN literals; a negative order has no coefficient to hold
        nan = json_matrix([[float("nan")]])
        docs = {
            "param": {"coeffs": [nan]},
            "solution": {"order": -1, "out_dim": 1, "in_dim": 6, "coeffs": []},
            "system": {"A": nan, "B": nan, "C": nan, "D": nan},
        }
        aux = tmp_path / f"{kind}.json"
        aux.write_text(json.dumps(docs[kind]))
        argv = {"param": ["solve", SHIFT6, "--param"], "solution": ["verify", SHIFT6, "--solution"],
                "system": ["audit", RELAXED, "--system"]}[kind]
        code, out, err = run(capsys, *argv, str(aux))
        assert code == EXIT_PARSE and out == "" and err

    @pytest.mark.parametrize("shape, message", [((1, 1), "expected 2 rows, got 1"),
                                                ((2, 2), "expected 1 columns, got 2")])
    def test_ragged_parameter_exits_two(self, capsys, tmp_path, shape, message):
        # the later coefficients take their shape from the first, as in a series file
        param = tmp_path / "v.json"
        param.write_text(json.dumps({"coeffs": [json_matrix(np.zeros((2, 1))), json_matrix(np.zeros(shape))]}))
        code, out, err = run(capsys, "solve", SHIFT6, "--param", str(param))
        assert code == EXIT_PARSE and out == "" and message in err

    @pytest.mark.parametrize("kind", ["problem", "tolerances", "param", "solution", "system"])
    def test_integer_beyond_float_range_exits_two(self, capsys, tmp_path, kind):
        huge = [[[10**400, 0]]]
        problem = load_json(SHIFT6)
        if kind == "problem":
            problem["omega"]["omega1"][0][0] = huge[0][0]
        elif kind == "tolerances":
            problem["tolerances"] = {"identity_tol": 10**400}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        docs = {
            "param": {"coeffs": [huge]},
            "solution": {"order": 0, "out_dim": 1, "in_dim": 1, "coeffs": [huge]},
            "system": {"A": huge, "B": huge, "C": huge, "D": huge},
        }
        argv = {"problem": ["unique", str(path)], "tolerances": ["unique", str(path)],
                "param": ["solve", str(path), "--param"], "solution": ["verify", str(path), "--solution"],
                "system": ["audit", str(path), "--system"]}[kind]
        if kind in docs:
            aux = tmp_path / f"{kind}.json"
            aux.write_text(json.dumps(docs[kind]))
            argv.append(str(aux))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE and out == "" and "too large for a float" in err

    @pytest.mark.parametrize(
        "kind, key, value",
        [("solution", "order", 3.9), ("solution", "order", "3"), ("solution", "order", True),
         ("solution", "out_dim", 1.0), ("solution", "in_dim", "6"),
         ("problem", "u_dim", 6.7), ("problem", "u_dim", "6"), ("problem", "y_dim", True),
         ("problem", "seed", 1.5), ("problem", "seed", True)],
    )
    def test_integer_fields_reject_non_integers(self, capsys, tmp_path, kind, key, value):
        problem = load_json(SHIFT6)
        _, central, _ = run(capsys, "central", SHIFT6, "--order", "3")
        solution = json.loads(central)
        if kind == "solution":
            solution[key] = value
        elif key == "seed":
            problem[key] = value
        else:
            problem["omega"][key] = value
        path, aux = tmp_path / "problem.json", tmp_path / "solution.json"
        path.write_text(json.dumps(problem))
        aux.write_text(json.dumps(solution))
        code, out, err = run(capsys, "verify", str(path), "--solution", str(aux))
        assert code == EXIT_PARSE and out == "" and err

    def test_verify_overflowing_solution_exits_one(self, capsys, tmp_path):
        huge = {"order": 2, "out_dim": 1, "in_dim": 6, "coeffs": [json_matrix(1e200 * np.ones((1, 6)))] * 3}
        solution = tmp_path / "h.json"
        solution.write_text(json.dumps(huge))
        code, out, err = run(capsys, "verify", SHIFT6, "--solution", str(solution))
        assert code == EXIT_INVALID and err == ""
        assert json.loads(out)["error"].startswith("InvalidInput:")

    @pytest.mark.parametrize("blocks", ["-3", "0"])
    def test_verify_nonpositive_lifting_blocks_exit_one(self, capsys, tmp_path, blocks):
        _, out, _ = run(capsys, "central", RELAXED, "--order", "6")
        solution = tmp_path / "h.json"
        solution.write_text(out)
        code, out, err = run(capsys, "verify", RELAXED, "--solution", str(solution), "--lifting-blocks", blocks)
        assert (code, err) == (EXIT_INVALID, "")
        assert json.loads(out)["error"].startswith("InvalidInput: need at least one defect block")

    def test_verify_accepts_central_solution(self, capsys, tmp_path):
        _, out, _ = run(capsys, "central", RELAXED, "--order", "16")
        solution = tmp_path / "h.json"
        solution.write_text(out)
        code, out, _ = run(capsys, "verify", RELAXED, "--solution", str(solution))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["interp_ok"] and payload["ball_ok"]
        assert payload["lifting"]["projection_ok"] and payload["lifting"]["intertwine_ok"]

    @pytest.mark.parametrize("blocks", ["32", "4"])
    def test_verify_reports_a_series_outside_the_ball_in_both_forms(self, capsys, tmp_path, blocks):
        # the central solution scaled by 3 leaves the coefficient ball, so it
        # has no contractive interpolant to lift
        _, out, _ = run(capsys, "central", RELAXED, "--order", "8")
        doc = json.loads(out)
        doc["coeffs"] = (3 * np.array(doc["coeffs"])).tolist()
        solution = tmp_path / "h.json"
        solution.write_text(json.dumps(doc))
        _, out, _ = run(capsys, "omega", RELAXED)
        direct = tmp_path / "omega.json"
        direct.write_text(out)
        argv = ("--solution", str(solution), "--lifting-blocks", blocks)
        direct_code, direct_out, _ = run(capsys, "verify", str(direct), *argv)
        code, out, err = run(capsys, "verify", RELAXED, *argv)
        assert (direct_code, code, err) == (EXIT_INVALID, EXIT_INVALID, "")
        payload = json.loads(out)
        lift = payload.pop("lifting")
        assert payload == json.loads(direct_out)
        assert not payload["interp_ok"] and not payload["ball_ok"]
        assert lift["blocks"] == min(int(blocks), 9)
        assert lift["error"].startswith("NotContractive: interpolant norm")

    def test_verify_derives_each_defect_once(self, capsys, tmp_path, monkeypatch):
        _, out, _ = run(capsys, "central", RELAXED, "--order", "8")
        solution = tmp_path / "h.json"
        solution.write_text(out)
        calls = []
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("rclkit") and hasattr(module, "defect"):
                original = module.defect

                def counted(*args, _original=original, **kwargs):
                    calls.append(args[0].shape)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, "defect", counted)
        code, _, _ = run(capsys, "verify", RELAXED, "--solution", str(solution))
        assert code == EXIT_OK
        assert len(calls) == 2     # D_A and D_T', each once

    def test_verify_rejects_zero_series(self, capsys, tmp_path):
        zero = {
            "order": 4, "out_dim": 1, "in_dim": 4,
            "coeffs": [json_matrix(np.zeros((1, 4)))] * 5,
        }
        solution = tmp_path / "h.json"
        solution.write_text(json.dumps(zero))
        code, out, _ = run(capsys, "verify", RELAXED, "--solution", str(solution))
        assert code == EXIT_INVALID
        assert json.loads(out)["interp_ok"] is False

    def test_audit_command(self, capsys):
        code, out, _ = run(capsys, "audit", RELAXED, "--order", "10")
        assert code == EXIT_OK
        assert float(json.loads(out)["redheffer_deficiency"]) < 1e-9

    def test_audit_with_system_file(self, capsys, tmp_path):
        root = float(np.sqrt(3) / 2)
        doc = {
            "A": json_matrix([[0.5]]), "B": json_matrix([[root]]),
            "C": json_matrix([[root]]), "D": json_matrix([[-0.5]]),
        }
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "audit", RELAXED, "--order", "8", "--system", str(system))
        assert code == EXIT_OK
        assert float(json.loads(out)["st_identity"]) < 1e-10

    def test_audit_flags_broken_system(self, capsys, tmp_path):
        doc = {k: json_matrix(np.eye(2)) for k in ("A", "B", "C", "D")}
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "audit", RELAXED, "--order", "6", "--system", str(system))
        assert code == EXIT_INVALID
        assert float(json.loads(out)["st_identity"]) > 1.0

    @pytest.mark.parametrize("scale, message", [
        (1e10, "series has non-finite coefficients"),
        (1e5, "stacked Gram identity overflows on 40 blocks"),
    ])
    def test_audit_overflowing_system_exits_one(self, capsys, tmp_path, scale, message):
        doc = {k: json_matrix(np.eye(2)) for k in ("A", "B", "C", "D")}
        doc["A"] = json_matrix(scale * np.eye(2))
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        # no numpy RuntimeWarning either, which a console would show on standard error
        code, out, err = run(capsys, "audit", RELAXED, "--order", "40", "--system", str(system))
        assert (code, out, err) == (EXIT_INVALID, f'{{"error": "InvalidInput: {message}"}}\n', "")


class TestToleranceOverrides:
    def test_env_var_loosens_identity_tolerance(self, capsys, tmp_path, monkeypatch):
        doc = {
            "A": json_matrix(np.eye(1)),
            "Tprime": json_matrix(0.999 * np.eye(1)),
            "R": json_matrix(np.eye(1)),
            "Q": json_matrix(np.eye(1)),
        }
        path = tmp_path / "close.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == EXIT_INVALID
        monkeypatch.setenv("RCLKIT_TOL", "0.01")
        code, _, _ = run(capsys, "validate", str(path))
        assert code == EXIT_OK

    def test_bad_env_var_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RCLKIT_TOL", "not-a-number")
        code, _, err = run(capsys, "validate", CLASSICAL)
        assert code == EXIT_PARSE and "RCLKIT_TOL" in err

    def test_file_tolerances_respected(self, capsys, tmp_path):
        doc = load_json(CLASSICAL)
        doc["tolerances"] = {"identity_tol": 1e-15}
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == EXIT_OK  # classical construction is exact to roundoff

    @staticmethod
    def _slightly_expansive_file(tmp_path, tolerances=None):
        """Direct-form file whose stacked operator has norm ``1 + 1e-8``."""
        rng = np.random.default_rng(20081)
        u, y, f = 6, 2, 3
        stacked = rng.standard_normal((y + u, f)) + 1j * rng.standard_normal((y + u, f))
        stacked *= (1.0 + 1e-8) / np.linalg.norm(stacked, 2)
        basis, _ = np.linalg.qr(rng.standard_normal((u, f)) + 1j * rng.standard_normal((u, f)))
        doc = {"omega": {
            "u_dim": u, "y_dim": y, "F_basis": json_matrix(basis),
            "omega1": json_matrix(stacked[:y]), "omega2": json_matrix(stacked[y:]),
        }}
        if tolerances is not None:
            doc["tolerances"] = tolerances
        path = tmp_path / "slack.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_file_contraction_slack_admits_direct_form_norm(self, capsys, tmp_path):
        path = self._slightly_expansive_file(tmp_path, {"contraction_slack": 1e-6})
        code, out, _ = run(capsys, "unique", path)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "not_unique"

    def test_default_contraction_slack_rejects_direct_form_norm(self, capsys, tmp_path):
        path = self._slightly_expansive_file(tmp_path)
        code, _, err = run(capsys, "unique", path)
        assert code == EXIT_PARSE and "exceeds 1 + slack" in err

    @staticmethod
    def _slightly_expansive_parameter(tmp_path, tolerances=None):
        """A problem file and a constant parameter of norm ``1 + 1e-8`` for it."""
        doc = load_json(RELAXED)
        if tolerances is not None:
            doc["tolerances"] = tolerances
        problem = tmp_path / "relaxed.json"
        problem.write_text(json.dumps(doc))
        pf = load_problem_file(str(problem))
        r = redheffer.realize(pf.problem())
        value = np.zeros((r.defect_dim, r.complement_dim))
        value[0, 0] = 1.0 + 1e-8
        param = tmp_path / "param.json"
        param.write_text(json.dumps({"coeffs": [json_matrix(value)]}))
        return str(problem), str(param)

    def test_file_contraction_slack_admits_parameter_norm(self, capsys, tmp_path):
        problem, param = self._slightly_expansive_parameter(tmp_path, {"contraction_slack": 1e-6})
        code, out, _ = run(capsys, "solve", problem, "--param", param, "--order", "4")
        assert code == EXIT_OK
        assert json.loads(out)["order"] == 4

    def test_default_contraction_slack_rejects_parameter_norm(self, capsys, tmp_path):
        problem, param = self._slightly_expansive_parameter(tmp_path)
        code, out, _ = run(capsys, "solve", problem, "--param", param, "--order", "4")
        assert code == EXIT_INVALID and "InvalidParameter" in json.loads(out)["error"]

    @pytest.mark.parametrize("value, shown", [
        (True, "True"), ("1e-3", "'1e-3'"), (None, "None"), (float("nan"), "nan"), (-1, "-1.0"),
        ([[[[1.0, 2.0]], [[3.0, 4.0]]]], "[[[[1.0, 2.0]], [[3.0, 4.0]]]]"),   # decoded as a stack of matrices
    ], ids=["bool", "string", "null", "nan", "negative", "stack"])
    def test_malformed_tolerance_is_one_line_naming_it(self, capsys, tmp_path, value, shown):
        doc = load_json(CLASSICAL)
        doc["tolerances"] = {"identity_tol": value}
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"rclkit: tolerance identity_tol must be a nonnegative finite real, got {shown}\n"

    @pytest.mark.parametrize("slack, x", list(knife_edge()))
    def test_both_forms_agree_at_the_knife_edge(self, capsys, tmp_path, slack, x):
        # a data set whose A = [[x]] breaks no other constraint, and the
        # direct form with omega1 = [[x]] and F = U
        one, edge = json_matrix(np.eye(1)), json_matrix([[x]])
        tolerances = {"contraction_slack": slack}
        data, direct = tmp_path / "data.json", tmp_path / "direct.json"
        data.write_text(json.dumps({"A": edge, "Tprime": one, "R": one, "Q": one, "tolerances": tolerances}))
        direct.write_text(json.dumps({"omega": {"u_dim": 1, "y_dim": 1, "F_basis": one, "omega1": edge,
                                                "omega2": json_matrix(np.zeros((1, 1)))}, "tolerances": tolerances}))
        accepted = x - 1.0 <= slack
        code, out, _ = run(capsys, "validate", str(data))
        assert (code, json.loads(out)["valid"]) == ((EXIT_OK, True) if accepted else (EXIT_INVALID, False))
        code, out, err = run(capsys, "unique", str(direct))
        if accepted:
            assert (code, out, err) == (EXIT_OK, '{"verdict": "unique_i"}\n', "")
        else:
            assert (code, out) == (EXIT_PARSE, "") and err.endswith("exceeds 1 + slack\n")


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it must not
    change any output or carry state from one call to the next."""

    @staticmethod
    def fresh(*argv):
        """``rclkit`` run in a new interpreter."""
        env = dict(os.environ, COLUMNS="80")
        src = str(Path(files("rclkit")).parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "rclkit.cli", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_match_fresh_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        commands = [
            ("unique", SHIFT6, "--witness", "--order", "6"),
            ("unique", SHIFT6),
            ("validate", CLASSICAL),
            ("central", RELAXED, "--order", "3"),
            ("audit", RELAXED, "--order", "3"),
            ("validate", SHIFT6),
            ("omega", CLASSICAL),
        ]
        for argv in commands:
            assert run(capsys, *argv) == self.fresh(*argv), argv

    def test_help_text_matches_a_fresh_run(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in (["--help"], ["unique", "--help"], ["--help"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            captured = capsys.readouterr()
            assert (excinfo.value.code, captured.out, captured.err) == self.fresh(*argv)
