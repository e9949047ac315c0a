import json
from importlib.resources import files

import numpy as np
import pytest

from rclkit import redheffer
from rclkit.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    load_problem_file,
    main,
    matrix_to_json,
    parse_matrix,
    parse_series,
)

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


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0.5], [0, -1j]])
        back = parse_matrix(matrix_to_json(m))
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


class TestValidateCommand:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", CLASSICAL)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["valid"] is True and payload["violations"] == []

    def test_violation_exits_one(self, capsys, tmp_path):
        doc = {
            "A": matrix_to_json(np.zeros((1, 1))),
            "Tprime": matrix_to_json(np.zeros((1, 1))),
            "R": matrix_to_json(np.eye(1)),
            "Q": matrix_to_json(0.5 * np.eye(1)),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert payload["violations"][0]["constraint"] == "gram_order"
        assert float(payload["violations"][0]["residual"]) == pytest.approx(0.75)

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
        doc["A"] = matrix_to_json(np.zeros((1, 1)))
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == EXIT_PARSE and "exactly one" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.json")
        assert code == EXIT_PARSE and err


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


class TestCentralCommand:
    def test_golden_coefficients(self, capsys):
        code, out, _ = run(capsys, "central", SHIFT6, "--order", "3")
        assert code == EXIT_OK
        series = parse_series(json.loads(out))
        assert series.order == 3
        for n in range(4):
            expected = np.zeros((1, 6))
            expected[0, n + 1] = 1.0
            np.testing.assert_array_equal(series.coeff(n), expected)


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
            r = redheffer.realize(pf.problem(), pf.tol)
            value = 0.5 * np.ones((r.defect_dim, r.complement_dim)) / max(1, r.defect_dim * r.complement_dim)
            param = tmp_path / "v.json"
            param.write_text(json.dumps({"coeffs": [matrix_to_json(value), matrix_to_json(-value)]}))
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
        param.write_text(json.dumps({"coeffs": [matrix_to_json(np.zeros((2, 1)))]}))
        code, out, _ = run(capsys, "solve", SHIFT6, "--param", str(param), "--order", "5")
        assert code == EXIT_OK
        solved = parse_series(json.loads(out))
        _, central_out, _ = run(capsys, "central", SHIFT6, "--order", "5")
        central = parse_series(json.loads(central_out))
        for n in range(6):
            np.testing.assert_allclose(solved.coeff(n), central.coeff(n), atol=1e-12)

    def test_expansive_parameter_exits_one(self, capsys, tmp_path):
        param = tmp_path / "v.json"
        param.write_text(json.dumps({"coeffs": [matrix_to_json(2.0 * np.ones((2, 1)))]}))
        code, out, _ = run(capsys, "solve", SHIFT6, "--param", str(param))
        assert code == EXIT_INVALID
        assert "InvalidParameter" in json.loads(out)["error"]

    @pytest.mark.parametrize("kind", ["param", "solution", "system"])
    def test_malformed_auxiliary_file_exits_two(self, capsys, tmp_path, kind):
        # json reads NaN literals; a negative order has no coefficient to hold
        nan = matrix_to_json([[float("nan")]])
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

    def test_verify_accepts_central_solution(self, capsys, tmp_path):
        _, out, _ = run(capsys, "central", RELAXED, "--order", "16")
        solution = tmp_path / "h.json"
        solution.write_text(out)
        code, out, _ = run(capsys, "verify", RELAXED, "--solution", str(solution))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["interp_ok"] and payload["ball_ok"]
        assert payload["lifting"]["projection_ok"] and payload["lifting"]["intertwine_ok"]

    def test_verify_rejects_zero_series(self, capsys, tmp_path):
        zero = {
            "order": 4, "out_dim": 1, "in_dim": 4,
            "coeffs": [matrix_to_json(np.zeros((1, 4)))] * 5,
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
            "A": matrix_to_json([[0.5]]), "B": matrix_to_json([[root]]),
            "C": matrix_to_json([[root]]), "D": matrix_to_json([[-0.5]]),
        }
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "audit", RELAXED, "--order", "8", "--system", str(system))
        assert code == EXIT_OK
        assert float(json.loads(out)["st_identity"]) < 1e-10

    def test_audit_flags_broken_system(self, capsys, tmp_path):
        doc = {k: matrix_to_json(np.eye(2)) for k in ("A", "B", "C", "D")}
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "audit", RELAXED, "--order", "6", "--system", str(system))
        assert code == EXIT_INVALID
        assert float(json.loads(out)["st_identity"]) > 1.0


class TestToleranceOverrides:
    def test_env_var_loosens_identity_tolerance(self, capsys, tmp_path, monkeypatch):
        doc = {
            "A": matrix_to_json(np.eye(1)),
            "Tprime": matrix_to_json(0.999 * np.eye(1)),
            "R": matrix_to_json(np.eye(1)),
            "Q": matrix_to_json(np.eye(1)),
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
            "u_dim": u, "y_dim": y, "F_basis": matrix_to_json(basis),
            "omega1": matrix_to_json(stacked[:y]), "omega2": matrix_to_json(stacked[y:]),
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
        r = redheffer.realize(pf.problem(), pf.tol)
        value = np.zeros((r.defect_dim, r.complement_dim))
        value[0, 0] = 1.0 + 1e-8
        param = tmp_path / "param.json"
        param.write_text(json.dumps({"coeffs": [matrix_to_json(value)]}))
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
