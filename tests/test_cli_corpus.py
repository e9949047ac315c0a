"""The comparison rules of ``tools/cli_corpus.py``, on hand-made runs."""

import json
from fractions import Fraction

import numpy as np

from helpers import load_cli_corpus

cli_corpus = load_cli_corpus()
Report, Run, compare = cli_corpus.Report, cli_corpus.Run, cli_corpus.compare

ARGV = ["unique", "corpus/direct_s.json", "--witness"]


def run(doc, code=0, err=""):
    return Run(code, json.dumps(doc), err)


def test_identical_runs_are_counted_and_nothing_else():
    report = Report()
    compare(report, ARGV, run({"verdict": "unique"}), run({"verdict": "unique"}))
    assert (report.runs, report.identical, report.moved, report.differences) == (1, 1, {}, [])


def test_a_moved_matrix_is_one_field_with_its_largest_change():
    report = Report()
    before = {"witness": {"gap": 0.5, "solution": {"coeffs": [[[1.0, 0.0], [2.0, 0.0]]]}}}
    after = {"witness": {"gap": 0.5, "solution": {"coeffs": [[[1.0, 1e-16], [2.0 + 4e-16, 0.0]]]}}}
    compare(report, ARGV, run(before), run(after))
    compare(report, ARGV, run(before), run(before))
    assert report.identical == 1 and report.differences == []
    assert report.moved == {"witness.solution.coeffs": [1, 4.440892098500626e-16, "unique direct_s.json --witness"]}


def test_verdicts_exit_codes_and_stderr_are_differences():
    report = Report()
    compare(report, ARGV, run({"verdict": "unique", "failing_n": 2}), run({"verdict": "not_unique", "failing_n": 3}))
    compare(report, ARGV, run({}, code=0), run({}, code=1, err="boom"))
    assert report.moved == {}
    assert report.differences == [
        "unique direct_s.json --witness: verdict 'unique' -> 'not_unique'",
        "unique direct_s.json --witness: failing_n 2 -> 3",
        "unique direct_s.json --witness: exit code 0 -> 1",
        "unique direct_s.json --witness: stderr '' -> 'boom'",
    ]


def test_edge_value_problem_reaches_every_encoder_branch():
    u, y, basis, omega1, omega2 = cli_corpus.edge_value_problem()
    assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-15)
    assert np.linalg.norm(np.vstack([omega1, omega2]), 2) < 0.3
    values = np.concatenate([m.view(np.float64).ravel() for m in (basis, omega1, omega2)]).tolist()
    assert any(x == 0 and str(x)[0] == "-" for x in values) and 0.0 in values
    assert {0.1, 1e-2, -1e-5, -1e-99} <= set(values)
    assert {float(np.nextafter(1e-99, 0)), float(np.nextafter(-1e-99, -1))} <= set(values)
    assert any(0 < abs(x) < 1e-99 for x in values)
    rounds = {}
    for x in values:
        e = int(np.floor(np.log10(abs(x)))) if x else 0
        scaled = Fraction(abs(x)) * Fraction(10) ** (16 - e)
        if scaled.denominator == 2:
            rounds[x] = int(scaled) % 2       # 0: the tie rounds down to even
    assert sorted(rounds.values()) == [0, 1]
