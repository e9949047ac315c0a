"""The comparison rules of ``tools/cli_corpus.py``, on hand-made runs."""

import importlib.util
import json
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"
_SPEC = importlib.util.spec_from_file_location("cli_corpus", _PATH)
cli_corpus = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_corpus)
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
