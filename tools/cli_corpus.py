"""Run every CLI command over a fixed corpus in two checkouts and compare.

    python tools/cli_corpus.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT

The corpus is the bundled examples of the change checkout plus seeded
data-set and direct-form files written with ``bench/problems.py`` (imported
read-only from the checkout that holds this script): random data sets at
three sizes, direct-form problems at the three benchmark sizes, the
degenerate regimes ``y = 0``, ``F = U``, ``F = {0}`` and zero adjoint
defect, a shift chain, a file whose stacked norm ``1 + 1e-8`` only its
own ``contraction_slack`` admits, and a file of edge values for the
encoder (see :func:`edge_value_problem`). For the decoder, each seeded
file comes a second time as ``json.dumps(doc, indent=1)`` (newlines and
spaces inside the matrices) and a third time as the change checkout's
``omega`` output (``%.16e`` text), and one hand-written direct-form file
holds integer entries and the exponent forms ``E``, ``e+0`` and ``e-05``
(see ``NUMBER_FORMS_FILE``). Per problem file it writes a
degree-0 and a degree-2 parameter, the order-128 central series (decoded
from the change checkout's ``central`` output) and a co-isometric and a
broken ``--system`` file, then runs ``validate`` (data sets), ``omega``,
``central``, ``unique`` (with and without ``--witness``), ``solve``,
``verify`` and ``audit`` at several orders. Every run is a fresh
``python -m rclkit.cli`` with one BLAS thread and ``RCLKIT_TOL`` removed.

The report gives the number of byte-identical runs (exit code, stdout and
stderr), every floating-point JSON field that moved with its largest
absolute change, and every difference in exit code, stderr or any other
field (verdicts, flags, integers such as ``failing_n``, structure). The
exit status is 1 when there is such a difference, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "bench_problems", Path(__file__).resolve().parents[1] / "bench" / "problems.py")
pb = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pb)

SEED = 20260101
#: ``(dim H0, dim H, dim H')`` of the seeded data sets.
DATASET_SIZES = {"ds_s": (5, 8, 2), "ds_m": (20, 32, 4), "ds_w": (6, 10, 3)}
#: ``(u, y, dim F)`` of the seeded direct-form problems.
DIRECT_SIZES = {"direct_s": (8, 2, 5), "direct_m": (32, 4, 20), "direct_l": (64, 8, 40),
                "direct_y0": (8, 0, 5), "direct_fu": (8, 2, 8), "direct_f0": (8, 2, 0)}


@dataclass(frozen=True)
class Run:
    code: int
    out: str
    err: str


def run_cli(checkout: Path, argv: list[str]) -> Run:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("RCLKIT_TOL", None)
    proc = subprocess.run([sys.executable, "-m", "rclkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return Run(proc.returncode, proc.stdout, proc.stderr)


def adjoint_defect_dim(p: pb.Prob) -> int:
    """Rank of ``I - w w*`` at the library's default ``rank_tol`` cut."""
    omega = np.vstack([p.w1, p.w2])
    mu = np.linalg.eigvalsh(np.eye(p.y + p.u) - omega @ omega.conj().T)
    return int(np.sum(mu > 1e-10 * max(1.0, float(mu.max(initial=1.0)))))


def edge_value_problem() -> pb.Prob:
    """A direct-form problem, stacked norm below 0.3, whose entries reach
    every branch of the CLI's float encoder: ``±0.0``, powers of ten and
    their neighbours, magnitudes below ``1e-99`` (formatted by ``%.16e``
    itself), ``1e-99`` and its neighbours, and exact ties of 17-digit
    rounding (``x 10^(16 - E)`` a half-integer)."""
    def up(x):
        return float(np.nextafter(x, np.inf))

    def down(x):
        return float(np.nextafter(x, -np.inf))

    # 0.100009918212890625 rounds down to even, -0.0100002288818359375 up
    tie, small_tie = 26217 / 2 ** 18, -5243 / 2 ** 19
    basis = [[complex(1.0, -0.0), complex(0.0, 0.0)],
             [complex(-0.0, 0.0), complex(1.0, 0.0)],
             [complex(0.0, -0.0), complex(-0.0, -0.0)]]
    omega1 = [[complex(0.1, -1e-100), complex(up(0.1), 5e-324)]]
    omega2 = [[complex(1e-2, -0.0), complex(down(1e-2), 1e-300)],
              [complex(tie, small_tie), complex(-1e-99, down(1e-99))],
              [complex(-1e-5, up(1e-5)), complex(down(-1e-99), up(1e-99))]]
    return pb.Prob(3, 1, *(np.array(m, dtype=np.complex128) for m in (basis, omega1, omega2)))


#: A direct-form file, stacked norm below 0.5, whose matrices hold integer
#: entries, the exponent forms ``E``, ``e+0`` and ``e-05``, and ``-0.0``.
NUMBER_FORMS_FILE = (
    '{"omega": {"u_dim": 3, "y_dim": 1, '
    '"F_basis": [[[1, 0], [0, -0.0]], [[0, 0], [1.0, 0]], [[0.0, -0.0], [-0, 0E0]]], '
    '"omega1": [[[1E-1, 0e+0], [2.5e-05, -0.0]]], '
    '"omega2": [[[-1.25E-1, 3e-2], [0, 0]], [[0.0625, -0.0], [1e-05, -2E-3]], '
    '[[-0.0, 0.1e+0], [3.0e-1, 0]]]}}'
)


def build_corpus(change: Path, workdir: Path) -> list[list[str]]:
    """Write the corpus into ``workdir``; return the argv of every command."""
    rng = np.random.default_rng(SEED)
    files: dict[str, Path] = {}
    for name, dims in DATASET_SIZES.items():
        files[name] = workdir / f"{name}.json"
        pb.write_json(files[name], pb.dataset_doc(pb.random_dataset(rng, *dims)))
    problems = {name: pb.random_problem(rng, *dims) for name, dims in DIRECT_SIZES.items()}
    problems["direct_zd"] = pb.coisometric_problem(rng, 8)
    problems["direct_chain"] = pb.shift_chain_problem(rng, 12, 2, 8)
    for name, p in problems.items():
        files[name] = workdir / f"{name}.json"
        pb.write_json(files[name], pb.problem_doc(p))
    slack = pb.random_problem(np.random.default_rng(20081), 8, 2, 5, norm=1.0 + 1e-8)
    files["slack"] = workdir / "slack.json"
    pb.write_json(files["slack"], pb.problem_doc(slack, tolerances={"contraction_slack": 1e-6}))
    for example in sorted((change / "src" / "rclkit" / "examples").glob("*.json")):
        files[example.stem] = workdir / example.name
        shutil.copyfile(example, files[example.stem])
    files["direct_edge"] = workdir / "direct_edge.json"
    pb.write_json(files["direct_edge"], pb.problem_doc(edge_value_problem()))
    # every number layout the decoder meets: newlines and spaces inside the
    # matrices, the CLI's own %.16e text, and integers and exponent forms
    for name in [*DATASET_SIZES, *DIRECT_SIZES]:
        doc = json.loads(files[name].read_text(encoding="utf-8"))
        files[f"{name}_indent"] = workdir / f"{name}_indent.json"
        files[f"{name}_indent"].write_text(json.dumps(doc, indent=1), encoding="utf-8")
        omega = run_cli(change, ["omega", str(files[name])])
        if omega.code != 0:
            raise SystemExit(f"omega of {name}.json failed in the change checkout: {omega.err or omega.out}")
        files[f"{name}_omega"] = workdir / f"{name}_omega.json"
        files[f"{name}_omega"].write_text(omega.out, encoding="utf-8")
    files["direct_forms"] = workdir / "direct_forms.json"
    files["direct_forms"].write_text(NUMBER_FORMS_FILE, encoding="utf-8")

    commands = []
    for name, path in files.items():
        dataset_form = "omega" not in json.loads(path.read_text(encoding="utf-8"))
        omega = run_cli(change, ["omega", str(path)])
        if omega.code != 0:
            raise SystemExit(f"omega of {path.name} failed in the change checkout: {omega.err or omega.out}")
        p = pb.parse_problem(json.loads(omega.out))
        d, g = adjoint_defect_dim(p), p.u - p.f
        params = {}
        for degree, coeffs in ((0, [pb.contraction(rng, d, g, 0.5)]), (2, pb.schur_polynomial(rng, d, g, 2, 0.8))):
            params[degree] = workdir / f"{name}.param{degree}.json"
            pb.write_json(params[degree], {"coeffs": [pb.mat_json(c) for c in coeffs]})
        solution = workdir / f"{name}.series.json"
        central = run_cli(change, ["central", str(path), "--order", "128"])
        solution.write_text(central.out, encoding="utf-8")
        blocks = pb.julia_blocks(pb.contraction(rng, 8, 8, 0.9))
        systems = {"ok": blocks, "broken": (1.1 * blocks[0], *blocks[1:])}
        for kind, system in systems.items():
            pb.write_json(workdir / f"{name}.system_{kind}.json", dict(zip("ABCD", map(pb.mat_json, system))))

        f = str(path)
        if dataset_form:
            commands.append(["validate", f])
        commands += [["omega", f], ["central", f, "--order", "32"], ["central", f, "--order", "128"],
                     ["unique", f], ["unique", f, "--witness"], ["unique", f, "--witness", "--order", "128"]]
        commands += [["solve", f, "--param", str(params[deg]), "--order", order]
                     for deg in (0, 2) for order in ("32", "128")]
        commands.append(["verify", f, "--solution", str(solution)])
        if dataset_form:
            commands.append(["verify", f, "--solution", str(solution), "--lifting-blocks", "4"])
        commands += [["audit", f], ["audit", f, "--order", "32"]]
        commands += [["audit", f, "--system", str(workdir / f"{name}.system_{kind}.json")] for kind in systems]
    return commands


@dataclass
class Report:
    runs: int = 0
    identical: int = 0
    #: field path -> [runs moved, largest change, argv of the largest]
    moved: dict = field(default_factory=dict)
    differences: list = field(default_factory=list)


def leaves(doc, path=""):
    """``(path, value)`` for every leaf of a JSON document; list indices are
    dropped from the path, so a matrix is one field."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from leaves(value, path)
    else:
        yield path, doc


def compare(report: Report, argv: list[str], parent: Run, change: Run) -> None:
    report.runs += 1
    if parent == change:
        report.identical += 1
        return
    where = " ".join(Path(a).name if os.sep in a else a for a in argv)
    if parent.code != change.code:
        report.differences.append(f"{where}: exit code {parent.code} -> {change.code}")
    if parent.err != change.err:
        report.differences.append(f"{where}: stderr {parent.err.strip()!r} -> {change.err.strip()!r}")
    if parent.out == change.out:
        return
    try:
        before, after = list(leaves(json.loads(parent.out))), list(leaves(json.loads(change.out)))
    except json.JSONDecodeError:
        report.differences.append(f"{where}: stdout is not JSON and differs")
        return
    if [p for p, _ in before] != [p for p, _ in after]:
        report.differences.append(f"{where}: the JSON structure differs")
        return
    changes: dict[str, float] = {}
    for (path, x), (_, y) in zip(before, after):
        if x == y:
            continue
        if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and math.isfinite(y):
            changes[path] = max(changes.get(path, 0.0), abs(y - x))
        else:
            report.differences.append(f"{where}: {path} {x!r} -> {y!r}")
    for path, change_size in changes.items():
        entry = report.moved.setdefault(path, [0, 0.0, ""])
        entry[0] += 1
        if change_size > entry[1]:
            entry[1], entry[2] = change_size, where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workdir", type=Path, help="directory for the corpus (default: a temporary one)")
    args = parser.parse_args(argv)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="cli_corpus_"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = build_corpus(args.change.resolve(), workdir)
        report = Report()
        for command in commands:
            compare(report, command, run_cli(args.parent.resolve(), command), run_cli(args.change.resolve(), command))
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir)
    print(f"{report.identical} of {report.runs} runs byte-identical")
    for path, (runs, largest, where) in sorted(report.moved.items()):
        print(f"moved: {path}: {runs} runs, largest change {largest:.2g} ({where})")
    for line in report.differences:
        print(f"differs: {line}")
    return 1 if report.differences else 0


if __name__ == "__main__":
    sys.exit(main())
