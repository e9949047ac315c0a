"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with BLAS pinned to one thread. The worker imports
``rclkit`` from the checkout's ``src``, builds its inputs from the seed,
runs one untimed warm-up round, then times whole rounds until ``--seconds``
have passed. Each operation is timed alone. Outside the timing, every
result that differs from all results of its operation seen before is
checked against the oracles in a forked child, so neither the oracles'
memory nor their calls into the library reach this process's peak RSS or
its traced spans. The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch files of a run live here and are removed when it ends.
WORK = os.path.join(ROOT, ".bench_work")


def import_rclkit():
    """Import the library from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import rclkit
    import rclkit.cli  # noqa: F401  (loaded before tracing so it can be wrapped)

    if not os.path.abspath(rclkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rclkit was imported from {rclkit.__file__}, not from {SRC}")
    return rclkit


def blas_info() -> dict:
    """BLAS name and version from numpy's build, and its live thread count."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


class WrongOutput(Exception):
    """A result failed its oracle."""


def check_apart(op, result) -> bool:
    """Run ``op.check(result)`` in a forked child and wait for it. Returns
    whether the result is the known failure; raises :class:`WrongOutput`
    when the oracle rejects it."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                outcome = "known failure" if op.check(result) else "pass"
            except BaseException as exc:  # reported to the parent, never raised here
                outcome = f"{type(exc).__name__}: {exc}"
            with os.fdopen(w, "w", encoding="utf-8") as fh:
                fh.write(outcome)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, encoding="utf-8") as fh:
        outcome = fh.read()
    os.waitpid(pid, 0)
    if outcome not in ("pass", "known failure"):
        raise WrongOutput(outcome or "the checking process ended without an outcome")
    return outcome == "known failure"


def run_round(ops, tally, errors):
    """Run every operation once; return per-op ``(kind, seconds)`` and the
    stdout bytes of CLI operations. ``tally[kind]`` counts attempted and
    failed operations; an unexpected exception or a wrong output goes into
    ``errors``, which makes the run incorrect."""
    from workloads import CliResult

    timings, out_bytes = [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation fails; the run goes on and reports it
            timings.append((op.kind, time.perf_counter() - t0))
            tally[op.kind][0] += 1
            tally[op.kind][1] += 1
            errors.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            continue
        timings.append((op.kind, time.perf_counter() - t0))
        tally[op.kind][0] += 1
        if isinstance(result, CliResult):
            out_bytes += len(result.out)
        try:
            key = op.digest(result)
            if key not in op.passed:
                op.passed[key] = check_apart(op, result)
            tally[op.kind][1] += op.passed[key]
        except Exception as exc:  # a rejected, unreadable or undigestible output is wrong
            errors.append(f"{op.kind}: wrong output: {type(exc).__name__}: {exc}")
    return timings, out_bytes


def summarize(rounds) -> dict:
    """End-to-end metrics over whole rounds: medians and rates, never mixed-kind percentiles."""
    round_s = [sum(t for _, t in r) for r in rounds]
    per_kind = defaultdict(list)
    for r in rounds:
        acc = defaultdict(list)
        for kind, t in r:
            acc[kind].append(t)
        for kind, ts in acc.items():
            per_kind[kind].append(1e3 * sum(ts) / len(ts))
    kind_ms = {k: statistics.median(v) for k, v in per_kind.items()}
    return {
        "ops_per_s": len(rounds[0]) / statistics.median(round_s),
        "op_geomean_ms": math.exp(statistics.fmean(math.log(v) for v in kind_ms.values())),
        "kind_median_ms": kind_ms,
        "round_s": round_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true", help="stop after building the inputs")
    args = ap.parse_args(argv)

    import numpy as np

    rclkit = import_rclkit()
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops = workloads.WORKLOADS[args.workload](rclkit, np.random.default_rng(args.seed), workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            tracer.install(rclkit)
        tally, errors = defaultdict(lambda: [0, 0]), []
        run_round(ops, defaultdict(lambda: [0, 0]), errors)          # warm-up, untimed
        if tracer:
            tracer.take()
        gc.collect()
        gc.freeze()

        rounds, layers = [], []
        t_begin = time.perf_counter()
        while True:
            timings, out_bytes = run_round(ops, tally, errors)
            rounds.append(timings)
            if tracer:
                layers.append(tr.layer_metrics(*tracer.take(), out_bytes))
            if time.perf_counter() - t_begin >= args.seconds:
                break

        result = summarize(rounds)
        result.update({
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct": not errors,
            "attempted": sum(a for a, _ in tally.values()),
            "failed": sum(f for _, f in tally.values()),
            "per_kind": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(tally.items())},
            "rounds": len(rounds),
            "errors": sorted(set(errors))[:20],
            "blas": blas_info(),
            "numpy": np.__version__,
        })
        if layers:
            result["layers"] = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
