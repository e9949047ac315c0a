"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload {family,audit,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/rclkit``. With
``--trace 0`` the timed rounds run untraced and the end-to-end metrics are
printed; ``setup_s`` is the median over several fresh set-ups. With
``--trace 1`` a separate traced worker gives the per-layer metrics. A
run-info line precedes the result, which is always the last line of
standard output. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("family", "audit", "cli")
#: Set-up-only processes per run, besides the measuring worker itself.
SETUP_PROBES = 4
#: Interpreter starts per side when timing the import of ``rclkit.cli``.
IMPORT_PROBES = 5
#: Allowance, besides ``--seconds``, for the set-up probes, the warm-up and
#: last rounds, the oracle checks and the import probes.
MARGIN_S = 120


def worker_env() -> dict:
    """Environment of every child: BLAS on one thread, no bytecode writes, no tolerance override."""
    env = dict(os.environ)
    env.pop("RCLKIT_TOL", None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.path.join(ROOT, "src"),
    })
    return env


def spawn(args, env, deadline) -> dict:
    """Run the worker and return the JSON object on its last line of output."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *args, "--t0", repr(t0)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def import_ms(env, deadline) -> float:
    """Median fresh-interpreter time to import ``rclkit.cli`` minus a bare start, in ms."""
    def timed(code):
        samples = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    return 1e3 * (timed("import rclkit.cli") - timed("pass"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rclkit", "__init__.py")):
        print(f"bench: no rclkit sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    deadline = time.monotonic() + args.seconds + MARGIN_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            sys.path.insert(0, HERE)
            from tracer import LAYER_METRICS as units

            res = spawn(common + ["--seconds", str(args.seconds), "--trace", "1"], env, deadline)
            layers = dict(res["layers"], **{"cli.import_ms": import_ms(env, deadline)})
            metrics = {k: layers[k] for k in units}
        else:
            setups = [spawn(common + ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            res = spawn(common + ["--seconds", str(args.seconds)], env, deadline)
            setups.append(res["setup_s"])
            metrics = {
                "ops_per_s": res["ops_per_s"],
                "op_geomean_ms": res["op_geomean_ms"],
                "peak_rss_mb": res["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            units = {"ops_per_s": "ops/s", "op_geomean_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    except (RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    run_info = {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "per_kind": res["per_kind"],
        "kind_median_ms": res["kind_median_ms"],
        "round_s": res["round_s"],
        "errors": res["errors"],
    }
    if args.trace:
        run_info["traced_ops_per_s"] = res["ops_per_s"]
    else:
        run_info["setup_s_samples"] = setups
    print(json.dumps({"run_info": run_info}))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
