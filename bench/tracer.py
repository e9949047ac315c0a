"""Per-layer spans and counts, recorded from outside the library.

:meth:`Tracer.install` replaces the named public functions of each
``rclkit`` module by wrappers, in every ``rclkit`` namespace that binds
them, so calls between modules are seen too. Each wrapper opens a span;
a span's self time is its duration minus that of its child spans. Counts
(calls, matrix products implied by series orders, bytes of spectral-norm
input, witness search outcomes) are exact and repeat run to run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Wrapped functions per module. Names in ``DECODE``/``ENCODE`` are grouped
#: into the ``cli.decode``/``cli.encode`` metrics.
TRACED = {
    "opcore": ["spectral_norm", "defect", "range_closure_basis"],
    "series": ["mul", "inv"],
    "interp": ["central_taylor", "uniqueness", "is_solution", "second_solution_witness"],
    "redheffer": ["realize", "phi_eval", "lft_solution", "phi_taylor",
                  "truncated_coefficient_matrix", "coefficient_matrix_audit"],
    "dataset": ["validate", "underlying_contraction"],
    "sysco": ["stacked_operator", "gram_identity_audit"],
    "lifting": ["build_lifting", "interpolant_from_solution", "verify_rclt"],
    "cli": ["main", "load_problem_file", "parse_series", "_load_parameter", "parse_matrix",
            "matrix_to_json", "series_to_json", "problem_to_json", "_dump_json"],
}
DECODE = ("cli.load_problem_file", "cli.parse_series", "cli._load_parameter", "cli.parse_matrix", "cli.json.load")
RECURSIVE = ("_dump_json",)
ENCODE = ("cli.matrix_to_json", "cli.series_to_json", "cli.problem_to_json", "cli._dump_json", "cli.main")

#: Per-layer metrics and units, in the order they are printed.
LAYER_METRICS = {
    "opcore.spectral_norm.calls": "count",
    "opcore.spectral_norm.self_ms": "ms",
    "opcore.spectral_norm.input_mb": "MB",
    "opcore.defect.self_ms": "ms",
    "opcore.range_closure_basis.self_ms": "ms",
    "series.mul.calls": "count",
    "series.mul.self_ms": "ms",
    "series.inv.self_ms": "ms",
    "series.coeff_products": "count",
    "interp.central_taylor.self_ms": "ms",
    "interp.uniqueness.self_ms": "ms",
    "interp.is_solution.self_ms": "ms",
    "interp.second_solution_witness.self_ms": "ms",
    "interp.witness.lft_calls": "count",
    "interp.witness.found_per_lft_call": "ratio",
    "interp.witness.fallbacks": "count",
    "redheffer.realize.self_ms": "ms",
    "redheffer.phi_eval.self_ms": "ms",
    "redheffer.lft_solution.self_ms": "ms",
    "redheffer.phi_taylor.self_ms": "ms",
    "redheffer.truncated_coefficient_matrix.self_ms": "ms",
    "redheffer.coefficient_matrix_audit.self_ms": "ms",
    "dataset.validate.self_ms": "ms",
    "dataset.underlying_contraction.self_ms": "ms",
    "sysco.stacked_operator.self_ms": "ms",
    "sysco.gram_identity_audit.self_ms": "ms",
    "lifting.build_lifting.self_ms": "ms",
    "lifting.interpolant_from_solution.self_ms": "ms",
    "lifting.verify_rclt.self_ms": "ms",
    "cli.decode.self_ms": "ms",
    "cli.encode.self_ms": "ms",
    "cli.stdout_mb": "MB",
    "cli.import_ms": "ms",
}

WITNESS = "interp.second_solution_witness"


def _mul_products(a, b, order) -> int:
    """Matrix products in a Cauchy product truncated at ``order``."""
    return sum(max(0, min(n, a.order) - max(0, n - b.order) + 1) for n in range(order + 1))


def _inv_products(a, order) -> int:
    """Matrix products in a series inverse: the convolution plus one solve-product per order."""
    return sum(min(n, a.order) + 1 for n in range(1, order + 1))


class _Span:
    __slots__ = ("name", "child_s", "lfts_since_phi", "fell_back")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.lfts_since_phi = 0
        self.fell_back = False


class Tracer:
    """Spans and counters for one process; :meth:`take` empties them per round."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def _wrap(self, name, fn, home=None):
        """Wrap ``fn``; for a recursive function ``home`` is its module, whose
        binding points at ``fn`` during the outermost call so that inner
        calls run unwrapped."""
        stack, self_s, counts = self.stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            if home is not None:
                setattr(home, fn.__name__, fn)
            parent = stack[-1] if stack else None
            self._count(name, parent, args)
            span = _Span(name)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - span.child_s
                if parent is not None:
                    parent.child_s += elapsed
                if home is not None:
                    setattr(home, fn.__name__, wrapper)
            if name == WITNESS and result is not None:
                counts["witness.found"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, parent, args):
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "opcore.spectral_norm":
            counts["spectral_norm.bytes"] += 16 * int(np.prod(np.shape(args[0])))
        elif name == "series.mul":
            counts["series.coeff_products"] += _mul_products(*args[:3])
        elif name == "series.inv":
            counts["series.coeff_products"] += _inv_products(*args[:2])
        elif parent is not None and parent.name == WITNESS:
            # The grid search tries at most one candidate per evaluation of
            # phi; a second candidate since the last one comes from the
            # random fallback.
            if name == "redheffer.phi_eval":
                parent.lfts_since_phi = 0
            elif name == "redheffer.lft_solution":
                counts["witness.lft_calls"] += 1
                parent.lfts_since_phi += 1
                if parent.lfts_since_phi > 1 and not parent.fell_back:
                    parent.fell_back = True
                    counts["witness.fallbacks"] += 1

    def install(self, package) -> None:
        """Wrap ``TRACED`` in every loaded ``rclkit`` module namespace."""
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for short, names in TRACED.items():
            home = sys.modules[f"{package.__name__}.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original, home if name in RECURSIVE else None)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        cli = sys.modules[f"{package.__name__}.cli"]
        cli.json = _JsonProxy(self._wrap("cli.json.load", json.load))

    def take(self) -> tuple[dict, dict]:
        """Self times (s) and counts since the last call."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out


class _JsonProxy:
    """Stands in for the ``json`` module inside ``rclkit.cli`` so reading a
    file is timed as decoding; everything else passes through."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, name):
        return getattr(json, name)


def layer_metrics(self_s: dict, counts: dict, stdout_bytes: int) -> dict:
    """One round's per-layer values, named as in ``LAYER_METRICS`` (without ``cli.import_ms``)."""
    out = {}
    for key in LAYER_METRICS:
        if key.endswith(".self_ms"):
            out[key] = 1e3 * self_s.get(key[: -len(".self_ms")], 0.0)
    out["opcore.spectral_norm.calls"] = counts.get("opcore.spectral_norm.calls", 0)
    out["opcore.spectral_norm.input_mb"] = counts.get("spectral_norm.bytes", 0) / 1e6
    out["series.mul.calls"] = counts.get("series.mul.calls", 0)
    out["series.coeff_products"] = counts.get("series.coeff_products", 0)
    lft = counts.get("witness.lft_calls", 0)
    out["interp.witness.lft_calls"] = lft
    out["interp.witness.found_per_lft_call"] = counts.get("witness.found", 0) / lft if lft else 0.0
    out["interp.witness.fallbacks"] = counts.get("witness.fallbacks", 0)
    out["cli.decode.self_ms"] = 1e3 * sum(self_s.get(k, 0.0) for k in DECODE)
    out["cli.encode.self_ms"] = 1e3 * sum(self_s.get(k, 0.0) for k in ENCODE)
    out["cli.stdout_mb"] = stdout_bytes / 1e6
    return out
