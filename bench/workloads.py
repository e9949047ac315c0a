"""The three workloads: their inputs from one seed and their fixed round of operations.

A round is a list of :class:`Op` run in the listed order, with operation
kinds interleaved. ``Op.run`` is the timed call into the library;
``Op.check`` puts its result through the oracles and returns ``True`` only
for the one known failure (see :func:`cli`). ``Op.digest`` names a result
byte for byte: a result identical to one that already passed its oracle is
not checked again, which keeps the untimed share of a round small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as orc
import problems as pb
from problems import Prob

CENTRAL_ORDER = 128
LFT_CONST_ORDER = 128
LFT_POLY_ORDER = 32
WITNESS_ORDER = 32
LIFT_BLOCKS = 32
AUDIT_BLOCKS = (8, 32)
#: ``(u, y, dim F)`` of the three generic problem sizes.
SIZES = {"s": (8, 2, 5), "m": (32, 4, 20), "l": (64, 8, 40)}
#: Known fault: a file whose ``contraction_slack`` admits its norm is still
#: checked against the constructor's fixed 1e-10 slack and exits 2.
SLACK_FAULT = "exceeds 1 + slack"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool | None]
    digest: Callable[[Any], bytes]
    #: digest -> check outcome, for results that already passed
    passed: dict = field(default_factory=dict)


def _h(*parts) -> bytes:
    m = hashlib.blake2b(digest_size=16)
    for p in parts:
        m.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return m.digest()


def coeffs_of(series) -> np.ndarray:
    return np.stack(series.coeffs)


def prob_of(rp) -> Prob:
    """Plain arrays of a library ``InterpProblem``."""
    return Prob(rp.u_dim, rp.y_dim, rp.F.basis, rp.omega1, rp.omega2)


def to_rk(rk, p: Prob):
    return rk.InterpProblem(p.u, p.y, rk.SubspaceBasis(p.u, p.Fb), p.w1, p.w2)


def adjoint_defect_dim(p: Prob) -> int:
    omega = np.vstack([p.w1, p.w2])
    _, mu = orc.psd_root(np.eye(p.y + p.u) - omega @ omega.conj().T)
    return orc.psd_rank(mu)


def frame_of(realization, p: Prob) -> orc.Frame:
    return orc.frame(p, realization.G.basis, realization.DstarSpace.basis)


def lib_frame(rk, p: Prob) -> orc.Frame:
    """The library's coordinates for ``p``, validated by :func:`oracles.frame`."""
    return frame_of(rk.redheffer.realize(to_rk(rk, p)), p)


# ---------------------------------------------------------------------------
# family: solution generation in process.

def family(rk, rng, workdir) -> list[Op]:
    """Solution-family generation on the three sizes and the degenerate regimes."""
    probs = {name: pb.random_problem(rng, *dims) for name, dims in SIZES.items()}
    probs.update({
        "y0": pb.random_problem(rng, 8, 0, 5),
        "fu": pb.random_problem(rng, 8, 2, 8),
        "f0": pb.random_problem(rng, 8, 2, 0),
        "zd": pb.coisometric_problem(rng, 8),
        "chain": pb.shift_chain_problem(rng, 12, 2, 8),
    })
    data = pb.random_dataset(rng, 20, 32, 4)
    ops: list[Op] = []
    state: dict = {}
    for name, p in probs.items():
        rp = to_rk(rk, p)
        d, g = adjoint_defect_dim(p), p.u - p.f
        v_const = pb.contraction(rng, d, g, 0.5)
        v_poly = pb.schur_polynomial(rng, d, g, 3, 0.9)
        ops += _family_ops(rk, name, p, rp, v_const, v_poly, state)
    ops.append(_pipeline_op(rk, data))
    return ops


def _family_ops(rk, name, p, rp, v_const, v_poly, state) -> list[Op]:
    interp, red = rk.interp, rk.redheffer

    def uniqueness():
        return interp.uniqueness(rp)

    def central():
        return interp.central_taylor(rp, CENTRAL_ORDER)

    def lft_const():
        real = red.realize(rp)
        h = red.lft_solution(real, red.SchurParameter.constant(v_const), LFT_CONST_ORDER)
        state[name] = h
        return real, h

    def is_solution():
        h = state[name]
        return h, interp.is_solution(rp, h)

    def lft_poly():
        real = red.realize(rp)
        return real, red.lft_solution(real, red.SchurParameter(tuple(v_poly)), LFT_POLY_ORDER)

    def witness():
        return interp.second_solution_witness(rp, WITNESS_ORDER, 0)

    def check_is_solution(res):
        h, rep = res
        orc.check_is_solution(p, coeffs_of(h), rep.interp_ok, rep.ball_ok, rep.interp_residuals, rep.gram_excess)
        orc.require(rep.ok, "a constant-parameter solution failed verification")

    def check_witness(w):
        if w is None:
            orc.check_witness(None, p, None, None, None, None, WITNESS_ORDER)
        else:
            orc.check_witness(lib_frame(rk, p), p, w.parameter, coeffs_of(w.solution),
                              w.first_diff_index, w.gap, WITNESS_ORDER)

    def real_digest(res):
        real, h = res
        return _h(real.G.basis, real.DstarSpace.basis, coeffs_of(h))

    return [
        Op("uniqueness", uniqueness, lambda v: orc.check_uniqueness(p, v.kind.value, v.failing_n),
           lambda v: _h(v.kind.value, v.failing_n)),
        Op("central_taylor", central, lambda h: orc.check_central(p, coeffs_of(h), CENTRAL_ORDER),
           lambda h: _h(coeffs_of(h))),
        Op("lft_const", lft_const,
           lambda r: orc.check_lft(frame_of(r[0], p), [v_const], coeffs_of(r[1]), LFT_CONST_ORDER), real_digest),
        Op("is_solution", is_solution, check_is_solution,
           lambda r: _h(coeffs_of(r[0]), r[1].interp_ok, r[1].ball_ok, r[1].interp_residuals, r[1].gram_excess)),
        Op("lft_poly", lft_poly,
           lambda r: orc.check_lft(frame_of(r[0], p), v_poly, coeffs_of(r[1]), LFT_POLY_ORDER), real_digest),
        Op("witness", witness, check_witness,
           lambda w: _h(None) if w is None else _h(w.parameter, coeffs_of(w.solution), w.first_diff_index, w.gap)),
    ]


def _pipeline_op(rk, data: pb.DS) -> Op:
    rd = rk.DataSet(*data)

    def pipeline():
        problem = rk.dataset.underlying_contraction(rd)
        h = rk.interp.central_taylor(problem, LIFT_BLOCKS - 1)
        b = rk.lifting.interpolant_from_solution(rd, h, LIFT_BLOCKS)
        return problem, h, b, rk.lifting.verify_rclt(rd, b, LIFT_BLOCKS)

    def check(res):
        problem, h, b, rep = res
        p = prob_of(problem)
        orc.check_omega(data, p)
        orc.check_central(p, coeffs_of(h), LIFT_BLOCKS - 1)
        orc.check_lifting(data, b, LIFT_BLOCKS, rep.projection_ok, rep.intertwine_ok,
                          rep.retained_residuals, rep.boundary_residual)
        orc.require(rep.ok, "the lifting of the central solution failed verification")

    def digest(res):
        problem, h, b, rep = res
        p = prob_of(problem)
        return _h(p.Fb, p.w1, p.w2, coeffs_of(h), b, rep.projection_ok, rep.intertwine_ok,
                  rep.retained_residuals, rep.boundary_residual)

    return Op("pipeline", pipeline, check, digest)


# ---------------------------------------------------------------------------
# audit: block-Toeplitz Gram audits.

def audit(rk, rng, workdir) -> list[Op]:
    """Coefficient-operator audits on the three sizes and stacked Gram audits
    on Julia and random co-isometric systems, each at 8 and 32 blocks."""
    ops = []
    systems = [
        (8, 16, 4, 6),    # (Julia size, co-isometric state, output, input)
        (16, 24, 6, 8),
        (24, 32, 8, 10),
    ]
    for (name, dims), (n_julia, x, w, v) in zip(SIZES.items(), systems):
        p = pb.random_problem(rng, *dims)
        real = rk.redheffer.realize(to_rk(rk, p))
        t = pb.contraction(rng, n_julia, n_julia, 0.9)
        julia = rk.sysco.julia_system(t)
        blocks_c = pb.coisometric_blocks(rng, x, w, v)
        cois = rk.sysco.CoisometricSystem(*blocks_c)
        for blocks in AUDIT_BLOCKS:
            ops.append(_coef_audit_op(rk, real, p, blocks))
            ops.append(_gram_audit_op(rk, julia, pb.julia_blocks(t), blocks))
            ops.append(_gram_audit_op(rk, cois, blocks_c, blocks))
    return ops


def _coef_audit_op(rk, real, p, blocks) -> Op:
    def check(res):
        orc.require(res.blocks == blocks, f"audit ran {res.blocks} blocks, asked {blocks}")
        orc.check_deficiency(res.deficiency, orc.coefficient_deficiency(frame_of(real, p), blocks))

    return Op(f"coefficient_audit_{blocks}", lambda: rk.redheffer.coefficient_matrix_audit(real, blocks),
              check, lambda r: _h(r.blocks, r.deficiency))


def _gram_audit_op(rk, system, own_blocks, blocks) -> Op:
    def check(dev):
        orc.check_deficiency(dev, orc.system_deficiency(*own_blocks, blocks))

    return Op(f"gram_audit_{blocks}", lambda: rk.sysco.gram_identity_audit(system, blocks), check, lambda d: _h(d))


# ---------------------------------------------------------------------------
# cli: the command line, in process, over problem files.

@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(rk, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rk.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _payload(res: CliResult) -> dict:
    orc.require(res.code == 0, f"exit code {res.code}: {res.err.strip() or res.out.strip()[:200]}")
    return json.loads(res.out)


@dataclass
class CliFile:
    name: str
    path: str
    ref: Prob                    # problem in the library's coordinates
    data: pb.DS | None = None    # data-set form only
    direct: bool = True


def cli(rk, rng, workdir) -> list[Op]:
    """Every command over seeded data-set and direct-form files and the
    bundled examples, plus the known-failing contraction-slack file."""
    examples_dir = os.path.join(os.path.dirname(rk.__file__), "examples")

    def dataset_file(name, path, data):
        return CliFile(name, path, prob_of(rk.dataset.underlying_contraction(rk.DataSet(*data))), data, False)

    files = []
    for name, dims in (("ds_s", (5, 8, 2)), ("ds_m", (20, 32, 4))):
        data = pb.random_dataset(rng, *dims)
        path = os.path.join(workdir, f"{name}.json")
        pb.write_json(path, pb.dataset_doc(data))
        files.append(dataset_file(name, path, data))
    for name, dims in SIZES.items():
        p = pb.random_problem(rng, *dims)
        path = os.path.join(workdir, f"direct_{name}.json")
        pb.write_json(path, pb.problem_doc(p))
        files.append(CliFile(f"direct_{name}", path, p))
    for name in sorted(os.listdir(examples_dir)):
        path = os.path.join(examples_dir, name)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        files.append(CliFile(name, path, pb.parse_problem(doc)) if "omega" in doc
                     else dataset_file(name, path, pb.parse_dataset(doc)))

    ops = []
    for cf in files:
        extra = _cli_inputs(rng, workdir, cf)
        ops += _cli_ops(rk, cf, *extra)
        if cf.name == "direct_s":
            ops.append(_slack_op(rk, workdir))
    return ops


def _cli_inputs(rng, workdir, cf: CliFile):
    """Parameter, solution and system files for one problem file."""
    p = cf.ref
    v = pb.schur_polynomial(rng, adjoint_defect_dim(p), p.u - p.f, 2, 0.8)
    param = os.path.join(workdir, f"{cf.name}.param.json")
    pb.write_json(param, {"coeffs": [pb.mat_json(c) for c in v]})
    solution = os.path.join(workdir, f"{cf.name}.series.json")
    pb.write_json(solution, pb.series_doc(orc.central_coeffs(p, CENTRAL_ORDER)))
    blocks = pb.julia_blocks(pb.contraction(rng, 8, 8, 0.9))
    system = os.path.join(workdir, f"{cf.name}.system.json")
    pb.write_json(system, dict(zip("ABCD", (pb.mat_json(m) for m in blocks))))
    return v, param, solution, blocks, system


def _cli_ops(rk, cf: CliFile, v, param, solution, sys_blocks, system) -> list[Op]:
    p = cf.ref
    audit_blocks = 10        # the command's default --order

    def check_validate(res):
        doc = _payload(res)
        orc.require(doc == {"valid": True, "violations": []}, f"validate reported {doc}")
        orc.require(not orc.dataset_violations(cf.data), "own validation rejects the data set")

    def check_omega(res):
        got = pb.parse_problem(_payload(res))
        if cf.direct:
            same = got.u == p.u and got.y == p.y and all(
                np.array_equal(a, b) for a, b in zip(got[2:], p[2:]))
            orc.require(same, "omega output differs from the direct-form input")
        else:
            orc.check_omega(cf.data, got)
            orc.require(all(np.array_equal(a, b) for a, b in zip(got[2:], p[2:])),
                        "omega output differs from the in-process underlying contraction")

    def check_central(res):
        orc.check_central(p, pb.parse_series(_payload(res)), CENTRAL_ORDER)

    def check_unique(res):
        doc = _payload(res)
        orc.check_uniqueness(p, doc["verdict"], doc.get("failing_n"))
        w = doc.get("witness")
        if w is None:
            orc.check_witness(None, p, None, None, None, None, WITNESS_ORDER)
        else:
            par = pb.parse_mat(w["parameter"])
            orc.check_witness(lib_frame(rk, p), p, par, pb.parse_series(w["solution"]),
                              w["first_diff_index"], w["gap"], WITNESS_ORDER)

    def check_solve(res):
        orc.check_lft(lib_frame(rk, p), v, pb.parse_series(_payload(res)), LFT_POLY_ORDER)

    def check_verify(res):
        doc = _payload(res)
        with open(solution, encoding="utf-8") as fh:
            h = pb.parse_series(json.load(fh))
        own = [orc.norm2(h[0] @ p.Fb - p.w1)] + [orc.norm2(h[n + 1] @ p.Fb - h[n] @ p.w2) for n in range(len(h) - 1)]
        orc.require(doc["interp_ok"] and doc["ball_ok"], f"verify rejected a central solution: {doc}")
        orc.require(abs(doc["max_interp_residual"] - max(own)) <= 1e-12, "max recursion residual differs from own")
        orc.require(0.0 <= doc["gram_excess"] <= orc.IDENTITY_TOL, "Gram excess of a central solution is not roundoff")
        lift = doc.get("lifting")
        orc.require((lift is None) == cf.direct, "lifting report present exactly for data-set files")
        if lift is not None:
            orc.require(lift["blocks"] == LIFT_BLOCKS and lift["projection_ok"] and lift["intertwine_ok"],
                        f"lifting check rejected a central solution: {lift}")
            orc.require(max(lift["max_retained_residual"], lift["boundary_residual"]) <= orc.IDENTITY_TOL,
                        "lifting residuals of a central solution are not roundoff")

    def check_audit(res):
        doc = _payload(res)
        orc.require(doc["blocks"] == audit_blocks, f"audit ran {doc['blocks']} blocks")
        orc.check_deficiency(doc["redheffer_deficiency"], orc.coefficient_deficiency(lib_frame(rk, p), audit_blocks))
        orc.check_deficiency(doc["st_identity"], orc.system_deficiency(*sys_blocks, audit_blocks))

    commands = []
    if not cf.direct:
        commands.append(("validate", ["validate", cf.path], check_validate))
    commands += [
        ("omega", ["omega", cf.path], check_omega),
        ("central", ["central", cf.path, "--order", str(CENTRAL_ORDER)], check_central),
        ("unique", ["unique", cf.path, "--witness"], check_unique),
        ("solve", ["solve", cf.path, "--param", param, "--order", str(LFT_POLY_ORDER)], check_solve),
        ("verify", ["verify", cf.path, "--solution", solution], check_verify),
        ("audit", ["audit", cf.path, "--system", system], check_audit),
    ]
    return [Op(kind, lambda argv=argv: run_cli(rk, argv), check, _cli_digest) for kind, argv, check in commands]


def _cli_digest(res: CliResult) -> bytes:
    return _h(res.code, res.out, res.err)


def _slack_op(rk, workdir) -> Op:
    """``unique`` on a direct-form file with stacked norm ``1 + 1e-8`` whose
    ``"tolerances"`` allow ``1e-6``. Inputs do not depend on the seed."""
    p = pb.random_problem(np.random.default_rng(20081), 8, 2, 5, norm=1.0 + 1e-8)
    path = os.path.join(workdir, "slack.json")
    pb.write_json(path, pb.problem_doc(p, tolerances={"contraction_slack": 1e-6}))

    def check(res):
        if res.code == 2 and SLACK_FAULT in res.err:
            return True
        doc = _payload(res)
        orc.check_uniqueness(p, doc["verdict"], doc.get("failing_n"))
        return None

    return Op("unique", lambda: run_cli(rk, ["unique", path]), check, _cli_digest)


WORKLOADS = {"family": family, "audit": audit, "cli": cli}
