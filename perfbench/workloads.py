"""The three workloads: seeded inputs, oracle answers, timed operations.

`prepare(name, rng, workdir, lib)` does all set-up for a workload and
returns its seeded corpus, in the order the closed loop runs it, and its
reference operations. References have fixed inputs, the same for every
seed; the loop runs them as a pass between corpus operations at a fixed
share of the time (see run.py). Each operation has a timed `call` and an
untimed `check` that turns the call's output into an `Outcome` (problems
found plus the counters the report reads from outputs). `lib` is the
table of library entry points the benchmark calls; the traced run swaps
in wrapped entries.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import corpus
import oracles
from kkt_spectra import cli, criticality, problem, sosc

# corpus sizes (operations per cycle); a run that reaches the end of its
# corpus starts over from the first operation
SIZES = {"analyze-diag": 160, "classify-coupled": 160, "sweep": 4}

# every sweep passes the CLI's default solver seed: the jitter seed changes
# a sweep's cost by up to 2x, and some values make the user-problem sweep
# drop a schedule point (see README.md)
SWEEP_SEED = "42"

# sweep schedules: (kind, argv tail, points, theory order)
SWEEPS = (
    ("example2", ["--family", "example2", "--geo", "1e-2:1e-5:13"], 13, 2.0 / 3.0),
    ("example2-dir", None, 13, 2.0 / 3.0),
    ("example3", ["--family", "example3", "--geo", "1e-2:1e-6:13"], 13, 0.5),
    ("user", None, 5, None),
)


def library():
    """The library calls the benchmark makes; operations look them up at
    call time, so a traced run can swap in wrapped ones."""
    return SimpleNamespace(
        main=cli.main,
        kkt_point=problem.kkt_point,
        build_system=criticality.build_system,
        check_rcq=criticality.check_rcq,
        check_srcq=criticality.check_srcq,
        classify_multiplier=criticality.classify_multiplier,
        xpart_condition=criticality.xpart_condition,
    )


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    units: int = 1  # pairs, or certified schedule points for a sweep
    verdicts: int = 0
    undetermined: int = 0
    facts: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    corpus: list
    refs: list  # fixed-input operations, run as a pass between corpus operations


def run_cli(lib, argv):
    """In-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_doc(result):
    code, out, err = result
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.strip()[:200]}")
    return json.loads(out)


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _analyze_facts(doc):
    crit = doc["criticality"]
    soscy = doc["soscy"]
    stats = soscy.get("search_stats") or {}
    verdicts = (crit["tag"], soscy["verdict"])
    return Outcome(
        verdicts=2,
        undetermined=sum(v == "Undetermined" for v in verdicts),
        facts={
            "tag": crit["tag"],
            "certificate": crit["certificate"],
            "sosc_path": stats.get("path"),
            "sosc_starts": stats.get("starts", 0),
        },
    )


# ----------------------------------------------------------------------
# analyze-diag


def _family_op(lib, name):
    argv = ["analyze", "--family", name, "--format", "json"]

    def check(result):
        doc = _cli_doc(result)
        out = _analyze_facts(doc)
        out.problems = oracles.check_family(doc, name)
        return out

    return Op(name, lambda: run_cli(lib, argv), check)


def _diag_op(lib, kind, workdir, tag, prob, point, mu):
    ppath = os.path.join(workdir, f"problem-{tag}.json")
    xpath = os.path.join(workdir, f"point-{tag}.json")
    _write_json(ppath, prob)
    _write_json(xpath, point)
    pd = problem.problem_from_dict(prob)
    x = np.asarray(point["x"])
    Y = np.asarray(point["Y"])
    expected = criticality.classify_nlp(criticality.diagonal_reduction(pd), x, mu).tag
    argv = ["analyze", "--problem", ppath, "--point", xpath, "--format", "json"]

    def check(result):
        doc = _cli_doc(result)
        out = _analyze_facts(doc)
        member = form = None
        minimizer = doc["soscy"]["minimizer"]
        if doc["soscy"]["verdict"] == "SOSCy_fails" and minimizer is not None:
            member = sosc.critical_cone_x_membership(pd, x, Y, minimizer)["member"]
            if member:
                form = sosc.evaluate_second_order_form(pd, x, Y, minimizer)
        out.problems = oracles.check_analyze(doc, expected, member, form, sosc.TOL_POS)
        return out

    return Op(kind, lambda: run_cli(lib, argv), check)


def _analyze_diag(rng, workdir, lib, size):
    # n and p in 1..4, stratified: each size twice in a row, the first time
    # with the objective Hessian shifted to be positive definite
    grid = corpus.sizes(range(1, 5), range(1, 5))
    ops = []
    for i in range(size):
        n, p = grid[(i // 2) % len(grid)]
        prob, point, mu = corpus.diag_pair(rng, n, p, pd_quad=i % 2 == 0)
        ops.append(_diag_op(lib, "pair", workdir, i, prob, point, mu))
    # references: both families, and a fixed pair whose SOSC check takes the
    # projected-gradient search (about 0.13 s)
    ref = corpus.diag_pair(np.random.default_rng(7), 2, 3, min_degenerate=2)
    refs = [_family_op(lib, "example2"), _family_op(lib, "example3"), _diag_op(lib, "ref-pair", workdir, "ref", *ref)]
    return Workload(ops, refs)


# ----------------------------------------------------------------------
# classify-coupled


def _classify_op(lib, kind, prob, point, expected):
    pd = problem.problem_from_dict(prob)
    x = np.asarray(point["x"])
    Y = np.asarray(point["Y"])

    def call():
        system = lib.build_system(pd, lib.kkt_point(pd, x, Y))
        lib.check_rcq(pd, x)
        lib.check_srcq(pd, x, Y)
        verdict = lib.classify_multiplier(system)
        lib.xpart_condition(system)
        return system, verdict

    def check(result):
        system, verdict = result
        res = None
        if verdict.witness is not None:
            res = criticality.witness_residual(system, *verdict.witness)
        return Outcome(
            problems=oracles.check_classification(verdict.tag, expected, res),
            verdicts=1,
            undetermined=int(verdict.tag == "Undetermined"),
            facts={"tag": verdict.tag, "certificate": verdict.certificate},
        )

    return Op(kind, call, check)


def _rotated_op(lib, kind, rng, n, p):
    prob, point, base, base_point, mu = corpus.rotated_pair(rng, n, p)
    base_pd = problem.problem_from_dict(base)
    expected = criticality.classify_nlp(
        criticality.diagonal_reduction(base_pd), np.asarray(base_point["x"]), mu
    ).tag
    return _classify_op(lib, kind, prob, point, expected)


def _classify_coupled(rng, workdir, lib, size):
    # alternate rotated (n in 1..4, p in 2..6) and coupled (n in 4..6,
    # p in 3..6) pairs, each side stratified over its sizes
    rotated_sizes = corpus.sizes(range(1, 5), range(2, 7))
    coupled_sizes = corpus.sizes(range(4, 7), range(3, 7))
    ops = []
    for i in range(size):
        if i % 2 == 0:
            n, p = rotated_sizes[(i // 2) % len(rotated_sizes)]
            ops.append(_rotated_op(lib, "rotated", rng, n, p))
        else:
            n, p = coupled_sizes[(i // 2) % len(coupled_sizes)]
            ops.append(_classify_op(lib, "coupled", *corpus.coupled_pair(rng, n, p), None))
    # references: one fixed pair of each half (about 0.3 s and 0.15 s)
    refs = [
        _rotated_op(lib, "ref-rotated", np.random.default_rng(3), 2, 4),
        _classify_op(lib, "ref-coupled", *corpus.coupled_pair(np.random.default_rng(3), 4, 4), None),
    ]
    return Workload(ops, refs)


# ----------------------------------------------------------------------
# sweep


def example3_drift(t):
    """Closed-form |x(t) - xbar| on the example3 path x(t) = (2, 1) sqrt(t/3)."""
    return math.sqrt(5.0 * t / 3.0)


def _sweep_op(lib, kind, tail, points, theory, reference=None):
    argv = ["perturb"] + tail + ["--format", "json", "--seed", SWEEP_SEED]

    def check(result):
        doc = _cli_doc(result)
        samples = doc["samples"]
        facts = {"roots": len(samples), "newton_iters": sum(s["newton_iters"] for s in samples)}
        if theory is not None:
            facts["exponent_err"] = oracles.exponent_error(doc, theory)
        return Outcome(
            problems=oracles.check_sweep(doc, theory, reference, points),
            units=len(samples),
            facts=facts,
        )

    return Op(kind, lambda: run_cli(lib, argv), check)


def _example3_path(start, end, count):
    return [example3_drift(t) for t in np.geomspace(start, end, count)]


def _sweep(rng, workdir, lib, size):
    direction = json.dumps(corpus.example2_direction(rng))
    fam = problem.example3_family()
    ppath = os.path.join(workdir, "example3-problem.json")
    xpath = os.path.join(workdir, "example3-point.json")
    _write_json(ppath, problem.problem_to_dict(fam.problem))
    _write_json(xpath, {"x": [0.0, 0.0], "Y": [[0.0, 0.0], [0.0, 0.0]]})
    tails = {
        "example2-dir": ["--family", "example2", "--direction", direction, "--geo", "1e-2:1e-5:13"],
        "user": [
            "--problem", ppath, "--point", xpath,
            "--p1", "[0.1, 0.0]", "--p2", "[[0.0, 0.0], [0.0, 0.0]]",
            "--geo", "1e-2:1e-4:5",
        ],
    }
    ops = [
        _sweep_op(lib, kind, tail or tails[kind], points, theory,
                  _example3_path(1e-2, 1e-6, 13) if kind == "example3" else None)
        for kind, tail, points, theory in SWEEPS[:size]
    ]
    # references: short sweeps of both families (about 0.4 s and 0.6 s)
    refs = [
        _sweep_op(lib, "ref-example2", ["--family", "example2", "--geo", "1e-2:1e-3:3"], 3, 2.0 / 3.0),
        _sweep_op(lib, "ref-example3", ["--family", "example3", "--geo", "1e-2:1e-3:2"], 2, 0.5,
                  _example3_path(1e-2, 1e-3, 2)),
    ]
    return Workload(ops, refs)


_PREPARE = {"analyze-diag": _analyze_diag, "classify-coupled": _classify_coupled, "sweep": _sweep}


def prepare(name, rng, workdir, lib) -> Workload:
    return _PREPARE[name](rng, workdir, lib, SIZES[name])
