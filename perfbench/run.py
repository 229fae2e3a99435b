"""kkt-spectra benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload analyze-diag --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src. One
process, one thread, closed loop with one caller: the next operation
starts when the previous one returns, until --seconds have passed. Every
answer is checked against an oracle outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 first runs the same
loop untraced for half the time, then re-runs exactly those operations
with spans at every module boundary, and prints the per-layer metrics
plus the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("analyze-diag", "classify-coupled", "sweep")
SETUP_REPS = 5
REF_SHARE = 0.4
MIN_REF_PASSES = 10
PROBES_PER_PASS = 3

# name -> unit of the end-to-end metrics BENCHMARK.json gates
GATED = {"setup_s": "s", "ref_pass_ms": "ms", "peak_rss_mb": "MB"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    """Nearest-rank quantile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Record:
    """One executed operation."""

    __slots__ = ("op", "seconds", "outcome", "error", "ref")

    def __init__(self, op, seconds, outcome, error, ref):
        self.op = op
        self.seconds = seconds
        self.outcome = outcome
        self.error = error
        self.ref = ref

    @property
    def failed(self):
        return self.error is not None or bool(self.outcome.problems)


def execute(op, wrap=None, ref=False):
    """Time op.call alone, then check its output."""
    from workloads import Outcome

    call = op.call if wrap is None else wrap(op.call)
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raised error is a failed operation, not a crash
        return Record(op, time.perf_counter() - t0, Outcome(), f"{type(exc).__name__}: {exc}", ref)
    seconds = time.perf_counter() - t0
    try:
        outcome = op.check(result)
    except Exception as exc:
        return Record(op, seconds, Outcome(), f"check raised {type(exc).__name__}: {exc}", ref)
    return Record(op, seconds, outcome, None, ref)


def closed_loop(work, seconds, probes):
    """Run the corpus in order, cycling, until `seconds` have passed.

    Between corpus operations, a pass over the reference operations runs
    whenever the previous pass ended long enough ago for passes to take
    REF_SHARE of the time; a run makes at least MIN_REF_PASSES passes,
    and the speed probe runs PROBES_PER_PASS times before each of them.
    """
    from speed import probe

    records = []

    def ref_pass():
        t0 = time.perf_counter()
        probes.extend(probe() for _ in range(PROBES_PER_PASS))
        records.extend(execute(op, ref=True) for op in work.refs)
        return time.perf_counter() + (time.perf_counter() - t0) * (1.0 - REF_SHARE) / REF_SHARE

    t_end = time.perf_counter() + seconds
    next_ref = 0.0
    i = 0
    while i == 0 or time.perf_counter() < t_end:
        if time.perf_counter() >= next_ref:
            next_ref = ref_pass()
        records.append(execute(work.corpus[i % len(work.corpus)]))
        i += 1
    while len(probes) < MIN_REF_PASSES * PROBES_PER_PASS:
        ref_pass()
    return records


def _medians_ms(records, kinds):
    """{kind: median wall time in ms} over the operations that passed."""
    by_kind = {}
    for r in records:
        if not r.failed and r.op.kind in kinds:
            by_kind.setdefault(r.op.kind, []).append(r.seconds * 1e3)
    return {k: _median(v) for k, v in by_kind.items()}, min(map(len, by_kind.values()), default=0)


def end_to_end(workload, work, records, setup_s, probes):
    """Every end-to-end metric that applies: {name: (value, unit, note)}."""
    from speed import REFERENCE_S
    from workloads import SWEEPS

    attempted = len(records)
    failed = sum(r.failed for r in records)
    kinds = [op.kind for op in work.refs]
    ref, samples = _medians_ms(records, kinds)
    raw_ms = sum(ref.values())
    m = {
        "setup_s": (setup_s, "s", f"import plus median of {SETUP_REPS} set-ups"),
        "ref_pass_ms": (
            raw_ms * REFERENCE_S / statistics.fmean(probes),
            "ms",
            f"{len(ref)}/{len(kinds)} operations, each the median of >= {samples}; {len(probes)} probes",
        ),
        "ref_pass_raw_ms": (raw_ms, "ms", "unscaled"),
        "peak_rss_mb": (_peak_rss_mb(), "MB", "ru_maxrss"),
        "fail_frac": (failed / attempted, "frac", f"{failed}/{attempted} operations"),
    }
    corpus = [r for r in records if not r.ref]
    busy = sum(r.seconds for r in corpus)
    if workload == "sweep":
        sweeps, _ = _medians_ms(corpus, [k for k, *_ in SWEEPS])
        if len(sweeps) == len(SWEEPS):
            points = sum(pts for _, _, pts, _ in SWEEPS)
            rate = points * 1e3 / sum(sweeps.values())
            note = f"one sweep of each kind at its median time, {points} points"
        else:
            points = sum(r.outcome.units for r in corpus)
            rate, note = points / busy, f"{points} points in {busy:.1f} s (not every sweep kind ran)"
        m["sweep_points_per_s"] = (rate, "1/s", note)
        errs = [r.outcome.facts["exponent_err"] for r in corpus if "exponent_err" in r.outcome.facts]
        m["exponent_err"] = (max(errs) if errs else float("nan"), "1", f"max over {len(errs)} fitted sweeps")
    else:
        lat = [r.seconds * 1e3 for r in corpus]
        n = len(lat)
        beyond90 = n - int(0.9 * n)
        m["analyses_per_s"] = (n / busy, "1/s", f"n={n} corpus pairs in {busy:.1f} s")
        m["analyze_p50_ms"] = (_median(lat), "ms", f"n={n} corpus pairs")
        m["analyze_p90_ms"] = (
            _quantile(lat, 0.9),
            "ms",
            f"n={n} corpus pairs, {beyond90} beyond p90" + ("" if beyond90 >= 10 else " (fewer than ten)"),
        )
        verdicts = sum(r.outcome.verdicts for r in corpus)
        und = sum(r.outcome.undetermined for r in corpus)
        m["undetermined_frac"] = (und / verdicts if verdicts else 0.0, "frac", f"{und}/{verdicts} corpus verdicts")
    return m


def dump_ops(args, records, probes):
    """Write every operation's kind and wall time, and the probe times."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"ops-{args.workload}-{args.seed}.json"), "w") as fh:
        ops = [[r.op.kind, r.ref, r.seconds, r.outcome.units] for r in records]
        json.dump({"ops": ops, "probes": probes}, fh)


def per_layer(tracer, records, untraced_s, traced_s):
    """Per-layer metrics from the traced pass: {name: (value, unit)}."""
    import numpy as np

    from tracer import LAYERS

    nid, _, t0, t1 = tracer.arrays()
    names = np.array(tracer.names)
    root = tracer.roots()
    op_id = tracer.names.index("bench.op") if "bench.op" in tracer.names else -1
    in_op = (nid[root] == op_id) & (nid != op_id)
    selft = tracer.self_times()

    def calls(mask):
        return int(np.count_nonzero(mask & in_op))

    def self_s(mask):
        return float(selft[mask & in_op].sum())

    layer_of = np.array([n.split(".", 1)[0] for n in names]) if len(names) else np.zeros(0, str)
    span_layer = layer_of[nid] if nid.size else np.zeros(0, str)
    span_name = names[nid] if nid.size else np.zeros(0, str)
    m = {}
    for layer in LAYERS:
        mask = span_layer == layer
        m[f"{layer}.calls"] = (calls(mask), "count")
        m[f"{layer}.self_s"] = (self_s(mask), "s")
    for name, with_self in (
        ("symmat.SymMat", True),
        ("symmat.project_psd", False),
        ("symmat.spectral_decompose", False),
        ("problem.robinson_normal_map", False),
        ("lpkernel.nontrivial_xi_solution", False),
        ("lpkernel.subspace_psd_nontrivial", True),
    ):
        mask = span_name == name
        m[f"{name}.calls"] = (calls(mask), "count")
        if with_self:
            m[f"{name}.self_s"] = (self_s(mask), "s")

    facts = [r.outcome.facts for r in records if r.error is None]
    roots = sum(f.get("roots", 0) for f in facts)
    newton = sum(f.get("newton_iters", 0) for f in facts)
    m["perturb.roots"] = (roots, "count")
    m["perturb.newton_iters_per_root"] = (newton / roots if roots else 0.0, "count")
    m["perturb.residual_evals_per_root"] = (
        m["problem.robinson_normal_map.calls"][0] / roots if roots else 0.0,
        "count",
    )
    certs = [f["certificate"] for f in facts if "certificate" in f]
    m["criticality.exact_verdicts"] = (sum(c.startswith("exact") for c in certs), "count")
    m["criticality.semi_decisions"] = (sum(c.startswith("semi-decision") for c in certs), "count")

    paths = [f.get("sosc_path") for f in facts]
    for path in ("trivial cone", "exact subspace", "exact halfspace", "projected gradient"):
        m["sosc.path." + path.replace(" ", "_")] = (paths.count(path), "count")
    m["sosc.starts"] = (sum(f.get("sosc_starts", 0) for f in facts), "count")

    # check_soscy time inside the operations whose report took the search path
    pg_ops = {i for i, r in enumerate(records) if r.error is None and r.outcome.facts.get("sosc_path") == "projected gradient"}
    op_spans = np.flatnonzero(nid == op_id) if op_id >= 0 else np.zeros(0, int)
    op_index = {int(s): k for k, s in enumerate(op_spans)}
    soscy = np.flatnonzero((span_name == "sosc.check_soscy") & in_op)
    m["sosc.projected_gradient_s"] = (
        float(sum(t1[s] - t0[s] for s in soscy if op_index.get(int(root[s])) in pg_ops)),
        "s",
    )
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0, "frac")
    return m


def main(argv=None):
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description="kkt-spectra benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "kkt_spectra")):
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import numpy as np

    import workloads

    import_s = time.perf_counter() - t_start
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        prep = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            lib = workloads.library()
            work = workloads.prepare(args.workload, np.random.default_rng(args.seed), workdir, lib)
            prep.append(time.perf_counter() - t0)
        setup_s = import_s + _median(prep)

        if args.trace:
            records, metrics = traced_run(args, work, lib)
            units = {k: u for k, (_, u) in metrics.items()}
            values = {k: v for k, (v, _) in metrics.items()}
            notes = {}
        else:
            probes = []
            records = closed_loop(work, args.seconds, probes)
            full = end_to_end(args.workload, work, records, setup_s, probes)
            dump_ops(args, records, probes)
            units = {k: u for k, (_, u, _) in full.items()}
            values = {k: v for k, (v, _, _) in full.items()}
            notes = {k: note for k, (_, _, note) in full.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for rec in records:
        if rec.failed:
            why = rec.error or "; ".join(rec.outcome.problems)
            print(f"  FAILED {rec.op.kind}: {why}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>16.6g} {units[name]}{note}")

    failed = sum(r.failed for r in records)
    gated = GATED if not args.trace else units
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in gated},
    }
    print(json.dumps(result))
    return 0


def traced_run(args, work, lib):
    """Untraced pass for half the time, then the same operations traced."""
    from tracer import Tracer

    first = closed_loop(work, args.seconds / 2.0, [])
    tracer = Tracer()
    tracer.install()
    for name, fn in list(vars(lib).items()):
        home = fn.__module__.rsplit(".", 1)[1]
        setattr(lib, name, tracer.wrap(fn, f"{home}.{name}"))
    wrap_op = lambda call: tracer.wrap(call, "bench.op")  # noqa: E731
    second = [execute(rec.op, wrap_op, rec.ref) for rec in first]
    tracer.uninstall()
    os.makedirs(WORK, exist_ok=True)
    tracer.save(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.npz"))
    untraced_s = sum(r.seconds for r in first)
    traced_s = sum(r.seconds for r in second)
    return first + second, per_layer(tracer, second, untraced_s, traced_s)


if __name__ == "__main__":
    sys.exit(main())
