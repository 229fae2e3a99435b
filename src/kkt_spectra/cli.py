"""Command-line front end: load problems, run analyses, emit reports.

Subcommands: analyze (full pipeline), criticality, sosc, cones, perturb.
Reports render as aligned text or canonical JSON; identical invocations
produce byte-identical JSON. Exit codes: 0 success, 1 usage, 2 bad or
uncertified input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .cones import is_normal_cone_polyhedral, strict_complementarity
from .criticality import (
    analysis_context,
    certified_split,
    classify_multiplier,
    rcq_holds,
    srcq_holds,
    xpart_condition,
)
from .errors import ConvergenceError, InputDataError, NumericError
from .perturb import error_bound_experiment, report_to_csv, report_to_dict
from .problem import (
    FAMILY_NAMES,
    PerturbationFamily,
    _checked_matrices,
    _checked_order,
    _field,
    builtin_family,
    kkt_point,
    load_point,
    load_problem,
)
from .sosc import check_soscy, theorem3_conditions
from .symmat import SymMat

SCHEMA = "kkt-spectra/1"


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _geo_schedule(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--geo expects start:end:count")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --geo value: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(end) and start > 0 and end > 0):
        raise argparse.ArgumentTypeError("--geo endpoints must be finite and positive")
    if count < 1:
        raise argparse.ArgumentTypeError("--geo count must be at least 1")
    return (start, end, count)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("--seed must be a non-negative integer")
    return int(text)


def _inline_json(label):
    def parse(text: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(f"{label} is not valid JSON: {exc}") from exc

    return parse


# the flags beyond the problem source, --point and --format, each taken by
# the subcommands that list it in COMMANDS
_FLAGS = {
    "--tol-eig": dict(type=float, help="eigenvalue zero-classification tolerance"),
    "--direction": dict(
        type=_inline_json("--direction"), help="inline JSON matrix steering a builtin family's perturbation"
    ),
    "--seed": dict(type=_seed, default=42, help="seed of the sweep's jittered starts"),
    "--geo": dict(type=_geo_schedule, required=True, help="geometric schedule start:end:count"),
    "--p1": dict(type=_inline_json("--p1"), help="inline JSON stationarity shift direction"),
    "--p2": dict(type=_inline_json("--p2"), help="inline JSON cone shift direction"),
    "--csv": dict(help="also write sweep rows to this CSV file"),
}

# each subcommand: its help, the _FLAGS it reads, and the _SECTIONS of its
# report, which cmd_report fills in this order (perturb's sweep report is
# cmd_perturb's)
COMMANDS = {
    "analyze": (
        "full pipeline: residuals, partition, qualifications, verdicts",
        ("--tol-eig",),
        ("kkt_residuals", "partition", "constraint_qualifications", "criticality", "x_part_condition", "soscy",
         "local_bound_conditions"),
    ),
    "criticality": (
        "multiplier classification and the x-part condition",
        ("--tol-eig",),
        ("partition", "criticality", "x_part_condition"),
    ),
    "sosc": (
        "second-order condition and the two local-bound conditions",
        ("--tol-eig",),
        ("soscy", "local_bound_conditions"),
    ),
    "cones": ("eigenvalue partition and complementarity flags", ("--tol-eig",), ("kkt_residuals", "partition")),
    "perturb": (
        "perturbation sweep with order fit and bound verdicts",
        ("--direction", "--seed", "--geo", "--p1", "--p2", "--csv"),
        (),
    ),
}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    main() call; parsing leaves it unchanged. Each subcommand takes only
    the flags it reads, so any other flag is a usage error."""
    parser = _Parser(prog="kkt-spectra", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, flags, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=blurb)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--problem", help="problem JSON file")
        src.add_argument(
            "--family", choices=FAMILY_NAMES, help="builtin perturbation family"
        )
        sp.add_argument("--point", help="point JSON file {x, Y} (default: family reference)")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _inline_matrix(flag: str, value) -> SymMat:
    """The inline JSON value of flag as a SymMat; it follows the problem
    files' matrix rule (numbers, finite, symmetric within 1e-12 relative),
    and InputDataError names flag unless it is a square matrix that does."""
    shape = np.asarray(value, dtype=object).shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InputDataError(f"{flag}: expected a square matrix of numbers, got {json.dumps(value)}")
    return SymMat(_checked_matrices([value], [flag], shape[0])[0])


def _source(args):
    """The builtin family of --family, steered by --direction where the
    subcommand takes it (None for --problem), and its problem data."""
    direction = getattr(args, "direction", None)
    if args.family is not None:
        fam = builtin_family(args.family, None if direction is None else _inline_matrix("--direction", direction))
        return fam, fam.problem
    if direction is not None:
        raise InputDataError("--direction steers a builtin family's perturbation and needs --family")
    return None, load_problem(args.problem)


def _point(args, fam, pd):
    """The pair (x, Y) of --point, or the family's reference pair."""
    if args.point is not None:
        return load_point(args.point, pd.n, pd.p)
    if fam is None:
        raise InputDataError("--problem requires --point")
    return fam.xbar, fam.ybar


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, SymMat):
        return _jsonable(value.full())
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def _flatten(prefix, value, lines):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], lines)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, lines)
    else:
        if isinstance(value, list):
            body = "[" + ", ".join(_scalar_text(v) for v in value) + "]"
        else:
            body = _scalar_text(value)
        lines.append(f"{prefix} = {body}")


def _scalar_text(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
    lines = []
    _flatten("", _jsonable(payload), lines)
    return "\n".join(lines)


def _partition_payload(ctx):
    d = ctx.decomp
    return {
        "eigenvalues": [float(v) for v in d.lam],
        "alpha": [int(i) for i in d.alpha],
        "beta": [int(i) for i in d.beta],
        "gamma": [int(i) for i in d.gamma],
        "strict_complementarity": strict_complementarity(ctx),
        "normal_cone_polyhedral": is_normal_cone_polyhedral(ctx),
    }


def _criticality_payload(sysm):
    verdict = classify_multiplier(sysm)
    return {
        "tag": verdict.tag,
        "certificate": verdict.certificate,
        "witness_residual": verdict.residual,
        "witness": None if verdict.witness is None else dict(zip(("xi", "eta"), verdict.witness)),
    }


def _soscy_payload(sysm):
    rep = check_soscy(sysm)
    return {
        "verdict": rep.verdict,
        "sonc_verdict": rep.sonc_verdict,
        "min_value": rep.min_value,
        "minimizer": rep.minimizer,
        "search_stats": rep.search_stats,
    }


# each report section's payload, read from the analysis context sysm
_SECTIONS = {
    "kkt_residuals": lambda sysm: dict(zip(("stationarity", "complementarity"), sysm.kkt.residuals)),
    "partition": lambda sysm: _partition_payload(sysm.ctx),
    "constraint_qualifications": lambda sysm: {
        "rcq": rcq_holds(sysm.G, sysm.Ds),
        "srcq": srcq_holds(sysm.ctx.decomp, sysm.Dt),
    },
    "criticality": lambda sysm: _criticality_payload(sysm),
    "x_part_condition": lambda sysm: xpart_condition(sysm),
    "soscy": lambda sysm: _soscy_payload(sysm),
    "local_bound_conditions": lambda sysm: theorem3_conditions(sysm),
}


def cmd_report(args) -> dict:
    """The report of every subcommand but perturb: its COMMANDS sections,
    in order, each read from the one analysis context, at the --tol-eig
    partition, of the requested pair."""
    if args.tol_eig is not None and not (math.isfinite(args.tol_eig) and args.tol_eig > 0):
        raise InputDataError("--tol-eig must be finite and positive")
    fam, pd = _source(args)
    x, Y = _point(args, fam, pd)
    sysm = analysis_context(pd, x, Y, tol=args.tol_eig)
    payload = {"schema": SCHEMA, "command": args.command, "source": args.family or args.problem}
    payload.update((name, _SECTIONS[name](sysm)) for name in COMMANDS[args.command][2])
    return payload


def cmd_perturb(args) -> dict:
    fam, pd = _source(args)
    if fam is not None:
        for flag, value in (("--point", args.point), ("--p1", args.p1), ("--p2", args.p2)):
            if value is not None:
                raise InputDataError(
                    f"{flag} applies to --problem sweeps; a --family sweep runs from the family's own pair and shift"
                )
    else:
        x, Y = _point(args, fam, pd)
        if args.p1 is None or args.p2 is None:
            raise InputDataError("user problems need --p1 and --p2 perturbation directions")
        pair = kkt_point(pd, x, Y)
        certified_split(pd, pair)
        p1d = _field(args.p1, "--p1", pd.n, f"{pd.n} numbers")
        p2d = _checked_order(pd, _inline_matrix("--p2", args.p2), "--p2")
        fam = PerturbationFamily(
            "user", pd, pair.x, pair.Y, lambda s: (s * p1d, float(s) * p2d)
        )
    start, end, count = args.geo
    schedule = np.geomspace(start, end, count)
    report = error_bound_experiment(fam, schedule, seed=args.seed)
    for s, res in zip(report.excluded_params, report.excluded_residuals):
        print(
            f"warning: dropped parameter {s:.17g}: no start reached a certified root "
            f"(best residual {res:.3e})",
            file=sys.stderr,
        )
    payload = {
        "schema": SCHEMA,
        "command": "perturb",
        "source": fam.name,
        **report_to_dict(report),
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))
        payload["csv"] = args.csv
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = (cmd_perturb if args.command == "perturb" else cmd_report)(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(render(payload, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
