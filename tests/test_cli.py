"""Command-line interface: exit codes, report content, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kkt_spectra
from conftest import planted_pair
from kkt_spectra.cli import build_parser, main
from kkt_spectra.criticality import build_system
from kkt_spectra.problem import (
    ProblemKernels,
    builtin_family,
    example3_family,
    kkt_point,
    load_problem,
    problem_to_dict,
)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def problem_files(tmp_path):
    fam = example3_family()
    ppath = tmp_path / "prob.json"
    ppath.write_text(json.dumps(problem_to_dict(fam.problem)))
    xpath = tmp_path / "pt.json"
    xpath.write_text(json.dumps({"x": [0.0, 0.0], "Y": [[0.0, 0.0], [0.0, 0.0]]}))
    return str(ppath), str(xpath)


def test_usage_errors_exit_1():
    assert run(["perturb", "--family", "example2"])[0] == 1  # --geo required
    assert run(["analyze"])[0] == 1  # no problem source
    assert run(["perturb", "--family", "example2", "--geo", "1e-2:1e-5:0"])[0] == 1
    assert run(["perturb", "--family", "example2", "--geo", "nope"])[0] == 1
    assert run(["analyze", "--family", "example2", "--problem", "x.json"])[0] == 1
    assert run(["frobnicate"])[0] == 1
    assert run(["analyze", "--family", "example3", "--grid-points", "181"])[0] == 1  # flag removed


def test_analyze_example3_text_report():
    code, out, err = run(["analyze", "--family", "example3"])
    assert code == 0, err
    assert "Noncritical" in out
    assert "SOSCy_holds" in out
    assert "strict_complementarity = false" in out
    assert "normal_cone_polyhedral = false" in out


def test_analyze_example2_partition():
    code, out, _ = run(["analyze", "--family", "example2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "kkt-spectra/1"
    assert len(doc["partition"]["beta"]) == 1
    assert doc["partition"]["strict_complementarity"] is False
    assert doc["criticality"]["tag"] == "Noncritical"


def test_json_determinism_and_round_trip():
    code1, out1, _ = run(["analyze", "--family", "example3", "--format", "json"])
    code2, out2, _ = run(["analyze", "--family", "example3", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out1


def test_wrapper_subcommands():
    for cmd in ("criticality", "sosc", "cones"):
        code, out, err = run([cmd, "--family", "example3", "--format", "json"])
        assert code == 0, (cmd, err)
        assert json.loads(out)["command"] == cmd
    code, out, _ = run(["cones", "--family", "example2", "--format", "json"])
    doc = json.loads(out)
    assert doc["partition"]["alpha"] == [] and len(doc["partition"]["beta"]) == 1


def test_file_inputs_and_certification_exits(problem_files, tmp_path):
    ppath, xpath = problem_files
    code, out, _ = run(["analyze", "--problem", ppath, "--point", xpath])
    assert code == 0 and "Noncritical" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"x": [0.0, 0.0]}')  # missing Y
    code, _, err = run(["analyze", "--problem", ppath, "--point", str(bad)])
    assert code == 2 and err.strip()

    code, _, _ = run(["analyze", "--problem", ppath])  # point required
    assert code == 2

    far = tmp_path / "far.json"
    far.write_text(json.dumps({"x": [5.0, 5.0], "Y": [[0.0, 0.0], [0.0, 0.0]]}))
    code, _, _ = run(["analyze", "--problem", ppath, "--point", str(far)])
    assert code == 2
    assert run(["cones", "--problem", ppath, "--point", str(far)])[0] == 2


def test_perturb_family_reports():
    code, out, err = run(
        ["perturb", "--family", "example2", "--geo", "1e-2:1e-5:13", "--format", "json"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert abs(doc["exponent_fit"]["exponent"] - 2.0 / 3.0) <= 0.05
    assert doc["verdict_101"] == "diverging"
    assert doc["verdict_91"] != "diverging"
    assert len(doc["samples"]) == 13

    code, out, _ = run(["perturb", "--family", "example2", "--geo", "1e-2:1e-5:13"])
    assert code == 0 and "exponent" in out


def test_perturb_example3_bounded():
    code, out, _ = run(
        ["perturb", "--family", "example3", "--geo", "1e-2:1e-6:13", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict_101"] == "bounded" and doc["verdict_91"] == "bounded"
    assert abs(doc["exponent_fit"]["exponent"] - 0.5) <= 0.05


def test_perturb_custom_direction():
    code, out, _ = run(
        [
            "perturb",
            "--family",
            "example2",
            "--direction",
            "[[0.0, 0.7], [0.7, 0.3]]",
            "--geo",
            "1e-2:1e-5:13",
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert abs(json.loads(out)["exponent_fit"]["exponent"] - 2.0 / 3.0) <= 0.05


def test_perturb_user_problem_with_csv(problem_files, tmp_path):
    ppath, xpath = problem_files
    cpath = str(tmp_path / "rows.csv")
    code, _, err = run(
        [
            "perturb",
            "--problem",
            ppath,
            "--point",
            xpath,
            "--p1",
            "[0.1, 0.0]",
            "--p2",
            "[[0.0, 0.0], [0.0, 0.0]]",
            "--geo",
            "1e-2:1e-4:5",
            "--format",
            "json",
            "--csv",
            cpath,
        ]
    )
    assert code == 0, err
    rows = open(cpath).read().strip().splitlines()
    assert rows[0] == "parameter,x_dev,p_norm,y_dev"
    assert len(rows) == 6


def test_perturb_names_dropped_points(problem_files):
    # at this seed no start certifies a root at t = 1e-2; the sweep still
    # exits 0 with the JSON it always printed, and stderr names the point
    ppath, xpath = problem_files
    argv = [
        "perturb", "--problem", ppath, "--point", xpath, "--p1", "[0.1, 0.0]",
        "--p2", "[[0.0, 0.0], [0.0, 0.0]]", "--geo", "1e-2:1e-4:5", "--format", "json",
    ]
    code, out, err = run(argv + ["--seed", "1742692732"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["excluded"] == 1 and len(doc["samples"]) == 4
    assert "excluded_params" not in doc
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: dropped parameter 0.01: no start reached a certified root")
    assert lines[0].endswith("(best residual 8.554e-08)")
    # a sweep that keeps every point prints nothing there
    code, _, err = run(argv + ["--seed", "42"])
    assert code == 0 and err == ""


@pytest.mark.parametrize("p1", ["[Infinity, 0.0]", "[NaN, 0.0]"])
def test_perturb_rejects_nonfinite_shift(problem_files, p1):
    # the shift is rejected before any arithmetic touches it: exit 2 with
    # one error line, and no floating-point warning on the way
    ppath, xpath = problem_files
    argv = [
        "perturb", "--problem", ppath, "--point", xpath, "--p1", p1,
        "--p2", "[[0.0, 0.0], [0.0, 0.0]]", "--geo", "1e-2:1e-4:5", "--format", "json",
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv)
    assert (code, out, err) == (2, "", "error: perturbation entries must be finite\n")
    assert caught == []


@pytest.mark.parametrize("family, geo, code", [("example2", "1e200:1e200:2", 2), ("example3", "1e150:1e150:2", 0)])
def test_overflowing_sweep_prints_no_runtime_warning(family, geo, code):
    # run in a fresh process, whose stderr shows any warning: it holds the
    # error or the dropped points, and no numpy warning from the overflow
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from kkt_spectra.cli import main; sys.exit(main(sys.argv[1:]))",
         "perturb", "--family", family, "--geo", geo],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert all(line.startswith(("error: ", "warning: dropped")) for line in proc.stderr.splitlines()), proc.stderr


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--p1", "[1,2,3]"),
        ("--p1", '"ab"'),
        ("--p1", "[true,0]"),
        ("--p2", "[[0,0],[0]]"),
        ("--p2", "[[0,0],[0,false]]"),
        ("--p2", "[[0,1],[0,0]]"),
        ("--p2", "[[NaN,0],[0,0]]"),
        ("--direction", "[[1,2],[3]]"),
        ("--direction", '"x"'),
        ("--direction", "[[0,1],[0,0]]"),
        ("--direction", "[[Infinity,0],[0,0]]"),
    ],
)
def test_malformed_inline_values_exit_2_naming_the_flag(problem_files, flag, value):
    # inline values follow the problem files' number rule: a wrong count,
    # a ragged matrix, a string or a bool is a data error naming the flag;
    # a matrix also follows their matrix rule, finite and symmetric within
    # 1e-12 relative, rather than being symmetrized
    faults = {
        "[[0,1],[0,0]]": "matrix is not symmetric within 1e-12 relative",
        "[[NaN,0],[0,0]]": "entries must be finite",
        "[[Infinity,0],[0,0]]": "entries must be finite",
    }
    ppath, xpath = problem_files
    shift = {"--p1": "[0.1, 0.0]", "--p2": "[[0.0, 0.0], [0.0, 0.0]]", flag: value}
    if flag == "--direction":
        argv = ["perturb", "--family", "example2", "--direction", value]
    else:
        argv = ["perturb", "--problem", ppath, "--point", xpath, "--p1", shift["--p1"], "--p2", shift["--p2"]]
    code, out, err = run(argv + ["--geo", "1e-2:1e-3:2", "--format", "json"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: {faults.get(value, 'expected ')}") and err.count("\n") == 1, err


def _bad_payload(edit):
    data = problem_to_dict(example3_family().problem)
    edit(data)
    return data


# each payload once made the loader raise a bare numpy or Python error,
# or load with a size it silently rounded
MALFORMED = {
    "A0 wrong size": (lambda d: d["G"].update(A0=[0.0, 0.0, 0.0]), "G.A0: expected a 2x2 matrix of numbers"),
    "A[1] wrong size": (lambda d: d["G"]["A"].__setitem__(1, [0.0] * 5), "G.A[1]: expected a 2x2 matrix of numbers"),
    "B[0][1] wrong size": (
        lambda d: d["G"]["B"][0].__setitem__(1, [1.0]), "G.B[0][1]: expected a 2x2 matrix of numbers"
    ),
    "non-numeric entry": (lambda d: d["G"]["A"][0].__setitem__(2, "one"), "G.A[0]: expected a 2x2 matrix of numbers"),
    "A not a list": (lambda d: d["G"].update(A=2), "G.A must list 2 matrices"),
    "B not a list": (lambda d: d["G"].update(B=2), "G.B must have 2 rows of 2 matrices"),
    "n fractional": (lambda d: d.update(n=2.5), "malformed problem payload: n must be an integer, got 2.5"),
    "n a string": (lambda d: d.update(n="2"), "malformed problem payload: n must be an integer, got '2'"),
    "p a bool": (lambda d: d.update(p=True), "malformed problem payload: p must be an integer, got True"),
}


@pytest.mark.parametrize("command", ["analyze", "perturb"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_problem_file_exits_2(problem_files, tmp_path, command, case):
    edit, message = MALFORMED[case]
    _, xpath = problem_files
    ppath = tmp_path / "bad.json"
    ppath.write_text(json.dumps(_bad_payload(edit)))
    argv = [command, "--problem", str(ppath), "--point", xpath]
    if command == "perturb":
        argv += ["--p1", "[0.1, 0.0]", "--p2", "[[0.0, 0.0], [0.0, 0.0]]", "--geo", "1e-2:1e-4:5"]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# json parses NaN and Infinity, and a bool once loaded as 1.0
MALFORMED_X = ["[Infinity, 0.0]", "[NaN, 0.0]", "[true, 0.0]", '["1.5", 0.0]', "[0.0]"]


@pytest.mark.parametrize("command", ["analyze", "perturb"])
@pytest.mark.parametrize("x", MALFORMED_X)
def test_malformed_point_x_exits_2(problem_files, tmp_path, command, x):
    ppath, _ = problem_files
    xpath = tmp_path / "bad_point.json"
    xpath.write_text('{"x": %s, "Y": [[0.0, 0.0], [0.0, 0.0]]}' % x)
    argv = [command, "--problem", ppath, "--point", str(xpath)]
    if command == "perturb":
        argv += ["--p1", "[0.1, 0.0]", "--p2", "[[0.0, 0.0], [0.0, 0.0]]", "--geo", "1e-2:1e-4:5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv)
    assert (code, out, err) == (2, "", "error: x: expected 2 finite numbers\n")
    assert caught == []


# json reads true and numeric strings, which once loaded as the numbers
# 1.0 and 0.0: the problem loaded, or stopped at certification
NON_NUMBER_FIELDS = {
    "f.lin": lambda d, v: d["f"]["lin"].__setitem__(0, v),
    "f.quad": lambda d, v: d["f"]["quad"][0].__setitem__(0, v),
    "G.A0": lambda d, v: d["G"]["A0"].__setitem__(3, v),
    "G.A[1]": lambda d, v: d["G"]["A"][1].__setitem__(0, v),
    "G.B[0][1]": lambda d, v: d["G"]["B"][0][1].__setitem__(3, v),
    "Y": None,
}


@pytest.mark.parametrize("field", sorted(NON_NUMBER_FIELDS))
def test_non_number_entry_exits_2(problem_files, tmp_path, field):
    ppath, xpath = problem_files
    for value in (True, "0"):
        edit = NON_NUMBER_FIELDS[field]
        if edit is None:
            bad = tmp_path / "bad_point.json"
            bad.write_text(json.dumps({"x": [0.0, 0.0], "Y": [[0.0, 0.0], [0.0, value]]}))
            argv = ["analyze", "--problem", ppath, "--point", str(bad)]
        else:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(_bad_payload(lambda d: edit(d, value))))
            argv = ["analyze", "--problem", str(bad), "--point", xpath]
        code, out, err = run(argv)
        assert (code, out) == (2, ""), (field, value)
        assert err.startswith(f"error: {field}: expected ") and err.count("\n") == 1
        assert f"{type(value).__name__} entry {value!r}" in err


def test_flag_validation():
    # the classifier has no sampling knobs: analyze and criticality read no --seed or --samples
    assert run(["criticality", "--family", "example2"])[0] == 0
    assert run(["analyze", "--family", "example2", "--samples", "4"])[0] == 1
    assert run(["criticality", "--family", "example2", "--seed", "3"])[0] == 1
    assert run(["sosc", "--family", "example3", "--tol-eig", "0"])[0] == 2
    # a non-finite tolerance is rejected, not read as "every eigenvalue is zero"
    for value in ("nan", "inf"):
        code, out, err = run(["analyze", "--family", "example2", "--tol-eig", value])
        assert (code, out) == (2, ""), value
        assert err == "error: --tol-eig must be finite and positive\n"
    # a negative seed is a usage error naming --seed, not a traceback from the generator
    code, out, err = run(["perturb", "--family", "example2", "--seed", "-1", "--geo", "1e-2:1e-3:2"])
    assert (code, out) == (1, "")
    assert "argument --seed: --seed must be a non-negative integer" in err and "Traceback" not in err


@pytest.mark.parametrize("end", ["nan", "inf", "-inf"])
def test_geo_rejects_non_finite_endpoints(end):
    code, out, err = run(["perturb", "--family", "example2", "--geo", f"1e-2:{end}:3"])
    assert (code, out) == (1, "")
    assert "argument --geo: --geo endpoints must be finite and positive" in err


def test_perturb_equal_parameters_report_no_exponent():
    # three equal parameters carry no slope: the fit is null, as on a one-point schedule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["perturb", "--family", "example2", "--geo", "1e-2:1e-2:3", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["exponent_fit"] == {"exponent": None, "stderr": None}


# the flags each subcommand reads, 30 settable values in all, each with a
# value it parses
FLAG_SETS = {
    "analyze": {"--problem", "--family", "--point", "--tol-eig", "--format"},
    "criticality": {"--problem", "--family", "--point", "--tol-eig", "--format"},
    "sosc": {"--problem", "--family", "--point", "--tol-eig", "--format"},
    "cones": {"--problem", "--family", "--point", "--tol-eig", "--format"},
    "perturb": {"--problem", "--family", "--point", "--direction", "--seed", "--format", "--geo", "--p1", "--p2",
                "--csv"},
}
FLAG_VALUES = {
    "--problem": "prob.json",
    "--family": "example2",
    "--point": "pt.json",
    "--direction": "[[0.0, 1.0], [1.0, 0.0]]",
    "--tol-eig": "1e-9",
    "--tol-feas": "1e-8",
    "--seed": "7",
    "--samples": "16",
    "--format": "json",
    "--geo": "1e-2:1e-3:2",
    "--p1": "[0.1, 0.0]",
    "--p2": "[[0.0, 0.0], [0.0, 0.0]]",
    "--csv": "rows.csv",
    "--grid-points": "181",
}


@pytest.mark.parametrize("command", sorted(FLAG_SETS))
def test_each_subcommand_takes_only_the_flags_it_reads(command):
    # a flag the command would not read is a usage error, not a silent no-op
    def argv(flag):
        source = [] if flag in ("--problem", "--family") else ["--family", "example2"]
        geo = ["--geo", FLAG_VALUES["--geo"]] if command == "perturb" and flag != "--geo" else []
        return [command, *source, *geo, flag, FLAG_VALUES[flag]]

    accepted = FLAG_SETS[command]
    for flag in sorted(accepted):
        args = build_parser().parse_args(argv(flag))
        assert args.command == command
    for flag in sorted(set(FLAG_VALUES) - accepted):
        code, out, err = run(argv(flag))
        assert (code, out) == (1, ""), flag
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "command, flag",
    [("perturb", "--direction")] + [("perturb-family", flag) for flag in ("--point", "--p1", "--p2")],
)
def test_flags_without_effect_in_context_exit_2(problem_files, command, flag):
    # --direction steers only a builtin family, and a --family sweep reads
    # neither --point nor the shift directions
    ppath, xpath = problem_files
    value = xpath if flag == "--point" else FLAG_VALUES[flag]
    if command == "perturb-family":
        argv = ["perturb", "--family", "example2", "--geo", "1e-2:1e-3:2", flag, value]
    else:
        argv = [command, "--problem", ppath, "--point", xpath, flag, value,
                "--p1", "[0.1, 0.0]", "--p2", "[[0.0, 0.0], [0.0, 0.0]]", "--geo", "1e-2:1e-3:2"]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_tol_eig_sets_one_partition_for_every_section():
    # --tol-eig 2 moves the example2 eigenvalue 1 into beta; SRCQ, SOSC
    # and the local-bound conditions must all read that partition
    code, out, err = run(["analyze", "--family", "example2", "--tol-eig", "2", "--format", "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["partition"]["beta"] == [0, 1]
    assert doc["constraint_qualifications"]["srcq"] is True
    assert doc["soscy"]["search_stats"]["path"] == "exact face enumeration"
    assert doc["soscy"]["min_value"] == 2.0
    assert "beta block <= 1" not in doc["local_bound_conditions"]["cond_i"]["evidence"]

    code, out, err = run(["sosc", "--family", "example2", "--tol-eig", "2", "--format", "json"])
    assert code == 0, err
    sosc = json.loads(out)
    assert sosc["soscy"] == doc["soscy"]
    assert sosc["local_bound_conditions"] == doc["local_bound_conditions"]


def test_parser_built_once_matches_fresh_parser():
    calls = [
        ["analyze", "--family", "example2", "--format", "json"],
        ["analyze", "--family", "example2", "--tol-eig", "many"],
        ["perturb", "--family", "example3", "--geo", "1e-2:1e-3:2", "--format", "json"],
    ]
    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 1, 0]
    assert build_parser() is build_parser()
    for argv, result in zip(calls, shared):
        build_parser.cache_clear()
        assert run(argv) == result


@pytest.mark.parametrize("source", ["family", "file", "library"])
def test_analyze_evaluates_and_decomposes_each_pair_once(source, tmp_path, monkeypatch):
    # one analyze report: one G(x), one Jacobian stack, one split of
    # G(x) + Y (every section but RCQ reads it) and one decomposition of
    # G(x) alone (RCQ); the library idiom build_system(pd, kkt_point(...))
    # makes the same evaluations and split, and no RCQ decomposition
    argv = None
    if source == "family":
        fam = builtin_family("example2")
        pd, x, Y = fam.problem, fam.xbar, fam.ybar
        argv = ["analyze", "--family", "example2", "--format", "json"]
    else:
        pd, x, Y = planted_pair(np.random.default_rng(0), "coupled", 3, 3)  # one index in each block
    if source == "file":
        ppath, xpath = tmp_path / "prob.json", tmp_path / "pt.json"
        ppath.write_text(json.dumps(problem_to_dict(pd)))
        xpath.write_text(json.dumps({"x": x.tolist(), "Y": Y.full().tolist()}))
        pd = load_problem(ppath)
        argv = ["analyze", "--problem", str(ppath), "--point", str(xpath), "--format", "json"]
    G = kkt_spectra.SymMat(ProblemKernels(pd).G(np.asarray(x, dtype=float)))
    targets = {"G(x)": G.full(), "G(x) + Y": (G + Y).full()}
    calls = {"G": 0, "jacobians": 0}
    decomposed = []

    def counted(key, real):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapped

    def recorded(real, stacked):
        def wrapped(M, *args, **kwargs):
            decomposed.extend(M if stacked else [kkt_spectra.as_symmat(M).full()])
            return real(M, *args, **kwargs)

        return wrapped

    modules = [kkt_spectra.symmat, kkt_spectra.problem, kkt_spectra.cones, kkt_spectra.criticality,
               kkt_spectra.sosc, kkt_spectra.lpkernel, kkt_spectra.perturb, kkt_spectra.cli]
    # every array evaluation goes through the kernels' methods
    monkeypatch.setattr(ProblemKernels, "G", counted("G", ProblemKernels.G))
    monkeypatch.setattr(ProblemKernels, "jacobians", counted("jacobians", ProblemKernels.jacobians))
    wrappers = {
        "spectral_decompose": recorded(kkt_spectra.symmat.spectral_decompose, False),
        "spectral_stack": recorded(kkt_spectra.symmat.spectral_stack, True),
    }
    for module in modules:
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    if argv is None:
        build_system(pd, kkt_point(pd, x, Y))
    else:
        code, out, err = run(argv)
        assert code == 0, err
    assert calls == {"G": 1, "jacobians": 1}
    counts = {key: sum(np.array_equal(M, T) for M in decomposed) for key, T in targets.items()}
    assert counts == {"G(x)": int(argv is not None), "G(x) + Y": 1}
