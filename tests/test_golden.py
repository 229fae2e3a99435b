"""Default JSON of the report subcommands, pinned byte for byte, and
the classification of fixed KKT pairs.

tests/golden/<command>_<family>.json holds the output of
`kkt-spectra <command> --family <family> --format json`, and
tests/golden/perturb_<family>_<ref|default>.json that of `kkt-spectra
perturb --family <family> --format json` at the short reference schedule
or the 13-point one, at the default seed;
tests/golden/perturb_example2_direction.json pins the example2 sweep along
a fixed --direction, and tests/golden/perturb_user.json the sweep of the
example3 problem read from files under a stationarity shift, the sweep
whose starts take the Levenberg-Marquardt fallback.
tests/golden/pair_<name>.json holds a problem and point in the CLI file
format, with the qualification, classifier and x-part results expected
at that pair, and for some pairs the critical-cone dimension and the
SOSC verdict.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from kkt_spectra.cli import main
from kkt_spectra.criticality import build_system, check_rcq, check_srcq, classify_multiplier, xpart_condition
from kkt_spectra.problem import example3_family, kkt_point, problem_from_dict, problem_to_dict
from kkt_spectra.sosc import check_soscy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("family", ["example2", "example3"])
@pytest.mark.parametrize("command", ["analyze", "criticality", "sosc", "cones"])
def test_default_json_matches_golden(command, family):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--family", family, "--format", "json"])
    assert code == 0
    with open(os.path.join(GOLDEN, f"{command}_{family}.json"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()


PERTURB_SCHEDULES = {
    ("example2", "ref"): "1e-2:1e-3:3",
    ("example2", "default"): "1e-2:1e-5:13",
    ("example3", "ref"): "1e-2:1e-3:2",
    ("example3", "default"): "1e-2:1e-6:13",
}
PERTURB_SWEEPS = {
    f"{family}-{schedule}": ["--family", family, "--geo", geo]
    for (family, schedule), geo in PERTURB_SCHEDULES.items()
}
PERTURB_SWEEPS["example2-direction"] = [
    "--family", "example2", "--direction", "[[0.3, 1.0], [1.0, -0.7]]", "--geo", "1e-2:1e-5:13",
]
PERTURB_SWEEPS["user"] = [
    "--problem", "{problem}", "--point", "{point}",
    "--p1", "[0.1, 0.0]", "--p2", "[[0.0, 0.0], [0.0, 0.0]]", "--geo", "1e-2:1e-4:5",
]


@pytest.mark.parametrize("name", sorted(PERTURB_SWEEPS))
def test_perturb_json_matches_golden(name, tmp_path):
    fam = example3_family()
    files = {"problem": tmp_path / "problem.json", "point": tmp_path / "point.json"}
    files["problem"].write_text(json.dumps(problem_to_dict(fam.problem)))
    files["point"].write_text(json.dumps({"x": [0.0, 0.0], "Y": [[0.0, 0.0], [0.0, 0.0]]}))
    tail = [arg.format(**files) for arg in PERTURB_SWEEPS[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["perturb"] + tail + ["--format", "json"])
    assert (code, err.getvalue()) == (0, "")
    with open(os.path.join(GOLDEN, f"perturb_{name.replace('-', '_')}.json"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()


@pytest.mark.parametrize("name", ["ref_rotated", "ref_coupled", "critical_rotated", "rotated_cone"])
def test_classified_pair_matches_golden(name):
    # a commuting rotated beta block (Noncritical and Critical), a
    # non-commuting 2x2 one, and a zero critical-cone row seen in a rotated
    # frame: verdicts and x-part exact, witness to 1e-9
    with open(os.path.join(GOLDEN, f"pair_{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    exp = doc["expected"]
    pd = problem_from_dict(doc["problem"])
    x, Y = np.asarray(doc["point"]["x"]), np.asarray(doc["point"]["Y"])
    sysm = build_system(pd, kkt_point(pd, x, Y))
    v = classify_multiplier(sysm)
    xp = xpart_condition(sysm)
    assert (check_rcq(pd, x), check_srcq(pd, x, Y)) == (exp["rcq"], exp["srcq"])
    assert (v.tag, v.certificate) == (exp["tag"], exp["certificate"])
    assert xp["holds"] == exp["xpart_holds"]
    assert (None if xp["witness"] is None else xp["witness"].tolist()) == exp["xpart_witness"]
    if "cone_dim" in exp:
        assert sysm.cone_null.shape[1] == exp["cone_dim"]
        assert check_soscy(sysm).verdict == exp["soscy"]
    if exp["witness"] is None:
        assert v.witness is None
    else:
        np.testing.assert_allclose(v.witness[0], exp["witness"]["xi"], rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(v.witness[1].full(), exp["witness"]["eta"], rtol=0.0, atol=1e-9)
