"""Tests of the benchmark itself: tiny seeded runs and the answer checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "analyze-diag": {
        "setup_s": "s", "ref_pass_ms": "ms", "peak_rss_mb": "MB", "fail_frac": "frac",
        "analyses_per_s": "1/s", "analyze_p50_ms": "ms", "analyze_p90_ms": "ms",
        "undetermined_frac": "frac",
    },
    "sweep": {
        "setup_s": "s", "ref_pass_ms": "ms", "peak_rss_mb": "MB", "fail_frac": "frac",
        "sweep_points_per_s": "1/s", "exponent_err": "1",
    },
}
END_TO_END["classify-coupled"] = END_TO_END["analyze-diag"]


def _bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "MIN_REF_PASSES", 1)
    monkeypatch.setitem(workloads.SIZES, "analyze-diag", 2)
    monkeypatch.setitem(workloads.SIZES, "classify-coupled", 2)
    monkeypatch.setitem(workloads.SIZES, "sweep", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    report, result = _bench(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.GATED)
    for name, unit in END_TO_END[workload].items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in report), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(tiny, capsys, workload):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _, result = _bench(capsys, workload, 1)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def _family_doc():
    code, out, err = workloads.run_cli(workloads.library(), ["analyze", "--family", "example2", "--format", "json"])
    assert code == 0, err
    return json.loads(out)


def test_analyze_checks_flag_a_flipped_tag():
    doc = _family_doc()
    assert oracles.check_family(doc, "example2") == []
    assert oracles.check_analyze(doc, "Noncritical") == []
    doc["criticality"]["tag"] = "Critical"
    assert oracles.check_family(doc, "example2")
    assert oracles.check_analyze(doc, "Noncritical")


def test_analyze_check_flags_a_bad_failure_certificate():
    doc = _family_doc()
    doc["soscy"]["verdict"] = "SOSCy_fails"
    assert oracles.check_analyze(doc, "Noncritical", membership=True, form_value=-1.0) == []
    assert oracles.check_analyze(doc, "Noncritical", membership=False, form_value=-1.0)
    assert oracles.check_analyze(doc, "Noncritical", membership=True, form_value=2.0)


def test_classification_check_flags_a_loose_witness():
    assert oracles.check_classification("Critical", witness_res=1e-9) == []
    assert oracles.check_classification("Critical", witness_res=1e-3)
    assert oracles.check_classification("Noncritical", expected_tag="Critical")


def test_sweep_check_flags_an_order_off_by_a_tenth():
    import numpy as np

    ts = np.geomspace(1e-2, 1e-6, 13)
    ref = [workloads.example3_drift(t) for t in ts]
    doc = {
        "excluded": 0,
        "samples": [{"x_dev": r, "newton_iters": 2} for r in ref],
        "exponent_fit": {"exponent": 0.5},
    }
    assert oracles.check_sweep(doc, 0.5, ref, 13) == []
    doc["exponent_fit"]["exponent"] = 0.6
    assert oracles.check_sweep(doc, 0.5, ref, 13)
    doc["exponent_fit"]["exponent"] = 0.5
    doc["samples"][3]["x_dev"] += 1e-5
    assert oracles.check_sweep(doc, 0.5, ref, 13)
    doc["samples"][3]["x_dev"] -= 1e-5
    doc["excluded"] = 1
    assert oracles.check_sweep(doc, 0.5, ref, 13)
