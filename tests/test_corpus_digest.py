"""Verdicts of a seeded corpus of KKT pairs, pinned in one golden digest.

tests/golden/corpus_verdicts.json holds, for each of 250 pairs drawn from
the suite's own generators, the discrete outcome of a full analysis: the
classifier tag and certificate, the SOSC verdict, the x-part verdict,
SRCQ, RCQ, the cond_i verdict and evidence and the cond_ii evidence. It
pins no floats, so it holds exactly when a change keeps every verdict.
Regenerate it with

    PYTHONPATH=src python tests/test_corpus_digest.py --write
"""

import json
import os
import sys

import numpy as np

from conftest import context, coupled_block_pair, planted_block_pair, planted_pair, sample_diag_problem
from kkt_spectra.criticality import classify_multiplier, rcq_holds, srcq_holds, xpart_condition
from kkt_spectra.sosc import check_soscy, theorem3_conditions

DIGEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus_verdicts.json")


def corpus():
    """(label, pd, x, Y) of every pair, in a fixed order, each family from its own seed."""
    rng = np.random.default_rng(101)
    for i in range(40):
        yield (f"coupled_q2-{i}", *coupled_block_pair(rng, int(rng.integers(3, 6)), 2))
    rng = np.random.default_rng(102)
    for i in range(30):
        yield (f"coupled_q3-{i}", *coupled_block_pair(rng, int(rng.integers(4, 7)), 3))
    rng = np.random.default_rng(103)
    for i in range(60):
        yield (f"planted_block-{i}", *planted_block_pair(rng)[:3])
    rng = np.random.default_rng(104)
    for kind in ("diagonal", "rotated", "coupled"):
        for i in range(30):
            yield (f"planted_{kind}-{i}", *planted_pair(rng, kind, int(rng.integers(1, 4)), int(rng.integers(2, 5))))
    rng = np.random.default_rng(105)
    for i in range(30):
        yield (f"diag-{i}", *sample_diag_problem(rng, 1 + i % 4, 1 + (i // 4) % 4, pd_quad=i % 2 == 0)[:3])


def verdicts(pd, x, Y) -> dict:
    """The discrete outcomes of a full analysis of the pair."""
    sysm = context(pd, x, Y)
    v = classify_multiplier(sysm)
    cond = theorem3_conditions(sysm)
    return {
        "tag": v.tag,
        "certificate": v.certificate,
        "sosc": check_soscy(sysm).verdict,
        "xpart": xpart_condition(sysm)["holds"],
        "srcq": srcq_holds(sysm.ctx.decomp, sysm.Dt),
        "rcq": rcq_holds(sysm.G, sysm.Ds),
        "cond_i": [cond["cond_i"]["verdict"], cond["cond_i"]["evidence"]],
        "cond_ii": cond["cond_ii"]["evidence"],
    }


def digest() -> dict:
    return {label: verdicts(pd, x, Y) for label, pd, x, Y in corpus()}


def test_corpus_verdicts_match_digest():
    with open(DIGEST, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = digest()
    assert list(got) == list(expected)
    changed = {label: (expected[label], got[label]) for label in got if got[label] != expected[label]}
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(DIGEST, "w", encoding="utf-8") as fh:
        json.dump(digest(), fh, indent=1)
        fh.write("\n")
