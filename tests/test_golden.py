"""Default JSON of the report subcommands, pinned byte for byte.

tests/golden/<command>_<family>.json holds the output of
`kkt-spectra <command> --family <family> --format json`.
"""

import contextlib
import io
import os

import pytest

from kkt_spectra.cli import main

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
