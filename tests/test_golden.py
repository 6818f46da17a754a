"""Byte-identity of CLI output on a fixed config set.

Each tests/golden/<command>-<case>.cfg is run as
`presslab <command> --config <cfg> --format json`, and the output bytes
must equal tests/golden/<command>-<case>.json.  The set covers grid
estimates on a toral pair (on a dyadic 16 x 16 lattice and a non-dyadic
20 x 20 one), the full shift on two and on three symbols and a gapped
Cantor pair, a closed-form estimate, a box-engine and a polygon-engine
sweep, verify, dimension, and localent with a product measure and with
Lebesgue measure.  A deliberate change to any number means regenerating the
.json file and explaining the change.
"""

import pathlib

import pytest

from presslab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def test_golden_set_is_complete():
    assert len(CASES) == 12
    for case in CASES:
        assert (GOLDEN / (case + ".json")).exists(), case


@pytest.mark.parametrize("case", CASES)
def test_json_output_is_byte_identical(case, tmp_path):
    out = tmp_path / (case + ".json")
    command = case.split("-")[0]
    assert main([command, "--config", str(GOLDEN / (case + ".cfg")),
                 "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / (case + ".json")).read_bytes()
