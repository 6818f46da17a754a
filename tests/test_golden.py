"""Byte-identity of CLI output on a fixed config set.

Each tests/golden/<command>-<case>.cfg is run as
`presslab <command> --config <cfg> --format json`, and the output bytes
must equal tests/golden/<command>-<case>.json.  The set covers grid
estimates on a toral pair (on a dyadic 16 x 16 lattice and a non-dyadic
20 x 20 one), the full shift on two and on three symbols and a gapped
Cantor pair, a closed-form estimate, a box-engine and a polygon-engine
sweep, verify, dimension on one generator (of equal and of unequal
slopes) and on two, and localent with a product measure and with
Lebesgue measure.  A deliberate change to any number means regenerating
the .json file and explaining the change.

The bytes are the same on every supported Python: each case also runs
with `sum` compensating float items, as CPython adds them from 3.12.
"""

import builtins
import math
import pathlib

import pytest

from presslab import analytic, grid, words
from presslab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def test_golden_set_is_complete():
    assert len(CASES) == 14
    for case in CASES:
        assert (GOLDEN / (case + ".json")).exists(), case


@pytest.mark.parametrize("case", CASES)
def test_json_output_is_byte_identical(case, tmp_path):
    out = tmp_path / (case + ".json")
    command = case.split("-")[0]
    assert main([command, "--config", str(GOLDEN / (case + ".cfg")),
                 "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / (case + ".json")).read_bytes()


_builtin_sum = builtins.sum


def _compensated_sum(items, start=0):
    """`sum` as CPython >= 3.12 adds an all-float sequence: Neumaier's
    running compensation, added back at the end when finite."""
    items = list(items)
    if start != 0 or not items or any(type(x) is not float for x in items):
        return _builtin_sum(items, start)
    total = comp = 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def _clear_caches():
    for module in (analytic, grid, words):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_float_sums_run_left_to_right():
    assert words.add_floats([1e16, 1.0, -1e16]) == 0.0
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0


@pytest.mark.parametrize("case", CASES)
def test_bytes_do_not_move_under_a_compensated_sum(case, tmp_path,
                                                   monkeypatch):
    # every cache is emptied before and after, so no value summed under
    # one `sum` is read under the other
    _clear_caches()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    try:
        test_json_output_is_byte_identical(case, tmp_path)
    finally:
        _clear_caches()


# (calls, candidate atoms, picked atoms) of the cover greedy per grid case
GREEDY_COUNTS = {
    "estimate-torus-grid": (13, 5120, 1078),
    "estimate-shift-grid": (13, 10240, 2944),
    "estimate-shift3-grid": (16, 9396, 3348),
    "estimate-cantor-grid": (13, 1600, 1040),
}


@pytest.mark.parametrize("case", list(GREEDY_COUNTS))
def test_cover_greedy_counts_are_unchanged(case, tmp_path, monkeypatch):
    # the greedy sees the same atoms and picks as many as the dense-mask
    # greedy did, so per-layer counters stay comparable across versions
    counts = [0, 0, 0]
    greedy = grid._GridEngine._greedy_cover_matrix

    def counted(self, balls, lw):
        log_cost, picked = greedy(self, balls, lw)
        counts[0] += 1
        counts[1] += len(balls)
        counts[2] += len(picked)
        return log_cost, picked

    monkeypatch.setattr(grid._GridEngine, "_greedy_cover_matrix", counted)
    grid._grid_engine.cache_clear()
    assert main(["estimate", "--config", str(GOLDEN / (case + ".cfg")),
                 "--format", "json", "--out",
                 str(tmp_path / "out.json")]) == 0
    assert tuple(counts) == GREEDY_COUNTS[case]


# (calls, kept points) of the greedy and of the exhaustive packing per
# grid case
PACKING_COUNTS = {
    "estimate-torus-grid": ((5, 80), (2, 8)),
    "estimate-shift-grid": ((5, 640), (2, 128)),
    "estimate-shift3-grid": ((10, 636), (4, 216)),
    "estimate-cantor-grid": ((5, 400), (2, 160)),
}


@pytest.mark.parametrize("case", list(PACKING_COUNTS))
def test_packing_counts_are_unchanged(case, tmp_path, monkeypatch):
    # a greedy packing that computes only the balls it keeps keeps the
    # same points as one that read them from a layout of every ball
    counts = {"_greedy_packing": [0, 0], "_mask_packing": [0, 0]}

    def counter(name):
        packing = getattr(grid._GridEngine, name)

        def counted(self, balls, w_log):
            log_sum, kept = packing(self, balls, w_log)
            counts[name][0] += 1
            counts[name][1] += kept
            return log_sum, kept
        return counted

    for name in counts:
        monkeypatch.setattr(grid._GridEngine, name, counter(name))
    grid._grid_engine.cache_clear()
    assert main(["estimate", "--config", str(GOLDEN / (case + ".cfg")),
                 "--format", "json", "--out",
                 str(tmp_path / "out.json")]) == 0
    assert (tuple(counts["_greedy_packing"]),
            tuple(counts["_mask_packing"])) == PACKING_COUNTS[case]
