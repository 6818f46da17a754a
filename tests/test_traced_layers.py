"""Every layer the traced benchmark runner wraps still exists, and its
hooks still read what the layers return.

perfbench/traced.py names its layers as `module.attribute[.attribute]`
strings; a deleted or renamed function would only show up as an
`absent` line in a traced run.  This resolves each name the same way
the runner does, so a rename fails here first, and runs the runner on
one grid request, so a changed argument or result fails here too."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from test_golden import GREEDY_COUNTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for target, _, _ in layers:
        module_name, _, path = target.partition(".")
        owner = importlib.import_module("presslab." + module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert name in vars(owner), target


def test_traced_runner_counts_the_grid_greedies(tmp_path):
    # the hooks read len(balls) of the cover greedy and the kept count
    # of both packings; a grid estimate must read all three above 0,
    # and the cover counts of the golden's own greedy count
    counters = tmp_path / "counters.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(counters), "estimate",
         "--config", str(ROOT / "tests" / "golden" /
                         "estimate-torus-grid.cfg"),
         "--format", "json", "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(counters.read_text(encoding="utf-8"))
    assert doc["absent"] == []
    for name in ("grid.cover_candidates", "grid.cover_picked",
                 "grid.packing_kept"):
        assert doc["values"].get(name, 0) > 0, name
    # and the cover hook reads the atoms and the picks the greedy sees
    _, candidates, picked = GREEDY_COUNTS["estimate-torus-grid"]
    assert doc["values"]["grid.cover_candidates"] == candidates
    assert doc["values"]["grid.cover_picked"] == picked
