"""Closed-form requests run without numpy.

Only the grid engine uses numpy, and `pressure` imports it at its grid
fallback alone.  Each request here runs in a fresh interpreter; where
numpy is blocked, `sys.modules['numpy']` is None, so any import of it
raises."""

import os
import pathlib
import subprocess
import sys

import pytest

import presslab

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = str(pathlib.Path(presslab.__file__).resolve().parent.parent)
# the golden configs that no grid engine serves
NUMPY_FREE = ("dimension", "dimension-pair", "estimate-diagonal",
              "localent-lebesgue", "localent-product", "sweep-diagonal",
              "sweep-shear")
BLOCK = "import sys; sys.modules['numpy'] = None\n"
CLI = "from presslab.cli import main\nstatus = main(sys.argv[1:])\n"


def _python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC))


def _golden_args(case):
    return (case.split("-")[0], "--config", str(GOLDEN / (case + ".cfg")),
            "--format", "json")


@pytest.mark.parametrize("case", NUMPY_FREE)
def test_closed_form_golden_runs_without_numpy(case):
    proc = _python(BLOCK + CLI + "sys.exit(status)", *_golden_args(case))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / (case + ".json")).read_bytes()


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = _python("import sys\nimport presslab.cli\n"
                   "print('numpy' in sys.modules)")
    assert proc.stdout == b"False\n", proc.stderr


def test_a_grid_request_loads_numpy(tmp_path):
    args = _golden_args("estimate-torus-grid") + (
        "--out", str(tmp_path / "out.json"))
    proc = _python("import sys\n" + CLI + "print(status, 'numpy' in "
                   "sys.modules)", *args)
    assert proc.stdout == b"0 True\n", proc.stderr
    blocked = _python(BLOCK + CLI, *args)
    assert blocked.returncode != 0
    assert b"import of numpy halted" in blocked.stderr
