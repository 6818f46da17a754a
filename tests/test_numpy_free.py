"""The package runs without numpy.

No module imports numpy: closed forms and the grid engine alike are
standard library.  Each request here runs in a fresh interpreter; where
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
# the golden configs that closed forms serve, and those of the grid engine
CLOSED_FORM = ("dimension", "dimension-pair", "estimate-diagonal",
               "localent-lebesgue", "localent-product", "sweep-diagonal",
               "sweep-shear")
GRID = tuple(sorted({path.stem for path in GOLDEN.glob("*.cfg")}
                    - set(CLOSED_FORM)))
BLOCK = "import sys; sys.modules['numpy'] = None\n"
CLI = "from presslab.cli import main\nstatus = main(sys.argv[1:])\n"


def _python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC))


def _golden_args(case):
    return (case.split("-")[0], "--config", str(GOLDEN / (case + ".cfg")),
            "--format", "json")


def _blocked_golden(case):
    proc = _python(BLOCK + CLI + "sys.exit(status)", *_golden_args(case))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / (case + ".json")).read_bytes()


@pytest.mark.parametrize("case", CLOSED_FORM)
def test_closed_form_golden_runs_without_numpy(case):
    _blocked_golden(case)


@pytest.mark.parametrize("case", GRID)
def test_grid_golden_runs_without_numpy(case):
    _blocked_golden(case)


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = _python("import sys\nimport presslab.cli\n"
                   "print('numpy' in sys.modules)")
    assert proc.stdout == b"False\n", proc.stderr


def test_a_grid_request_runs_without_numpy(tmp_path):
    # numpy is never imported where it is installed, and a grid request
    # exits 0 where it is blocked
    args = _golden_args("estimate-torus-grid") + (
        "--out", str(tmp_path / "out.json"))
    proc = _python("import sys\n" + CLI + "print(status, 'numpy' in "
                   "sys.modules)", *args)
    assert proc.stdout == b"0 False\n", proc.stderr
    blocked = _python(BLOCK + CLI + "sys.exit(status)", *args)
    assert blocked.returncode == 0, blocked.stderr
