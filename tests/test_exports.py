"""The package namespace: every exported name resolves, and names deleted
from the package stay deleted."""

import argparse
import ast
import inspect
import pathlib
import re
import subprocess
import sys

import presslab
import presslab.analytic
import presslab.cli
import presslab.dimension
import presslab.errors
import presslab.grid
import presslab.lift
import presslab.localent
import presslab.pressure
import presslab.records
import presslab.systems
import presslab.words

DELETED = ("BerendVerdict", "berend_check", "_commute",
           "single_generator_entropy", "conjugacy_example_report",
           "UnderResolved", "LiftPoint", "skew_apply", "lifted_potential",
           "lift_birkhoff_sum", "WordPool", "shannon_entropy",
           "ExpansionField", "expansion_field")


def test_every_exported_name_resolves():
    assert len(set(presslab.__all__)) == len(presslab.__all__)
    for name in presslab.__all__:
        assert hasattr(presslab, name), name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in presslab.__all__
        for module in (presslab, presslab.systems, presslab.errors,
                       presslab.lift, presslab.words, presslab.localent,
                       presslab.dimension):
            assert not hasattr(module, name), (module.__name__, name)
    for attr in ("eigenvalues", "char_poly_irreducible_over_z", "trace"):
        assert not hasattr(presslab.systems.ToralGenerator, attr), attr
    assert not hasattr(presslab.pressure.PressureEstimate, "replaced")
    for record in (presslab.pressure.Report,
                   presslab.localent.MarginalBoundReport):
        assert not hasattr(record, "failed"), record


def test_no_entry_point_takes_a_word_pool():
    """The word pool is a function of (m, seed, n), so no public function
    takes one beside the seed, and the CLI keeps none."""
    for name in presslab.__all__:
        obj = getattr(presslab, name)
        if inspect.isfunction(obj):
            assert "pool" not in inspect.signature(obj).parameters, name
    setup = presslab.cli.RunSetup({"system": ("diag:2,3|3,2", 1)},
                                  argparse.Namespace(out=None, format="csv"))
    assert not hasattr(setup, "pool")
    assert "pool_words" not in vars(presslab.cli)


def test_unread_knobs_and_fields_are_gone():
    assert "harmonics" not in \
        inspect.signature(presslab.random_potential).parameters
    for record, field in (
            (presslab.pressure.Extrapolation, "depths"),
            (presslab.localent.MeasureModel, "dimensions"),
            (presslab.localent.MarginalBoundReport, "h_product")):
        assert field not in [f.name
                             for f in presslab.records.fields(record)]


def test_no_module_imports_numpy():
    """The package is standard library only, and `pressure` names only
    the `_GridEngine` alias from the grid module."""
    src = pathlib.Path(presslab.__file__).parent.parent
    importers = {path.name for path in src.rglob("*.py")
                 if re.search(r"^\s*(import|from) numpy\b",
                              path.read_text(encoding="utf-8"), re.M)}
    assert importers == set()
    assert presslab.pressure._GridEngine is presslab.grid._GridEngine
    for name in ("_grid_engine", "_grid_engine_for", "_ENGINE_CACHE",
                 "GRID_BUDGET", "np"):
        assert not hasattr(presslab.pressure, name), name
    for name in ("grid_shape", "grid_points", "grid_metrics"):
        assert not hasattr(presslab.systems.SemigroupSystem, name), name
    assert not hasattr(presslab.systems, "GRID_MAX_TORUS")


def test_no_request_imports_the_stdlib_introspection_modules():
    """Every request imports `cli`, and a grid request `grid` as well;
    neither loads `dataclasses`, nor `inspect`, `ast` or `dis`, which it
    imports.  A fresh interpreter, since this test module imports them."""
    heavy = ("dataclasses", "inspect", "ast", "dis")
    code = ("import sys; import presslab.cli, presslab.grid; "
            "print(*[m for m in %r if m in sys.modules])" % (heavy,))
    src = pathlib.Path(presslab.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_no_module_asserts():
    """No output may depend on `python -O`: the package checks with
    exceptions, never with `assert` statements."""
    src = pathlib.Path(presslab.__file__).parent
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert asserts == [], (path.name, asserts)


def test_one_system_constructor_and_one_engine_cache():
    """`parse_system` builds every system, the grid engines live in one
    `lru_cache`, and the stdlib rounds Fractions."""
    assert not hasattr(presslab.grid, "_ENGINE_CACHE")
    assert presslab.grid._grid_engine.cache_info().maxsize == 7
    for name in ("toral_system", "diagonal_system", "cantor_system"):
        assert not hasattr(presslab.systems, name), name
    for name in ("frac_ceil", "frac_floor"):
        assert not hasattr(presslab.analytic, name), name
    assert "steps" not in \
        inspect.signature(presslab.systems.shift_system).parameters
