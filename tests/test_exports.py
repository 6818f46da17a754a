"""The package namespace: every exported name resolves, and names deleted
from the package stay deleted."""

import argparse
import dataclasses
import inspect

import presslab
import presslab.cli
import presslab.dimension
import presslab.errors
import presslab.lift
import presslab.localent
import presslab.pressure
import presslab.systems
import presslab.words

DELETED = ("BerendVerdict", "berend_check", "_commute",
           "single_generator_entropy", "conjugacy_example_report",
           "UnderResolved", "LiftPoint", "skew_apply", "lifted_potential",
           "lift_birkhoff_sum")


def test_every_exported_name_resolves():
    assert len(set(presslab.__all__)) == len(presslab.__all__)
    for name in presslab.__all__:
        assert hasattr(presslab, name), name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in presslab.__all__
        for module in (presslab, presslab.systems, presslab.errors,
                       presslab.lift):
            assert not hasattr(module, name), (module.__name__, name)
    for attr in ("eigenvalues", "char_poly_irreducible_over_z", "trace"):
        assert not hasattr(presslab.systems.ToralGenerator, attr), attr
    assert "random_count" not in vars(presslab.words.WordPool(2))
    assert not hasattr(presslab.pressure.PressureEstimate, "replaced")


def test_no_entry_point_takes_a_word_pool():
    """The word pool is a function of (m, seed), so no public function
    takes one beside the seed, and the CLI keeps none."""
    for name in presslab.__all__:
        obj = getattr(presslab, name)
        if inspect.isfunction(obj):
            assert "pool" not in inspect.signature(obj).parameters, name
    setup = presslab.cli.RunSetup({"system": ("diag:2,3|3,2", 1)},
                                  argparse.Namespace(out=None, format="csv"))
    assert not hasattr(setup, "pool")
    assert "WordPool" not in vars(presslab.cli)


def test_unread_knobs_and_fields_are_gone():
    assert "harmonics" not in \
        inspect.signature(presslab.random_potential).parameters
    for record, field in (
            (presslab.pressure.Extrapolation, "depths"),
            (presslab.localent.MeasureModel, "dimensions"),
            (presslab.localent.MarginalBoundReport, "h_product")):
        assert field not in [f.name for f in dataclasses.fields(record)]
    assert not hasattr(presslab.dimension.ExpansionField, "log_lambda")
