"""The package namespace: every exported name resolves, and names deleted
from the package stay deleted."""

import presslab
import presslab.errors
import presslab.lift
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
