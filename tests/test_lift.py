"""Skew-product lift: the bracket from the free kind, and the sandwich."""

import math

import pytest

from presslab.errors import DepthTooLarge
from presslab.lift import check_lift_inequalities, lift_pressure_estimate
from presslab.potentials import random_potential, zero_potential
from presslab.pressure import estimate_pressure
from presslab.systems import parse_system

DIAG = parse_system("diag:2,3|3,2")
ZERO2 = zero_potential(2)


def test_lift_estimate_diag_golden():
    est = lift_pressure_estimate(DIAG, ZERO2, 9, 0.125, seed=0)
    assert est.lower == pytest.approx(math.log(12), abs=1e-9)
    assert est.upper == pytest.approx(2.792972063370198, abs=1e-9)
    assert est.method == "AnalyticBox"


def test_lift_on_single_generator_adds_nothing():
    """log m vanishes at m=1, so the lift reproduces the base free
    pressure interval."""
    single = parse_system("toral:0,1,1,2")
    zero1 = zero_potential(1)
    est = lift_pressure_estimate(single, zero1, 32, 0.125, seed=0)
    h = math.log(1.0 + math.sqrt(2.0))
    assert est.lower <= h + 0.1
    assert est.upper >= h - 0.1


def test_lift_doubling_pair_brackets_log4():
    db = parse_system("cantor:2,2|2,2")
    est = lift_pressure_estimate(db, zero_potential(2), 8, 0.125, seed=0)
    assert est.lower <= math.log(4.0) + 1e-9
    assert est.upper >= math.log(4.0) - 1e-9


def test_sandwich_checks_on_diag():
    rep = check_lift_inequalities(DIAG, ZERO2, 9, 0.125, seed=0)
    assert rep.all_ok
    assert len(rep.checks) == 2
    labels = [c.name for c in rep.checks]
    assert "amalgamated lower + log m <= lift upper" in labels
    assert "lift lower <= condensed upper + log m" in labels
    assert rep.failed() == []
    assert sorted(rep.estimates) == ["amalgamated", "condensed-upper",
                                     "lift"]


def test_lift_past_the_enumeration_cap_needs_a_closed_form_average():
    """Past the word enumeration cap the lift keeps only exact word
    averages: the diagonal class sum answers, the shear pair's free
    average does not exist and the estimate refuses instead of sampling."""
    est = lift_pressure_estimate(DIAG, ZERO2, 13, 0.125, seed=0)
    assert est.lower <= est.upper
    with pytest.raises(DepthTooLarge):
        lift_pressure_estimate(parse_system("toral:0,1,1,2;2,1,1,0"), ZERO2,
                               13, 0.125, seed=0)


@pytest.mark.parametrize("spec,phi,n,epsilon", [
    ("diag:2,3|3,2", ZERO2, 9, 0.125),
    ("cantor:2,2|2,2", ZERO2, 8, 0.125),
    # a grid case: the shear pair has no closed form for this potential
    ("toral:0,1,1,2;2,1,1,0", random_potential(2, seed=2), 2, 0.25),
])
def test_lift_is_the_free_bracket_plus_log_m(spec, phi, n, epsilon):
    system = parse_system(spec)
    lift = lift_pressure_estimate(system, phi, n, epsilon, seed=0)
    free = estimate_pressure(system, phi, "free", n, epsilon, seed=0)
    assert lift.kind == "lift"
    assert lift.lower == math.log(2) + free.lower
    assert lift.upper == math.log(2) + free.upper
    assert lift.cover_size == free.cover_size
