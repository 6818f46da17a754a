"""Multi-potential construction, parsing, and the class transforms."""

import math

import pytest

from presslab.dimension import unstable_multipotential
from presslab.errors import ParseError
from presslab.potentials import (
    MultiPotential,
    constant_potential,
    coordinate_potential,
    parse_potential,
    random_potential,
    zero_potential,
)
from presslab.systems import parse_system


def test_zero_potential():
    phi = zero_potential(2)
    assert phi.m == 2
    assert phi.eval(1, 0.4) == 0.0
    assert phi.eval(2, (0.1, 0.2)) == 0.0
    assert phi.is_constant_class
    assert phi.constant_values == (0.0, 0.0)


def test_constant_potential_eval_ignores_the_point():
    phi = constant_potential([0.5, -0.25])
    assert phi.eval(1, 0.1) == 0.5
    assert phi.eval(1, (0.9, 0.9)) == 0.5
    assert phi.eval(2, 0.7) == -0.25
    assert phi.constant_values == (0.5, -0.25)


def test_component_index_is_one_based():
    phi = constant_potential([0.5, -0.25])
    with pytest.raises((IndexError, ValueError)):
        phi.eval(0, 0.3)
    with pytest.raises((IndexError, ValueError)):
        phi.eval(3, 0.3)


def test_coordinate_potential():
    phi = coordinate_potential(2)
    assert phi.eval(1, (0.25, 0.75)) == pytest.approx(0.25)
    assert phi.eval(2, 0.4) == pytest.approx(0.4)
    assert not phi.is_constant_class


def test_random_potential_is_seeded_and_smooth():
    phi = random_potential(2, seed=7)
    a = phi.eval(1, 0.3)
    assert a == pytest.approx(phi.eval(1, 0.3))
    assert a == pytest.approx(random_potential(2, seed=7).eval(1, 0.3))
    assert a != pytest.approx(random_potential(2, seed=8).eval(1, 0.3))
    # small move, small change: fourier sums with few harmonics
    assert abs(phi.eval(1, 0.3) - phi.eval(1, 0.3001)) < 0.02
    assert not phi.is_constant_class
    assert phi.constant_values is None


def test_random_potential_amplitude_bound():
    phi = random_potential(2, seed=3, amplitude=0.1)
    worst = max(abs(phi.eval(j, i / 200.0))
                for j in (1, 2) for i in range(200))
    assert worst <= 0.1 + 1e-9


def test_scale_shift_permute():
    phi = constant_potential([0.5, -0.25])
    assert phi.scale(2.0).constant_values == (1.0, -0.5)
    assert phi.shifted(0.1).constant_values == pytest.approx((0.6, -0.15))


def test_sup_bound_and_distance():
    phi = constant_potential([0.5, -0.25])
    psi = zero_potential(2)
    assert phi.sup_bound() == pytest.approx(0.5)
    assert phi.sup_distance(psi) == pytest.approx(0.5)
    assert psi.sup_distance(psi) == 0.0


def _grid(system):
    """A fine grid of domain points: 41 x 41 on the torus, 501 on the
    interval."""
    if system.is_toral:
        xs = [i / 41 for i in range(41)]
        return [(x, y) for x in xs for y in xs]
    return [i / 500 for i in range(501)]


SUP_POTENTIALS = [
    zero_potential(2),
    coordinate_potential(2, scale=-2.0).shifted(0.5),
    constant_potential([0.5, -0.25]),
] + [random_potential(2, seed=k, amplitude=0.3) for k in range(5)]


@pytest.mark.parametrize("spec", ["diag:2,3|3,2", "cantor:2,2|2,2"])
def test_sup_bound_dominates_every_value(spec):
    system = parse_system(spec)
    pts = _grid(system)
    for phi in SUP_POTENTIALS:
        bound = phi.sup_bound()
        for j in (1, 2):
            assert max(abs(phi.eval(j, x)) for x in pts) <= bound


@pytest.mark.parametrize("spec", ["diag:2,3|3,2", "cantor:2,2|2,2"])
def test_sup_distance_dominates_every_difference(spec):
    system = parse_system(spec)
    pts = _grid(system)
    for phi in SUP_POTENTIALS:
        for psi in SUP_POTENTIALS:
            bound = phi.sup_distance(psi)
            for j in (1, 2):
                assert max(abs(phi.eval(j, x) - psi.eval(j, x))
                           for x in pts) <= bound


def test_sup_bounds_are_exact_on_component_data():
    for k in range(4):
        phi = random_potential(2, seed=k, amplitude=0.3)
        assert phi.sup_bound() == pytest.approx(0.3)
        assert phi.sup_distance(phi) == 0.0
        # a rescaled copy shares every base: only the scales differ
        assert phi.sup_distance(phi.scale(2.0)) == pytest.approx(0.3)
    coord = coordinate_potential(2, scale=-2.0).shifted(0.5)
    assert coord.sup_bound() == 2.5
    assert coord.sup_distance(zero_potential(2)) == 2.5
    # an expansion component is bounded by its largest |log slope|
    expand = unstable_multipotential(parse_system("cantor:2,4"))
    assert expand.sup_bound() == math.log(4.0)


def test_parse_forms():
    assert parse_potential("zero", 2).constant_values == (0.0, 0.0)
    assert parse_potential("constants:0.5,-0.25", 2).constant_values == \
        (0.5, -0.25)
    # one value broadcasts to every component
    assert parse_potential("constants:0.5", 3).constant_values == \
        (0.5, 0.5, 0.5)
    assert parse_potential("coordinate", 2).eval(1, (0.25, 0.0)) == \
        pytest.approx(0.25)
    pr = parse_potential("random:7,0.3", 2)
    assert pr.eval(1, 0.3) == pytest.approx(
        random_potential(2, seed=7, amplitude=0.3).eval(1, 0.3))


@pytest.mark.parametrize("bad", [
    "nosuch",
    "constants:",
    "constants:1,2,3",     # wrong arity for m=2
    "random:x",
    "random:",
])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_potential(bad, 2, line=9)
