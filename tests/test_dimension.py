import math

import pytest

from presslab.dimension import bowen_root, expansion_field, unstable_multipotential
from presslab.errors import AnalyticUnavailable
from presslab.systems import parse_system

TERNARY = parse_system("cantor:3,3")
SLOPE5 = parse_system("cantor:5,5")
PAIR = parse_system("cantor:3,3|5,5")


def test_expansion_field_ternary():
    field = expansion_field(TERNARY)
    assert len(field.per_generator) == 1
    slopes = [s for _, s in field.per_generator[0]]
    assert slopes == [3.0, 3.0]


def test_expansion_field_rejects_too_slow():
    doubling = parse_system("cantor:2,2")
    field = expansion_field(doubling)
    assert field.per_generator == (((0.0, 2.0), (0.5, 2.0)),)
    with pytest.raises(ValueError):
        type(field)((((0.0, 0.5),),))


def test_unstable_multipotential_constant_for_uniform_slopes():
    phi = unstable_multipotential(TERNARY)
    assert phi.is_constant_class
    assert phi.constant_values == pytest.approx((-math.log(3),), abs=1e-12)
    psi = unstable_multipotential(PAIR)
    assert psi.constant_values == pytest.approx(
        (-math.log(3), -math.log(5)), abs=1e-12)


def test_mixed_slope_component_has_no_pointwise_value():
    phi = unstable_multipotential(parse_system("cantor:2,4"))
    assert not phi.is_constant_class
    with pytest.raises(ValueError, match="closed-form only"):
        phi.eval(1, 0.1)


def test_conformality_rejection_on_anisotropic_torus():
    diag = parse_system("diag:2,3|3,2")
    with pytest.raises(AnalyticUnavailable, match="conformality fails"):
        unstable_multipotential(diag)
    with pytest.raises(AnalyticUnavailable, match="conformality fails"):
        bowen_root(diag, 8, 0.125)


def test_ternary_root_near_log2_over_log3():
    res = bowen_root(TERNARY, 96, 0.125)
    assert res.t_uA == pytest.approx(0.64404296875, abs=1e-12)
    assert abs(res.t_uA - math.log(2) / math.log(3)) <= 0.02
    lo, hi = res.bracket
    assert lo <= res.t_uA <= hi
    assert res.iterations >= 8


def test_slope_five_root():
    res = bowen_root(SLOPE5, 96, 0.125)
    assert res.t_uA == pytest.approx(0.43505859375, abs=1e-12)
    assert abs(res.t_uA - math.log(2) / math.log(5)) <= 0.02


def test_pair_root_sits_below_both_members():
    res = bowen_root(PAIR, 96, 0.125)
    assert res.t_uA == pytest.approx(0.22216796875, abs=1e-12)
    assert res.per_map_roots == pytest.approx(
        (0.64404296875, 0.43505859375), abs=1e-12)
    assert res.t_uA <= min(res.per_map_roots)


def test_root_tracks_slope_scaling():
    # doubling the slope from 4 to 8 moves log2/log(s) from 1/2 to 1/3
    r4 = bowen_root(parse_system("cantor:4,4"), 96, 0.125)
    r8 = bowen_root(parse_system("cantor:8,8"), 96, 0.125)
    assert r4.t_uA == pytest.approx(0.50537109375, abs=1e-12)
    assert r8.t_uA == pytest.approx(0.33642578125, abs=1e-12)
    assert abs(r4.t_uA - 0.5) <= 0.01
    assert abs(r8.t_uA - 1.0 / 3) <= 0.01
    assert r8.t_uA < r4.t_uA


def test_root_determinism():
    a = bowen_root(TERNARY, 48, 0.125)
    b = bowen_root(TERNARY, 48, 0.125)
    assert a.t_uA == b.t_uA
    assert a.bracket == b.bracket
