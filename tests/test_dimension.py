import math
from fractions import Fraction

import pytest

from presslab import analytic
from presslab import dimension
from presslab.dimension import _bisect_root, bowen_root, \
    unstable_multipotential
from presslab.errors import AnalyticUnavailable
from presslab.pressure import estimate_pressure
from presslab.systems import parse_system

TERNARY = parse_system("cantor:3,3")
SLOPE5 = parse_system("cantor:5,5")
PAIR = parse_system("cantor:3,3|5,5")


def test_unstable_multipotential_reads_the_exact_slopes():
    # uniform slopes give a constant, mixed ones an expansion component
    # whose params are the generator's slopes themselves
    assert unstable_multipotential(TERNARY).components == \
        (("zero", (), 0.0, -math.log(3)),)
    system = parse_system("cantor:2,4")
    phi = unstable_multipotential(system)
    assert phi.components == (("expansion", system.generators[0].slopes,
                               1.0, 0.0),)
    assert phi.components[0][1] == (Fraction(2), Fraction(4))


def test_unstable_multipotential_rejects_too_slow():
    for spec in ("diag:1,1", "diag:-2,-2"):
        with pytest.raises(ValueError,
                           match="expansion rates must exceed 1"):
            unstable_multipotential(parse_system(spec))


def test_declines_come_before_the_rate_check():
    # a slow first generator is refused only once every generator has
    # its derivative data
    with pytest.raises(AnalyticUnavailable, match="non-diagonal"):
        unstable_multipotential(parse_system("toral:1,0,0,1;0,1,1,2"))


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


def test_unstable_multipotential_on_a_conformal_torus():
    phi = unstable_multipotential(parse_system("diag:2,2|3,3"))
    assert phi.constant_values == (-math.log(2), -math.log(3))


@pytest.mark.parametrize("spec, reason", [
    ("toral:0,1,1,2", "non-diagonal toral generator"),
    ("shift:2", "for this domain"),
], ids=["toral", "shift"])
def test_unstable_multipotential_missing_derivative_data(spec, reason):
    with pytest.raises(AnalyticUnavailable,
                       match="missing derivative data.*" + reason):
        unstable_multipotential(parse_system(spec))


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


def test_unequal_slopes_bracket_the_root():
    # cantor:2,4 has dimension t = log2 of the golden ratio, where
    # 2**-t + 4**-t = 1; there both sides weigh every depth-n cylinder by
    # its summed branch weights, so at n = 96 they are log(ncov) / n and
    # log(npack) / n plus rounding (the lower side was -0.258 with
    # packings weighed by the lightest branch, and the root sat at 0.589)
    system = parse_system("cantor:2,4")
    truth = math.log2((1 + math.sqrt(5)) / 2)
    est = estimate_pressure(system,
                            unstable_multipotential(system).scale(truth),
                            "amalgamated", 96, 0.125, engine="analytic")
    ncov, npack = analytic._single_core_numbers(system, Fraction(1, 8))
    assert est.upper == pytest.approx(math.log(ncov) / 96, abs=1e-12)
    assert est.lower == pytest.approx(math.log(npack) / 96, abs=1e-12)
    res = bowen_root(system, 96, 0.125)
    assert res.t_uA == pytest.approx(0.70654296875, abs=1e-12)
    assert abs(res.t_uA - truth) <= 0.02


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


def test_one_core_pass_per_system_and_radius(monkeypatch):
    # the one-generator subsystem equals the family, whatever its name,
    # so every bisection step of both roots reads one memoized core
    passes = []
    levels = analytic._core_levels

    def counted(system):
        passes.append(system.name)
        return levels(system)

    monkeypatch.setattr(analytic, "_core_levels", counted)
    analytic._single_core_numbers.cache_clear()
    bowen_root(TERNARY, 48, 0.125)
    assert passes == ["cantor:3,3"]


def test_a_signless_bracket_is_widened_once():
    seen = []

    def pressure(t):
        seen.append(t)
        return 0.6573 - t

    root, _, _ = _bisect_root(pressure, (0.7, 0.9))
    # p(0.7) < 0 already, so the bracket widens to (0.5, 1.1)
    assert seen[:3] == pytest.approx([0.7, 0.5, 1.1], abs=1e-12)
    assert root == pytest.approx(0.6573, abs=1e-3)
    res = bowen_root(TERNARY, 48, 0.125, (0.7, 0.9))
    assert res.t_uA == pytest.approx(0.6573, abs=1e-3)
    with pytest.raises(ValueError, match="even widened once"):
        bowen_root(TERNARY, 48, 0.125, (2.0, 3.0))


def test_a_family_root_above_a_single_map_root_is_invalid(monkeypatch):
    # the family root (the first bisection) lands above the single map's
    roots = iter([0.9, 0.5])
    monkeypatch.setattr(dimension, "_bisect_root",
                        lambda pressure, bracket: (next(roots), bracket, 1))
    with pytest.raises(ValueError, match="above a single-map root"):
        bowen_root(TERNARY, 8, 0.125)


def test_midpoints_that_do_not_fall_are_invalid():
    with pytest.raises(ValueError, match="not strictly decreasing"):
        _bisect_root(lambda t: 1.0 if t < 0.5 else -math.inf, (0.0, 1.0))


def test_the_first_pair_that_does_not_fall_is_refused_at_once():
    # each midpoint is checked against its neighbours when evaluated: the
    # tie at 0.5 is refused after three evaluations, and a rise at 0.375
    # (the third midpoint) after five, each naming its two points alone
    seen = []

    def tie(t):
        seen.append(t)
        return 1.0 if t < 0.5 else -math.inf

    with pytest.raises(ValueError) as err:
        _bisect_root(tie, (0.0, 1.0))
    assert seen == [0.0, 1.0, 0.5]
    assert str(err.value) == "pressure midpoints not strictly " \
        "decreasing: [(0.5, -inf), (1.0, -inf)]"
    seen.clear()

    def rise(t):
        seen.append(t)
        return 0.5 if t == 0.375 else 0.3 - t

    with pytest.raises(ValueError) as err:
        _bisect_root(rise, (0.0, 1.0))
    assert seen == [0.0, 1.0, 0.5, 0.25, 0.375]
    assert str(err.value).endswith("[(0.25, 0.04999999999999999), "
                                   "(0.375, 0.5)]")
