import math

import pytest

from presslab import localent
from presslab.balls import BallSpec, ball_contains
from presslab.errors import AnalyticUnavailable, ParseError
from presslab.localent import (
    LocalEntropyEstimate,
    ball_measure,
    dirac_measure,
    empirical_measure,
    lebesgue_measure,
    lebesgue_entropy_rate,
    local_amalgamated_entropy,
    marginal_bound_check,
    parse_measure,
    sample_points,
)
from presslab.systems import parse_system
from presslab.words import Word, pool_words

DIAG = parse_system("diag:2,3|3,2")
PAIR = parse_system("cantor:2,2|2,2")


def test_lebesgue_measure_is_uniform_unit_mass():
    leb = lebesgue_measure(DIAG, resolution=16)
    assert leb.kind == "grid"
    assert leb.resolution == 16
    whole = BallSpec("condensed", (0.5, 0.5), 1, 0.5)
    assert ball_measure(leb, DIAG, whole) == 1.0
    with pytest.raises(ValueError, match="resolution must be positive"):
        lebesgue_measure(DIAG, resolution=0)


def test_parse_measure_forms():
    leb = parse_measure("lebesgue", DIAG)
    assert leb.kind == "grid"
    d = parse_measure("dirac:0.25,0.75", DIAG)
    assert d.points == ((0.25, 0.75),)
    prod = parse_measure("bernoulli:0.5,0.5 x lebesgue", PAIR, resolution=32)
    assert prod.symbol_weights == (0.5, 0.5)
    assert prod.base.kind == "grid"


@pytest.mark.parametrize("bad", [
    "nope",
    "dirac:0.25",          # 1 coordinate on a torus
    "dirac:a,b",
    "bernoulli:0.7 x lebesgue",
    "bernoulli:0.5,0.5 x dirac:0.1",
])
def test_parse_measure_rejects(bad):
    with pytest.raises((ParseError, ValueError)):
        parse_measure(bad, DIAG)


def test_dirac_needs_one_coordinate_on_interval():
    d = parse_measure("dirac:0.25", PAIR)
    assert d.points == (0.25,)
    with pytest.raises(ParseError):
        parse_measure("dirac:0.25,0.75", PAIR)


def test_trajectory_box_mass():
    # word (1,1) on diag:2,3|3,2 pins half-widths eps/4 and eps/9,
    # so the box has mass (2*eps/4)*(2*eps/9) = eps^2/9
    leb = lebesgue_measure(DIAG, resolution=64)
    spec = BallSpec("trajectory", (0.5, 0.5), 2, 0.125, word=Word((1, 1)))
    assert ball_measure(leb, DIAG, spec) == pytest.approx(1.0 / 576, abs=1e-12)


def test_exhaustive_star_mass():
    # union over the four depth-2 words: 5*eps^2/27
    leb = lebesgue_measure(DIAG, resolution=64)
    spec = BallSpec("exhaustive", (0.5, 0.5), 2, 0.125)
    assert ball_measure(leb, DIAG, spec) == pytest.approx(5.0 / 1728, abs=1e-12)


def test_condensed_intersection_mass():
    leb = lebesgue_measure(DIAG, resolution=64)
    spec = BallSpec("condensed", (0.5, 0.5), 2, 0.125)
    assert ball_measure(leb, DIAG, spec) == pytest.approx(1.0 / 1296, abs=1e-12)


def test_condensed_depth_one_mass():
    leb = lebesgue_measure(DIAG, resolution=64)
    # every point of the torus is within 1/2 < eps of the center
    spec = BallSpec("condensed", (0.5, 0.5), 1, 0.75)
    assert ball_measure(leb, DIAG, spec) == 1.0


@pytest.mark.parametrize("kind, word", [
    ("trajectory", Word((1, 2))),
    ("condensed", None),
    ("exhaustive", None),
])
def test_radius_past_the_wrap_guard_has_no_exact_mass(kind, word):
    # (L + 1) eps = 1.2 > 1 on diag:2,3|3,2, but eps < 1/2: a ball may
    # wrap into pieces that the box shapes miss
    leb = lebesgue_measure(DIAG, resolution=64)
    spec = BallSpec(kind, (0.5, 0.5), 2 if word else 1, 0.3, word=word)
    with pytest.raises(AnalyticUnavailable, match="wrap guard"):
        ball_measure(leb, DIAG, spec)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_circle_condensed_arc_narrows_at_the_steepest_slope(n):
    # slopes 2 and 3 on the circle: the condensed ball is the arc of
    # half-width eps / 3**n, and the 2,160 cell centres lie off its ends
    circle = parse_system("cantor:2,2|3,3,3")
    spec = BallSpec("condensed", 0.3, n, 0.125)
    mass = ball_measure(lebesgue_measure(circle), circle, spec)
    assert mass == 2 * 0.125 / 3 ** n
    g = 2160
    inside = sum(ball_contains(circle, spec, (i + 0.5) / g)
                 for i in range(g))
    assert inside == round(mass * g)


@pytest.mark.parametrize("spec, area", [
    (BallSpec("trajectory", (0.5, 0.5), 2, 0.25, Word((1, 2))), 1 / 144),
    (BallSpec("condensed", (0.5, 0.5), 1, 0.25), 1 / 36),
    (BallSpec("exhaustive", (0.5, 0.5), 1, 0.25), 1 / 18),
])
def test_exact_mass_counts_every_member(spec, area):
    # the box edges fall between the centres of a 120 x 120 lattice, so
    # strict membership of the centres counts the whole ball exactly
    leb = lebesgue_measure(DIAG, resolution=64)
    assert ball_measure(leb, DIAG, spec) == pytest.approx(area, abs=1e-15)
    g = 120
    inside = sum(ball_contains(DIAG, spec, ((i + 0.5) / g, (j + 0.5) / g))
                 for i in range(g) for j in range(g))
    assert inside == round(area * g * g)


def test_huge_radius_covers_everything():
    leb = lebesgue_measure(DIAG, resolution=64)
    spec = BallSpec("condensed", (0.5, 0.5), 1, 3.0)
    assert ball_measure(leb, DIAG, spec) == pytest.approx(1.0, abs=1e-12)


def test_empirical_and_dirac_masses():
    emp = empirical_measure([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
    near = ball_measure(emp, DIAG, BallSpec("condensed", (0.5, 0.5), 1, 0.05))
    assert near == pytest.approx(1.0 / 3, abs=1e-12)
    d = dirac_measure((0.3, 0.3))
    assert ball_measure(d, DIAG, BallSpec("condensed", (0.3, 0.3), 1, 0.01)) == 1.0
    assert ball_measure(d, DIAG, BallSpec("condensed", (0.8, 0.8), 1, 0.01)) == 0.0


def test_dirac_local_rates_vanish():
    d = dirac_measure((0.37, 0.61))
    est = local_amalgamated_entropy(d, DIAG, (0.37, 0.61), 0.125, (2, 8))
    assert est.h_upper_local == 0.0
    assert est.h_lower_local == 0.0
    assert est.h_exhaustive_local == 0.0


def test_lebesgue_local_entropy_golden():
    leb = lebesgue_measure(DIAG, resolution=64)
    est = local_amalgamated_entropy(leb, DIAG, (0.37, 0.61), 0.125, (2, 10))
    assert est.h_upper_local == pytest.approx(2.069018341452033, abs=1e-9)
    assert est.h_lower_local == pytest.approx(2.069018341452033, abs=1e-9)
    assert est.h_exhaustive_local == pytest.approx(1.9223846345726905, abs=1e-9)
    # rates never cross: exhaustive star is the fattest ball
    assert est.h_exhaustive_local <= est.h_lower_local <= est.h_upper_local
    assert est.sequence[0][0] == 2 and est.sequence[-1][0] == 10


def test_estimate_ordering_is_enforced():
    with pytest.raises(ValueError):
        LocalEntropyEstimate(h_upper_local=1.0, h_lower_local=2.0,
                             h_exhaustive_local=0.5, x=(0.5, 0.5),
                             n_range=(2, 4), epsilon=0.125,
                             sequence=(), flags=())


def test_an_exhaustive_rate_above_the_lower_rate_is_refused(monkeypatch):
    """The union ball holds every word ball, so its mass is the largest
    and its rate the smallest.  A fault that shrinks the union masses by
    4 crosses the rates, and the estimate refuses it instead of flooring
    the exhaustive rate at the lower one."""
    exact = localent._uniform_exact_mass

    def quartered(system, epsilon):
        mass = exact(system, epsilon)
        return lambda spec: mass(spec) / (
            4 if spec.kind == "exhaustive" else 1)

    monkeypatch.setattr(localent, "_uniform_exact_mass", quartered)
    leb = lebesgue_measure(DIAG, resolution=64)
    with pytest.raises(ValueError,
                       match="exhaustive rate above the lower rate"):
        local_amalgamated_entropy(leb, DIAG, (0.37, 0.61), 0.125,
                                  range(2, 7))


def test_lebesgue_entropy_rate_diag():
    rate = lebesgue_entropy_rate(DIAG, (0.5, 0.5))
    assert rate == pytest.approx(math.log(6), abs=1e-12)


def test_sample_points_deterministic():
    leb = lebesgue_measure(DIAG, resolution=64)
    a = sample_points(leb, DIAG, 5, seed=3)
    b = sample_points(leb, DIAG, 5, seed=3)
    assert a == b
    assert len(a) == 5
    assert a[0] == (0.4765625, 0.7265625)


def test_marginal_bound_doubling_pair():
    prod = parse_measure("bernoulli:0.5,0.5 x lebesgue", PAIR, resolution=256)
    pts = sample_points(prod.base, PAIR, 4, seed=11)
    rep = marginal_bound_check(prod, PAIR, pts, 0.125, (8, 24), seed=0)
    assert rep.bound == pytest.approx(math.log(2), abs=1e-12)
    assert rep.all_ok
    for check in rep.checks:
        assert check.h_plus <= rep.bound + check.tolerance


def test_marginal_bound_is_the_base_rate():
    # the bound is the base rate itself, not the product entropy less the
    # symbol entropy worked out in floats, which lands one ulp off here
    system = parse_system("diag:2,2|2,2")
    prod = parse_measure("bernoulli:0.3,0.7 x lebesgue", system,
                         resolution=64)
    rep = marginal_bound_check(prod, system, [(0.3, 0.4)], 0.125, (2, 4),
                               seed=0)
    assert rep.bound == lebesgue_entropy_rate(system, (0.3, 0.7))
    assert rep.bound == 1.3862943611198906


def test_marginal_bound_rejects_non_ergodic():
    prod = parse_measure("bernoulli:0.25,0.75 x lebesgue", DIAG, resolution=64)
    with pytest.raises(ValueError, match="non-ergodic"):
        marginal_bound_check(prod, DIAG, [(0.3, 0.4)], 0.125, (2, 6), seed=0)


def test_marginal_bound_uniform_diagonal_family():
    prod = parse_measure("bernoulli:0.5,0.5 x lebesgue", DIAG, resolution=64)
    pts = sample_points(prod.base, DIAG, 3, seed=2)
    rep = marginal_bound_check(prod, DIAG, pts, 0.125, (2, 8), seed=0)
    assert rep.bound == pytest.approx(math.log(6), abs=1e-12)
    assert rep.all_ok


def test_marginal_check_draws_each_pool_once():
    # 20 points at depths 4..8 read the 5 pools (m, seed, n)
    prod = parse_measure("bernoulli:0.5,0.5 x lebesgue", PAIR, resolution=64)
    pts = sample_points(prod.base, PAIR, 20, seed=0)
    pool_words.cache_clear()
    marginal_bound_check(prod, PAIR, pts, 0.125, range(4, 9), seed=0)
    assert pool_words.cache_info().misses == 5


@pytest.mark.parametrize("other, mass", [(0.52, 1.0), (0.9, 0.25)])
def test_off_centre_samples_count_by_ball_membership(other, mass):
    single = parse_system("cantor:2,2")
    emp = empirical_measure([0.5, other], [0.25, 0.75])
    spec = BallSpec("trajectory", 0.5, 1, 0.1, Word((1,)))
    assert ball_measure(emp, single, spec) == mass
