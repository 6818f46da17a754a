"""Pressure estimates: closed forms, the grid engine, chains, sweeps."""

import heapq
import itertools
import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest

from presslab import grid
from fractions import Fraction

from presslab.analytic import exact_radius, log_sum_exp
from presslab.errors import AnalyticUnavailable, DepthTooLarge
from presslab.grid import _grid_engine, _GridEngine
from presslab.potentials import (
    MultiPotential,
    constant_potential,
    coordinate_potential,
    random_potential,
    zero_potential,
)
from presslab.pressure import (
    KINDS,
    PressureEstimate,
    estimate_pressure,
    extrapolate,
    lipschitz_check,
    min_cover_cost,
    packing_bound,
    sweep_estimates,
    trajectory_shift_check,
    verify_inequality_chain,
)
from presslab.systems import SemigroupSystem, parse_system, shift_system
from presslab.words import (
    consecutive_sum,
    constant_rule,
    dn_distance,
    explicit_rule,
    periodic_rule,
    pool_words,
)

LOG = math.log

DIAG = parse_system("diag:2,3|3,2")
SHEAR = parse_system("toral:0,1,1,2;2,1,1,0")
SINGLE = parse_system("toral:0,1,1,2")
DOUBLING = parse_system("cantor:2,2")
ZERO2 = zero_potential(2)
ZERO1 = zero_potential(1)


def test_kind_names():
    assert KINDS == ("amalgamated", "condensed-lower", "condensed-upper",
                     "exhaustive-lower", "exhaustive-upper", "free",
                     "trajectory")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        estimate_pressure(DIAG, ZERO2, "nosuch", 3, 0.125)
    with pytest.raises(ValueError):
        estimate_pressure(DIAG, ZERO2, "amalgamated", 0, 0.125)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
def test_radius_must_be_positive_and_finite(epsilon):
    for solve in (min_cover_cost, packing_bound):
        with pytest.raises(ValueError, match="radius"):
            solve(DIAG, ZERO2, "amalgamated", 3, epsilon)


def test_trajectory_requires_rule():
    with pytest.raises(ValueError):
        estimate_pressure(DIAG, ZERO2, "trajectory", 3, 0.125)


def test_diag_amalgamated_golden():
    est = estimate_pressure(DIAG, ZERO2, "amalgamated", 9, 0.125, seed=0)
    # box counts are exact for the diagonal pair, so the packing side
    # lands on the closed-form value on the nose
    assert est.lower == pytest.approx(LOG(6), abs=1e-12)
    assert est.upper == pytest.approx(2.099824882810253, abs=1e-12)
    assert est.method == "AnalyticBox"


def test_doubling_all_kinds_table():
    expected = {
        "amalgamated": (LOG(16) / 3, LOG(32) / 3, "AnalyticBox"),
        "condensed-lower": (LOG(32) / 3, LOG(64) / 3, "GenericGrid"),
        "condensed-upper": (LOG(32) / 3, LOG(64) / 3, "GenericGrid"),
        "exhaustive-lower": (LOG(64) / 3, LOG(64) / 3, "GenericGrid"),
        "exhaustive-upper": (LOG(64) / 3, LOG(64) / 3, "GenericGrid"),
        "free": (LOG(32) / 3, LOG(32) / 3, "AnalyticBox"),
    }
    for kind, (lo, up, method) in expected.items():
        est = estimate_pressure(DOUBLING, ZERO1, kind, 3, 0.125, seed=0)
        assert est.lower == pytest.approx(lo, abs=1e-9), kind
        assert est.upper == pytest.approx(up, abs=1e-9), kind
        assert est.method == method, kind


def test_doubling_trajectory_counts():
    est = estimate_pressure(DOUBLING, ZERO1, "trajectory", 3, 0.125,
                            seed=0, rule=constant_rule(1))
    assert est.cover_size == 32
    assert est.lower == pytest.approx(LOG(16) / 3, abs=1e-12)
    assert est.upper == pytest.approx(LOG(32) / 3, abs=1e-12)


def test_single_map_interval_tightens():
    h = LOG(1.0 + math.sqrt(2.0))
    est32 = estimate_pressure(SINGLE, ZERO1, "amalgamated", 32, 0.125, seed=0)
    est96 = estimate_pressure(SINGLE, ZERO1, "amalgamated", 96, 0.125, seed=0)
    assert est32.lower == pytest.approx(0.919746936310, abs=1e-9)
    assert est32.upper == pytest.approx(0.966361151209, abs=1e-9)
    assert est96.lower == pytest.approx(0.894164703450, abs=1e-9)
    assert est96.upper == pytest.approx(0.908922553123, abs=1e-9)
    assert est96.upper - est96.lower < est32.upper - est32.lower
    assert abs(0.5 * (est96.lower + est96.upper) - h) < 0.05


def test_free_class_average_past_enumeration_cap():
    # 2^13 words exceed the enumeration cap; constant classes keep the
    # average exact instead of sampling
    est = estimate_pressure(DIAG, ZERO2, "free", 13, 0.125, seed=0)
    assert est.note == "class-averaged word costs"
    assert est.lower <= est.upper


def test_estimate_lower_never_exceeds_upper():
    rng = random.Random(3)
    for _ in range(12):
        kind = KINDS[rng.randrange(len(KINDS) - 1)]  # skip trajectory
        n = rng.randint(1, 5)
        eps = rng.choice([0.0625, 0.125, 0.25])
        est = estimate_pressure(DIAG, ZERO2, kind, n, eps, seed=0)
        assert est.lower <= est.upper + 1e-12


def test_packing_stays_below_cover():
    for kind in ("amalgamated", "condensed-upper", "exhaustive-upper",
                 "free"):
        cov = min_cover_cost(DIAG, ZERO2, kind, 4, 0.125, seed=0)
        pack = packing_bound(DIAG, ZERO2, kind, 4, 0.125, seed=0)
        assert pack.log_cost <= cov.log_cost + 1e-9, kind


def test_epsilon_monotonicity_of_upper():
    for kind in ("amalgamated", "condensed-upper", "free"):
        prev = None
        for eps in (0.05, 0.1, 0.2, 0.4):
            est = estimate_pressure(DIAG, ZERO2, kind, 4, eps, seed=0)
            if prev is not None:
                assert est.upper <= prev + 1e-9, kind
            prev = est.upper


def test_engine_selection():
    phi = random_potential(2, seed=4)
    with pytest.raises(AnalyticUnavailable):
        min_cover_cost(SHEAR, phi, "amalgamated", 2, 0.25, seed=0,
                       engine="analytic")
    grid = min_cover_cost(SHEAR, phi, "amalgamated", 2, 0.25, seed=0,
                          engine="grid")
    assert grid.method == "GenericGrid"
    auto = min_cover_cost(SHEAR, phi, "amalgamated", 2, 0.25, seed=0)
    assert auto.method == "GenericGrid"
    assert auto.log_cost == grid.log_cost


def test_amalgamated_upper_below_every_pool_word_trajectory():
    """The defining minimization: no pool word may beat the amalgamated
    cover it was minimized over."""
    for system, phi, n, eps in (
        (DIAG, ZERO2, 4, 0.125),
        (DIAG, constant_potential([0.2, -0.1]), 4, 0.125),
        (SHEAR, ZERO2, 3, 0.25),
        (SHEAR, random_potential(2, seed=6), 2, 0.25),
    ):
        amalg = estimate_pressure(system, phi, "amalgamated", n, eps, seed=0)
        for w in pool_words(2, 0, n):
            traj = estimate_pressure(system, phi, "trajectory", n, eps, seed=0,
                                     rule=explicit_rule(w.symbols))
            assert amalg.upper <= traj.upper + 1e-12, (system.name,
                                                       w.symbols)


def test_chain_on_diag():
    rep = verify_inequality_chain(DIAG, ZERO2, 3, 0.125, seed=0)
    assert len(rep.checks) == 12
    assert all(c.ok for c in rep.checks)
    names = [c.name for c in rep.checks]
    assert "exhaustive-lower<=amalgamated" in names
    assert "amalgamated<=condensed-lower" in names
    assert "amalgamated<=free" in names
    assert "free<=condensed-upper" in names


def test_chain_single_engine_policy():
    """A potential without closed forms must push every kind to the grid
    so the compared covers certify the same finite universe."""
    phi = random_potential(2, seed=12)
    rep = verify_inequality_chain(SHEAR, phi, 2, 0.25, seed=0)
    assert all(c.ok for c in rep.checks)
    assert all(e.method == "GenericGrid" for e in rep.estimates.values())


def test_chain_with_a_rule_checks_the_trajectory():
    rule = periodic_rule((1, 2))
    rep = verify_inequality_chain(DIAG, ZERO2, 3, 0.125, rule=rule, seed=0)
    assert len(rep.checks) == 14
    assert all(c.ok for c in rep.checks)
    names = [c.name for c in rep.checks]
    assert "lower<=upper:trajectory" in names
    assert "amalgamated<=trajectory" in names


def test_chain_with_a_rule_on_the_grid():
    phi = random_potential(2, seed=12)
    rep = verify_inequality_chain(SHEAR, phi, 2, 0.25,
                                  rule=periodic_rule((1, 2)), seed=0)
    assert len(rep.checks) == 14
    assert all(c.ok for c in rep.checks)
    assert set(rep.estimates) == set(KINDS)
    assert all(e.method == "GenericGrid" for e in rep.estimates.values())


def test_constant_shift_identity():
    rng = random.Random(17)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0)
        base = constant_potential([rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.5, 0.5)])
        shifted = base.shifted(c)
        for kind in ("amalgamated", "condensed-upper", "free"):
            a = estimate_pressure(DIAG, base, kind, 3, 0.125, seed=0)
            b = estimate_pressure(DIAG, shifted, kind, 3, 0.125, seed=0)
            assert b.upper == pytest.approx(a.upper + c, abs=1e-9)
            assert b.lower == pytest.approx(a.lower + c, abs=1e-9)


def test_constant_shift_identity_on_grid():
    phi = random_potential(2, seed=2)
    shifted = phi.shifted(0.3)
    a = estimate_pressure(SHEAR, phi, "amalgamated", 2, 0.25, seed=0,
                          engine="grid")
    b = estimate_pressure(SHEAR, shifted, "amalgamated", 2, 0.25,
                          seed=0, engine="grid")
    assert b.upper == pytest.approx(a.upper + 0.3, abs=1e-9)
    assert b.lower == pytest.approx(a.lower + 0.3, abs=1e-9)


def test_permutation_equivariance():
    swapped = parse_system("diag:3,2|2,3")
    phi = constant_potential([0.2, -0.1])
    phi_sw = constant_potential([-0.1, 0.2])
    for kind in ("amalgamated", "condensed-upper", "exhaustive-upper",
                 "free"):
        a = estimate_pressure(DIAG, phi, kind, 3, 0.125, seed=0)
        b = estimate_pressure(swapped, phi_sw, kind, 3, 0.125, seed=0)
        assert a.upper == pytest.approx(b.upper, abs=1e-12), kind
        assert a.lower == pytest.approx(b.lower, abs=1e-12), kind


def test_determinism_per_seed():
    phi = random_potential(2, seed=5)
    a = estimate_pressure(SHEAR, phi, "amalgamated", 2, 0.25, seed=3)
    b = estimate_pressure(SHEAR, phi, "amalgamated", 2, 0.25, seed=3)
    assert (a.lower, a.upper, a.cover_size) == (b.lower, b.upper,
                                                b.cover_size)


def test_trajectory_shift_check():
    check = trajectory_shift_check(DIAG, ZERO2, periodic_rule((1, 2)), 3,
                                   0.125, seed=0)
    assert check.ok
    assert check.lhs <= check.rhs + 1e-12


def test_lipschitz_check_property():
    rng = random.Random(23)
    for _ in range(8):
        phi = constant_potential([rng.uniform(-0.5, 0.5),
                                  rng.uniform(-0.5, 0.5)])
        psi = constant_potential([rng.uniform(-0.5, 0.5),
                                  rng.uniform(-0.5, 0.5)])
        check = lipschitz_check(DIAG, phi, psi, "amalgamated", 3, 0.125,
                                seed=0)
        assert check.ok
        assert abs(check.lhs) <= check.rhs + 1e-9


def test_sweep_and_extrapolate_bracket_closed_form():
    ests = sweep_estimates(DIAG, ZERO2, "amalgamated", list(range(4, 13)),
                           [0.125], seed=0)
    assert len(ests) == 9
    tail = extrapolate(ests)
    assert tail.error_bar <= 0.25
    assert tail.value - tail.error_bar <= LOG(6) <= tail.value + \
        tail.error_bar
    assert tail.converged


def test_sweep_carries_a_smaller_radius_cover_upward():
    # on the Cantor pair the eps=0.15 grid cover is cheaper than the ones
    # the eps=0.2 and eps=0.25 grids find, and its balls sit inside the
    # larger ones, so its cost is carried to both
    system = parse_system("cantor:2,2|2,2")
    phi = random_potential(2, seed=2)
    rows = sweep_estimates(system, phi, "amalgamated", [2],
                           [0.1, 0.125, 0.15, 0.2, 0.25])
    by_eps = {row.epsilon: row for row in rows}
    assert by_eps[0.15].upper == 1.1685993835625104
    assert not by_eps[0.15].note.endswith("carried cover")
    for eps, own in ((0.2, 1.2823721053892931), (0.25, 1.1695329535349637)):
        carried = by_eps[eps]
        assert carried.upper == by_eps[0.15].upper
        assert carried.note.endswith("carried cover")
        fixed = estimate_pressure(system, phi, "amalgamated", 2, eps)
        assert fixed.upper == own > carried.upper


def test_sweep_carries_a_larger_radius_packing_downward():
    # on the shear pair 2 eps = 0.3 fails the wrap guard, so eps = 0.15
    # packs the 3x3 base-metric grid; at eps = 0.125 the volume bound of
    # the word (1) polygon at 2 eps gives 8 points, and takes the 9
    phi = constant_potential([0.1, 0.1])
    rule = periodic_rule((1, 2))
    rows = sweep_estimates(SHEAR, phi, "trajectory", [1], [0.125, 0.15],
                           rule=rule)
    by_eps = {row.epsilon: row for row in rows}
    assert by_eps[0.15].lower == pytest.approx(LOG(9) + 0.1, abs=1e-12)
    assert "carried packing" not in by_eps[0.15].note
    carried = by_eps[0.125]
    assert carried.lower == by_eps[0.15].lower
    assert carried.note.endswith("carried packing")
    fixed = estimate_pressure(SHEAR, phi, "trajectory", 1, 0.125, rule=rule)
    assert fixed.lower == pytest.approx(LOG(8) + 0.1, abs=1e-12)
    assert fixed.lower < carried.lower <= carried.upper == fixed.upper


def test_interval_packing_declines_fall_back_to_the_grid():
    # a gapped pair has per-cylinder packings for one generator only, and
    # no interval packing for free; the cover stays closed-form
    system = parse_system("cantor:3,3|3,3")
    phi = constant_potential([0.1, 0.1])
    rule = periodic_rule((1, 2))
    for kind, reason in (("trajectory", "needs a single generator"),
                         ("free", "no interval packing")):
        with pytest.raises(AnalyticUnavailable, match=reason):
            packing_bound(system, phi, kind, 2, 0.125, rule=rule,
                          engine="analytic")
        assert packing_bound(system, phi, kind, 2, 0.125,
                             rule=rule).method == "GenericGrid"
    est = estimate_pressure(system, phi, "trajectory", 2, 0.125, rule=rule)
    assert est.method == "AnalyticBox"
    assert est.lower == est.upper == pytest.approx(LOG(4) + 0.1, abs=1e-12)


def test_sweep_multiple_epsilons_orders_covers():
    ests = sweep_estimates(DIAG, ZERO2, "amalgamated", [3, 4],
                           [0.25, 0.125], seed=0)
    assert len(ests) == 4
    for est in ests:
        assert est.lower <= est.upper + 1e-12


def test_degenerate_radius_is_returned_not_rejected():
    est = estimate_pressure(DIAG, ZERO2, "amalgamated", 3, 0.9, seed=0)
    assert est.cover_size <= 1
    assert est.lower <= est.upper


def test_degenerate_free_cover_needs_no_word_enumeration():
    # 2**13 words exceed the enumeration cap; the word mean of a product
    # of step weights is the n-th power of the mean step weight
    phi = constant_potential([0.25, -0.5])
    est = estimate_pressure(DIAG, phi, "free", 13, 0.7, seed=0)
    assert est.upper == pytest.approx(
        math.log((math.exp(0.25) + math.exp(-0.5)) / 2), abs=1e-12)


def test_grid_weights_sum_along_the_exact_lattice_orbits():
    # on the non-dyadic 20 x 20 grid of the commuting pair a weight sums
    # phi along the lattice orbit (a u + b v, c u + d v) mod 20, read at
    # (u / 20, v / 20), where the float orbit of the map drifts off the
    # lattice
    system = parse_system("toral:2,1,1,1;5,3,3,2")
    phi = coordinate_potential(2)
    eng = _GridEngine(system, 3, 0.2)
    s = eng.weights(phi)
    assert (len(s), len(s[0])) == (len(eng.words), len(eng.region)) \
        == (8, 400)
    off = 0
    for w, word in enumerate(eng.words):
        for i, x in enumerate(eng.region):
            u, v = round(x[0] * 20), round(x[1] * 20)
            total = 0.0
            for j in word:
                total += phi.eval(j, (u / 20, v / 20))
                (a, b), (c, d) = system.generators[j - 1].matrix
                u, v = (a * u + b * v) % 20, (c * u + d * v) % 20
            assert s[w][i] == total
            off += total != consecutive_sum(system, phi, x, word)
    # the float orbits the lattice replaces would give other sums
    assert off


@pytest.mark.parametrize("system", (SHEAR, shift_system(2)),
                         ids=("shear", "shift:2"))
def test_grid_weights_are_consecutive_sums_on_exact_orbits(system):
    # the 32 x 32 lattice and the shift grid hold their float orbits
    # exactly, so every weight is the library's consecutive sum
    phi = random_potential(system.m, seed=1)
    eng = _GridEngine(system, 3, 0.125)
    s = eng.weights(phi)
    assert len(s) == len(eng.words) == 8
    for w, word in enumerate(eng.words):
        assert len(s[w]) == len(eng.region) == 1024
        for i, x in enumerate(eng.region):
            assert s[w][i] == consecutive_sum(system, phi, x, word)


def test_torus_and_shift_grids_apply_no_map(monkeypatch):
    # the metric and the weights both walk the integer digit steps
    def no_apply(self, j, point):
        raise AssertionError("a float orbit was walked")

    monkeypatch.setattr(SemigroupSystem, "apply", no_apply)
    for system in (SHEAR, shift_system(2)):
        eng = _GridEngine(system, 3, 0.125)
        assert len(eng.weights(random_potential(system.m, seed=1))) == 8


# (depth, radius) per system: coarse grids, and one finer grid per
# family: the non-dyadic 20 x 20 torus lattice, 41 interval points, a
# 7-symbol shift:2 grid and a 5-symbol shift:3 grid
BALL_CASES = {
    "toral:0,1,1,2;2,1,1,0": ((2, 0.5), (1, 0.2)),
    "diag:2,3|3,2": ((2, 0.5),),
    "toral:3,-1,2,5;1,2,-1,3": ((2, 0.5),),
    "cantor:2,2": ((2, 0.5), (2, 0.2)),
    "cantor:3,3": ((2, 0.5), (2, 0.2)),
    "shift:2": ((2, 0.5), (2, 0.2)),
    "shift:3": ((1, 0.5), (1, 0.2)),
}


@pytest.mark.parametrize("spec", list(BALL_CASES))
def test_grid_metric_is_the_word_distance(spec):
    # every ball the engine builds is the set of region points within the
    # radius in the library's own orbit distance, taken point by point:
    # for each word, for the largest and the smallest word distance, and
    # for all words' balls at once, at radii eps and 2 eps.  The grid
    # metric is float32, as float64 orbits round: on the 20 x 20 torus
    # a distance of exactly 0.2 comes out as 0.19999999999999996
    system = parse_system(spec)
    for n, epsilon in BALL_CASES[spec]:
        eng = _GridEngine(system, n, epsilon)
        if system.is_interval:
            # every first branch fixes 0, so no region is empty
            assert eng.region[0] == 0.0
        else:
            assert eng.region == eng.points
        dist = np.array([[[dn_distance(system, x, y, word)
                           for y in eng.region] for x in eng.region]
                          for word in eng.words], dtype=np.float32)
        metrics = [*enumerate(dist), ("max", dist.max(axis=0)),
                   ("min", dist.min(axis=0))]
        for r in (epsilon, 2.0 * epsilon):
            for which, d in metrics:
                balls = eng.balls(which, r)
                assert len(balls) == len(eng.region)
                for p, row in enumerate(d):
                    assert sorted(balls.members(p)) \
                        == np.flatnonzero(row < r).tolist(), \
                        (n, epsilon, r, which, eng.region[p])
                    assert sorted(balls.holders(p)) == sorted(balls.members(p))
                    assert balls.sizes[p] == len(balls.members(p))
            # atom (w, p) of the "all" set is p's ball along word w, and
            # the atoms holding q are q's balls, offset by word
            every = eng.balls("all", r)
            npts = len(eng.region)
            assert len(every) == len(eng.words) * npts
            for w in range(len(eng.words)):
                part = eng.balls(w, r)
                for p in range(npts):
                    assert every.members(w * npts + p) == part.members(p)
                    assert every.sizes[w * npts + p] == part.sizes[p]
            for q in range(npts):
                assert sorted(every.holders(q)) == sorted(
                    w * npts + p for w in range(len(eng.words))
                    for p in eng.balls(w, r).holders(q))


def test_grid_engine_cache_is_keyed_by_system_value():
    # two parses of one spec are equal systems, so they share an engine
    a = parse_system("toral:0,1,1,2;2,1,1,0")
    b = parse_system("toral:0,1,1,2;2,1,1,0")
    assert a is not b and a == b
    assert _grid_engine(a, 2, 0.25) is _grid_engine(b, 2, 0.25)
    assert _grid_engine(a, 2, 0.25) is not _grid_engine(a, 2, 0.125)


ENGINE_FIELDS = {"words", "system", "n", "epsilon", "shape", "points",
                 "region", "tables", "_phi_cache", "_word_covers", "_held"}


def test_toral_engine_holds_no_pair_matrix():
    # after every kind's cover and packing, a torus engine holds one
    # P-entry byte difference table per word and one support per
    # (metric, radius), and nothing per atom: the balls p + S, their
    # holders, sizes and tie order live only as long as one greedy
    phi = random_potential(2, seed=6)
    for kind in KINDS:
        estimate_pressure(SHEAR, phi, kind, 3, 0.125, seed=0,
                          rule=periodic_rule((1, 2)), engine="grid")
    eng = _grid_engine(SHEAR, 3, 0.125)
    assert set(vars(eng)) == ENGINE_FIELDS
    assert eng._held and eng._word_covers and eng._phi_cache
    npts = len(eng.points)
    assert len(eng.tables) == len(eng.words)
    for table in eng.tables:
        assert isinstance(table, array) and table.typecode == "B"
        assert len(table) == npts
    assert {which for which, _ in eng._held} \
        == {*range(len(eng.words)), "max", "min"}
    for (which, r), support in eng._held.items():
        assert r in (eng.epsilon, 2 * eng.epsilon)
        # a set of differences, closed under negation, with 0 in it
        assert support == sorted(set(support)) and 0 in support
        assert len(support) < npts
        assert all(type(d) is int and 0 <= d < npts for d in support)
    for sums in eng._phi_cache.values():
        assert [len(row) for row in sums] == [npts] * len(eng.words)


def test_no_grid_greedy_lays_out_a_ball(monkeypatch):
    # covers and packings read p + S per centre: XOR on base-2 shifts
    # and the doubled lattice on rank-2 grids, so neither the shear pair
    # nor shift:2 translates a half-row, and nothing lays out P x |S|
    assert not hasattr(_GridEngine, "_translates")

    def no_translation(*args):
        raise AssertionError("a half-row translation was asked for")

    monkeypatch.setattr(grid, "_translation", no_translation)
    _grid_engine.cache_clear()
    for system in (SHEAR, shift_system(2)):
        phi = random_potential(system.m, seed=6)
        for kind in KINDS:
            est = estimate_pressure(system, phi, kind, 3, 0.125, seed=0,
                                    rule=periodic_rule((1, 2)),
                                    engine="grid")
            assert est.cover_size > 0, (system, kind)
    _grid_engine.cache_clear()


def _translates(eng, support):
    """The balls p + S of every grid point p, laid out row-major with
    stride |S| over one shared list of point indices, as the engine
    once built them for each greedy: the reference for `balls`."""
    base, rank = eng.shape
    ids = list(range(len(eng.points)))
    low = rank - rank // 2
    size = base ** low
    blocks = [ids[i:i + size] for i in range(0, len(ids), size)]
    columns = []
    for s in support:
        high, s = divmod(s, size)
        columns.append(itertools.chain.from_iterable(map(
            grid._translation(s, low, base),
            grid._translation(high, rank - low, base)(blocks))))
    flat = list(itertools.chain.from_iterable(zip(*columns)))
    k = len(support)
    return grid._Balls(lambda a: flat[a * k:a * k + k], [k] * len(ids))


def _reference_balls(eng, which, r):
    if which != "all":
        return _translates(eng, eng._ball_data(which, r))
    npts = len(eng.region)
    parts = [_translates(eng, eng._ball_data(w, r))
             for w in range(len(eng.words))]
    return grid._Balls(
        lambda a: parts[a // npts].members(a % npts),
        [k for part in parts for k in part.sizes],
        lambda q: [w * npts + b for w, part in enumerate(parts)
                   for b in part.holders(q)], npts)


# (system, depth, radius): the 16 x 16 and the non-dyadic 20 x 20
# lattice, a 7-symbol shift:2 grid (XOR) and 5- and 3-symbol shift:3
# grids (half-row translations, high and low halves of unequal width)
TRANSLATE_CASES = (("toral:0,1,1,2;2,1,1,0", 2, 0.25),
                   ("toral:2,1,1,1;5,3,3,2", 2, 0.2),
                   ("shift:2", 2, 0.2),
                   ("shift:3", 1, 0.2),
                   ("shift:3", 1, 0.7))


@pytest.mark.parametrize("spec, n, epsilon", TRANSLATE_CASES)
def test_balls_read_per_centre_match_the_laid_out_translates(spec, n,
                                                             epsilon):
    # for every metric at eps and 2 eps, each atom's members and each
    # point's holders are, as sets, those of the translates laid out
    eng = _GridEngine(parse_system(spec), n, epsilon)
    npts = len(eng.region)
    for r in (epsilon, 2.0 * epsilon):
        for which in (*range(len(eng.words)), "max", "min", "all"):
            got = eng.balls(which, r)
            want = _reference_balls(eng, which, r)
            assert got.npts == want.npts == npts
            assert got.sizes == want.sizes, (spec, which, r)
            for a in range(len(want)):
                assert sorted(got.members(a)) == sorted(want.members(a)), \
                    (spec, which, r, a)
            for q in range(npts):
                assert sorted(got.holders(q)) == sorted(want.holders(q)), \
                    (spec, which, r, q)


def test_a_table_entry_at_exactly_the_radius_is_outside_the_ball():
    # on the 20 x 20 shear grid the lattice difference (7, 0) is 7/20 from
    # 0 along word (1,), whose matrix sends it to (0, 7): 7 units of 1/20.
    # A radius of exactly 7/20 or 1/5, as the float or as the Fraction,
    # holds the entries below 7 or 4 units and no other, so a lattice
    # distance of exactly the radius stays out of the strict ball
    eng = _GridEngine(SHEAR, 1, 0.2)
    assert eng.shape == (20, 2) and eng.words[0].symbols == (1,)
    assert eng.epsilon == Fraction(1, 5)
    table = eng.tables[0]
    assert table[7 * 20] == table[13 * 20] == 7
    for units, radii in ((7, (0.35, Fraction(7, 20))),
                         (4, (0.2, Fraction(1, 5)))):
        assert units in table
        for r in radii:
            assert sorted(eng.balls(0, r).members(0)) \
                == [d for d, k in enumerate(table) if k < units], r


@pytest.mark.parametrize("text", ["0.1", "0.2", "0.26", "0.125"])
def test_a_float_radius_is_the_decimal_it_prints_as(text):
    # every engine reads a float radius as the decimal it prints as, so
    # the float and Fraction(text) give the same covers and packings on
    # the box, the polygon and the torus grid, and the same grid shape
    exact = Fraction(text)
    assert exact_radius(float(text)) == exact_radius(exact) == exact
    cases = ((DIAG, constant_potential([0.3, -0.2])),
             (SHEAR, constant_potential([0.3, -0.2])),
             (SHEAR, random_potential(2, seed=3)))
    for system, phi in cases:
        for solve in (min_cover_cost, packing_bound):
            for kind in ("amalgamated", "trajectory"):
                got = [solve(system, phi, kind, 2, r, seed=1,
                             rule=periodic_rule((1, 2)))
                       for r in (float(text), exact)]
                assert got[0] == got[1], (system, solve, kind)
        assert grid.grid_shape(system, float(text), 2) \
            == grid.grid_shape(system, exact, 2)
    assert got[0].method == "GenericGrid"


def _reference_greedy_cover(masks, lw, need):
    """The cover greedy as a plain loop: gains recounted every round, and
    the one-point tail settled point by point."""
    uncovered = need.copy()
    log_terms, picked = [], []
    while uncovered.any():
        gains = (masks & uncovered).sum(axis=1)
        live = gains > 0
        if not live.any():
            break
        scores = np.where(live, lw - np.log(np.maximum(gains, 1)), np.inf)
        smin = scores.min()
        if gains[live].max() == 1:
            for p in np.flatnonzero(uncovered):
                costs = [(lw[a], a) for a in range(len(lw)) if masks[a, p]]
                if costs:
                    cost, a = min(costs)
                    log_terms.append(float(cost))
                    picked.append(a)
            break
        cand = np.flatnonzero(scores <= smin + 1e-12)
        a = min(cand, key=lambda i: (round(float(lw[i]), 12),
                                     masks[i].tobytes(), int(i)))
        log_terms.append(float(lw[a]))
        picked.append(int(a))
        uncovered &= ~masks[a]
    if not log_terms:
        return -math.inf, []
    return log_sum_exp(log_terms), picked


def test_greedy_cover_matches_reference_loop():
    # coarse weights force ties, sparse masks reach the one-point tail;
    # weights nudged inside the 1e-12 score window and duplicate balls
    # leave the pick to the rounded weight, the ball order and the index
    rng = np.random.default_rng(5)
    for trial in range(240):
        atoms, points = rng.integers(1, 40), rng.integers(1, 30)
        masks = rng.random((atoms, points)) < rng.choice([0.05, 0.2, 0.5])
        lw = rng.integers(-3, 3, atoms) / 2.0
        if trial % 3 == 1:
            copies = rng.integers(0, atoms, rng.integers(1, atoms + 1))
            masks = np.concatenate([masks, masks[copies]])
            lw = np.concatenate([lw, lw[copies]])
        # one singleton atom per point, as every grid point is the centre
        # of a ball holding it, so every point can be covered
        masks = np.concatenate([masks, np.eye(points, dtype=bool)])
        lw = np.concatenate([lw, rng.integers(-3, 3, points) / 2.0])
        if trial % 4 >= 2:
            lw = lw + rng.choice([0.0, 1e-13, 5e-13], len(lw))
        need = np.ones(points, dtype=bool)
        rows = [np.flatnonzero(row).tolist() for row in masks]
        cols = [np.flatnonzero(col).tolist() for col in masks.T]
        balls = grid._Balls(rows.__getitem__, [len(row) for row in rows],
                            cols.__getitem__, points)
        got = _GridEngine._greedy_cover_matrix(None, balls, lw.tolist())
        assert got == _reference_greedy_cover(masks, lw, need), trial


def _per_atom_heap_greedy(balls, lw):
    """The cover greedy with one lazy heap entry per atom, verbatim as
    it stood before the heap held one entry per centre: the reference
    for the picks and the log cost."""
    lws = array("d", lw)
    members, holders = balls.members, balls.holders
    gains = list(balls.sizes)
    logs = [0.0] + [math.log(g) for g in range(1, max(gains) + 1)]
    heap = [(lws[i] - logs[g], i, g) for i, g in enumerate(gains) if g]
    heapq.heapify(heap)
    # atoms that still hold two or more uncovered points
    multi = sum(g > 1 for g in gains)
    uncovered = [True] * balls.npts
    left = balls.npts
    log_terms = []
    picked = []
    while left and multi:
        # refresh the top until it is current: then it is the least
        while True:
            s, i, g = heap[0]
            now = gains[i]
            if now == g:
                break
            if now:
                heapq.heapreplace(heap, (lws[i] - logs[now], i, now))
            else:
                heapq.heappop(heap)
        top = s + 1e-12
        cand = []
        while heap and heap[0][0] <= top:
            s, i, g = heapq.heappop(heap)
            now = gains[i]
            if now != g:
                if not now:
                    continue
                s, g = lws[i] - logs[now], now
                if s > top:
                    heapq.heappush(heap, (s, i, g))
                    continue
            cand.append((s, i, g))
        a = cand[0][1]
        if len(cand) > 1:
            # a membership row sorts as its negated member list; only
            # the tied atoms are ordered
            a = min((i for _, i, _ in cand), key=lambda i: (
                round(lws[i], 12), [-q for q in sorted(members(i))], i))
        for entry in cand:
            if entry[1] != a:
                heapq.heappush(heap, entry)
        log_terms.append(lws[a])
        picked.append(a)
        for q in members(a):
            if uncovered[q]:
                uncovered[q] = False
                left -= 1
                for b in holders(q):
                    g = gains[b]
                    if g == 2:
                        multi -= 1
                    gains[b] = g - 1
    if left:
        # tail: every live atom holds one uncovered point, and each
        # point takes its cheapest atom (the least index on ties), in
        # point order
        for q in itertools.compress(range(balls.npts), uncovered):
            a = min(holders(q), key=lambda b: (lws[b], b))
            log_terms.append(lws[a])
            picked.append(a)
    return log_sum_exp(log_terms), picked


# (system, depth, radius): the 32 x 32 shear lattice at 1/8 (8,192 atoms
# in its "all" set), the non-dyadic 20 x 20 lattice, 7- and 5-symbol
# shift grids and the gapped Cantor pair's interval grid
PICK_CASES = (("toral:0,1,1,2;2,1,1,0", 3, 0.125),
              ("toral:2,1,1,1;5,3,3,2", 2, 0.2),
              ("shift:2", 2, 0.2),
              ("shift:3", 1, 0.2),
              ("cantor:3,3|3,3", 2, 0.2))


@pytest.mark.parametrize("spec, n, epsilon", PICK_CASES)
@pytest.mark.parametrize("potential", ("random", "zero"))
def test_greedy_cover_picks_as_the_per_atom_heap(spec, n, epsilon,
                                                 potential):
    # every ball set the engine covers with, at eps and 2 eps, under a
    # random potential and under zero, where every weight ties: the same
    # log cost and the same atoms in the same order
    system = parse_system(spec)
    eng = _GridEngine(system, n, epsilon)
    phi = random_potential(system.m, seed=1) if potential == "random" \
        else zero_potential(system.m)
    s = eng.weights(phi)
    weights = {w: s[w] for w in range(len(eng.words))}
    weights["max"] = grid._side_weight(s, "condensed-lower")
    weights["min"] = grid._side_weight(s, "exhaustive-upper")
    weights["all"] = list(itertools.chain(*s))
    for r in (epsilon, 2.0 * epsilon):
        for which, lw in weights.items():
            balls = eng.balls(which, r)
            assert eng._greedy_cover_matrix(balls, lw) \
                == _per_atom_heap_greedy(balls, lw), (which, r)


@pytest.mark.parametrize("epsilon, atoms", ((0.125, 8192), (0.1, 12800)))
def test_amalgamated_cover_greedy_holds_under_64_bytes_per_atom(epsilon,
                                                                 atoms):
    # the greedy over every (word, centre) atom of the shear pair's 32 x
    # 32 and 40 x 40 lattices: its traced peak, balls and weights made
    # before, stays under 64 B per atom; one heap entry per atom took
    # about 130
    eng = _GridEngine(SHEAR, 3, epsilon)
    balls = eng.balls("all", eng.epsilon)
    lw = list(itertools.chain(*eng.weights(random_potential(2, seed=1))))
    assert len(balls) == len(lw) == atoms
    tracemalloc.start()
    try:
        eng._greedy_cover_matrix(balls, lw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * atoms, peak / atoms


def test_grid_weights_evaluate_each_generator_point_once(monkeypatch):
    # every word's orbit of the 32 x 32 lattice stays on it, so one
    # weights call evaluates each generator once at each of its points
    calls = []
    evaluate = MultiPotential.eval

    def counted(self, j, point):
        calls.append((j, point))
        return evaluate(self, j, point)

    monkeypatch.setattr(MultiPotential, "eval", counted)
    eng = _GridEngine(SHEAR, 3, 0.125)
    eng.weights(random_potential(2, seed=1))
    assert len(calls) == len(set(calls)) == 2 * 1024


def test_grid_engine_refuses_a_radius_its_points_cannot_resolve(
        monkeypatch):
    # at n = 1 the sigma**2 grid has k + 2 symbols, k the least integer
    # with 2**-k < eps: 10 on (2**-8, 2**-7], the cap, and 11 at 2**-8
    # and below, which is refused before any grid point exists
    for epsilon in (2.0 ** -7, 0.99 * 2.0 ** -7):
        eng = _GridEngine(shift_system(2), 1, epsilon)
        assert eng.shape == (2, 10) and len(eng.region) == 1024
        # the all-zero difference, first in point order: each point is 0
        # from itself, so it lies in its own ball
        assert all(t[0] == 0 for t in eng.tables)

    def no_points(*args):
        raise AssertionError("a refused grid builds no point")

    monkeypatch.setattr(grid, "grid_points", no_points)
    for epsilon in (2.0 ** -8, 2.0 ** -10, 0.001):
        with pytest.raises(DepthTooLarge, match="10-symbol cap"):
            _GridEngine(shift_system(2), 1, epsilon)


def test_extrapolate_reads_off_fewer_than_three_depths():
    def est(n, lower, upper):
        return PressureEstimate("amalgamated", n, 0.125, lower, upper, 1,
                                "AnalyticBox", 0)

    one = extrapolate([est(2, 0.1, 0.3)])
    assert one.value == pytest.approx(0.2, abs=1e-12)
    assert one.error_bar == pytest.approx(0.2, abs=1e-12)
    assert one.converged
    # the last midpoint, its bracket width or the drift from the one
    # before, whichever is larger
    two = extrapolate([est(2, 0.0, 0.4), est(4, 0.45, 0.55)])
    assert two.value == pytest.approx(0.5, abs=1e-12)
    assert two.error_bar == pytest.approx(0.3, abs=1e-12)
    assert two.converged
