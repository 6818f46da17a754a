"""Pressure estimates: closed forms, the grid engine, chains, sweeps."""

import math
import random

import numpy as np
import pytest

from presslab.analytic import log_sum_exp
from presslab.errors import AnalyticUnavailable, DepthTooLarge
from presslab.potentials import (
    constant_potential,
    coordinate_potential,
    random_potential,
    zero_potential,
)
from presslab.pressure import (
    KINDS,
    _grid_engine,
    _GridEngine,
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
    WordPool,
    consecutive_sum,
    constant_rule,
    dn_distance,
    explicit_rule,
    periodic_rule,
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
        for w in WordPool(2, seed=0).words(n):
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
    phi_sw = phi.permuted((2, 1))
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


def test_grid_weights_are_consecutive_sums_at_region_points():
    # the grid orbits follow the generators' own apply, so on a
    # non-dyadic grid every weight is the library's consecutive sum
    system = parse_system("toral:2,1,1,1;5,3,3,2")
    phi = coordinate_potential(2)
    eng = _GridEngine(system, 3, 0.2)
    s = eng.weights(phi)
    assert s.shape == (len(eng.words), len(eng.region)) == (8, 400)
    for w, word in enumerate(eng.words):
        for i, x in enumerate(eng.region):
            assert s[w, i] == consecutive_sum(system, phi, x, word)


@pytest.mark.parametrize("spec", ["toral:0,1,1,2;2,1,1,0", "diag:2,3|3,2",
                                  "toral:3,-1,2,5;1,2,-1,3", "cantor:2,2",
                                  "cantor:3,3", "shift:2"])
def test_grid_metric_is_the_word_distance(spec):
    # the grid metric is the library's own orbit distance: every region
    # pair of a coarse grid, and 20 rows of a finer one (the non-dyadic
    # 20 x 20 torus lattice), diagonal included
    system = parse_system(spec)
    for epsilon, rows in ((0.5, None), (0.2, 20)):
        eng = _GridEngine(system, 2, epsilon)
        npts = len(eng.region)
        if not system.is_interval:
            assert eng.region == eng.points
        picked = range(npts) if rows is None else \
            np.random.default_rng(3).choice(npts, rows, replace=False)
        for w, word in enumerate(eng.words):
            for p in picked:
                x = eng.region[p]
                for q, y in enumerate(eng.region):
                    want = dn_distance(system, x, y, word)
                    assert eng.dist[w][p, q] == np.float32(want), \
                        (word, x, y)


def test_grid_engine_cache_is_keyed_by_system_value():
    # two parses of one spec are equal systems, so they share an engine
    a = parse_system("toral:0,1,1,2;2,1,1,0")
    b = parse_system("toral:0,1,1,2;2,1,1,0")
    assert a is not b and a == b
    assert _grid_engine(a, 2, 0.25) is _grid_engine(b, 2, 0.25)
    assert _grid_engine(a, 2, 0.25) is not _grid_engine(a, 2, 0.125)


def test_toral_engine_holds_one_metric_matrix_per_word():
    # toral regions are the whole grid, so the engine keeps no second,
    # region-restricted copy of the P x P word metrics
    eng = _GridEngine(SHEAR, 2, 0.25)
    held = [a for v in vars(eng).values()
            for a in (v if isinstance(v, list) else [v])
            if isinstance(a, np.ndarray) and a.dtype == np.float32]
    npts = len(eng.points)
    assert sum(a.nbytes for a in held) == len(eng.words) * npts * npts * 4


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
    # coarse weights force ties, sparse masks reach the one-point tail
    rng = np.random.default_rng(5)
    for trial in range(60):
        atoms, points = rng.integers(1, 40), rng.integers(1, 30)
        masks = rng.random((atoms, points)) < rng.choice([0.05, 0.2, 0.5])
        lw = rng.integers(-3, 3, atoms) / 2.0
        # one singleton atom per point, as every grid point is the centre
        # of a ball holding it, so every point can be covered
        masks = np.concatenate([masks, np.eye(points, dtype=bool)])
        lw = np.concatenate([lw, rng.integers(-3, 3, points) / 2.0])
        need = np.ones(points, dtype=bool)
        got = _GridEngine._greedy_cover_matrix(None, masks, lw)
        assert got == _reference_greedy_cover(masks, lw, need), trial


def test_grid_engine_refuses_a_radius_its_points_cannot_resolve(
        monkeypatch):
    # at n = 1 the sigma**2 grid has k + 2 symbols, k the least integer
    # with 2**-k < eps: 10 on (2**-8, 2**-7], the cap, and 11 at 2**-8
    # and below, which is refused before any grid point exists
    for epsilon in (2.0 ** -7, 0.99 * 2.0 ** -7):
        eng = _GridEngine(shift_system(2), 1, epsilon)
        assert eng.shape == (2, 10) and len(eng.region) == 1024
        assert all((d.diagonal() == 0).all() for d in eng.dist)

    def no_points(*args):
        raise AssertionError("a refused grid builds no point")

    monkeypatch.setattr(SemigroupSystem, "grid_points", no_points)
    for epsilon in (2.0 ** -8, 2.0 ** -10, 0.001):
        with pytest.raises(DepthTooLarge, match="10-symbol cap"):
            _GridEngine(shift_system(2), 1, epsilon)
