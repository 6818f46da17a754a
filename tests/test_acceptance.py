"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL
line on the real terminal, bypassing capture, so the run log always
shows the verdict table.
"""

import math
import random
import time

from presslab.balls import BallSpec, ball_contains
from presslab.dimension import bowen_root
from presslab.lift import check_lift_inequalities, lift_pressure_estimate
from presslab.localent import marginal_bound_check, parse_measure, \
    sample_points
from presslab.potentials import constant_potential, random_potential, \
    zero_potential
from presslab.pressure import estimate_pressure, extrapolate, \
    lipschitz_check, min_cover_cost, packing_bound, sweep_estimates, \
    verify_inequality_chain
from presslab.systems import closed_form_entropies, parse_system
from presslab.words import Word, consecutive_sum, explicit_rule, orbit, \
    periodic_rule, pool_words

DIAG = parse_system("diag:2,3|3,2")
SHEAR = parse_system("toral:0,1,1,2;2,1,1,0")
DOUBLING_PAIR = parse_system("cantor:2,2|2,2")
ZERO2 = zero_potential(2)
# the systems of the cross-system property suite
ZOO = ("diag:2,3|3,2", "toral:0,1,1,2;2,1,1,0", "diag:4,5|2,6",
       "diag:2,10|3,4", "toral:2,1,1,1;5,3,3,2", "cantor:3,3|5,5",
       "cantor:2,2|2,2", "shift:2")


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print("criterion %2d %s  %s (%s)"
              % (num, "PASS" if ok else "FAIL", label, detail))
    assert ok, "criterion %d: %s (%s)" % (num, label, detail)


def test_diagonal_pair_entropy_triple_brackets_closed_forms(capsys):
    t0 = time.monotonic()
    targets = (("exhaustive-upper", math.log(4)),
               ("amalgamated", math.log(6)),
               ("condensed-upper", math.log(9)))
    parts = []
    ok = True
    for kind, target in targets:
        ests = sweep_estimates(DIAG, ZERO2, kind, range(4, 13), [0.125],
                               seed=0)
        ext = extrapolate(ests)
        hit = (abs(ext.value - target) <= ext.error_bar
               and ext.error_bar <= 0.25 and ext.converged)
        ok = ok and hit
        parts.append("%s=%.3f+-%.3f" % (kind.split("-")[0][:4], ext.value,
                                        ext.error_bar))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 60.0
    _verdict(capsys, 1, "entropy triple brackets log4/log6/log9", ok,
             "%s, %.1fs" % (" ".join(parts), elapsed))


def test_random_diagonal_tuples_match_closed_forms(capsys):
    rng = random.Random("acceptance:tuples")
    misses = []
    for _ in range(5):
        a, b, c, d = (rng.randint(2, 6) for _ in range(4))
        system = parse_system("diag:%d,%d|%d,%d" % (a, b, c, d))
        forms = closed_form_entropies(a, b, c, d)
        # entries up to 6 wrap a lattice cell once 2*eps*(L+1) > 1, so the
        # radius drops to 1/16 to keep the packing certificates alive
        for kind, target in zip(("exhaustive-upper", "amalgamated",
                                 "condensed-upper"), forms):
            ext = extrapolate(sweep_estimates(system, ZERO2, kind,
                                              range(4, 13), [0.0625], seed=0))
            if abs(ext.value - target) > ext.error_bar:
                misses.append("%d,%d|%d,%d %s" % (a, b, c, d, kind))
    _verdict(capsys, 2, "random diagonal tuples match closed forms",
             not misses, "5 tuples x 3 rates" if not misses
             else "missed " + "; ".join(misses))


def test_inequivalent_diagonal_families_are_distinguishable(capsys):

    def interval(name):
        system = parse_system(name)
        hi = estimate_pressure(system, ZERO2, "exhaustive-upper", 6,
                               1.0 / 24, seed=0)
        lo = estimate_pressure(system, ZERO2, "exhaustive-lower", 6,
                               1.0 / 24, seed=0)
        return lo.lower, hi.upper

    a_lo, a_hi = interval("diag:4,5|2,6")    # rate log 10
    b_lo, b_hi = interval("diag:2,10|3,4")   # rate log 8
    gap = max(b_lo - a_hi, a_lo - b_hi)
    ok = gap >= 0.15
    _verdict(capsys, 3, "inequivalent diagonal families separate", ok,
             "intervals [%.3f,%.3f] vs [%.3f,%.3f], gap %.3f"
             % (a_lo, a_hi, b_lo, b_hi, gap))


def test_shear_pair_collapses_while_the_single_map_does_not(capsys):
    rule = periodic_rule((1, 2))
    ext = extrapolate(sweep_estimates(SHEAR, ZERO2, "trajectory",
                                      range(8, 33, 4), [0.26], rule=rule,
                                      seed=0))
    amal = estimate_pressure(SHEAR, ZERO2, "amalgamated", 32, 0.26, seed=0)
    single = parse_system("toral:0,1,1,2")
    est = estimate_pressure(single, zero_potential(1), "amalgamated", 96,
                            0.125, seed=0)
    target = math.log(1.0 + math.sqrt(2.0))
    ok = (ext.value <= 0.15 and amal.upper <= 0.2
          and est.lower >= target - 0.1 and est.upper <= target + 0.1)
    _verdict(capsys, 4, "alternating shear collapses, single map does not",
             ok, "trajectory %.3f, amalgamated upper %.3f, single "
             "[%.3f,%.3f] vs %.3f" % (ext.value, amal.upper, est.lower,
                                      est.upper, target))


def test_pressure_inequality_chains_hold_across_the_zoo(capsys):
    violations = []
    checks = 0
    for system in map(parse_system, ZOO):
        for pseed in range(3):
            phi = random_potential(system.m, seed=pseed)
            report = verify_inequality_chain(system, phi, 2, 0.25, seed=0)
            checks += len(report.checks)
            violations += ["%s#%d %s" % (system.name, pseed, c.name)
                           for c in report.checks if not c.ok]
            amal = estimate_pressure(system, phi, "amalgamated", 2, 0.25,
                                     seed=0)
            worst = min(
                estimate_pressure(system, phi, "trajectory", 2, 0.25,
                                  rule=explicit_rule(w.symbols),
                                  seed=0).upper
                for w in pool_words(system.m, 0, 2))
            checks += 1
            if amal.upper > worst:     # exact, no tolerance
                violations.append("%s#%d pool clamp" % (system.name, pseed))
    _verdict(capsys, 5, "inequality chains across the system zoo",
             not violations, "%d checks, %d violations%s"
             % (checks, len(violations),
                ": " + "; ".join(violations[:4]) if violations else ""))


def test_cover_frozen_perturbations_are_lipschitz(capsys):
    doubling = parse_system("cantor:2,2")
    rng = random.Random("acceptance:lipschitz")
    bad = 0
    for _ in range(60):
        phi = constant_potential([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        psi = constant_potential([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        bad += not lipschitz_check(DIAG, phi, psi, "amalgamated", 5, 0.125,
                                   seed=0).ok
    for i in range(40):
        phi = random_potential(1, seed=1000 + i)
        psi = random_potential(1, seed=2000 + i)
        bad += not lipschitz_check(doubling, phi, psi, "amalgamated", 5,
                                   0.125, seed=0).ok
    shift_err = 0.0
    for i in range(10):
        c = rng.uniform(-1, 1)
        base = estimate_pressure(DIAG, ZERO2, "amalgamated", 5, 0.125, seed=0)
        moved = estimate_pressure(DIAG, ZERO2.shifted(c), "amalgamated", 5,
                                  0.125, seed=0)
        shift_err = max(shift_err, abs(moved.upper - base.upper - c),
                        abs(moved.lower - base.lower - c))
        phi = random_potential(1, seed=3000 + i)
        b = estimate_pressure(doubling, phi, "free", 5, 0.125, seed=0)
        s = estimate_pressure(doubling, phi.shifted(c), "free", 5, 0.125,
                              seed=0)
        shift_err = max(shift_err, abs(s.upper - b.upper - c),
                        abs(s.lower - b.lower - c))
    ok = bad == 0 and shift_err <= 1e-9
    _verdict(capsys, 6, "frozen-cover responses are 1-lipschitz", ok,
             "%d/100 pairs failed, worst shift error %.1e"
             % (bad, shift_err))


def test_skew_lift_interval_and_sandwich(capsys):
    est = lift_pressure_estimate(DIAG, ZERO2, 9, 0.125, seed=0)
    inside = (est.lower >= math.log(12) - 0.3
              and est.upper <= math.log(18) + 0.3)
    report = check_lift_inequalities(DIAG, ZERO2, 9, 0.125, seed=0)
    ok = inside and report.all_ok
    _verdict(capsys, 7, "skew lift interval with two-sided sandwich", ok,
             "lift [%.3f,%.3f] in [%.3f,%.3f], sandwich %s"
             % (est.lower, est.upper, math.log(12) - 0.3,
                math.log(18) + 0.3, "ok" if report.all_ok else "violated"))


def test_product_measure_marginal_entropy_bound(capsys):
    product = parse_measure("bernoulli:0.5,0.5 x lebesgue", DOUBLING_PAIR,
                            resolution=256)
    points = sample_points(product.base, DOUBLING_PAIR, 50, seed=11)
    report = marginal_bound_check(product, DOUBLING_PAIR, points, 0.125,
                                  (8, 24), seed=0)
    worst = max(c.h_plus for c in report.checks)
    bound = math.log(2) + 0.15
    ok = len(report.checks) == 50 and worst <= bound and report.all_ok
    _verdict(capsys, 8, "marginal local entropies stay under the symbol "
             "rate", ok, "50 points, max %.4f <= %.4f" % (worst, bound))


def test_bowen_roots_match_similarity_dimensions(capsys):
    ternary = bowen_root(parse_system("cantor:3,3"), 96, 0.125)
    slope5 = bowen_root(parse_system("cantor:5,5"), 96, 0.125)
    pair = bowen_root(parse_system("cantor:3,3|5,5"), 96, 0.125)
    ok = (abs(ternary.t_uA - 0.6309) <= 0.02
          and abs(slope5.t_uA - 0.4307) <= 0.02
          and pair.t_uA <= 0.4307 + 0.02)
    _verdict(capsys, 9, "bowen roots match similarity dimensions", ok,
             "ternary %.4f, slope-5 %.4f, pair %.4f"
             % (ternary.t_uA, slope5.t_uA, pair.t_uA))


def test_structural_property_suite(capsys):
    doubling = parse_system("cantor:2,2")
    failed = []

    def check(name, ok):
        if not ok:
            failed.append(name)

    # deeper balls nest inside shallower ones, smaller radii inside larger
    rng = random.Random("acceptance:structure")
    word = Word((1, 2, 1, 2))
    for _ in range(40):
        x = rng.random()
        y = rng.random()
        deep = BallSpec("trajectory", x, 4, 0.05, word)
        shallow = BallSpec("trajectory", x, 2, 0.05, Word(word.symbols[:2]))
        fat = BallSpec("trajectory", x, 4, 0.1, word)
        if ball_contains(DOUBLING_PAIR, deep, y):
            check("nesting depth", ball_contains(DOUBLING_PAIR, shallow, y))
            check("nesting radius", ball_contains(DOUBLING_PAIR, fat, y))
        cond = BallSpec("condensed", x, 3, 0.07)
        exh = BallSpec("exhaustive", x, 3, 0.07)
        if ball_contains(DOUBLING_PAIR, cond, y):
            check("condensed in exhaustive",
                  ball_contains(DOUBLING_PAIR, exh, y))

    # birkhoff sums split at the concatenation point
    phi = random_potential(2, seed=5)
    for i in range(30):
        u = Word(tuple(rng.randint(1, 2) for _ in range(3)))
        v = Word(tuple(rng.randint(1, 2) for _ in range(4)))
        x = (rng.random(), rng.random())
        whole = consecutive_sum(DIAG, phi, x, Word(u.symbols + v.symbols))
        tail_start = orbit(DIAG, x, u)[-1]
        split = (consecutive_sum(DIAG, phi, x, u)
                 + consecutive_sum(DIAG, phi, tail_start, v))
        check("concatenation additivity", abs(whole - split) <= 1e-12)

    # a separated family never outnumbers a spanning one
    for system, phi_k, n, eps_k in (
            (DIAG, ZERO2, 5, 0.125),
            (SHEAR, random_potential(2, seed=3), 2, 0.25),
            (doubling, random_potential(1, seed=4), 6, 0.125)):
        for kind in ("amalgamated", "condensed-upper", "exhaustive-upper",
                     "free"):
            cov = min_cover_cost(system, phi_k, kind, n, eps_k, seed=0)
            pak = packing_bound(system, phi_k, kind, n, eps_k, seed=0)
            check("packing<=cover %s" % kind,
                  pak.log_cost <= cov.log_cost + 1e-9)

    # relabeling generators and potential components together changes
    # nothing
    swapped = parse_system("diag:3,2|2,3")
    phi = constant_potential([0.2, -0.1])
    phi_sw = constant_potential([-0.1, 0.2])
    for kind in ("amalgamated", "condensed-upper", "free"):
        a = estimate_pressure(DIAG, phi, kind, 3, 0.125, seed=0)
        b = estimate_pressure(swapped, phi_sw, kind, 3, 0.125, seed=0)
        check("permutation equivariance",
              abs(a.upper - b.upper) <= 1e-12
              and abs(a.lower - b.lower) <= 1e-12)

    # repeated runs reproduce results bit for bit
    first = estimate_pressure(SHEAR, random_potential(2, seed=9),
                              "amalgamated", 2, 0.25, seed=0)
    second = estimate_pressure(SHEAR, random_potential(2, seed=9),
                               "amalgamated", 2, 0.25, seed=0)
    check("determinism", (first.lower, first.upper, first.cover_size)
          == (second.lower, second.upper, second.cover_size))
    r1 = bowen_root(parse_system("cantor:3,3"), 48, 0.125)
    r2 = bowen_root(parse_system("cantor:3,3"), 48, 0.125)
    check("determinism", r1.t_uA == r2.t_uA and r1.bracket == r2.bracket)

    _verdict(capsys, 10, "structural property suite", not failed,
             "all groups green" if not failed
             else "failed: " + "; ".join(sorted(set(failed))))
