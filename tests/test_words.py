"""Words, orbits, the path metric, and the shared word pool."""

import math
import random
from fractions import Fraction

import pytest

from presslab.systems import parse_system
from presslab.words import (
    Word,
    all_words,
    consecutive_sum,
    constant_rule,
    dn_distance,
    explicit_rule,
    orbit,
    periodic_rule,
    pool_words,
)
from presslab.potentials import constant_potential, random_potential


def test_word_basics():
    w = Word((1, 2, 1))
    assert len(w) == 3
    assert list(w) == [1, 2, 1]
    with pytest.raises(ValueError):
        Word((0, 1))
    with pytest.raises(ValueError):
        Word(())


def test_orbit_doubling():
    db = parse_system("cantor:2,2")
    pts = orbit(db, 0.3, Word((1, 1, 1)))
    assert pts[0] == pytest.approx(0.3)
    assert pts[1] == pytest.approx(0.6)
    assert pts[2] == pytest.approx(0.2)
    assert pts[3] == pytest.approx(0.4)
    # orbit includes the starting point and the full-word endpoint
    assert len(pts) == 4


def test_dn_distance_includes_endpoint():
    db = parse_system("cantor:2,2")
    d = dn_distance(db, 0.3, 0.32, Word((1, 1)))
    # separations 0.02, 0.04, 0.08 along the orbit; max is at the endpoint
    assert d == pytest.approx(0.08, abs=1e-12)


def test_dn_distance_circle_wraps():
    db = parse_system("cantor:2,2")
    d = dn_distance(db, 0.01, 0.99, Word((1,)))
    assert d <= 0.04 + 1e-12


def _exact_step(system, j, p):
    """Generator j on exact rationals: a torus matrix mod 1, or a
    one-slope circle map x -> s x mod 1."""
    gen = system.generators[j - 1]
    if system.is_toral:
        (a, b), (c, d) = gen.matrix
        return ((a * p[0] + b * p[1]) % 1, (c * p[0] + d * p[1]) % 1)
    return (int(gen.slopes[0]) * p[0] % 1,)


def _exact_circle(a, b):
    d = abs(a - b) % 1
    return min(d, 1 - d)


@pytest.mark.parametrize("spec, x, y, word, exact", [
    # the float 0.9 is 0.9000000000000000222..., so the second orbit
    # point is 1.8000000000000000444... mod 1, at distance
    # 900719925474099 / 2**52 from 0: the grid's 0.2 is the lattice
    # point 18/20, not the float 0.9
    ("toral:0,1,1,2;2,1,1,0", (0.0, 0.0), (0.0, 0.9), (1,),
     Fraction(900719925474099, 2 ** 52)),
    ("cantor:2,2", 0.025, 0.075, (1, 1),
     Fraction(7205759403792793, 2 ** 55)),
])
def test_dn_distance_is_exact_on_its_float_inputs(spec, x, y, word, exact):
    """A distance just below 0.2 is the exact distance of the float
    points, not a rounding of 0.2."""
    system = parse_system(spec)
    p, q = ((tuple(map(Fraction, v)) if system.is_toral else (Fraction(v),))
            for v in (x, y))
    ref = max(_exact_circle(a, b) for a, b in zip(p, q))
    for j in word:
        p, q = _exact_step(system, j, p), _exact_step(system, j, q)
        ref = max(ref, max(_exact_circle(a, b) for a, b in zip(p, q)))
    assert ref == exact
    assert Fraction(dn_distance(system, x, y, Word(word))) == exact


def test_word_count_and_enumeration():
    ws = list(all_words(2, 3))
    assert len(ws) == 8
    assert len({w.symbols for w in ws}) == 8


def test_rules():
    assert constant_rule(2).word_at(3).symbols == (2, 2, 2)
    assert periodic_rule((1, 2)).word_at(5).symbols == (1, 2, 1, 2, 1)
    assert explicit_rule((2, 1, 2)).word_at(2).symbols == (2, 1)
    with pytest.raises(ValueError):
        explicit_rule((2, 1)).word_at(3)


def test_pool_contains_constants_and_period_two():
    ws = pool_words(3, 0, 4)
    symbols = {w.symbols for w in ws}
    for j in (1, 2, 3):
        assert (j, j, j, j) in symbols
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                assert (i, j, i, j) in symbols


def test_pool_deduplicates_and_is_seed_stable():
    ws = pool_words(2, 5, 3)
    assert len({w.symbols for w in ws}) == len(ws)
    # m=2, n=3 has only 8 words so the pool saturates
    assert len(ws) == 8
    again = pool_words(2, 5, 3)
    assert [w.symbols for w in again] == [w.symbols for w in ws]
    other = pool_words(2, 6, 12)
    assert [w.symbols for w in other] != [w.symbols for w in
                                          pool_words(2, 5, 12)]


def test_pool_is_drawn_once_per_value():
    # an immutable tuple, memoized on (m, seed, n)
    assert isinstance(pool_words(2, 0, 5), tuple)
    assert pool_words(2, 0, 5) is pool_words(2, 0, 5)


def test_consecutive_sum_matches_manual_walk():
    diag = parse_system("diag:2,3|3,2")
    phi = constant_potential([0.5, -0.25])
    w = Word((1, 2, 1))
    total = consecutive_sum(diag, phi, (0.3, 0.4), w)
    assert total == pytest.approx(0.5 - 0.25 + 0.5, abs=1e-12)


def test_consecutive_sum_concatenation_additivity():
    """Sum along uv splits at the point the u-orbit reaches."""
    diag = parse_system("diag:2,3|3,2")
    phi = random_potential(2, seed=9)
    rng = random.Random(41)
    for _ in range(60):
        nu = rng.randint(1, 5)
        nv = rng.randint(1, 5)
        u = Word(tuple(rng.randint(1, 2) for _ in range(nu)))
        v = Word(tuple(rng.randint(1, 2) for _ in range(nv)))
        x = (rng.random(), rng.random())
        uv = Word(u.symbols + v.symbols)
        mid = orbit(diag, x, u)[-1]
        lhs = consecutive_sum(diag, phi, x, uv)
        rhs = consecutive_sum(diag, phi, x, u) + \
            consecutive_sum(diag, phi, mid, v)
        assert abs(lhs - rhs) <= 1e-12


def test_orbit_applies_leading_symbol_first():
    diag = parse_system("diag:2,3|3,2")
    pts = orbit(diag, (0.4, 0.9), Word((1, 2)))
    assert pts[1][0] == pytest.approx(0.8, abs=1e-12)
    assert pts[1][1] == pytest.approx(0.7, abs=1e-12)
    assert pts[2][0] == pytest.approx((0.8 * 3) % 1.0, abs=1e-12)
    assert pts[2][1] == pytest.approx((0.7 * 2) % 1.0, abs=1e-12)
