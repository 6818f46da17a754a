"""Exact geometry behind the closed-form estimators.

The polygon engine works in exact integer and rational arithmetic end
to end, so these tests can assert exact areas and counts rather than
tolerances."""

import math
import random
from fractions import Fraction

import pytest

from presslab.analytic import (
    _in_polygon,
    ball_polygon,
    polygon_cover_count,
    polygon_packing_count,
    prefix_matrices,
)
from presslab.errors import AnalyticUnavailable
from presslab.potentials import constant_potential
from presslab.pressure import KINDS, min_cover_cost
from presslab.systems import parse_system
from presslab.words import Word, WordPool, periodic_rule


SINGLE = parse_system("toral:0,1,1,2")
SHEAR = parse_system("toral:0,1,1,2;2,1,1,0")


def test_prefix_matrices_apply_leading_symbol_first():
    # identity (time zero) is implicit; entries are proper prefixes
    mats = prefix_matrices(SHEAR, Word((1, 2)))
    assert mats[0] == ((0, 1), (1, 2))
    # second prefix is B*A, the unipotent shear generator
    assert mats[1] == ((1, 4), (0, 1))


def test_ball_polygon_depth_one_exact_area():
    verts, area = ball_polygon(SINGLE, Word((1,)), 0.125)
    assert isinstance(area, Fraction)
    assert area == Fraction(1, 32)
    for x, y in verts:
        assert isinstance(x, Fraction) and isinstance(y, Fraction)
        assert abs(x) <= Fraction(1, 8) and abs(y) <= Fraction(1, 8)


def test_ball_polygon_depth_two_exact_area():
    _, area = ball_polygon(SINGLE, Word((1, 1)), 0.125)
    assert area == Fraction(1, 80)


def test_ball_polygon_area_shrinks_with_depth():
    prev = None
    for n in range(1, 12):
        _, area = ball_polygon(SINGLE, Word((1,) * n), 0.125)
        assert area > 0
        if prev is not None:
            assert area < prev
        prev = area


def _reference_clip_halfplane(poly, nx, ny, c):
    """Keep the part of poly with nx*x + ny*y <= c.  Exact: vertices are
    Fraction pairs and the normals are integers, so clipping at depths
    where the matrix entries dwarf float precision stays sound."""
    out = []
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        v1 = nx * x1 + ny * y1 - c
        v2 = nx * x2 + ny * y2 - c
        if v1 <= 0:
            out.append((x1, y1))
        if (v1 < 0 < v2) or (v2 < 0 < v1):
            t = v1 / (v1 - v2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _reference_ball_polygon(system, word, epsilon):
    """`ball_polygon` on Fraction vertex pairs, clip for clip."""
    e = Fraction(epsilon)
    poly = [(e, e), (-e, e), (-e, -e), (e, -e)]
    for mat in prefix_matrices(system, word):
        for a, b in mat:
            if a == 0 and b == 0:
                continue
            poly = _reference_clip_halfplane(poly, a, b, e)
            if poly:
                poly = _reference_clip_halfplane(poly, -a, -b, e)
            if not poly:
                return [], Fraction(0)
    area = sum((x1 * y2 - x2 * y1
                for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1])),
               Fraction(0))
    return poly, abs(area) / 2


@pytest.mark.parametrize("epsilon", [Fraction(1, 8), 0.1, 0.25, 0.26])
def test_integer_clip_matches_fraction_clip(epsilon):
    """The homogeneous integer clip returns the Fraction clip's vertex
    list, in order, and its area; the float radii give p/q with
    denominators near 2**54."""
    pool = WordPool(2, seed=1)
    cases = [(SHEAR, w) for n in list(range(1, 13)) + [16, 24]
             for w in pool.words(n)]
    cases += [(SINGLE, Word((1,) * n)) for n in range(1, 33)]
    for system, word in cases:
        assert ball_polygon(system, word, epsilon) == \
            _reference_ball_polygon(system, word, epsilon), word


def test_polygon_cover_counts():
    assert polygon_cover_count(SINGLE, Word((1,)), 0.125) == 32
    assert polygon_cover_count(SINGLE, Word((1, 1)), 0.125) == 88


def test_polygon_cover_near_volume_optimal():
    """The certified tiling count stays within a constant factor of the
    area lower bound, which is what keeps upper estimates tight."""
    for n in range(1, 16):
        w = Word((1,) * n)
        _, area = ball_polygon(SINGLE, w, 0.125)
        count = polygon_cover_count(SINGLE, w, 0.125)
        assert count >= 1 / area - 1e-9
        assert count <= 2.0 / float(area)


def test_polygon_membership_matches_the_strip_inequalities():
    """A point is in the clipped ball polygon exactly when it meets the
    box and every prefix strip |a x + b y| <= eps."""
    eps = Fraction(1, 8)
    rng = random.Random(3)
    for system, word in ((SINGLE, Word((1, 1, 1))), (SHEAR, Word((1, 2, 1)))):
        poly, _ = ball_polygon(system, word, eps)
        rows = [r for mat in prefix_matrices(system, word) for r in mat]
        for _ in range(400):
            pt = tuple(Fraction(rng.randint(-64, 64), 512) for _ in range(2))
            inside = max(abs(pt[0]), abs(pt[1])) <= eps and all(
                abs(a * pt[0] + b * pt[1]) <= eps for a, b in rows)
            assert _in_polygon(poly, pt) == inside
        # the vertices themselves lie on the boundary
        assert all(_in_polygon(poly, v) for v in poly)


def test_polygon_packing_counts():
    assert polygon_packing_count(SINGLE, [Word((1,))], 0.125,
                                 SINGLE.L_max) == 8
    assert polygon_packing_count(SINGLE, [Word((1, 1))], 0.125,
                                 SINGLE.L_max) == 20


def test_packing_count_below_cover_count():
    for n in range(1, 14):
        w = Word((1,) * n)
        cov = polygon_cover_count(SINGLE, w, 0.125)
        pack = polygon_packing_count(SINGLE, [w], 0.125, SINGLE.L_max)
        assert pack <= cov


def test_shear_collapse_counts_grow_linearly():
    """Along the alternating word the ball is a thin sliver whose box
    count grows linearly, not exponentially."""
    counts = {}
    for n in (8, 12, 16, 20, 24, 28, 32):
        w = Word(tuple((1, 2)[k % 2] for k in range(n)))
        counts[n] = polygon_cover_count(SHEAR, w, 0.26)
    assert counts == {8: 64, 12: 96, 16: 126, 20: 158, 24: 190,
                      28: 222, 32: 254}
    # log(count)/n well below the single-map entropy at the same depth
    assert math.log(counts[32]) / 32 < 0.18


def test_deep_prefixes_stay_exact():
    # entries near lambda^n would swamp float clipping; rationals do not
    w = Word((1,) * 64)
    _, area = ball_polygon(SINGLE, w, 0.125)
    assert area > 0
    count = polygon_cover_count(SINGLE, w, 0.125)
    assert math.log(count) / 64 == pytest.approx(
        math.log(1.0 + math.sqrt(2.0)), abs=0.05)


def test_constant_word_needs_valid_symbols():
    with pytest.raises((IndexError, ValueError)):
        prefix_matrices(SINGLE, Word((2,)))


@pytest.mark.parametrize("spec, epsilon", [
    ("diag:2,3|3,2", 0.6),
    ("toral:0,1,1,2;2,1,1,0", 0.6),
    ("cantor:2,2|2,2", 0.6),
    ("cantor:3,3|3,3", 1.2),
])
def test_radius_past_the_diameter_is_one_ball(spec, epsilon):
    # one ball covers the domain, so each kind costs its word weight:
    # the smallest or largest step constant n times for the lower and
    # upper sides, the rule word, the cheapest pool word, and the n-th
    # power of the mean step weight for free
    system = parse_system(spec)
    consts = (0.3, -0.2)
    n = 3
    rule = periodic_rule((1, 2))
    pool = WordPool(2, seed=0)

    def weight(word):
        return sum(consts[j - 1] for j in word)

    expected = {
        "condensed-lower": n * min(consts),
        "exhaustive-lower": n * min(consts),
        "condensed-upper": n * max(consts),
        "exhaustive-upper": n * max(consts),
        "free": n * math.log(sum(math.exp(c) for c in consts) / 2),
        "trajectory": weight(rule.word_at(n)),
        "amalgamated": min(weight(w) for w in pool.words(n)),
    }
    for kind in KINDS:
        cover = min_cover_cost(system, constant_potential(consts), kind, n,
                               epsilon, rule=rule,
                               engine="analytic")
        assert cover.size == 1, kind
        assert cover.log_cost == pytest.approx(expected[kind], abs=1e-12)
        assert cover.note == "degenerate: radius covers the domain"
