"""Exact geometry behind the closed-form estimators.

The polygon engine works in exact integer and rational arithmetic end
to end, so these tests can assert exact areas and counts rather than
tolerances."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from presslab import analytic
from presslab.analytic import (
    _ball_vertices,
    _in_polygon,
    ball_polygon,
    polygon_cover_count,
    polygon_packing_count,
    prefix_matrices,
)
from presslab.errors import AnalyticUnavailable
from presslab.dimension import unstable_multipotential
from presslab.potentials import constant_potential, zero_potential
from presslab.pressure import KINDS, estimate_pressure, min_cover_cost, \
    packing_bound
from presslab.systems import parse_system
from presslab.words import Word, constant_rule, periodic_rule, pool_words


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


@pytest.mark.parametrize("epsilon", [
    Fraction(1, 8), pytest.param(Fraction(0.1), id="0.1"), 0.25,
    pytest.param(Fraction(0.26), id="0.26")])
def test_integer_clip_matches_fraction_clip(epsilon):
    """The homogeneous integer clip returns the Fraction clip's vertex
    list, in order, and its area; the binary floats' rationals of 0.1
    and 0.26 give p/q with denominators near 2**54 (a float radius
    itself reads as its decimal, 1/10 or 13/50)."""
    cases = [(SHEAR, w) for n in list(range(1, 13)) + [16, 24]
             for w in pool_words(2, 1, n)]
    cases += [(SINGLE, Word((1,) * n)) for n in range(1, 33)]
    for system, word in cases:
        assert ball_polygon(system, word, epsilon) == \
            _reference_ball_polygon(system, word, epsilon), word


# the Fraction cover count that the integer one replaced, verbatim but for
# the names of its three functions


def _reference_in_polygon(poly, pt):
    """Exact membership of a rational point in a convex polygon listed
    counter-clockwise, as `ball_polygon` returns it."""
    x, y = pt
    return all((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0
               for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))


def _reference_round_frac(f):
    """Nearest integer to a Fraction, floor(f + 1/2): halves round up."""
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)


def _reference_polygon_cover_count(system, word, epsilon):
    """Number of trajectory balls along `word` needed to cover the torus.

    Tiles with the lattice spanned by the columns of W^-1 for an integer
    matrix W, which always contains Z^2, so the fundamental cells fall
    into exactly |det W| translate classes on the torus.  W approximates
    the inverse of the best inscribed diamond's edge matrix; the cell
    corners are certified inside the exact ball polygon, hence each cell
    sits inside the ball of its own lattice point and |det W| balls
    cover."""
    poly, area = ball_polygon(system, word, epsilon)
    if area <= 0:
        raise AnalyticUnavailable("ball polygon degenerate at this depth")
    best = None
    k = len(poly)
    for i in range(k):
        for j in range(i + 1, k):
            det = poly[i][0] * poly[j][1] - poly[i][1] * poly[j][0]
            if best is None or abs(det) > abs(best[0]):
                best = (det, poly[i], poly[j])
    if best is None or best[0] == 0:
        raise AnalyticUnavailable("no spanning vertex pair")
    _, p, q = best
    for shrink in (Fraction(97, 100), Fraction(9, 10), Fraction(3, 4),
                   Fraction(1, 2)):
        u = ((p[0] + q[0]) * shrink, (p[1] + q[1]) * shrink)
        v = ((p[0] - q[0]) * shrink, (p[1] - q[1]) * shrink)
        det = u[0] * v[1] - u[1] * v[0]
        if det == 0:
            continue
        wa = _reference_round_frac(v[1] / det)
        wb = _reference_round_frac(-v[0] / det)
        wc = _reference_round_frac(-u[1] / det)
        wd = _reference_round_frac(u[0] / det)
        dw = wa * wd - wb * wc
        if dw == 0:
            continue
        cu = (Fraction(wd, dw), Fraction(-wc, dw))
        cv = (Fraction(-wb, dw), Fraction(wa, dw))
        corners = (((cu[0] + cv[0]) / 2, (cu[1] + cv[1]) / 2),
                   ((cu[0] - cv[0]) / 2, (cu[1] - cv[1]) / 2))
        # corners span the centered fundamental cell; the other two are
        # their mirror images and the polygon is symmetric
        if all(_reference_in_polygon(poly, c) for c in corners):
            return abs(dw)
    raise AnalyticUnavailable("could not certify a lattice tiling")


def _cover_or_decline(count, system, word, epsilon):
    try:
        return count(system, word, epsilon)
    except AnalyticUnavailable as exc:
        return "declined: %s" % exc


def test_integer_cover_count_matches_fraction_cover_count():
    """The integer vertex-pair determinants, diamond corners and corner
    tests give the Fraction version's count, or its decline, on every
    shear pool word to n = 64 and on the single map to n = 96."""
    cases = [(SHEAR, w, 0.26) for n in range(8, 65)
             for w in pool_words(2, 1, n)]
    cases += [(SINGLE, Word((1,) * n), Fraction(1, 8))
              for n in range(16, 97)]
    for case in cases:
        assert _cover_or_decline(polygon_cover_count, *case) == \
            _cover_or_decline(_reference_polygon_cover_count, *case), case


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
        poly = _ball_vertices(system, word, eps)
        rows = [r for mat in prefix_matrices(system, word) for r in mat]
        for _ in range(400):
            xy = (rng.randint(-64, 64), rng.randint(-64, 64))
            pt = tuple(Fraction(c, 512) for c in xy)
            inside = max(abs(pt[0]), abs(pt[1])) <= eps and all(
                abs(a * pt[0] + b * pt[1]) <= eps for a, b in rows)
            assert _in_polygon(poly, xy + (512,)) == inside
        # the vertices themselves lie on the boundary
        assert all(_in_polygon(poly, v) for v in poly)


def test_polygon_packing_counts():
    assert polygon_packing_count(SINGLE, [Word((1,))], 0.125) == 8
    assert polygon_packing_count(SINGLE, [Word((1, 1))], 0.125) == 20


def test_packing_count_below_cover_count():
    for n in range(1, 14):
        w = Word((1,) * n)
        cov = polygon_cover_count(SINGLE, w, 0.125)
        pack = polygon_packing_count(SINGLE, [w], 0.125)
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


def test_box_model_needs_diagonal_entries_of_two_or_more():
    # an entry of 1 does not expand its axis, so its boxes do not shrink
    system = parse_system("diag:1,3|3,2")
    phi = constant_potential([0.1, 0.1])
    for kind in KINDS:
        with pytest.raises(AnalyticUnavailable, match="entries >= 2"):
            min_cover_cost(system, phi, kind, 2, 0.125,
                           rule=periodic_rule((1, 2)), engine="analytic")


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

    def weight(word):
        return sum(consts[j - 1] for j in word)

    expected = {
        "condensed-lower": n * min(consts),
        "exhaustive-lower": n * min(consts),
        "condensed-upper": n * max(consts),
        "exhaustive-upper": n * max(consts),
        "free": n * math.log(sum(math.exp(c) for c in consts) / 2),
        "trajectory": weight(rule.word_at(n)),
        "amalgamated": min(weight(w) for w in pool_words(2, 0, n)),
    }
    for kind in KINDS:
        cover = min_cover_cost(system, constant_potential(consts), kind, n,
                               epsilon, rule=rule,
                               engine="analytic")
        assert cover.size == 1, kind
        assert cover.log_cost == pytest.approx(expected[kind], abs=1e-12)
        assert cover.note == "degenerate: radius covers the domain"


def test_each_ball_polygon_is_clipped_once_per_word():
    # the cover at eps and the packing at 2 eps scale one unit polygon per
    # pool word, so the 33 words of the pool clip 33 polygons, not 66
    analytic._unit_ball.cache_clear()
    estimate_pressure(SHEAR, zero_potential(2), "amalgamated", 8,
                      Fraction(1, 8), seed=0, engine="analytic")
    assert len(pool_words(2, 0, 8)) == 33
    assert analytic._unit_ball.cache_info().misses == 33


def test_expansion_weights_on_a_mixed_slope_map():
    # slopes 2 and 4 weigh 1/2 + 1/4 per step under the unstable
    # potential, and the core takes 3 balls of radius 1/8 per cylinder
    system = parse_system("cantor:2,4")
    phi = unstable_multipotential(system).scale(1.0)
    cover = min_cover_cost(system, phi, "trajectory", 3, 0.125,
                           rule=constant_rule(1), engine="analytic")
    assert cover.log_cost == pytest.approx(math.log(3) + 3 * math.log(0.75),
                                           abs=1e-12)
    assert cover.size == 24


def test_interval_packing_weighs_every_cylinder():
    # on slopes 2 and 4 a depth-n cylinder weighs the product of its
    # letters' branch weights, and the core packs npack points into each,
    # so the packing sum is npack (1/2 + 1/4)**n, the cover's letter sum,
    # not npack 2**n (1/4)**n from the lightest branch
    system = parse_system("cantor:2,4")
    phi = unstable_multipotential(system).scale(1.0)
    _, npack = analytic._single_core_numbers(system, Fraction(1, 8))
    for kind, rule in (("trajectory", constant_rule(1)),
                       ("amalgamated", None)):
        pack = packing_bound(system, phi, kind, 3, 0.125, rule=rule,
                             engine="analytic")
        assert pack.log_cost == pytest.approx(
            math.log(npack) + 3 * math.log(0.75), abs=1e-12)
        assert pack.size == npack * 8


def test_interval_packing_counts_starts_exactly_a_scale_apart():
    # block starts 0 and 1/4 are exactly the scale 1/4 apart: both count
    blocks = [(Fraction(0), Fraction(1, 8)), (Fraction(1, 4), Fraction(3, 8))]
    assert analytic.interval_packing_number(blocks, Fraction(1, 4)) == 2
    assert analytic.interval_packing_number(blocks, Fraction(1, 3)) == 1


def test_packing_past_the_torus_wrap_guard_floors_the_exact_radius():
    # 2 eps = 1/5 fails the wrap guard of slope 5, and 5 points fit per
    # axis; 1.0 // 0.2 is 4.0 in floats
    pack = packing_bound(parse_system("diag:5,5|5,5"), zero_potential(2),
                         "amalgamated", 3, 0.1)
    assert pack.size == 25


def test_circle_packing_past_the_wrap_guard_is_one_point():
    # (L + 1) 2 eps = 1.5 > 1 on the doubling circle map
    pack = packing_bound(parse_system("cantor:2,2"), zero_potential(1),
                         "amalgamated", 3, 0.25, engine="analytic")
    assert pack.size == 1
    assert pack.log_cost == 0.0


@pytest.mark.parametrize("excess", [Fraction(1, 2 ** 40),
                                    Fraction(1, 2 ** 50)],
                         ids=["2**-40", "2**-50"])
@pytest.mark.parametrize("spec, lipschitz", [
    ("toral:0,1,1,2;2,1,1,0", 3),
    ("cantor:2,2", 2),
])
def test_wrap_guard_is_exact_at_its_edge(spec, lipschitz, excess):
    """(L + 1) rho <= 1 holds at rho = 1/(L + 1) and fails at any radius
    above it, on a torus and on a circle map alike."""
    system = parse_system(spec)
    assert system.L_max == lipschitz
    edge = Fraction(1, lipschitz + 1)
    assert analytic.wrap_guard_ok(edge, system.L_max)
    assert not analytic.wrap_guard_ok(edge + excess, system.L_max)


def test_interval_lipschitz_constant_is_the_exact_slope():
    gen = parse_system("cantor:2.2,3.3").generators[0]
    assert gen.lipschitz == Fraction(33, 10) != 3.3


def _circle(*slopes):
    """The circle map whose generator j has slopes[j - 1] branches of
    that one slope."""
    return parse_system("cantor:" + "|".join(",".join([str(s)] * s)
                                             for s in slopes))


def test_circle_arcs_tile_as_one_axis_boxes():
    """An arc is the one-axis box, so the box tiling count is the arc
    count ceil(s_w / 2 eps), for s_w the slope product along the word,
    at every slope 2..7, depth 1..12 and radius k/64 below 1/2."""
    for s in range(2, 8):
        slopes = (s, 9 - s)
        axes = analytic._exact_axes(_circle(*slopes))
        assert axes == [(s,), (9 - s,)]
        assert all(type(f) is int for (f,) in axes)
        for n in range(1, 13):
            word = Word(tuple((1, 2, 2)[i % 3] for i in range(n)))
            prods = analytic._axis_products(axes, word)
            slope = math.prod(Fraction(slopes[j - 1]) for j in word)
            for k in range(1, 32):
                inv2eps = 1 / (2 * Fraction(k, 64))
                assert analytic._box_tiling_count(prods, inv2eps) \
                    == math.ceil(slope * inv2eps)


def _union_area(boxes):
    """Area of the union of centred boxes of half sides (x, y), all
    below 1/2, summed over the cells between their sides."""
    xs = sorted({0, *(x for x, _ in boxes)})
    ys = sorted({0, *(y for _, y in boxes)})
    return 4 * sum((x1 - x0) * (y1 - y0)
                   for x0, x1 in zip(xs, xs[1:])
                   for y0, y1 in zip(ys, ys[1:])
                   if any(x >= x1 and y >= y1 for x, y in boxes))


@pytest.mark.parametrize("spec", [
    "diag:2,5|5,2|3,3", "diag:2,2|3,3", "diag:2,3|3,5", "diag:4,7",
])
def test_star_area_is_the_union_of_the_word_boxes(spec):
    # one, two and three generators, with and without one generator
    # slowest on both axes
    entries = analytic._exact_axes(parse_system(spec))
    rho = Fraction(1, 8)
    for n in range(1, 7):
        boxes = {(rho / px, rho / py) for px, py in (
            analytic._axis_products(entries, Word(w))
            for w in itertools.product(range(1, len(entries) + 1),
                                       repeat=n))}
        assert analytic._star_area(entries, n, rho) == _union_area(boxes)


def test_star_area_of_arcs_is_the_widest_arc():
    axes = analytic._exact_axes(_circle(3, 2))
    for n in range(1, 9):
        assert analytic._star_area(axes, n, Fraction(1, 10)) \
            == 2 * Fraction(1, 10) / 2 ** n
