"""Closed-form cover and packing counts.

Three engines, all exact up to integer rounding:

* diagonal toral: dynamical balls are axis boxes, covers are box tilings
  and packing counts come from the maximal-packing volume argument with
  the exact area of the union of the per-word boxes.
* general toral: the no-wrap ball is a centrally symmetric polygon cut
  out by the prefix matrices, clipped exactly on homogeneous integer
  vertices (X, Y, W); each word's ball is clipped once at radius 1 and
  scaled to every radius.  Covers tile the torus with an inscribed
  diamond lattice certified on those vertices in integers, packings use
  the exact Fraction polygon area at doubled radius.
* interval branch maps: cylinders of a word carry exact counts, the
  invariant core is refined to rational blocks from the exact branch
  ends in one pass that builds each depth once, and cover/packing
  numbers at the relative scale 2 eps, an exact Fraction, come from 1-d
  greedy sweeps over the levels of that pass; every comparison is exact
  and takes no slack, and weights are logs.

A word's weight is the sum of its letters' log weights, and on the box
and interval engines its count is a boundary term times the product of
its letters' exact factors, from per-letter tables read once per call:
`_word_weight_log` adds the weights left to right, and `_word_product`
raises each factor to its letter's count.  Each cover engine reduces a
word to its (log cost, ball count) and hands that to one helper,
`_word_kinds`, which turns it into the trajectory (the rule's word),
amalgamated (the best pool word) and free (the mean over every word,
under the enumeration cap) covers.  Only the kinds without a per-word
form, and the diagonal free cover with its exact class sum, are written
per engine.  A radius that covers the whole domain goes through the
same helper with unit counts.

Everything here requires potentials whose consecutive sums factor over
symbols (constant components, or per-branch expansion components); the
caller falls back to the grid engine otherwise.

Wrap exactness guard: on the torus (and on circle interval maps) a
strict ball of radius rho equals its no-wrap model only when one applied
generator cannot stretch a displacement past the opposite side of the
fundamental domain, i.e. when rho <= 1/(L+1) for L the largest one-step
Lipschitz constant.  Packing counts insist on that guard at rho = 2*eps
(`_packing_guard` decides the torus cases it settles by radius alone);
cover counts never need it because the no-wrap region is always
contained in the true ball.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import AnalyticUnavailable
from .words import Word, add_floats, all_words

LN2 = math.log(2.0)
# joint-core refinements stop past this many blocks or at this depth
CORE_BLOCK_CAP = 4096
CORE_DEPTH_CAP = 12


def exact_radius(epsilon):
    """The radius as a Fraction, one rule for every engine: a float reads
    as the decimal it prints as, so 0.2 is 1/5, as in a config file."""
    return epsilon if isinstance(epsilon, Fraction) else Fraction(str(epsilon))


def log_big(x):
    """Natural log of a positive int without float overflow."""
    return math.log2(x) * LN2


def wrap_guard_ok(rho, lipschitz):
    """Strict balls at radius rho have no wrap component when
    (L + 1) * rho <= 1, compared exactly."""
    return (lipschitz + 1) * exact_radius(rho) <= 1


def _packing_guard(rho, lipschitz):
    """Torus packing count at separation rho when the radius alone sets
    it (past the diameter 1/2, or failing the wrap guard), else None."""
    if rho > 0.5:
        return 1
    if not wrap_guard_ok(rho, lipschitz):
        return max((1 // rho) ** 2, 1)
    return None


def _side(consts, kind, n):
    """Weight of a condensed or exhaustive kind's lower or upper side."""
    return n * (min(consts) if kind.endswith("-lower") else max(consts))


def log_sum_exp(terms):
    peak = max(terms)
    return peak + math.log(add_floats(math.exp(t - peak) for t in terms))


# ---------------------------------------------------------------------------
# box model for diagonal toral families


def _diag_entries(system):
    if not system.is_toral or not system.all_diagonal:
        raise AnalyticUnavailable("box model needs diagonal generators")
    entries = [g.diagonal_entries for g in system.generators]
    if any(e < 2 for pair in entries for e in pair):
        raise AnalyticUnavailable("box model needs diagonal entries >= 2")
    return entries


def _letter_counts(word, m):
    """How often each of the letters 1..m occurs in the word."""
    return [word.symbols.count(j) for j in range(1, m + 1)]


def _word_product(factors, word, start=1):
    """start times the letters' exact factors along the word, taken as
    each factor to the power of its letter's count."""
    return math.prod(map(pow, factors, _letter_counts(word, len(factors))),
                     start=start)


def _word_weight_log(weights, word, start=0.0):
    """start plus the letters' log weights, added left to right (letters
    count from 1, and a list lookup maps faster than a generator)."""
    return add_floats(map([None, *weights].__getitem__, word), start)


def _axis_products(entries, word):
    return _class_products(entries, _letter_counts(word, len(entries)))


def _constants(phi):
    consts = phi.constant_values
    if consts is None:
        raise AnalyticUnavailable("need a constant-class potential")
    return consts


def _word_kinds(kind, n, m, pool, rule, word_cost, label):
    """(log cost, count, note) of the trajectory, amalgamated or free
    cover from a per-word (log cost, count).  Amalgamated takes the best
    pool word and skips words with no closed form; free averages over
    every word and reports no count."""
    if kind == "trajectory":
        cost, count = word_cost(rule.word_at(n))
        return (cost, count, label)
    if kind == "amalgamated":
        best = None
        for word in pool:
            try:
                cost, count = word_cost(word)
            except AnalyticUnavailable:
                continue
            if best is None or cost < best[0]:
                best = (cost, count)
        if best is None:
            raise AnalyticUnavailable("no pool word admits a " + label)
        cost, count = best
        return (cost, count, "best pool word " + label)
    if kind == "free":
        terms = [word_cost(word)[0] for word in all_words(m, n)]
        return (log_sum_exp(terms) - n * math.log(m), None,
                "averaged word %ss" % label)
    raise AnalyticUnavailable("kind %r has no %s closed form" % (kind, label))


def _degenerate_cover(kind, n, m, pool, rule, step_weights, lo, hi):
    """One ball covers the whole domain, so every count is 1 and the
    cost is the word weight alone."""
    note = "degenerate: radius covers the domain"
    if kind in ("condensed-lower", "exhaustive-lower"):
        return (n * lo, 1, note)
    if kind in ("condensed-upper", "exhaustive-upper"):
        return (n * hi, 1, note)
    if kind == "free":
        # the mean over all m**n words of a product of step weights is
        # the n-th power of the mean step weight
        peak = max(step_weights)
        mean = add_floats(math.exp(c - peak) for c in step_weights) / m
        return (n * (peak + math.log(mean)), 1, note)
    cost, _, _ = _word_kinds(
        kind, n, m, pool, rule,
        lambda word: (_word_weight_log(step_weights, word), 1), note)
    return (cost, 1, note)


def _box_tiling_count(px, py, inv2eps):
    """Boxes of half sides eps/px, eps/py tile the torus in this many."""
    return math.ceil(px * inv2eps) * math.ceil(py * inv2eps)


def _diag_class_iter(m, n):
    """Multiset classes of length-n words over m symbols as count vectors
    together with the multinomial size of each class."""
    def rec(sym, left):
        if sym == m - 1:
            yield (left,)
            return
        for c in range(left + 1):
            for rest in rec(sym + 1, left - c):
                yield (c,) + rest

    for counts in rec(0, n):
        size = math.factorial(n)
        for c in counts:
            size //= math.factorial(c)
        yield counts, size


def _class_products(entries, counts):
    px = 1
    py = 1
    for (a, b), c in zip(entries, counts):
        px *= a ** c
        py *= b ** c
    return px, py


def _star_area(entries, n, rho):
    """Exact area of the union of the per-word-class boxes at radius rho
    (a Fraction) for a diagonal family."""
    boxes = []
    for counts, _ in _diag_class_iter(len(entries), n):
        px, py = _class_products(entries, counts)
        boxes.append((rho / px, rho / py))
    boxes.sort()
    frontier = []
    best_y = Fraction(0)
    for x, y in reversed(boxes):
        if y > best_y:
            frontier.append((x, y))
            best_y = y
    frontier.reverse()
    area = Fraction(0)
    prev_x = Fraction(0)
    for x, y in frontier:
        xc = min(x, Fraction(1, 2))
        yc = min(y, Fraction(1, 2))
        if xc > prev_x:
            area += (xc - prev_x) * yc
            prev_x = xc
    return 4 * area


def _diag_weight_terms(system, entries, consts, n, with_counts, inv2eps):
    """Per-class log terms: log(class size) + [log count] + class weight."""
    terms = []
    for counts, size in _diag_class_iter(system.m, n):
        w = add_floats(consts[idx] * c for idx, c in enumerate(counts))
        t = math.log(size) + w
        if with_counts:
            px, py = _class_products(entries, counts)
            t += log_big(_box_tiling_count(px, py, inv2eps))
        terms.append(t)
    return terms


def diag_cover(system, phi, kind, n, epsilon, pool=None, rule=None):
    """(log cost, ball count, note) for one kind on a diagonal family
    with a constant-class potential."""
    entries = _diag_entries(system)
    consts = _constants(phi)
    if 2 * exact_radius(epsilon) >= 1:
        return _degenerate_cover(kind, n, system.m, pool, rule, consts,
                                 min(consts), max(consts))
    inv2eps = 1 / (2 * exact_radius(epsilon))
    family = kind.split("-")[0]
    if family in ("condensed", "exhaustive"):
        # the condensed ball is the fastest box, the exhaustive the slowest
        pick = max if family == "condensed" else min
        lx, ly = map(pick, zip(*entries))
        count = _box_tiling_count(lx ** n, ly ** n, inv2eps)
        return (log_big(count) + _side(consts, kind, n), count,
                family + " box tiling")
    if kind == "free":
        terms = _diag_weight_terms(system, entries, consts, n, True, inv2eps)
        log_sum = log_sum_exp(terms)
        return (log_sum - n * math.log(system.m), None,
                "class-averaged word costs")

    def word_cost(word):
        count = _box_tiling_count(*_axis_products(entries, word), inv2eps)
        return log_big(count) + _word_weight_log(consts, word), count

    return _word_kinds(kind, n, system.m, pool, rule, word_cost,
                       "box tiling")


def diag_packing(system, phi, kind, n, epsilon, pool=None, rule=None):
    """(log weighted packing sum, count, note).

    Counts come from the maximal-packing volume bound at doubled radius,
    except for the exhaustive family where the outer model boxes admit
    an explicit touching grid."""
    entries = _diag_entries(system)
    consts = _constants(phi)
    rho = 2 * exact_radius(epsilon)
    count = _packing_guard(rho, system.L_max)
    if count is not None:
        return (log_big(count) + n * min(consts), count,
                "radius-only count (2eps past the diameter or wrap guard)")
    inv2eps = 1 / rho
    if kind == "trajectory":
        word = rule.word_at(n)
        px, py = _axis_products(entries, word)
        area = 4 * min(rho / px, Fraction(1, 2)) * min(rho / py, Fraction(1, 2))
        count = math.ceil(1 / area)
        return (log_big(count) + _word_weight_log(consts, word), count,
                "volume bound, word box at 2eps")
    if kind == "amalgamated":
        count = math.ceil(1 / _star_area(entries, n, rho))
        return (log_big(count) + n * min(consts), count,
                "volume bound, union of word boxes at 2eps")
    if kind in ("condensed-lower", "condensed-upper"):
        lx, ly = map(max, zip(*entries))
        area = 4 * min(rho / lx ** n, Fraction(1, 2)) \
            * min(rho / ly ** n, Fraction(1, 2))
        count = math.ceil(1 / area)
        return (log_big(count) + _side(consts, kind, n), count,
                "volume bound, condensed box")
    if kind in ("exhaustive-lower", "exhaustive-upper"):
        lx, ly = map(min, zip(*entries))
        count = max(math.floor(lx ** n * inv2eps)
                    * math.floor(ly ** n * inv2eps), 1)
        return (log_big(count) + _side(consts, kind, n), count,
                "touching grid of outer exhaustive boxes")
    # free: one set separated in the min-over-words metric works for
    # every word at once, so the star count carries the averaged weights
    count = math.ceil(1 / _star_area(entries, n, rho))
    terms = _diag_weight_terms(system, entries, consts, n, False, None)
    log_mean = log_sum_exp(terms) - n * math.log(system.m)
    return (log_big(count) + log_mean, count,
            "star-grid packing, averaged weights")


# ---------------------------------------------------------------------------
# polygon engine for general integer matrices


def prefix_matrices(system, word):
    mats = []
    cur = ((1, 0), (0, 1))
    for j in word:
        (a, b), (c, d) = system.generators[j - 1].matrix
        (p, q), (r, s) = cur
        cur = ((a * p + b * r, a * q + b * s),
               (c * p + d * r, c * q + d * s))
        mats.append(cur)
    return mats


def _clip_halfplane(poly, a, b):
    """Keep the part of poly with a*x + b*y <= 1 (one Sutherland-Hodgman
    pass).  Vertices are homogeneous integer triples (X, Y, W) with
    W > 0 for the point (X/W, Y/W), so the side test is the integer
    v = a*X + b*Y - W and a crossing is v1*P2 - v2*P1 divided by its
    gcd: exact at depths where the matrix entries dwarf float precision,
    with no rational arithmetic in the loop."""
    side = [a * x + b * y - w for x, y, w in poly]
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        v1 = side[i]
        v2 = side[j]
        if v1 <= 0:
            out.append(poly[i])
        if (v1 < 0 < v2) or (v2 < 0 < v1):
            x1, y1, w1 = poly[i]
            x2, y2, w2 = poly[j]
            x = v1 * x2 - v2 * x1
            y = v1 * y2 - v2 * y1
            w = v1 * w2 - v2 * w1
            if w < 0:
                x, y, w = -x, -y, -w
            g = math.gcd(x, y, w)
            out.append((x // g, y // g, w // g))
    return out


@functools.lru_cache(maxsize=None)
def _unit_ball(system, word):
    """The no-wrap trajectory ball at radius 1: the unit square clipped by
    the strips |r.x| <= 1 of every prefix row r, as a tuple of reduced
    homogeneous integer triples (X, Y, W), W > 0, counter-clockwise.  No
    row is zero, as generators of det 0 are rejected; the square and
    every strip hold a neighbourhood of the origin, so the polygon
    always keeps one and has an interior."""
    poly = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]
    for mat in prefix_matrices(system, word):
        for a, b in mat:
            poly = _clip_halfplane(poly, a, b)
            poly = _clip_halfplane(poly, -a, -b)
    return tuple(poly)


def _ball_vertices(system, word, epsilon):
    """No-wrap trajectory ball: displacements whose whole prefix orbit
    stays within epsilon in the sup metric.  Every constraint is linear
    in epsilon, so every clip decision and vertex scales with it: the
    unit ball's triples as (pX, pY, qW) for epsilon = p/q, unreduced."""
    p, q = exact_radius(epsilon).as_integer_ratio()
    return [(p * x, p * y, q * w) for x, y, w in _unit_ball(system, word)]


def ball_polygon(system, word, epsilon):
    """The `_ball_vertices` polygon and its area, as exact Fractions."""
    poly = [(Fraction(x, w), Fraction(y, w))
            for x, y, w in _ball_vertices(system, word, epsilon)]
    area = sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                in zip(poly, poly[1:] + poly[:1])), Fraction(0))
    return poly, abs(area) / 2


def _in_polygon(poly, pt):
    """Exact membership of a point in a convex polygon listed
    counter-clockwise, all homogeneous triples with W > 0 as
    `_ball_vertices` returns them: the determinant of an edge's ends and
    the point is W1*W2*W times their cross product, so it has its sign."""
    x, y, w = pt
    return all(x1 * (y2 * w - w2 * y) - y1 * (x2 * w - w2 * x)
               + w1 * (x2 * y - y2 * x) >= 0 for (x1, y1, w1), (x2, y2, w2)
               in zip(poly, poly[1:] + poly[:1]))


def _round_div(a, b):
    """Nearest integer to a/b, floor(a/b + 1/2): halves round up."""
    return (2 * a + b) // (2 * b)


def polygon_cover_count(system, word, epsilon):
    """Number of trajectory balls along `word` needed to cover the torus.

    Tiles with the lattice spanned by the columns of W^-1 for an integer
    matrix W, which always contains Z^2, so the fundamental cells fall
    into exactly |det W| translate classes on the torus.  W approximates
    the inverse of the best inscribed diamond's edge matrix; the cell
    corners are certified inside the exact ball polygon, hence each cell
    sits inside the ball of its own lattice point and |det W| balls
    cover.  All in integers, on the homogeneous vertices."""
    poly = _ball_vertices(system, word, epsilon)
    # the first vertex pair of largest |det(p, q)| = |N| / (Wp Wq); the
    # polygon has an interior, so two of its vertices are independent
    # and N != 0
    best = (0, 1, None, None)
    for i, (x1, y1, w1) in enumerate(poly):
        for x2, y2, w2 in poly[i + 1:]:
            num = x1 * y2 - y1 * x2
            if abs(num) * best[1] > abs(best[0]) * w1 * w2:
                best = (num, w1 * w2, poly[i], (x2, y2, w2))
    num, _, (xp, yp, wp), (xq, yq, wq) = best
    # diamond edges u, v = (p + q) s, (p - q) s at shrink s = a/b have
    # det(u, v) = -2 s^2 N / (Wp Wq); W is (u v)^-1 rounded entrywise
    ux, uy = xp * wq + xq * wp, yp * wq + yq * wp
    vx, vy = xp * wq - xq * wp, yp * wq - yq * wp
    for a, b in ((97, 100), (9, 10), (3, 4), (1, 2)):
        den = 2 * a * num
        wa = _round_div(-vy * b, den)
        wb = _round_div(vx * b, den)
        wc = _round_div(uy * b, den)
        wd = _round_div(-ux * b, den)
        dw = wa * wd - wb * wc
        if dw == 0:
            continue
        # corners (cu +- cv)/2 of the centered fundamental cell, cu and cv
        # the columns of W^-1, up to a sign, over the weight 2|dw|; the
        # other two are their mirror images and the polygon is symmetric
        corners = ((wd - wb, wa - wc, 2 * abs(dw)),
                   (wd + wb, -wa - wc, 2 * abs(dw)))
        if all(_in_polygon(poly, c) for c in corners):
            return abs(dw)
    raise AnalyticUnavailable("could not certify a lattice tiling")


def polygon_packing_count(system, words, epsilon):
    """Volume-bound packing count at separation 2 eps: a maximal packing
    separated along every word covers the torus with unions of the
    words' 2 eps balls, whose area is at most the summed areas.  Every
    word polygon has an interior (`_ball_vertices`), so the sum is
    positive."""
    rho = 2 * exact_radius(epsilon)
    count = _packing_guard(rho, system.L_max)
    if count is not None:
        return count
    total = sum(ball_polygon(system, word, rho)[1] for word in words)
    return math.ceil(1 / total)


def toral_cover(system, phi, kind, n, epsilon, pool=None, rule=None):
    """Polygon-engine covers for non-diagonal toral systems: trajectory
    and amalgamated kinds, plus free under the enumeration cap."""
    consts = _constants(phi)
    if 2 * exact_radius(epsilon) >= 1:
        return _degenerate_cover(kind, n, system.m, pool, rule, consts,
                                 min(consts), max(consts))

    def word_cost(word):
        count = polygon_cover_count(system, word, epsilon)
        return log_big(count) + _word_weight_log(consts, word), count

    return _word_kinds(kind, n, system.m, pool, rule, word_cost,
                       "diamond tiling")


def toral_packing(system, phi, kind, n, epsilon, pool=None, rule=None):
    consts = _constants(phi)
    if kind == "trajectory":
        words = [rule.word_at(n)]
        weight = _word_weight_log(consts, words[0])
    elif kind == "amalgamated":
        words = pool
        weight = n * min(consts)
    else:
        raise AnalyticUnavailable("kind %r has no polygon packing" % kind)
    count = polygon_packing_count(system, words, epsilon)
    return (log_big(count) + weight, count,
            "volume bound via summed word polygons at 2eps")


# ---------------------------------------------------------------------------
# interval branch systems


def _interval_weight_table(system, phi):
    """Log weights per generator, a tuple over its branches: the offset,
    less scale * log s on a branch of slope s for an expansion component,
    the slopes read from the generator; other non-constant parts
    decline."""
    table = []
    for j, gen in enumerate(system.generators, start=1):
        kind, params, scale, offset = phi.components[j - 1]
        if kind == "zero" or scale == 0.0:
            table.append(tuple(offset for _ in gen.slopes))
        elif kind == "expansion":
            table.append(tuple(offset - scale * math.log(s)
                               for s in gen.slopes))
        else:
            raise AnalyticUnavailable(
                "interval closed forms need constant or expansion parts")
    return table


def _core_levels(system):
    """Blocks of the depth-1, 2, ... refinements of the set of points
    whose orbits along all words of that length stay inside the branch
    domains, as exact (lo, hi) pairs with lo < hi, each level built once
    from the one before.  The pass ends at CORE_DEPTH_CAP or after the
    first level past CORE_BLOCK_CAP blocks."""
    # every first branch fixes 0, so the block at 0 survives every
    # level and every intersection: no level is empty
    blocks = [(Fraction(0), Fraction(1))]
    for _ in range(CORE_DEPTH_CAP):
        # branches and blocks both run left to right and neither
        # overlaps, so every pulled list is already in increasing order
        per_gen = [[(left + lo / slope, left + hi / slope)
                    for left, slope in gen.branches for lo, hi in blocks]
                   for gen in system.generators]
        blocks = per_gen[0]
        for pulled in per_gen[1:]:
            blocks = _intersect_interval_lists(blocks, pulled)
        yield blocks
        if len(blocks) > CORE_BLOCK_CAP:
            return


def _intersect_interval_lists(xs, ys):
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if lo < hi:
            out.append((lo, hi))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def interval_cover_number(blocks, scale):
    """Minimal number of length-`scale` intervals covering the union of
    the blocks, all inside [0, 1] (greedy left-to-right sweep, exact in
    one dimension)."""
    count = 0
    cursor = 0
    for lo, hi in blocks:
        cursor = max(cursor, lo)
        while cursor < hi:
            count += 1
            cursor += scale
    return count


def interval_packing_number(blocks, scale):
    """Greedy count of block left endpoints pairwise >= scale apart; the
    first block always counts."""
    count = 0
    last = None
    for lo, _ in blocks:
        if last is None or lo - last >= scale:
            count += 1
            last = lo
    return count


@functools.lru_cache(maxsize=None)
def _single_core_numbers(system, epsilon):
    """Relative-scale cover and packing counts of the invariant core of
    a single-generator system, computed on the first refinement level
    deep enough that blocks are narrower than the scale (or the last
    level the pass reaches).  A pure function of (system, epsilon), so
    one refinement pass serves every potential, kind and side."""
    s_min = min(system.generators[0].slopes)
    scale = 2 * exact_radius(epsilon)
    for depth, blocks in enumerate(_core_levels(system), start=1):
        if s_min ** depth * scale >= 4:
            break
    return (interval_cover_number(blocks, scale),
            interval_packing_number(blocks, scale))


@functools.lru_cache(maxsize=None)
def _joint_core_packing(system, epsilon, n):
    """Block count of the deepest joint-core level, from 2 on, up to
    which every level's adjacent block gaps expand past 2 eps within n
    same-branch steps (1 where level 2 already fails).  A pure function
    of (system, epsilon, n), so one refinement pass serves every
    potential of a root search."""
    s_min = min(min(g.slopes) for g in system.generators)
    need = 2 * exact_radius(epsilon) / s_min ** n
    count = 1
    for blocks in itertools.islice(_core_levels(system), 1, None):
        if any(b[0] - a[0] < need for a, b in zip(blocks, blocks[1:])):
            break
        count = len(blocks)
    return count


@functools.lru_cache(maxsize=None)
def _uniform_circle_slopes(system):
    """The one slope of each generator, computed once per system."""
    slopes = []
    for j, gen in enumerate(system.generators, start=1):
        if len(set(gen.slopes)) > 1:
            raise AnalyticUnavailable(
                "generator %d mixes slopes on the circle: no closed form" % j)
        slopes.append(gen.slopes[0])
    return tuple(slopes)


def interval_cover(system, phi, kind, n, epsilon, pool=None, rule=None):
    """Cylinder-exact cover costs for interval systems: trajectory,
    amalgamated and free kinds."""
    table = _interval_weight_table(system, phi)
    if exact_radius(epsilon) >= (Fraction(1, 2) if system.wrap else 1):
        hi = [max(t) for t in table]
        return _degenerate_cover(kind, n, system.m, pool, rule, hi,
                                 min(min(t) for t in table), max(hi))
    if system.wrap:
        slopes = _uniform_circle_slopes(system)
        # one slope per generator, so every branch weighs the same
        weights = [t[0] for t in table]
        inv2eps = 1 / (2 * exact_radius(epsilon))

        def word_cost(word):
            count = math.ceil(_word_product(slopes, word) * inv2eps)
            return log_big(count) + _word_weight_log(weights, word), count
    else:
        # balls per cylinder: a single generator takes the sharp core
        # count, several generators cover the whole relative interval
        if system.m == 1:
            ncov, _ = _single_core_numbers(system, epsilon)
        else:
            ncov = math.ceil(1 / (2 * exact_radius(epsilon)))
        # a letter's cylinders weigh the sum of its branch weights
        log_weights = [log_sum_exp(t) for t in table]
        branches = [len(t) for t in table]
        log_ncov = math.log(ncov)

        def word_cost(word):
            return (_word_weight_log(log_weights, word, log_ncov),
                    _word_product(branches, word, ncov))

    return _word_kinds(kind, n, system.m, pool, rule, word_cost,
                       "cylinder cover")


def interval_packing(system, phi, kind, n, epsilon, pool=None, rule=None):
    """Packing sums for interval systems with explicit separation
    certificates.

    Circle systems use touching grids guarded by the wrap rule.  Gapped
    systems use per-cylinder core points: same-branch orbits expand an
    initial gap past 2 eps by the final step, different-branch orbit
    points sit across a domain gap, so 2 eps must not exceed the gap.
    On one generator S_n phi is constant on each depth-n cylinder, which
    holds npack core points, so the packing sum is exact, letters
    weighed as in the cylinder cover."""
    table = _interval_weight_table(system, phi)
    # circle and joint-core packings weigh a point by its lightest branch
    lightest = [min(t) for t in table]
    if system.wrap:
        slopes = _uniform_circle_slopes(system)
        if not wrap_guard_ok(2 * exact_radius(epsilon), system.L_max):
            return (n * min(lightest), 1,
                    "wrap guard failed, trivial packing")
        if kind == "trajectory":
            word = rule.word_at(n)
            prod = _word_product(slopes, word)
            weight = _word_weight_log(lightest, word)
        elif kind == "amalgamated":
            # every word expands at least at the weakest rate
            prod = min(slopes) ** n
            weight = n * min(lightest)
        else:
            raise AnalyticUnavailable("kind %r has no circle packing" % kind)
        count = max(math.floor(prod / (4 * exact_radius(epsilon))), 1)
        return (log_big(count) + weight, count, "circle grid packing")
    if system.min_gap < 2 * exact_radius(epsilon):
        raise AnalyticUnavailable("2eps exceeds the branch gap")
    if kind == "amalgamated" and system.m > 1:
        # multi-generator: pack the block endpoints of the joint core
        count = _joint_core_packing(system, epsilon, n)
        w = n * min(lightest)
        return (math.log(count) + w, count, "joint core block endpoints")
    if kind == "trajectory":
        if system.m != 1:
            raise AnalyticUnavailable(
                "per-cylinder packing needs a single generator")
        word = rule.word_at(n)
    elif kind == "amalgamated":
        word = Word((1,) * n)
    else:
        raise AnalyticUnavailable("kind %r has no interval packing" % kind)
    _, npack = _single_core_numbers(system, epsilon)
    count = _word_product([len(t) for t in table], word, npack)
    return (_word_weight_log([log_sum_exp(t) for t in table], word,
                             math.log(npack)), count,
            "per-cylinder core packing")
