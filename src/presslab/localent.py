"""Pointwise entropies of measures from ball-mass decay rates.

A measure is Lebesgue measure on the domain or a weighted point sample.
Sample masses are sums over the sample points inside a ball.  Lebesgue
masses are exact: boxes and their union on diagonal tori, arcs on
circle maps whose generators each have one slope, under the wrap guard
(L + 1) eps <= 1 that keeps every ball a single box or arc; a radius of
1/2 or more gives mass 1.  Everywhere else `ball_measure` raises
AnalyticUnavailable rather than answer from a discretisation, which
cannot follow balls that shrink geometrically in the depth.  The
resolution of a Lebesgue measure only sets the lattice of cell centres
that `sample_points` draws from.
Decay rates are taken as sup and inf over a word pool plus the
exhaustive union ball, with the minimum over a depth range standing in
for the liminf.
"""

import math
import random
from fractions import Fraction

from . import analytic
from .balls import BallSpec, ball_contains
from .errors import AnalyticUnavailable, ParseError
from .records import record
from .words import add_floats, pool_words

__all__ = [
    "MeasureModel", "ProductMeasureModel", "LocalEntropyEstimate",
    "lebesgue_measure", "empirical_measure",
    "dirac_measure", "parse_point", "parse_measure", "ball_measure",
    "local_amalgamated_entropy",
    "lebesgue_entropy_rate", "MarginalPointCheck", "MarginalBoundReport",
    "marginal_bound_check", "sample_points",
]

GRID = "grid"
EMPIRICAL = "empirical"


@record
class MeasureModel:
    """Probability measure: Lebesgue measure on the domain (kind GRID,
    whose resolution sets the cell-centre lattice that `sample_points`
    draws from, square on tori), or a weighted point sample."""

    kind: str
    resolution: int
    points: tuple
    weights: tuple

    def __post_init__(self):
        if self.kind == GRID:
            if self.resolution < 1:
                raise ValueError("resolution must be positive")
        elif self.kind != EMPIRICAL:
            raise ValueError("unknown measure kind %r" % self.kind)
        elif abs(add_floats(self.weights) - 1.0) > 1e-9:
            raise ValueError("measure mass %.12f is not 1"
                             % add_floats(self.weights))
        elif any(w < 0.0 for w in self.weights):
            raise ValueError("negative sample weight")


@record
class ProductMeasureModel:
    """Bernoulli weights on the symbols crossed with a base measure."""

    symbol_weights: tuple
    base: MeasureModel

    def __post_init__(self):
        if not self.symbol_weights:
            raise ValueError("empty symbol weight vector")
        if any(w < 0.0 for w in self.symbol_weights):
            raise ValueError("negative symbol weight")
        if abs(add_floats(self.symbol_weights) - 1.0) > 1e-9:
            raise ValueError("symbol weights must sum to 1")


def lebesgue_measure(system, resolution=64):
    """Lebesgue measure on the system's domain."""
    if system.is_shift:
        raise ValueError("no uniform grid density on shift space")
    return MeasureModel(GRID, resolution, (), ())


def empirical_measure(points, weights=None):
    points = tuple(points)
    if weights is None:
        weights = tuple([1.0 / len(points)] * len(points))
    return MeasureModel(EMPIRICAL, 0, points,
                        tuple(float(w) for w in weights))


def dirac_measure(point):
    return empirical_measure((point,), (1.0,))


def parse_point(text, system, line=None):
    """A point of a torus or interval system from its comma separated
    coordinates: an (x, y) pair on the torus, a float on an interval,
    each coordinate finite and in [0, 1]."""
    try:
        coords = [float(v) for v in text.split(",")]
    except ValueError:
        raise ParseError("bad point coordinates %r" % text, line)
    if system.is_toral and len(coords) != 2:
        raise ParseError("torus points need two coordinates", line)
    if not system.is_toral and len(coords) != 1:
        raise ParseError("interval points need one coordinate", line)
    if not all(0.0 <= c <= 1.0 for c in coords):
        # NaN fails both comparisons
        raise ParseError("point coordinates must be finite and in [0, 1]: "
                         "%r" % text, line)
    return tuple(coords) if system.is_toral else coords[0]


def parse_measure(spec, system, line=None, resolution=64):
    """Measure config values: lebesgue | dirac:x[,y]
    | bernoulli:p1,...,pm x lebesgue"""
    spec = spec.strip()
    if system.is_shift:
        # shift points have no grid density and no coordinates to read
        raise ParseError("shift systems take no dirac point, lebesgue or "
                         "product measure", line)
    if spec == "lebesgue":
        return lebesgue_measure(system, resolution)
    if spec.startswith("dirac:"):
        return dirac_measure(parse_point(spec[len("dirac:"):], system, line))
    if spec.startswith("bernoulli:"):
        body = spec[len("bernoulli:"):]
        parts = body.split("x")
        if len(parts) != 2 or parts[1].strip() != "lebesgue":
            raise ParseError("product measures are bernoulli:... x lebesgue",
                             line)
        try:
            probs = tuple(float(v) for v in parts[0].split(",") if v != "")
        except ValueError:
            raise ParseError("bad bernoulli weights in %r" % spec, line)
        if len(probs) != system.m:
            raise ParseError("need one weight per generator", line)
        return ProductMeasureModel(probs, lebesgue_measure(system,
                                                           resolution))
    raise ParseError("unknown measure %r" % spec, line)


# ---------------------------------------------------------------------------
# ball masses


def _uniform_exact_mass(system, spec):
    """Exact Lebesgue mass of one ball; AnalyticUnavailable where no
    closed shape is the whole ball."""
    if spec.epsilon >= 0.5 and (system.is_toral or system.wrap):
        # every distance is at most 1/2: the strict ball misses a null set
        return 1.0
    if system.is_toral and system.all_diagonal:
        entries = [g.diagonal_entries for g in system.generators]
    elif system.wrap:
        # one slope per generator, checked once per system; each is then
        # its generator's float Lipschitz constant, so no ball multiplies
        # a Fraction
        analytic._uniform_circle_slopes(system)
        slopes = [g.lipschitz for g in system.generators]
    else:
        raise AnalyticUnavailable(
            "no exact ball mass: Lebesgue local entropies need a diagonal "
            "torus or a circle map with one slope per generator")
    if not analytic.wrap_guard_ok(spec.epsilon, system.L_max):
        raise AnalyticUnavailable(
            "radius %g fails the wrap guard (L + 1) eps <= 1: no exact "
            "ball mass" % spec.epsilon)
    if system.is_toral:
        if spec.kind == "exhaustive":
            return float(analytic._star_area(entries, spec.depth,
                                             Fraction(spec.epsilon)))
        if spec.kind == "trajectory":
            px, py = analytic._axis_products(entries, spec.word)
        else:
            px = max(e[0] for e in entries) ** spec.depth
            py = max(e[1] for e in entries) ** spec.depth
        # the box area 4 eps^2/(px py) for eps = p/q, as one correctly
        # rounded int division
        p, q = spec.epsilon.as_integer_ratio()
        return 4 * p * p / (q * q * px * py)
    # every ball is an arc around the center, words only set the
    # contraction factor
    if spec.kind == "trajectory":
        prod = 1.0
        for j in spec.word:
            prod *= slopes[j - 1]
    elif spec.kind == "condensed":
        prod = max(slopes) ** spec.depth
    else:
        prod = min(slopes) ** spec.depth
    return 2.0 * spec.epsilon / prod


def ball_measure(measure, system, spec):
    """Mass of one ball: exact under Lebesgue measure, the weight of the
    sample points inside it otherwise.  Empty balls return 0 and the
    caller maps them to an infinite rate with a flag."""
    if measure.kind == GRID:
        return _uniform_exact_mass(system, spec)
    total = 0.0
    for p, w in zip(measure.points, measure.weights):
        # a sample at the center sits in every ball kind at any
        # depth, no word enumeration needed
        if system.distance(p, spec.center) == 0.0:
            total += w
        elif ball_contains(system, spec, p):
            total += w
    return total


# ---------------------------------------------------------------------------
# local entropies


@record
class LocalEntropyEstimate:
    """Finite-scale local entropies at one point.

    sequence holds (n, exhaustive, lower, upper) rows over the depth
    range so the depth trend stays visible; flags mark zero-mass balls
    whose rates were taken as infinite."""

    h_upper_local: float
    h_lower_local: float
    h_exhaustive_local: float
    x: object
    n_range: tuple
    epsilon: float
    sequence: tuple = ()
    flags: tuple = ()

    def __post_init__(self):
        if self.h_exhaustive_local > self.h_lower_local + 1e-9:
            raise ValueError("exhaustive rate above the lower rate")
        if self.h_lower_local > self.h_upper_local + 1e-9:
            raise ValueError("lower rate above the upper rate")


def _rate(mass, n):
    if mass <= 0.0:
        return math.inf
    if mass >= 1.0:
        return 0.0
    return -math.log(mass) / n


def local_amalgamated_entropy(measure, system, x, epsilon, n_range, *,
                              seed=0):
    """Ball-mass decay rates at x: sup and inf over the words of the
    (m, seed) pool plus the exhaustive union ball, minimized over the
    depth range."""
    depths = sorted(set(int(n) for n in n_range))
    if not depths or depths[0] < 1:
        raise ValueError("depth range must contain positive depths")
    rows = []
    flags = []
    for n in depths:
        rates = []
        for word in pool_words(system.m, seed, n):
            spec = BallSpec("trajectory", x, n, epsilon, word)
            rates.append(_rate(ball_measure(measure, system, spec), n))
        exh_spec = BallSpec("exhaustive", x, n, epsilon, None)
        exh = _rate(ball_measure(measure, system, exh_spec), n)
        lo, up = min(rates), max(rates)
        if math.isinf(up) or math.isinf(exh):
            flags.append("zero-mass ball at depth %d" % n)
        rows.append((n, exh, lo, up))
    return LocalEntropyEstimate(
        h_upper_local=min(r[3] for r in rows),
        h_lower_local=min(r[2] for r in rows),
        h_exhaustive_local=min(r[1] for r in rows),
        x=x, n_range=tuple(depths), epsilon=float(epsilon),
        sequence=tuple(rows), flags=tuple(flags))


# ---------------------------------------------------------------------------
# marginal bound


def lebesgue_entropy_rate(system, symbol_weights):
    """Entropy rate of the uniform base measure under the weighted
    generator mix: the weighted mean of per-generator volume growth."""
    rate = 0.0
    for p, gen in zip(symbol_weights, system.generators):
        if p == 0.0:
            continue
        if system.is_toral:
            if not gen.is_diagonal:
                raise ValueError("analytic base rate needs diagonal "
                                 "generators")
            a, b = gen.diagonal_entries
            rate += p * (math.log(a) + math.log(b))
        elif system.is_interval:
            if len(set(gen.slopes)) != 1 or not system.wrap:
                raise ValueError("analytic base rate needs uniform-slope "
                                 "circle maps")
            rate += p * math.log(gen.slopes[0])
        else:
            raise ValueError("no analytic base rate for this domain")
    return rate


@record
class MarginalPointCheck:
    x: object
    h_plus: float
    h_lower: float
    tolerance: float
    ok: bool


@record
class MarginalBoundReport:
    bound: float
    checks: tuple

    @property
    def all_ok(self):
        return all(c.ok for c in self.checks)


def _generators_equal(system):
    first = system.generators[0]
    return all(g == first for g in system.generators[1:])


def _uniform_commuting(system, weights):
    uniform = all(abs(w - 1.0 / system.m) <= 1e-12 for w in weights)
    return uniform and system.is_toral and system.all_diagonal


def sample_points(measure, system, count, seed=0):
    """Draw points from the measure itself: Lebesgue measure by the
    cell centres of its resolution lattice, samples by weight."""
    rng = random.Random("localent:%d" % seed)
    if measure.kind == EMPIRICAL:
        return [rng.choices(measure.points, measure.weights)[0]
                for _ in range(count)]
    g = measure.resolution
    if system.is_toral:
        centers = [((i + 0.5) / g, (j + 0.5) / g)
                   for i in range(g) for j in range(g)]
    else:
        centers = [(i + 0.5) / g for i in range(g)]
    # rng.choices without weights draws other points than with equal ones
    weights = [1.0 / len(centers)] * len(centers)
    return [rng.choices(centers, weights)[0] for _ in range(count)]


def marginal_bound_check(product, system, sample_points_list, epsilon,
                         n_range, *, seed=0):
    """Check that the base-marginal local entropies at sampled points
    stay below the bound: the base rate `lebesgue_entropy_rate`, which
    equals the product entropy minus the symbol entropy.

    Only the statistically self-consistent configurations are accepted:
    identical generators, or uniform symbol weights over commuting
    diagonal generators.  The tolerance at each point is the spread of
    its lower-rate sequence across the depth range, the honest
    finite-scale width."""
    weights = product.symbol_weights
    if len(weights) != system.m:
        raise ValueError("one symbol weight per generator required")
    if not (_generators_equal(system) or _uniform_commuting(system,
                                                            weights)):
        raise ValueError("rejected as non-ergodic: generators differ and "
                         "weights are not uniform over a commuting "
                         "diagonal family")
    bound = lebesgue_entropy_rate(system, weights)
    checks = []
    for x in sample_points_list:
        est = local_amalgamated_entropy(product.base, system, x, epsilon,
                                        n_range, seed=seed)
        lows = [row[2] for row in est.sequence if not math.isinf(row[2])]
        spread = (max(lows) - min(lows)) if lows else 0.0
        tol = spread + 1e-9
        checks.append(MarginalPointCheck(x, est.h_exhaustive_local,
                                         est.h_lower_local, tol,
                                         est.h_lower_local <= bound + tol))
    return MarginalBoundReport(bound, tuple(checks))
