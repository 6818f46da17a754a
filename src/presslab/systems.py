"""Finitely generated semigroup actions on compact spaces.

Three domain families are supported: integer-matrix endomorphisms of the
2-torus, piecewise affine expanding maps on a union of sub-intervals of
[0,1], and full shifts acted on by powers of the shift map.  A system is
a tuple of generator maps plus the metric of its domain; everything else
in the package (ball geometry, cover costs, pressure estimates) is built
on top of the `apply` / `distance` pair defined here.  The grid engine
uses that pair too: `grid_points` is its finite universe and
`pair_distances` is `distance` over every pair of an array of points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

TORUS = "torus-2d"
INTERVAL = "interval-union"
SHIFT = "full-shift"

# Shift points are fixed-length symbol tuples padded with trailing zeros.
# Membership in any ball of depth n only looks at finitely many symbols,
# so a long enough padded tuple stands in for the genuine infinite sequence.
SHIFT_POINT_LENGTH = 24

# caps of grid_points: torus lattice side, interval cells, shift length
GRID_MAX_TORUS = 40
GRID_MAX_LINE = 1024
GRID_MAX_SHIFT_LENGTH = 10


def circle_dist(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class ToralGenerator:
    """One integer matrix acting on the 2-torus, row-major."""

    matrix: tuple

    def __post_init__(self):
        m = self.matrix
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise ValueError("need a 2x2 matrix")
        if not all(isinstance(e, int) for row in m for e in row):
            raise ValueError("matrix entries must be integers")
        if self.det == 0:
            raise ValueError("singular matrix does not define an endomorphism")

    @property
    def det(self):
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    @property
    def trace(self):
        return self.matrix[0][0] + self.matrix[1][1]

    @property
    def is_diagonal(self):
        return self.matrix[0][1] == 0 and self.matrix[1][0] == 0

    @property
    def diagonal_entries(self):
        return (self.matrix[0][0], self.matrix[1][1])

    @property
    def lipschitz(self):
        # max row sum bounds the sup-metric expansion of one step
        return max(abs(self.matrix[0][0]) + abs(self.matrix[0][1]),
                   abs(self.matrix[1][0]) + abs(self.matrix[1][1]))

    def eigenvalues(self):
        """Both eigenvalues sorted by modulus, complex if the discriminant
        is negative."""
        t, d = self.trace, self.det
        disc = t * t - 4 * d
        if disc >= 0:
            r = math.sqrt(disc)
            lam = ((t - r) / 2.0, (t + r) / 2.0)
        else:
            r = math.sqrt(-disc)
            lam = (complex(t / 2.0, -r / 2.0), complex(t / 2.0, r / 2.0))
        return tuple(sorted(lam, key=abs))

    def char_poly_irreducible_over_z(self):
        """x^2 - t x + d with no rational root and non-square discriminant."""
        t, d = self.trace, self.det
        disc = t * t - 4 * d
        if disc < 0:
            return True
        s = math.isqrt(disc)
        return s * s != disc

    def apply(self, point):
        (a, b), (c, d) = self.matrix
        x, y = point
        return ((a * x + b * y) % 1.0, (c * x + d * y) % 1.0)


@dataclass(frozen=True)
class IntervalGenerator:
    """Piecewise affine expanding map.  Each branch is (left, slope) and
    maps [left, left + 1/slope] onto [0, 1] increasingly."""

    branches: tuple

    def __post_init__(self):
        if not self.branches:
            raise ValueError("at least one branch required")
        prev_right = None
        for left, slope in self.branches:
            if slope <= 1.0:
                raise ValueError("branch slopes must exceed 1")
            right = left + 1.0 / slope
            if left < -1e-12 or right > 1.0 + 1e-12:
                raise ValueError("branch outside [0, 1]")
            if prev_right is not None and left < prev_right - 1e-12:
                raise ValueError("overlapping branches rejected")
            prev_right = right

    @classmethod
    def from_slopes(cls, slopes):
        """Branches of widths 1/s_i: first starts at 0, last ends at 1,
        interior gaps all equal."""
        slopes = [float(s) for s in slopes]
        if len(slopes) < 2:
            # a single branch cannot start at 0 and end at 1 unless slope 1
            raise ValueError("need at least two branch slopes")
        total = sum(1.0 / s for s in slopes)
        if total > 1.0 + 1e-9:
            raise ValueError("overlapping branches rejected")
        gap = (1.0 - total) / (len(slopes) - 1)
        branches = []
        left = 0.0
        for s in slopes:
            branches.append((left, s))
            left += 1.0 / s + gap
        return cls(tuple(branches))

    @property
    def branch_count(self):
        return len(self.branches)

    @property
    def slopes(self):
        return tuple(s for _, s in self.branches)

    @property
    def total_width(self):
        return sum(1.0 / s for _, s in self.branches)

    @property
    def has_gaps(self):
        return self.total_width < 1.0 - 1e-9

    @property
    def min_gap(self):
        """Smallest distance between consecutive branch intervals."""
        if not self.has_gaps:
            return 0.0
        gaps = []
        for i in range(len(self.branches) - 1):
            l0, s0 = self.branches[i]
            l1, _ = self.branches[i + 1]
            gaps.append(l1 - (l0 + 1.0 / s0))
        return min(gaps) if gaps else 0.0

    @property
    def lipschitz(self):
        return max(self.slopes)

    def branch_of(self, x):
        """Index of the branch whose interval contains x, else None."""
        for i, (left, slope) in enumerate(self.branches):
            if left - 1e-12 <= x <= left + 1.0 / slope + 1e-12:
                return i
        return None

    def apply(self, x):
        i = self.branch_of(x)
        if i is None:
            return None
        left, slope = self.branches[i]
        y = slope * (x - left)
        if y >= 1.0:
            y = 1.0 if self.has_gaps else 0.0
        return min(max(y, 0.0), 1.0) if self.has_gaps else y % 1.0


@dataclass(frozen=True)
class ShiftGenerator:
    """sigma^step on the full shift over `alphabet` symbols."""

    step: int
    alphabet: int

    def __post_init__(self):
        if self.step < 1 or self.alphabet < 2:
            raise ValueError("need step >= 1 and alphabet >= 2")

    @property
    def lipschitz(self):
        # d(sigma^s x, sigma^s y) <= 2^s d(x, y)
        return float(2 ** self.step)

    def apply(self, seq):
        return seq[self.step:] + (0,) * self.step


@dataclass(frozen=True)
class SemigroupSystem:
    domain: str
    generators: tuple
    name: str = ""

    @property
    def m(self):
        return len(self.generators)

    @property
    def is_toral(self):
        return self.domain == TORUS

    @property
    def is_interval(self):
        return self.domain == INTERVAL

    @property
    def is_shift(self):
        return self.domain == SHIFT

    @property
    def all_diagonal(self):
        return self.is_toral and all(g.is_diagonal for g in self.generators)

    @property
    def wrap(self):
        """Interval systems with no gaps are circle maps; gapped Cantor
        systems live on the real interval where branch separation is a
        genuine metric gap."""
        if not self.is_interval:
            return False
        return not any(g.has_gaps for g in self.generators)

    @property
    def min_gap(self):
        gaps = [g.min_gap for g in self.generators if g.has_gaps]
        return min(gaps) if gaps else 0.0

    @property
    def L_max(self):
        return max(g.lipschitz for g in self.generators)

    @property
    def max_preimage_count(self):
        if self.is_toral:
            return max(abs(g.det) for g in self.generators)
        if self.is_interval:
            return max(g.branch_count for g in self.generators)
        return max(g.alphabet ** g.step for g in self.generators)

    def apply(self, j, point):
        """Apply generator j (1-based).  Returns None where undefined."""
        if not 1 <= j <= self.m:
            raise ValueError("generator index out of range")
        return self.generators[j - 1].apply(point)

    def distance(self, p, q):
        if self.is_toral:
            return max(circle_dist(p[0], q[0]), circle_dist(p[1], q[1]))
        if self.is_interval:
            return circle_dist(p, q) if self.wrap else abs(p - q)
        if p == q:
            return 0.0
        for i, (a, b) in enumerate(zip(p, q)):
            if a != b:
                return 2.0 ** (-i)
        return 2.0 ** (-min(len(p), len(q)))

    def pair_distances(self, a):
        """`distance` between every pair of an array of points: (P, 2) on
        the torus, (P,) on intervals, (P, L) symbols on the shift, one
        coordinate at a time so that every temporary is P x P.  On the
        shift it is 2**-k at the first differing symbol k, and 2**-L, the
        diameter of a length-L cylinder, where all L symbols agree."""
        a = np.asarray(a)
        if self.is_shift:
            out = np.full((len(a), len(a)), 2.0 ** -a.shape[1])
            for k in range(a.shape[1] - 1, -1, -1):
                np.putmask(out, a[:, None, k] != a[None, :, k], 2.0 ** -k)
            return out
        out = np.zeros((len(a), len(a)))
        for col in (a.T if self.is_toral else [a]):
            d = np.abs(col[:, None] - col[None, :])
            if self.is_toral or self.wrap:
                d = np.minimum(d, 1.0 - d)
            np.maximum(out, d, out=out)
        return out

    def grid_points(self, epsilon, n):
        """Universe of the depth-n grid engine at radius epsilon: a g x g
        torus lattice, g + 1 evenly spaced points of [0, 1] on intervals,
        every symbol tuple of one length on the shift."""
        if self.is_toral:
            g = max(8, min(GRID_MAX_TORUS, math.ceil(4.0 / epsilon)))
            xs = [i / g for i in range(g)]
            return list(itertools.product(xs, xs))
        if self.is_interval:
            g = max(32, min(GRID_MAX_LINE, math.ceil(8.0 / epsilon)))
            return [i / g for i in range(g + 1)]
        step = max(gen.step for gen in self.generators)
        tail = max(1, math.ceil(math.log2(1.0 / epsilon)))
        length = min(n * step + tail + 1, GRID_MAX_SHIFT_LENGTH)
        return list(itertools.product(range(self.generators[0].alphabet),
                                      repeat=length))

    def sample(self, rng, count):
        """Deterministic point sample from the domain (interval systems
        sample only branch-domain points so one step is always defined)."""
        out = []
        if self.is_toral:
            for _ in range(count):
                out.append((rng.random(), rng.random()))
        elif self.is_interval:
            branches = self.generators[0].branches
            widths = [1.0 / s for _, s in branches]
            total = sum(widths)
            for _ in range(count):
                u = rng.random() * total
                for (left, _), w in zip(branches, widths):
                    if u <= w:
                        out.append(left + u)
                        break
                    u -= w
        else:
            k = self.generators[0].alphabet
            for _ in range(count):
                out.append(tuple(rng.randrange(k)
                                 for _ in range(SHIFT_POINT_LENGTH)))
        return out


def toral_system(matrices, name=""):
    return SemigroupSystem(TORUS, tuple(ToralGenerator(m) for m in matrices),
                           name=name)


def diagonal_system(pairs, name=""):
    mats = [((int(a), 0), (0, int(b))) for a, b in pairs]
    return toral_system(mats, name=name)


def cantor_system(slope_lists, name=""):
    gens = tuple(IntervalGenerator.from_slopes(s) for s in slope_lists)
    return SemigroupSystem(INTERVAL, gens, name=name)


def shift_system(alphabet=2, steps=(1, 2), name=""):
    gens = tuple(ShiftGenerator(s, alphabet) for s in steps)
    return SemigroupSystem(SHIFT, gens, name=name or "shift:%d" % alphabet)


def _parse_int_list(text, line=None):
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ParseError("expected comma separated integers: %r" % text, line)


def parse_system(spec, line=None):
    """Build a system from its config-file name.

    toral:a,b,c,d;e,f,g,h   row-major matrices, ';' between generators
                            (a 2-entry token is diagonal shorthand)
    diag:a,b|c,d            diagonal matrices, '|' between generators
    cantor:s1,s2|t1,t2      branch slopes of each generator, '|' separated
    shift:k                 full shift on k symbols acted by sigma, sigma^2
    """
    if ":" not in spec:
        raise ParseError("system spec needs a family prefix: %r" % spec, line)
    family, _, body = spec.partition(":")
    family = family.strip()
    body = body.strip()
    if family == "toral":
        mats = []
        for tok in body.split(";"):
            vals = _parse_int_list(tok, line)
            if len(vals) == 4:
                mats.append(((vals[0], vals[1]), (vals[2], vals[3])))
            elif len(vals) == 2:
                mats.append(((vals[0], 0), (0, vals[1])))
            else:
                raise ParseError("toral generator needs 2 or 4 integers", line)
        try:
            return toral_system(mats, name=spec)
        except ValueError as exc:
            raise ParseError(str(exc), line)
    if family == "diag":
        pairs = []
        for tok in body.split("|"):
            vals = _parse_int_list(tok, line)
            if len(vals) != 2:
                raise ParseError("diag generator needs 2 integers", line)
            pairs.append((vals[0], vals[1]))
        try:
            return diagonal_system(pairs, name=spec)
        except ValueError as exc:
            raise ParseError(str(exc), line)
    if family == "cantor":
        lists = []
        for tok in body.split("|"):
            try:
                lists.append([float(v) for v in tok.split(",") if v != ""])
            except ValueError:
                raise ParseError("bad slope list %r" % tok, line)
        try:
            return cantor_system(lists, name=spec)
        except ValueError as exc:
            raise ParseError(str(exc), line)
    if family == "shift":
        vals = _parse_int_list(body, line)
        if len(vals) != 1:
            raise ParseError("shift spec takes one alphabet size", line)
        try:
            return shift_system(vals[0], name=spec)
        except ValueError as exc:
            raise ParseError(str(exc), line)
    raise ParseError("unknown system family %r" % family, line)


def zoo_systems():
    """Named menagerie used by the cross-system property suites."""
    shear_a = ((0, 1), (1, 2))
    shear_b = ((2, 1), (1, 0))
    fib = ((2, 1), (1, 1))
    fib_sq = ((5, 3), (3, 2))
    return [
        diagonal_system([(2, 3), (3, 2)], name="diag:2,3|3,2"),
        toral_system([shear_a, shear_b], name="toral:0,1,1,2;2,1,1,0"),
        diagonal_system([(4, 5), (2, 6)], name="diag:4,5|2,6"),
        diagonal_system([(2, 10), (3, 4)], name="diag:2,10|3,4"),
        toral_system([fib, fib_sq], name="toral:2,1,1,1;5,3,3,2"),
        cantor_system([[3.0, 3.0], [5.0, 5.0]], name="cantor:3,3|5,5"),
        cantor_system([[2.0, 2.0], [2.0, 2.0]], name="cantor:2,2|2,2"),
        shift_system(2, steps=(1, 2), name="shift:2"),
    ]


# ---------------------------------------------------------------------------
# closed forms for commuting diagonal pairs


def closed_form_entropies(alpha, beta, gamma, delta):
    """Exhaustive, amalgamated and condensed entropies of the pair
    {diag(alpha, beta), diag(gamma, delta)}, all entries integers >= 2.

    Returns (h_exhaustive, h_amalgamated, h_condensed)."""
    vals = (alpha, beta, gamma, delta)
    if not all(isinstance(v, int) and v >= 2 for v in vals):
        raise ValueError("closed forms need integer entries >= 2")
    h_plus = math.log(min(alpha, gamma)) + math.log(min(beta, delta))
    h_am = min(math.log(alpha) + math.log(beta),
               math.log(gamma) + math.log(delta))
    h_cond = math.log(max(alpha, gamma)) + math.log(max(beta, delta))
    return (h_plus, h_am, h_cond)


def conjugacy_example_report():
    """Evaluate the exhaustive-entropy closed form verbatim on the pair of
    non-conjugate systems sharing all single-map entropies.

    The two families {diag(4,5), diag(2,6)} and {diag(2,10), diag(3,4)}
    have identical generator determinant spectra, yet the formula values
    log 10 and log 8 differ, which is the separation the estimators must
    reproduce.  Some derived write-ups quote log 8 vs log 6 for this pair;
    evaluating the formula verbatim does not support that, so the report
    carries both numbers and a discrepancy flag instead of reconciling."""
    first = closed_form_entropies(4, 5, 2, 6)[0]
    second = closed_form_entropies(2, 10, 3, 4)[0]
    report = {
        "first_system": "diag:4,5|2,6",
        "second_system": "diag:2,10|3,4",
        "h_plus_first": first,
        "h_plus_second": second,
        "expected_first": math.log(10.0),
        "expected_second": math.log(8.0),
        "separation": abs(first - second),
        "formula_matches_expected": (abs(first - math.log(10.0)) < 1e-12
                                     and abs(second - math.log(8.0)) < 1e-12),
        "quoted_alternative": (math.log(8.0), math.log(6.0)),
        "alternative_consistent": (abs(first - math.log(8.0)) < 1e-12
                                   and abs(second - math.log(6.0)) < 1e-12),
    }
    return report


# ---------------------------------------------------------------------------
# simultaneous eigenstructure and the rigidity screen


def _commute(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    p1 = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    p2 = ((e * a + f * c, e * b + f * d), (g * a + h * c, g * b + h * d))
    return p1 == p2


def single_generator_entropy(gen):
    """Entropy of one toral endomorphism: sum of log|lambda| over
    eigenvalues of modulus above one."""
    return sum(math.log(abs(lam)) for lam in gen.eigenvalues()
               if abs(lam) > 1.0)


@dataclass(frozen=True)
class BerendVerdict:
    commutative: bool
    all_eigen_moduli_gt1: bool
    has_irreducible_generator_with_distinct_moduli: bool
    exhaustive_lt_every_single_entropy: bool
    conclusion: str


def berend_check(generators, h_plus_estimate, single_entropies):
    """Screen a commuting family against the hypotheses under which the
    only invariant measure with full-dimensional support behaviour is the
    uniform one on the torus.

    The caller supplies the exhaustive-entropy estimate and per-generator
    entropies (closed form or estimated); this routine only judges."""
    mats = [g.matrix for g in generators]
    commutative = all(_commute(mats[i], mats[j])
                      for i in range(len(mats))
                      for j in range(i + 1, len(mats)))
    all_gt1 = True
    for g in generators:
        for lam in g.eigenvalues():
            if abs(lam) <= 1.0 + 1e-12:
                all_gt1 = False
    has_irr = False
    for g in generators:
        lams = g.eigenvalues()
        if not g.char_poly_irreducible_over_z():
            continue
        if abs(abs(lams[0]) - abs(lams[1])) > 1e-9:
            has_irr = True
    strict = all(h_plus_estimate < h - 1e-12 for h in single_entropies)
    ok = commutative and all_gt1 and has_irr and strict
    return BerendVerdict(
        commutative=commutative,
        all_eigen_moduli_gt1=all_gt1,
        has_irreducible_generator_with_distinct_moduli=has_irr,
        exhaustive_lt_every_single_entropy=strict,
        conclusion="OnlyTorusInvariant" if ok else "Inconclusive",
    )
