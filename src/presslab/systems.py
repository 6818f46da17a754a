"""Finitely generated semigroup actions on compact spaces.

Three domain families are supported: integer-matrix endomorphisms of the
2-torus, piecewise affine expanding maps on a union of sub-intervals of
[0,1], and full shifts acted on by powers of the shift map.  A system is
a tuple of generator maps plus the metric of its domain; everything else
in the package (ball geometry, cover costs, pressure estimates) is built
on top of the `apply` / `distance` pair defined here.  The grid engine
uses that pair too: `grid_points` is its finite universe and
`grid_metrics` its word metrics.  On intervals those are distances of
orbit points.  Torus and shift generators are endomorphisms of the
grid's finite digit group (the g x g lattice, and length-L words with
zero padding), so the word distance of two grid points depends on their
difference alone, and both read one integer difference table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DepthTooLarge, ParseError
from .words import orbit

TORUS = "torus-2d"
INTERVAL = "interval-union"
SHIFT = "full-shift"

# caps of grid_points: torus lattice side and interval cells, to which a
# finer radius is rounded up, and shift length, past which a word is refused
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

    def grid_shape(self, epsilon, n):
        """(base, rank) of the depth-n grid at radius epsilon: its points
        are the base**rank digit tuples, in `itertools.product` order.

        A shift ball of radius epsilon along a word of total step S is
        the cylinder of its first k + S symbols, with k the least integer
        such that 2**-k < epsilon.  The shift rank n*max(step) + k holds
        every such cylinder of a depth-n word, with 2**-rank <= epsilon/2
        for n >= 1; a rank past GRID_MAX_SHIFT_LENGTH is refused."""
        if self.is_toral:
            return max(8, min(GRID_MAX_TORUS, math.ceil(4.0 / epsilon))), 2
        if self.is_interval:
            return max(32, min(GRID_MAX_LINE, math.ceil(8.0 / epsilon))) + 1, 1
        step = max(gen.step for gen in self.generators)
        # the least k with 2**k > 1/epsilon, exact on the float's rational
        rank = n * step + math.floor(1 / Fraction(epsilon)).bit_length()
        if rank > GRID_MAX_SHIFT_LENGTH:
            raise DepthTooLarge(
                "a shift grid at depth %d and radius %r needs %d symbols, "
                "past the %d-symbol cap" % (n, epsilon, rank,
                                            GRID_MAX_SHIFT_LENGTH))
        return self.generators[0].alphabet, rank

    def grid_points(self, base, rank):
        """Digit i is i/base on the torus, i/(base - 1) on intervals and
        symbol i on the shift."""
        if self.is_interval:
            return [i / (base - 1) for i in range(base)]
        digits = [i / base for i in range(base)] if self.is_toral \
            else range(base)
        return list(itertools.product(digits, repeat=rank))

    def grid_metrics(self, points, words, base, rank):
        """The region of a grid (its points whose orbit is defined along
        every word) and one float32 region x region word metric per word:
        the largest step distance along the two orbits.  Torus and shift
        maps are endomorphisms of the digit group, so d_w(p, q) =
        D_w(p - q): each word runs the base**rank differences through its
        steps in integers, and D_w is the running max of their norm."""
        if self.is_interval:
            orbits = [[orbit(self, x, word) for x in points] for word in words]
            alive = [i for i in range(len(points))
                     if all(o[i] is not None for o in orbits)]
            dist = []
            for paths in orbits:
                d = np.zeros((len(alive), len(alive)))
                for step in zip(*(paths[i] for i in alive)):
                    gap = np.abs(np.subtract.outer(step, step))
                    if self.wrap:
                        gap = np.minimum(gap, 1.0 - gap)
                    np.maximum(d, gap, out=d)
                dist.append(d.astype(np.float32))
            return [points[i] for i in alive], dist
        # a difference's norm: the max of sizes[c, digit c] over digits c
        v = np.arange(base)
        if self.is_toral:
            # entries reduced mod base first: exact, and no int64 overflow
            mats = [np.array(gen.matrix) % base for gen in self.generators]
            sizes = np.tile(np.minimum(v, base - v) / base, (rank, 1))
        else:
            # sigma^s moves digit i + s to i, padding zeros; 2**-j at the
            # first nonzero digit j, 0 at none
            mats = [np.eye(rank, k=gen.step, dtype=int)
                    for gen in self.generators]
            sizes = np.outer(np.ldexp(1.0, -np.arange(rank)), v > 0)
        # idx[p, q]: the index of the digit-wise difference p - q, built
        # one digit at a time, as point p*base + a is p with a appended
        step = np.subtract.outer(v, v) % base
        idx = np.zeros((1, 1), dtype=np.intp)
        for _ in range(rank):
            idx = (idx[:, None, :, None] * base + step[:, None]).reshape(
                len(idx) * base, -1)
        rows = np.arange(rank)[:, None]
        diffs = np.indices((base,) * rank).reshape(rank, -1)
        dist = []
        for word in words:
            diff = diffs
            d_w = sizes[rows, diff].max(axis=0)
            for j in word:
                diff = mats[j - 1] @ diff % base
                np.maximum(d_w, sizes[rows, diff].max(axis=0), out=d_w)
            dist.append(d_w.astype(np.float32)[idx])
        return points, dist


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
