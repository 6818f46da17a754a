"""Finitely generated semigroup actions on compact spaces.

Three domain families are supported: integer-matrix endomorphisms of the
2-torus, piecewise affine expanding maps of [0, 1] given by exact
rational branch slopes, and full shifts acted on by powers of the shift
map.  A system is a tuple of generator maps plus the metric of its
domain; everything else in the package (ball geometry, cover costs,
pressure estimates) is built on top of the `apply` / `distance` pair
defined here.  Points are floats, but the dynamics are exact: integer
matrices, and Fraction slopes, branch ends and gaps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import ParseError
from .records import record

TORUS = "torus-2d"
INTERVAL = "interval-union"
SHIFT = "full-shift"


def circle_dist(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@record
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


@record
class IntervalGenerator:
    """Piecewise affine expanding map given by its branch slopes, exact
    rationals above 1.  Branch i maps [left_i, left_i + 1/s_i] onto
    [0, 1] increasingly; the first branch starts at 0, the last ends at
    1 and the interior gaps are equal, so the widths 1/s_i may not sum
    past 1.  Everything else is derived from the slopes exactly, once,
    on first use; `apply` alone reads float points."""

    slopes: tuple

    def __post_init__(self):
        if len(self.slopes) < 2:
            # a single branch cannot start at 0 and end at 1 unless slope 1
            raise ValueError("need at least two branch slopes")
        if self.gap < 0:
            raise ValueError("overlapping branches rejected")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # Fraction.__hash__ is Python code, and every cache keyed on a
        # system hashes its generators
        return hash(self.slopes)

    @property
    def branch_count(self):
        return len(self.slopes)

    @cached_property
    def gap(self):
        """The distance between consecutive branch intervals: 0 on a
        circle map, negative where the widths 1/s_i sum past 1."""
        return (1 - sum(1 / s for s in self.slopes)) / (len(self.slopes) - 1)

    @cached_property
    def has_gaps(self):
        return self.gap > 0

    @cached_property
    def branches(self):
        """(left, slope) of every branch, exact."""
        branches = []
        left = Fraction(0)
        for s in self.slopes:
            branches.append((left, s))
            left += 1 / s + self.gap
        return tuple(branches)

    @cached_property
    def float_branches(self):
        """(left, right, slope) of every branch, each rounded once from
        its exact value."""
        return tuple((float(left), float(left + 1 / s), float(s))
                     for left, s in self.branches)

    @cached_property
    def lipschitz(self):
        return max(self.slopes)

    def apply(self, x):
        """The image of x, None where x lies in no branch."""
        for left, right, slope in self.float_branches:
            if left <= x <= right:
                y = slope * (x - left)
                if y >= 1.0:
                    return 1.0 if self.has_gaps else 0.0
                return y
        return None


@record
class ShiftGenerator:
    """sigma^step on the full shift over `alphabet` symbols."""

    step: int
    alphabet: int

    def __post_init__(self):
        if self.step < 1 or self.alphabet < 2:
            raise ValueError("need step >= 1 and alphabet >= 2")

    def apply(self, seq):
        return seq[self.step:] + (0,) * self.step


@record(uncompared=("name",))
class SemigroupSystem:
    """A domain and its generator maps.  The name is a label: it is
    outside equality and hashing, so every cache keyed on a system keys
    on its dynamics.  `wrap` and `L_max` are computed once, on first
    use."""

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

    @cached_property
    def wrap(self):
        """Interval systems with no gaps are circle maps; gapped Cantor
        systems live on the real interval where branch separation is a
        genuine metric gap."""
        if not self.is_interval:
            return False
        return not any(g.has_gaps for g in self.generators)

    @property
    def min_gap(self):
        gaps = [g.gap for g in self.generators if g.has_gaps]
        return min(gaps) if gaps else 0

    @cached_property
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


def shift_system(alphabet=2, name=""):
    gens = tuple(ShiftGenerator(s, alphabet) for s in (1, 2))
    return SemigroupSystem(SHIFT, gens, name=name or "shift:%d" % alphabet)


def _parse_int_list(text, line=None):
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ParseError("expected comma separated integers: %r" % text, line)


def _parse_slopes(text, line=None):
    """Branch slopes read exactly, so `2.5` is 5/2; each is refused
    unless finite and above 1 (NaN is not)."""
    tokens = [tok for tok in text.split(",") if tok != ""]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ParseError("bad slope list %r" % text, line)
    if not all(1.0 < v < math.inf for v in values):
        raise ParseError("branch slopes must be finite and exceed 1", line)
    return tuple(Fraction(tok) for tok in tokens)


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
    try:
        if family == "toral":
            mats = []
            for tok in body.split(";"):
                vals = _parse_int_list(tok, line)
                if len(vals) == 4:
                    mats.append(((vals[0], vals[1]), (vals[2], vals[3])))
                elif len(vals) == 2:
                    mats.append(((vals[0], 0), (0, vals[1])))
                else:
                    raise ParseError("toral generator needs 2 or 4 integers",
                                     line)
            gens = tuple(ToralGenerator(m) for m in mats)
            return SemigroupSystem(TORUS, gens, name=spec)
        if family == "diag":
            mats = []
            for tok in body.split("|"):
                vals = _parse_int_list(tok, line)
                if len(vals) != 2:
                    raise ParseError("diag generator needs 2 integers", line)
                mats.append(((vals[0], 0), (0, vals[1])))
            gens = tuple(ToralGenerator(m) for m in mats)
            return SemigroupSystem(TORUS, gens, name=spec)
        if family == "cantor":
            gens = tuple(IntervalGenerator(_parse_slopes(tok, line))
                         for tok in body.split("|"))
            return SemigroupSystem(INTERVAL, gens, name=spec)
        if family == "shift":
            vals = _parse_int_list(body, line)
            if len(vals) != 1:
                raise ParseError("shift spec takes one alphabet size", line)
            return shift_system(vals[0], name=spec)
    except ValueError as exc:
        raise ParseError(str(exc), line)
    raise ParseError("unknown system family %r" % family, line)


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
