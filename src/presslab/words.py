"""Words over the generator alphabet and orbit bookkeeping.

A word (i_1, ..., i_n) acts by applying generator i_1 first.  The orbit
of x is the list [x, f_{i_1} x, f_{i_2} f_{i_1} x, ...] with n+1 entries.
Interval systems have partial generators, so an orbit can be undefined;
those cases surface as None rather than an exception because callers
usually just skip such centers.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .errors import DepthTooLarge
from .records import record

ENUM_CAP = 4096
# seeded random words the pool adds at each depth
POOL_RANDOM_WORDS = 32


@record
class Word:
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("empty word is not a word; identity orbits "
                             "are depth-0 estimates, not words")
        if not all(isinstance(s, int) and s >= 1 for s in self.symbols):
            raise ValueError("word symbols are 1-based generator indices")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def validate(self, m):
        if any(s > m for s in self.symbols):
            raise ValueError("word symbol exceeds generator count")


def orbit(system, point, word):
    """Forward orbit of `point` along `word`; None when a step lands
    outside the branch domain of the next generator."""
    out = [point]
    cur = point
    for j in word:
        cur = system.apply(j, cur)
        if cur is None:
            return None
        out.append(cur)
    return out


def consecutive_sum(system, phi, point, word):
    """S_n Phi(x, w) = phi_{i_1}(x) + phi_{i_2}(f_{i_1} x) + ...

    Uses the first n orbit points.  None when the orbit breaks early.
    A symbol past the generator count raises the ValueError of the
    potential or the map."""
    total = 0.0
    for j in word:
        total += phi.eval(j, point)
        point = system.apply(j, point)
        if point is None:
            return None
    return total


def add_floats(values, start=0.0):
    """start plus the floats of `values`, added left to right, as
    `consecutive_sum` adds: the builtin `sum` compensates floats from
    Python 3.12 on, and `functools.reduce` adds at twice the cost."""
    total = start
    for value in values:
        total += value
    return total


def dn_distance(system, x, y, word):
    """max over the n+1 orbit points of the step distance; +inf when one
    of the two orbits is undefined somewhere along the word."""
    ox = orbit(system, x, word)
    oy = orbit(system, y, word)
    if ox is None or oy is None:
        return math.inf
    return max(system.distance(a, b) for a, b in zip(ox, oy))


def all_words(m, n):
    """Iterate every length-n word; raises once m**n exceeds the cap."""
    if m ** n > ENUM_CAP:
        raise DepthTooLarge("m**n = %d exceeds enumeration cap %d"
                            % (m ** n, ENUM_CAP))
    for tup in itertools.product(range(1, m + 1), repeat=n):
        yield Word(tup)


# ---------------------------------------------------------------------------
# word selection rules for trajectory pressure


@record
class WordRule:
    """How the trajectory kind picks its length-n word.

    mode 'periodic': the pattern cycled; a constant rule is the periodic
    rule of one symbol.
    mode 'explicit': a fixed word, truncated or rejected by length.
    """

    mode: str
    data: tuple

    def word_at(self, n):
        if n < 1:
            raise ValueError("word length must be at least 1")
        if self.mode == "periodic":
            reps = (n + len(self.data) - 1) // len(self.data)
            return Word((self.data * reps)[:n])
        if self.mode == "explicit":
            if len(self.data) < n:
                raise ValueError("explicit rule shorter than requested depth")
            return Word(self.data[:n])
        raise ValueError("unknown word rule mode %r" % self.mode)

    def shifted(self):
        """Rule for the shifted trajectory (drop the first symbol)."""
        if self.mode == "periodic":
            rotated = self.data[1:] + self.data[:1]
            return WordRule("periodic", rotated)
        return WordRule("explicit", self.data[1:])


def constant_rule(j):
    return WordRule("periodic", (j,))

def periodic_rule(pattern):
    return WordRule("periodic", tuple(pattern))

def explicit_rule(symbols):
    return WordRule("explicit", tuple(symbols))


@functools.lru_cache(maxsize=None)
def pool_words(m, seed, n):
    """The deterministic candidate words of length n over m symbols: all
    constants, all ordered period-2 patterns, plus POOL_RANDOM_WORDS
    seeded random words, each at its first occurrence in that order.  A
    pure function of (m, seed, n), so each pool is drawn once."""
    rng = random.Random("pool:%d:%d:%d" % (seed, n, m))
    words = [constant_rule(j).word_at(n) for j in range(1, m + 1)]
    words += [periodic_rule((i, j)).word_at(n)
              for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    words += [Word(tuple(rng.randrange(1, m + 1) for _ in range(n)))
              for _ in range(POOL_RANDOM_WORDS)]
    return tuple(dict.fromkeys(words))
