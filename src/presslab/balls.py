"""Dynamical balls at a fixed depth and scale.

Three families over the same (center, depth, epsilon) data:

  trajectory   one word w: every orbit point within epsilon (strict)
  condensed    the trajectory condition for every length-n word
  exhaustive   the trajectory condition for at least one length-n word

Membership is decided by direct orbit comparison with strict inequality
and no tolerance fuzz.  Word enumeration for the condensed/exhaustive
families is capped; past the cap only the closed-form paths can answer.
"""

from __future__ import annotations

import math

from .records import record
from .words import Word, all_words, dn_distance, orbit

TRAJECTORY = "trajectory"
CONDENSED = "condensed"
EXHAUSTIVE = "exhaustive"


@record
class BallSpec:
    kind: str
    center: object
    depth: int
    epsilon: float
    word: Word = None

    def __post_init__(self):
        if self.kind not in (TRAJECTORY, CONDENSED, EXHAUSTIVE):
            raise ValueError("unknown ball kind %r" % self.kind)
        if self.depth < 1:
            raise ValueError("ball depth must be at least 1")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("ball radius must be positive and finite, "
                             "got %r" % self.epsilon)
        if self.kind == TRAJECTORY:
            if self.word is None or len(self.word) != self.depth:
                raise ValueError("trajectory ball needs a word of its depth")
        elif self.word is not None:
            raise ValueError("only trajectory balls carry a word")


def ball_contains(system, spec, point):
    """Strict membership test.  Centers with undefined orbits do not
    define a ball of their kind and are rejected outright."""
    if spec.kind == TRAJECTORY:
        if orbit(system, spec.center, spec.word) is None:
            raise ValueError("center orbit undefined along the ball's word")
        return dn_distance(system, spec.center, point, spec.word) < spec.epsilon
    dists = []
    for w in all_words(system.m, spec.depth):
        if orbit(system, spec.center, w) is None:
            if spec.kind == CONDENSED:
                raise ValueError("condensed center must survive every word")
            continue
        dists.append(dn_distance(system, spec.center, point, w))
    if spec.kind == CONDENSED:
        return max(dists) < spec.epsilon
    if not dists:
        raise ValueError("exhaustive center must survive at least one word")
    return min(dists) < spec.epsilon

