"""Skew-product lift of a generator family over the full one-sided shift.

The lift steps (omega, x) to (shifted omega, f applied to x), where the
leading symbol of omega picks the generator f.  Its Bowen balls factor
exactly: the symbol coordinate contributes one n-cylinder per length-n
word, the base coordinate the trajectory ball along that word.  Product
cover costs are therefore sums over all length-n words of per-word base
costs, and the cylinder count enters the rate as exactly log(m).
"""

import math
from dataclasses import dataclass

from .pressure import Check, Report, estimate_pressure

__all__ = [
    "LiftPoint", "skew_apply", "lifted_potential", "lift_birkhoff_sum",
    "lift_pressure_estimate", "check_lift_inequalities",
]


@dataclass(frozen=True)
class LiftPoint:
    """Point of the skew product: a finite symbol prefix standing in for
    an infinite sequence, plus a base point.

    The prefix must be at least as long as the number of steps taken."""

    word_prefix: tuple
    base: object

    def __post_init__(self):
        for s in self.word_prefix:
            if not isinstance(s, int) or s < 1:
                raise ValueError("symbols are 1-based positive integers")

    @property
    def steps_left(self):
        return len(self.word_prefix)


def skew_apply(system, point):
    """One step of the skew product: shift the symbols and move the base
    point by the generator the leading symbol selects."""
    if not point.word_prefix:
        raise ValueError("symbol prefix exhausted")
    j = point.word_prefix[0]
    if j > system.m:
        raise ValueError("symbol %d outside 1..%d" % (j, system.m))
    image = system.apply(j, point.base)
    if image is None:
        raise ValueError("base point leaves the domain")
    return LiftPoint(point.word_prefix[1:], image)


def lifted_potential(phi, point):
    """The observable a multi-potential induces on the lift: evaluate
    the component the leading symbol selects at the base point."""
    if not point.word_prefix:
        raise ValueError("symbol prefix exhausted")
    return phi.eval(point.word_prefix[0], point.base)


def lift_birkhoff_sum(system, phi, point, n):
    """n-step sum of the lifted observable along the skew orbit.

    Agrees with the path-dependent sum of phi along the prefix word."""
    if point.steps_left < n:
        raise ValueError("prefix shorter than the requested depth")
    total = 0.0
    cur = point
    for _ in range(n):
        total += lifted_potential(phi, cur)
        cur = skew_apply(system, cur)
    return total


def lift_pressure_estimate(system, phi, n, epsilon, *, pool=None, seed=0):
    """Bracket the lift pressure at one depth and radius.

    Both bounds are the base free-pressure bounds shifted by log m.  The
    free kind averages over every length-n word, so past the word
    enumeration cap this raises DepthTooLarge."""
    logm = math.log(system.m)
    est = estimate_pressure(system, phi, "free", n, epsilon, pool=pool,
                            seed=seed)
    return est.replaced(kind="lift", lower=logm + est.lower,
                        upper=logm + est.upper)


def check_lift_inequalities(system, phi, n, epsilon, *, pool=None, seed=0,
                            tolerance=1e-9):
    """Sandwich of the lift pressure between the amalgamated and upper
    condensed base pressures, each raised by the symbol term log m.

    The comparison is interval aware: the lift interval must not sit
    entirely below the shifted amalgamated interval nor entirely above
    the shifted condensed one, so estimate widths absorb finite-depth
    slack without weakening the inequality itself."""
    lift = lift_pressure_estimate(system, phi, n, epsilon, pool=pool,
                                  seed=seed)
    amalg = estimate_pressure(system, phi, "amalgamated", n, epsilon,
                              pool=pool, seed=seed)
    cond = estimate_pressure(system, phi, "condensed-upper", n, epsilon,
                             pool=pool, seed=seed)
    logm = math.log(system.m)
    checks = (
        Check("amalgamated lower + log m <= lift upper",
              amalg.lower + logm, lift.upper,
              amalg.lower + logm <= lift.upper + tolerance),
        Check("lift lower <= condensed upper + log m",
              lift.lower, cond.upper + logm,
              lift.lower <= cond.upper + logm + tolerance),
    )
    return Report({"lift": lift, "amalgamated": amalg,
                   "condensed-upper": cond}, checks)
