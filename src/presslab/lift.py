"""Skew-product lift of a generator family over the full one-sided shift.

The lift steps (omega, x) to (shifted omega, f applied to x), where the
leading symbol of omega picks the generator f.  Its Bowen balls factor
exactly: the symbol coordinate contributes one n-cylinder per length-n
word, the base coordinate the trajectory ball along that word.  Product
cover costs are therefore sums over all length-n words of per-word base
costs, and the cylinder count enters the rate as exactly log(m).
"""

import math

from .pressure import Check, Report, estimate_pressure
from .records import replace

__all__ = ["lift_pressure_estimate", "check_lift_inequalities"]


def lift_pressure_estimate(system, phi, n, epsilon, *, seed=0):
    """Bracket the lift pressure at one depth and radius.

    Both bounds are the base free-pressure bounds shifted by log m.  The
    free kind averages over every length-n word, so past the word
    enumeration cap this raises DepthTooLarge."""
    logm = math.log(system.m)
    est = estimate_pressure(system, phi, "free", n, epsilon, seed=seed)
    return replace(est, kind="lift", lower=logm + est.lower,
                   upper=logm + est.upper)


def check_lift_inequalities(system, phi, n, epsilon, *, seed=0,
                            tolerance=1e-9):
    """Sandwich of the lift pressure between the amalgamated and upper
    condensed base pressures, each raised by the symbol term log m.

    The comparison is interval aware: the lift interval must not sit
    entirely below the shifted amalgamated interval nor entirely above
    the shifted condensed one, so estimate widths absorb finite-depth
    slack without weakening the inequality itself."""
    lift = lift_pressure_estimate(system, phi, n, epsilon, seed=seed)
    amalg = estimate_pressure(system, phi, "amalgamated", n, epsilon,
                              seed=seed)
    cond = estimate_pressure(system, phi, "condensed-upper", n, epsilon,
                             seed=seed)
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
