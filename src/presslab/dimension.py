"""Bowen-equation dimension estimates for conformal expanding families.

The unstable multi-potential collects per-generator log expansion rates
with a minus sign; scaling it by t and driving the amalgamated pressure
to zero gives the dimension-style root for the family, and the same
root per single generator recovers the classical repeller dimension.
Pressure in t is strictly decreasing because every component stays
below a negative constant, so bisection on estimate midpoints is
enough; the stopping width leaves root noise well under the bracket
tolerance of the quoted oracles.
"""

import math
from dataclasses import dataclass

from .errors import AnalyticUnavailable
from .potentials import MultiPotential
from .pressure import estimate_pressure
from .systems import SemigroupSystem
from .words import constant_rule

__all__ = [
    "ExpansionField", "expansion_field", "unstable_multipotential",
    "DimensionResult", "bowen_root",
]

BRACKET_STOP = 1e-3


@dataclass(frozen=True)
class ExpansionField:
    """Per-generator expansion data: a branch table (left, slope) per
    generator, a single full branch standing in for toral maps."""

    per_generator: tuple

    def __post_init__(self):
        for branches in self.per_generator:
            for _, slope in branches:
                if slope <= 1.0:
                    raise ValueError("expansion rates must exceed 1")


def expansion_field(system):
    """Extract the scalar expansion rates, rejecting generators whose
    derivative stretches directions unequally."""
    rates = []
    for gen in system.generators:
        if system.is_interval:
            rates.append(tuple(gen.branches))
        elif system.is_toral:
            if not gen.is_diagonal:
                raise AnalyticUnavailable(
                    "missing derivative data: non-diagonal toral generator")
            a, b = gen.diagonal_entries
            if a != b:
                raise AnalyticUnavailable(
                    "conformality fails: diagonal entries %d != %d" % (a, b))
            rates.append(((0.0, float(a)),))
        else:
            raise AnalyticUnavailable(
                "missing derivative data for this domain")
    return ExpansionField(tuple(rates))


def unstable_multipotential(system):
    """Multi-potential whose component j is minus the log expansion of
    generator j; constant for single-rate generators, branchwise for
    mixed-slope interval maps."""
    field = expansion_field(system)
    comps = []
    for branches in field.per_generator:
        slopes = set(s for _, s in branches)
        if len(slopes) == 1:
            comps.append(("zero", (), 0.0, -math.log(slopes.pop())))
        else:
            comps.append(("expansion", tuple(branches), 1.0, 0.0))
    return MultiPotential(tuple(comps))


@dataclass(frozen=True)
class DimensionResult:
    t_uA: float
    per_map_roots: tuple
    bracket: tuple
    iterations: int


def _bisect_root(pressure_at, bracket):
    """Bisection on a decreasing function of t, returning the midpoint
    of the final bracket.  Widens a sign-less bracket once."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if lo >= hi:
        raise ValueError("empty bracket")
    evals = {}

    def value(t):
        if t not in evals:
            evals[t] = pressure_at(t)
        return evals[t]

    if not (value(lo) > 0.0 > value(hi)):
        span = hi - lo
        lo = max(0.0, lo - span)
        hi = hi + span
        if not (value(lo) > 0.0 > value(hi)):
            raise ValueError("pressure does not change sign across the "
                             "bracket, even widened once")
    iterations = 0
    while hi - lo > BRACKET_STOP:
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    ts = sorted(evals)
    pairs = [(t, evals[t]) for t in ts]
    for (t0, p0), (t1, p1) in zip(pairs, pairs[1:]):
        assert p0 > p1, ("pressure midpoints not strictly decreasing: "
                         "%r" % (pairs,))
    return 0.5 * (lo + hi), (lo, hi), iterations


def bowen_root(system, n, epsilon, t_bracket=(0.0, 1.0), *, seed=0):
    """Dimension-style root of the family plus per-generator roots.

    The family root drives the amalgamated pressure of t times the
    unstable multi-potential to zero; each per-generator root repeats
    the bisection for the one-generator subfamily.  Every pressure is a
    closed form; where one declines this raises AnalyticUnavailable."""
    phi_u = unstable_multipotential(system)

    def family_pressure(t):
        est = estimate_pressure(system, phi_u.scale(t), "amalgamated", n,
                                epsilon, seed=seed, engine="analytic")
        return est.midpoint

    t_ua, final_bracket, iterations = _bisect_root(family_pressure,
                                                   t_bracket)
    per_map = []
    for gen in system.generators:
        sub = SemigroupSystem(system.domain, (gen,),
                              name="%s-single" % system.name)
        phi_j = unstable_multipotential(sub)
        rule = constant_rule(1)

        def single_pressure(t):
            est = estimate_pressure(sub, phi_j.scale(t), "trajectory", n,
                                    epsilon, rule=rule, seed=seed,
                                    engine="analytic")
            return est.midpoint

        root, _, _ = _bisect_root(single_pressure, t_bracket)
        per_map.append(root)
    slack = 2.0 * BRACKET_STOP + 1e-9
    assert t_ua <= min(per_map) + slack, (
        "family root %.6f above a single-map root" % t_ua)
    return DimensionResult(t_ua, tuple(per_map), final_bracket, iterations)
