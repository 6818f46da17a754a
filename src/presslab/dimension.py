"""Bowen-equation dimension estimates for conformal expanding families.

The unstable multi-potential collects per-generator log expansion rates
with a minus sign; scaling it by t and driving the amalgamated pressure
to zero gives the dimension-style root for the family, and the same
root per single generator recovers the classical repeller dimension.
Pressure in t is strictly decreasing because every component stays
below a negative constant, so the roots bisect estimate midpoints.
The result's `bracket` is the last interval of that bisection on
finite-depth midpoints, not a certificate on the dimension: on
`cantor:3,3` at n = 48, eps = 1/8 it is [0.65625, 0.65723], and
log 2/log 3 = 0.63093 lies outside it.  Midpoints that do not fall
strictly, refused at the first such pair evaluated, and a family root
above a single-map root raise ValueError.
"""

import math

from .errors import AnalyticUnavailable
from .potentials import MultiPotential
from .pressure import estimate_pressure
from .records import record
from .systems import SemigroupSystem
from .words import constant_rule

__all__ = ["unstable_multipotential", "DimensionResult", "bowen_root"]

BRACKET_STOP = 1e-3


def _expansion_rates(system, gen):
    """The branch slopes of an interval map, or the one entry of a
    conformal diagonal torus map; other generators decline."""
    if system.is_interval:
        return gen.slopes
    if not system.is_toral:
        raise AnalyticUnavailable("missing derivative data for this domain")
    if not gen.is_diagonal:
        raise AnalyticUnavailable(
            "missing derivative data: non-diagonal toral generator")
    a, b = gen.diagonal_entries
    if a != b:
        raise AnalyticUnavailable(
            "conformality fails: diagonal entries %d != %d" % (a, b))
    return (a,)


def unstable_multipotential(system):
    """Multi-potential whose component j is minus the log expansion of
    generator j: a constant for single-rate generators, and an
    expansion component over the exact branch slopes for mixed-slope
    interval maps."""
    rates = [_expansion_rates(system, gen) for gen in system.generators]
    if any(s <= 1 for slopes in rates for s in slopes):
        raise ValueError("expansion rates must exceed 1")
    comps = []
    for slopes in rates:
        if len(set(slopes)) == 1:
            comps.append(("zero", (), 0.0, -math.log(slopes[0])))
        else:
            comps.append(("expansion", slopes, 1.0, 0.0))
    return MultiPotential(tuple(comps))


@record
class DimensionResult:
    t_uA: float
    per_map_roots: tuple
    bracket: tuple
    iterations: int


def _bisect_root(pressure_at, bracket):
    """Bisection on a decreasing function of t, returning the midpoint
    of the final bracket.  Widens a sign-less bracket once.  Then every
    new point must fall strictly from its t-neighbours, or the first
    pair that does not is refused."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if lo >= hi:
        raise ValueError("empty bracket")
    evals = {}

    def value(t):
        if t not in evals:
            evals[t] = pressure_at(t)
        return evals[t]

    def check_falls():
        pairs = sorted(evals.items())
        for (t0, p0), (t1, p1) in zip(pairs, pairs[1:]):
            if not p0 > p1:
                raise ValueError("pressure midpoints not strictly "
                                 "decreasing: %r" % ([(t0, p0), (t1, p1)],))

    if not (value(lo) > 0.0 > value(hi)):
        span = hi - lo
        lo = max(0.0, lo - span)
        hi = hi + span
        if not (value(lo) > 0.0 > value(hi)):
            raise ValueError("pressure does not change sign across the "
                             "bracket, even widened once")
    check_falls()
    iterations = 0
    while hi - lo > BRACKET_STOP:
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        check_falls()
        iterations += 1
    return 0.5 * (lo + hi), (lo, hi), iterations


def bowen_root(system, n, epsilon, t_bracket=(0.0, 1.0), *, seed=0):
    """Dimension-style root of the family plus per-generator roots.

    The family root drives the amalgamated pressure of t times the
    unstable multi-potential to zero; each per-generator root repeats
    the bisection for the one-generator subfamily.  Every pressure is a
    closed form; where one declines this raises AnalyticUnavailable.
    The returned bracket is the family bisection's last interval, not a
    certificate."""
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
    if not t_ua <= min(per_map) + slack:
        raise ValueError("family root %.6f above a single-map root" % t_ua)
    return DimensionResult(t_ua, tuple(per_map), final_bracket, iterations)
