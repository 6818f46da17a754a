"""Pressure estimation for finitely generated semigroup actions.

Seven estimate kinds share one shape: an upper value from a weighted
ball cover and a lower value from a weighted separated set, both at the
same depth and radius, reported per unit depth.

kinds
  amalgamated        best word per cover atom, min-metric separation
  condensed-lower    every-word balls, infimum consecutive sums
  condensed-upper    every-word balls, supremum consecutive sums
  exhaustive-lower   some-word balls, infimum consecutive sums
  exhaustive-upper   some-word balls, supremum consecutive sums
  free               per-word estimates averaged over all words
  trajectory         one word sequence fixed by a rule

Closed-form counts from the analytic module are used whenever the
system and potential admit them (method "AnalyticBox"); otherwise the
quantities are certified on an explicit finite grid ("GenericGrid") by
the `grid` module, which is imported only then.
Grid estimates bound grid-restricted quantities only; their value is
that every comparison theorem is enforced structurally, by reusing and
re-weighting the competitor's cover, so inequality reports hold at any
resolution.
"""

from __future__ import annotations

import math

from . import analytic
from .errors import AnalyticUnavailable, DepthTooLarge
from .records import record, replace
from .words import add_floats, pool_words

KINDS = ("amalgamated", "condensed-lower", "condensed-upper",
         "exhaustive-lower", "exhaustive-upper", "free", "trajectory")

METHOD_ANALYTIC = "AnalyticBox"
METHOD_GRID = "GenericGrid"


def __getattr__(name):
    # perfbench/traced.py wraps `pressure._GridEngine` methods by that
    # name; this alias lives only until ROADMAP item 2 retires its LAYERS
    if name == "_GridEngine":
        from .grid import _GridEngine
        return _GridEngine
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


@record(uncompared=("reweigh",))
class CoverSolution:
    """One side of an estimate: a weighted cover cost or packing sum.
    A grid cover carries reweigh, phi -> the log cost of the same balls
    under phi (so reweigh(its own phi) is log_cost); a closed form or a
    packing carries None.  A function has no value, so == and hash
    leave reweigh out."""
    log_cost: float
    size: int
    method: str
    note: str = ""
    reweigh: object = None


@record
class PressureEstimate:
    kind: str
    n: int
    epsilon: float
    lower: float
    upper: float
    cover_size: int
    method: str
    seed: int
    note: str = ""

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self):
        return self.upper - self.lower

    def as_row(self):
        return {"kind": self.kind, "n": self.n, "epsilon": self.epsilon,
                "lower": self.lower, "upper": self.upper,
                "cover_size": self.cover_size, "method": self.method,
                "seed": self.seed}


def _require_kind(kind):
    if kind not in KINDS:
        raise ValueError("unknown pressure kind %r (expected one of %s)"
                         % (kind, ", ".join(KINDS)))


def _require_depth(n):
    if not isinstance(n, int) or n < 1:
        raise ValueError("depth must be a positive integer, got %r" % (n,))


def _require_radius(epsilon):
    """The radius as `analytic.exact_radius` reads it, once valid."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("radius must be positive and finite, got %r"
                         % (epsilon,))
    return analytic.exact_radius(epsilon)


# ---------------------------------------------------------------------------
# routing


def _closed_form(system, side):
    """The closed-form engine for this system's family, side "cover" or
    "packing"."""
    if system.is_toral and system.all_diagonal:
        engines = (analytic.diag_cover, analytic.diag_packing)
    elif system.is_toral:
        engines = (analytic.toral_cover, analytic.toral_packing)
    elif system.is_interval:
        engines = (analytic.interval_cover, analytic.interval_packing)
    else:
        raise AnalyticUnavailable("no closed form for this domain")
    return engines[0] if side == "cover" else engines[1]


def _solve(side, system, phi, kind, n, epsilon, rule, seed, engine):
    """One side ("cover" or "packing") of one kind: the closed form when
    engine allows and one exists, otherwise the grid engine.  Pool kinds
    take their words from pool_words(m, seed, n)."""
    _require_kind(kind)
    _require_depth(n)
    epsilon = _require_radius(epsilon)
    if kind == "trajectory" and rule is None:
        raise ValueError("trajectory estimates need a word rule")
    pool = pool_words(system.m, seed, n)
    if engine != "grid":
        try:
            log_value, count, note = _closed_form(system, side)(
                system, phi, kind, n, epsilon, pool, rule)
            return CoverSolution(log_value, count if count else 0,
                                 METHOD_ANALYTIC, note)
        except AnalyticUnavailable:
            if engine == "analytic":
                raise
    from . import grid
    eng = grid._grid_engine_for(system, kind, n, epsilon, rule)
    if side == "cover":
        return eng.cover(phi, kind, rule, pool)
    return eng.packing(phi, kind, rule)


def min_cover_cost(system, phi, kind, n, epsilon, *, rule=None, seed=0,
                   engine="auto"):
    """Cheapest certified weighted ball cover for one kind.

    engine: "auto" prefers closed forms, "analytic" requires them,
    "grid" forces the finite-universe path."""
    return _solve("cover", system, phi, kind, n, epsilon, rule, seed, engine)


def packing_bound(system, phi, kind, n, epsilon, *, rule=None, seed=0,
                  engine="auto"):
    """Weighted packing sum certified at separation 2 eps, the lower
    counterpart of min_cover_cost."""
    return _solve("packing", system, phi, kind, n, epsilon, rule, seed,
                  engine)


def _one_engine(compute):
    """compute(engine) with closed forms for every estimate it makes, or
    else with the grid for every one of them."""
    try:
        return compute("analytic")
    except (AnalyticUnavailable, DepthTooLarge):
        return compute("grid")


def estimate_pressure(system, phi, kind, n, epsilon, *, rule=None, seed=0,
                      engine="auto"):
    """Bracket one pressure kind at fixed depth and radius.

    upper = (1/n) log min cover cost, lower = (1/n) log packing sum.
    The lower value is clamped to the upper when grid artifacts would
    cross them (noted on the estimate)."""
    cover = min_cover_cost(system, phi, kind, n, epsilon, rule=rule,
                           seed=seed, engine=engine)
    pack = packing_bound(system, phi, kind, n, epsilon, rule=rule,
                         seed=seed, engine=engine)
    upper = cover.log_cost / n
    lower = pack.log_cost / n
    note = cover.note
    if lower > upper:
        lower = upper
        note = (note + "; lower clamped to upper").strip("; ")
    return PressureEstimate(kind, n, float(epsilon), lower, upper,
                            cover.size, cover.method, seed, note)


def sweep_estimates(system, phi, kind, depths, epsilons, *, rule=None,
                    seed=0):
    """Estimates over a (depth, radius) grid, radius-monotone by
    construction: a cover certified at a smaller radius stays valid at a
    larger one, and a separated set at a larger radius stays separated
    at a smaller one, so brackets are carried across the radius axis."""
    eps_sorted = sorted(set(map(_require_radius, epsilons)))
    depth_sorted = sorted(set(depths))
    fixed = {}
    # deepest first: a depth past the grid budget fails before any work
    for eps in eps_sorted:
        for n in reversed(depth_sorted):
            fixed[(n, eps)] = estimate_pressure(
                system, phi, kind, n, eps, rule=rule, seed=seed)
    # ascending pass: a cover of eps-balls sits inside the same centers'
    # larger balls, so its cost stays an upper bound as the radius grows
    best_upper = {}
    for eps in eps_sorted:
        for n in depth_sorted:
            est = fixed[(n, eps)]
            up = best_upper.get(n)
            if up is not None and up < est.upper:
                est = replace(est, upper=up, note=(
                    est.note + "; carried cover").strip("; "))
            best_upper[n] = est.upper
            fixed[(n, eps)] = est
    # descending pass: a 2E-separated packing is still 2 eps separated
    # for eps <= E, so its sum persists toward smaller radii
    best_lower = {}
    for eps in reversed(eps_sorted):
        for n in depth_sorted:
            est = fixed[(n, eps)]
            lo = best_lower.get(n)
            if lo is not None and lo > est.lower:
                est = replace(est, lower=min(lo, est.upper), note=(
                    est.note + "; carried packing").strip("; "))
            best_lower[n] = est.lower
            fixed[(n, eps)] = est
    out = []
    for eps in reversed(eps_sorted):
        for n in depth_sorted:
            out.append(fixed[(n, eps)])
    return out


# ---------------------------------------------------------------------------
# inequality chain


@record
class Check:
    """One inequality lhs <= rhs (up to a tolerance) and its verdict."""
    name: str
    lhs: float
    rhs: float
    ok: bool


@record
class Report:
    estimates: dict
    checks: tuple

    @property
    def all_ok(self):
        return all(c.ok for c in self.checks)


def verify_inequality_chain(system, phi, n, epsilon, *, rule=None, seed=0,
                            tolerance=1e-9):
    """Estimate every kind at one (n, epsilon) and check the comparison
    chain on the cover side, where it holds by construction:

        exhaustive-lower <= amalgamated <= condensed-lower
                         <= condensed-upper
        amalgamated <= free <= condensed-upper
        amalgamated <= trajectory (when a rule is given)

    plus lower <= upper inside every estimate.  All kinds are computed
    with one engine (closed forms only when every kind has one), and
    each estimate is clamped against its structural competitor exactly
    as the induced-cover argument allows, so a failure indicates a
    genuine defect rather than greedy noise."""
    kinds = [k for k in KINDS if k != "trajectory" or rule is not None]

    ests = _one_engine(lambda engine: {
        kind: estimate_pressure(system, phi, kind, n, epsilon, rule=rule,
                                seed=seed, engine=engine)
        for kind in kinds})

    def clamp_upper(kind, bound, source):
        est = ests[kind]
        if est.upper > bound:
            ests[kind] = replace(
                est, upper=bound, lower=min(est.lower, bound),
                note=(est.note + "; upper via " + source).strip("; "))

    # structural dominations mirror the induced-cover constructions
    clamp_upper("amalgamated", ests["condensed-lower"].upper,
                "every-word cover")
    if rule is not None:
        clamp_upper("amalgamated", ests["trajectory"].upper, "rule cover")
    clamp_upper("amalgamated", ests["free"].upper, "word-mean cover")
    clamp_upper("exhaustive-lower", ests["amalgamated"].upper,
                "amalgamated cover")
    clamp_upper("exhaustive-upper", ests["condensed-upper"].upper,
                "every-word cover")
    clamp_upper("free", ests["condensed-upper"].upper, "every-word cover")

    checks = []

    def check(name, lhs, rhs):
        checks.append(Check(name, lhs, rhs, lhs <= rhs + tolerance))

    for kind in kinds:
        check("lower<=upper:" + kind, ests[kind].lower, ests[kind].upper)
    check("exhaustive-lower<=amalgamated",
          ests["exhaustive-lower"].upper, ests["amalgamated"].upper)
    check("amalgamated<=condensed-lower",
          ests["amalgamated"].upper, ests["condensed-lower"].upper)
    check("condensed-lower<=condensed-upper",
          ests["condensed-lower"].upper, ests["condensed-upper"].upper)
    check("amalgamated<=free", ests["amalgamated"].upper, ests["free"].upper)
    check("free<=condensed-upper",
          ests["free"].upper, ests["condensed-upper"].upper)
    check("exhaustive-lower<=exhaustive-upper",
          ests["exhaustive-lower"].upper, ests["exhaustive-upper"].upper)
    if rule is not None:
        check("amalgamated<=trajectory",
              ests["amalgamated"].upper, ests["trajectory"].upper)
    return Report(ests, tuple(checks))


# ---------------------------------------------------------------------------
# refinement over depth


@record
class Extrapolation:
    value: float
    error_bar: float
    converged: bool


def _line_fit(xs, ys):
    k = len(xs)
    mx = add_floats(xs) / k
    my = add_floats(ys) / k
    sxx = add_floats((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return my, 0.0
    b = add_floats((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - b * mx, b


def extrapolate(estimates):
    """Depth-limit read-off from a sequence of estimates.

    Fits midpoints of the final-radius group to value + slope / n (the
    leading finite-depth correction of every closed form here), and
    reports a conservative error bar: the largest of half the final
    bracket width, twice the worst fit residual, and the intercept
    drift under leave-one-out refits."""
    if not estimates:
        raise ValueError("extrapolate needs at least one estimate")
    last_eps = estimates[-1].epsilon
    group = sorted((e for e in estimates if e.epsilon == last_eps),
                   key=lambda e: e.n)
    widths = [e.width for e in group]
    converged = all(widths[i + 1] <= widths[i] + 1e-12
                    for i in range(len(widths) - 1))
    if len(group) < 3:
        last = group[-1]
        drift = abs(group[-1].midpoint - group[-2].midpoint) \
            if len(group) > 1 else 0.0
        return Extrapolation(last.midpoint, max(last.width, drift), converged)
    xs = [1.0 / e.n for e in group]
    ys = [e.midpoint for e in group]
    value, slope = _line_fit(xs, ys)
    resid = max(abs(y - (value + slope * x)) for x, y in zip(xs, ys))
    drift = 0.0
    for skip in range(len(xs)):
        v, _ = _line_fit([x for i, x in enumerate(xs) if i != skip],
                         [y for i, y in enumerate(ys) if i != skip])
        drift = max(drift, abs(v - value))
    error_bar = max(0.5 * group[-1].width, 2.0 * resid, drift)
    return Extrapolation(value, error_bar, converged)


# ---------------------------------------------------------------------------
# robustness checks


def trajectory_shift_check(system, phi, rule, n, epsilon, *, seed=0):
    """Dropping the first word letter moves the trajectory estimate by at
    most (sup |Phi| + log(m * M)) / n plus both bracket widths, where M
    is the largest one-step preimage count and sup |Phi| comes from the
    potential's component data."""
    est = estimate_pressure(system, phi, "trajectory", n, epsilon,
                            rule=rule, seed=seed)
    shifted = estimate_pressure(system, phi, "trajectory", n, epsilon,
                                rule=rule.shifted(), seed=seed)
    m_pre = max(system.max_preimage_count, 1)
    bound = (phi.sup_bound() + math.log(system.m * m_pre)) / n \
        + est.width + shifted.width
    diff = abs(est.midpoint - shifted.midpoint)
    return Check("trajectory shift stability", diff, bound,
                 diff <= bound + 1e-9)


def lipschitz_check(system, phi, psi, kind, n, epsilon, *, rule=None,
                    seed=0):
    """|estimate(phi) - estimate(psi)| <= sup_j sup |phi_j - psi_j| on
    the cover side.  Grid covers are cross-costed (each potential may
    reuse the other's cover, re-weighed from the grid engine's own
    weights, on its lattice or held orbits) so the bound is structural
    on every kind; closed forms
    satisfy it identically.  Both estimates use one engine."""
    a, b = _one_engine(lambda engine: [
        min_cover_cost(system, f, kind, n, epsilon, rule=rule, seed=seed,
                       engine=engine) for f in (phi, psi)])
    cost_a = a.log_cost
    cost_b = b.log_cost
    if a.reweigh is not None:
        cost_b = min(cost_b, a.reweigh(psi))
    if b.reweigh is not None:
        cost_a = min(cost_a, b.reweigh(phi))
    sup_diff = phi.sup_distance(psi)
    diff = abs(cost_a - cost_b) / n
    return Check("potential perturbation stability", diff, sup_diff + 1e-12,
                 diff <= sup_diff + 1e-9)
