"""Output checks run on every request's JSON after timing.

Each check compares a request's rows with values the benchmark works out
itself (closed-form entropies, similarity dimensions, symbol entropies)
or with bounds the method guarantees, never with a saved copy of earlier
output.  Every check returns a list of failure messages; an empty list
means the output passed.
"""

import math

EXTRAPOLATED = ":extrapolated"
TRUTH_SLACK = 1e-9
ZERO_POTENTIAL_SLACK = 1e-9
DIMENSION_SLACK = 0.02
FAMILY_ROOT_SLACK = 2e-3
LOCALENT_SLACK = 0.15
# the CLI's lipschitz check perturbs phi to random:<seed + 1> at the
# default amplitude of random potentials
PERTURBATION_AMPLITUDE = 0.25


def amplitude(potential):
    """Sup bound S of a potential spec: |phi_j| <= S for every j.
    Random potentials are normalised to their amplitude, constants are
    bounded by their largest magnitude."""
    kind, _, body = potential.partition(":")
    if kind == "zero":
        return 0.0
    if kind == "random":
        parts = body.split(",")
        return float(parts[1]) if len(parts) > 1 else 0.25
    if kind == "constants":
        return max(abs(float(v)) for v in body.split(",") if v)
    raise ValueError("no amplitude bound for potential %r" % potential)


def _finite_bracket(row, where):
    lower, upper = row["lower"], row["upper"]
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return ["%s: bracket [%r, %r] is not finite" % (where, lower, upper)]
    if lower > upper:
        return ["%s: lower %r above upper %r" % (where, lower, upper)]
    return []


def check_grid(request, doc):
    """Grid estimate rows of a potential bounded by S: the bracket sits
    within S of the cover count's log rate, and the amalgamated cover is
    no dearer than the rule word's, which is in the word pool."""
    s = amplitude(request.config["potential"])
    failures = []
    uppers = {}
    for row in doc["rows"]:
        kind = row["kind"]
        where = "%s %s" % (request.name, kind)
        problems = _finite_bracket(row, where)
        failures.extend(problems)
        if problems:
            continue
        uppers[kind] = row["upper"]
        if row["lower"] < -s - 1e-12:
            failures.append("%s: lower %r below -S = %r"
                            % (where, row["lower"], -s))
        if row["cover_size"] < 1:
            failures.append("%s: empty cover" % where)
            continue
        rate = math.log(row["cover_size"]) / row["n"]
        if kind == "free":
            if row["upper"] > rate + s + 1e-12:
                failures.append("%s: upper %r above log(cover)/n + S = %r"
                                % (where, row["upper"], rate + s))
        elif abs(row["upper"] - rate) > s + 1e-12:
            failures.append("%s: upper %r further than S = %r from "
                            "log(cover)/n = %r"
                            % (where, row["upper"], s, rate))
    if "amalgamated" in uppers and "trajectory" in uppers \
            and uppers["amalgamated"] > uppers["trajectory"] + 1e-12:
        failures.append("%s: amalgamated upper %r above trajectory upper %r"
                        % (request.name, uppers["amalgamated"],
                           uppers["trajectory"]))
    return failures


def _detail_value(detail, key):
    for token in detail.split():
        name, _, value = token.partition("=")
        if name == key:
            return float(value)
    raise ValueError("no %s= in detail %r" % (key, detail))


def check_verify(request, doc):
    """Every verify row reads yes; the lipschitz difference stays within
    the sum of the two potentials' sup bounds."""
    failures = []
    for row in doc["rows"]:
        where = "%s %s" % (request.name, row["check"])
        if row["ok"] != "yes":
            failures.append("%s: reads %r (%s)"
                            % (where, row["ok"], row["detail"]))
        if row["check"] == "lipschitz":
            bound = amplitude(request.config["potential"]) \
                + PERTURBATION_AMPLITUDE
            diff = _detail_value(row["detail"], "difference")
            if not diff <= bound:
                failures.append("%s: difference %r above S_phi + S_psi = %r"
                                % (where, diff, bound))
    if not doc["rows"]:
        failures.append("%s: no verify rows" % request.name)
    return failures


def check_sweep(request, doc):
    """Each extrapolated row, widened by 1e-9, holds the true rate."""
    failures = []
    seen = set()
    for row in doc["rows"]:
        where = "%s %s n=%s" % (request.name, row["kind"], row["n"])
        failures.extend(_finite_bracket(row, where))
        if not row["kind"].endswith(EXTRAPOLATED):
            continue
        kind = row["kind"][:-len(EXTRAPOLATED)]
        seen.add(kind)
        truth = request.truths[kind]
        if not (row["lower"] - TRUTH_SLACK <= truth
                <= row["upper"] + TRUTH_SLACK):
            failures.append("%s: true rate %r outside [%r, %r]"
                            % (where, truth, row["lower"], row["upper"]))
    for kind in sorted(set(request.truths) - seen):
        failures.append("%s: no extrapolated row for %s"
                        % (request.name, kind))
    return failures


def check_zero_potential(request, doc):
    """With the zero potential every cover atom costs 1, so n * upper is
    the log of the cover size."""
    failures = []
    for row in doc["rows"]:
        if row["kind"].endswith(EXTRAPOLATED) or row["cover_size"] <= 0:
            continue
        lhs = row["n"] * row["upper"]
        rhs = math.log(row["cover_size"])
        if abs(lhs - rhs) > ZERO_POTENTIAL_SLACK:
            failures.append("%s %s n=%s: n*upper %r != log(cover) %r"
                            % (request.name, row["kind"], row["n"], lhs,
                               rhs))
    return failures


def similarity_dimension(slopes):
    """Root t of sum(s ** -t) = 1 for one map's branch slopes."""
    lo, hi = 0.0, 1.0
    while sum(s ** -hi for s in slopes) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(s ** -mid for s in slopes) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_dimension(request, doc):
    """Per-map roots match the similarity dimension within 0.02; the
    family root is that of the single map, or at most the smallest
    per-map root plus 2e-3."""
    body = request.config["system"].partition(":")[2]
    expected = [similarity_dimension([float(v) for v in tok.split(",")])
                for tok in body.split("|")]
    roots = doc["per_map_roots"]
    failures = []
    if len(roots) != len(expected):
        return ["%s: %d per-map roots for %d maps"
                % (request.name, len(roots), len(expected))]
    for i, (root, want) in enumerate(zip(roots, expected)):
        if not abs(root - want) <= DIMENSION_SLACK:
            failures.append("%s: map %d root %r, similarity dimension %r"
                            % (request.name, i + 1, root, want))
    family = doc["t_uA"]
    if len(expected) == 1:
        if not abs(family - expected[0]) <= DIMENSION_SLACK:
            failures.append("%s: root %r, similarity dimension %r"
                            % (request.name, family, expected[0]))
    elif not family <= min(roots) + FAMILY_ROOT_SLACK:
        failures.append("%s: family root %r above smallest map root %r"
                        % (request.name, family, min(roots)))
    return failures


def check_localent(request, doc):
    """Every sampled point's h_plus stays within 0.15 of the symbol
    entropy of the product measure's Bernoulli weights."""
    spec = request.config["measure"]
    weights = [float(v) for v in
               spec.partition(":")[2].partition("x")[0].split(",") if v]
    bound = -sum(p * math.log(p) for p in weights if p > 0.0) \
        + LOCALENT_SLACK
    failures = []
    for row in doc["rows"]:
        if not row["h_plus"] <= bound:
            failures.append("%s x=%s: h_plus %r above %r"
                            % (request.name, row["x"], row["h_plus"], bound))
    if not doc["rows"]:
        failures.append("%s: no localent rows" % request.name)
    return failures


CHECKS = {
    "grid": check_grid,
    "verify": check_verify,
    "sweep": check_sweep,
    "zero-potential": check_zero_potential,
    "dimension": check_dimension,
    "localent": check_localent,
}


def check_output(request, doc):
    failures = []
    for name in request.checks:
        failures.extend(CHECKS[name](request, doc))
    return failures
