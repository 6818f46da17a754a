"""Configuration-driven batch runner.

Commands: estimate, verify, dimension, localent, sweep.  Configs are
flat key=value text with optional [section] headers kept purely for
reading comfort; keys are global, each command reads a fixed set of
them, and a duplicate or unread key is rejected with its line number.
Output is CSV or JSON, written byte-identically for a fixed seed.
Exit codes: 0 pass, 2 check failure, 3 infeasible, 4 parse error.
"""

import argparse
import json
import sys

from .dimension import bowen_root
from .errors import AnalyticUnavailable, DepthTooLarge, ParseError
from .lift import check_lift_inequalities
from .localent import ProductMeasureModel, local_amalgamated_entropy, \
    marginal_bound_check, parse_measure, sample_points
from .potentials import parse_potential, random_potential
from .pressure import KINDS, estimate_pressure, extrapolate, \
    lipschitz_check, sweep_estimates, trajectory_shift_check, \
    verify_inequality_chain
from .systems import parse_system
from .words import Word, constant_rule, explicit_rule, periodic_rule

ROW_KEYS = "kind,n,epsilon,lower,upper,cover_size,method,seed".split(",")
SCHEMA_VERSION = 1

__all__ = ["main", "load_config"]


# ---------------------------------------------------------------------------
# config parsing


def load_config(path):
    """Flat key=value entries with line numbers; sections are cosmetic."""
    entries = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError("cannot read config: %s" % exc)
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#") or text.startswith(";"):
                continue
            if text.startswith("["):
                if not text.endswith("]"):
                    raise ParseError("unterminated section header", lineno)
                continue
            if "=" not in text:
                raise ParseError("expected key=value, got %r" % text,
                                 lineno)
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("empty key", lineno)
            if key in entries:
                raise ParseError("duplicate key %r" % key, lineno)
            entries[key] = (value, lineno)
    return entries


# keys every command reads, and the keys each command reads besides
COMMON_KEYS = ("system", "seed")
COMMAND_KEYS = {
    "estimate": ("potential", "rule", "kinds", "depths", "epsilons"),
    "sweep": ("potential", "rule", "kinds", "depths", "epsilons"),
    "verify": ("potential", "rule", "tolerance", "checks", "n", "epsilon",
               "measure", "system_b"),
    "dimension": ("n", "epsilon", "bracket"),
    "localent": ("epsilon", "n_range", "resolution", "measure", "points"),
}


def _check_keys(entries, command):
    """ParseError at the first key the command does not read."""
    for key, (_, line) in entries.items():
        if key not in COMMON_KEYS and key not in COMMAND_KEYS[command]:
            raise ParseError("%s reads no key %r" % (command, key), line)


def _get(entries, key, default=None):
    return entries.get(key, (default, None))


def _require(entries, key):
    if key not in entries:
        raise ParseError("missing required key %r" % key)
    return entries[key]


def _parse_float(value, line, key):
    try:
        return float(value)
    except ValueError:
        raise ParseError("key %r needs a number, got %r" % (key, value),
                         line)


def _parse_int(value, line, key):
    try:
        return int(value)
    except ValueError:
        raise ParseError("key %r needs an integer, got %r" % (key, value),
                         line)


def _parse_list(value, line, key, conv):
    items = [v.strip() for v in value.split(",") if v.strip() != ""]
    if not items:
        raise ParseError("key %r needs a nonempty list" % key, line)
    try:
        return [conv(v) for v in items]
    except ValueError:
        raise ParseError("bad list entry in key %r" % key, line)


def _parse_kinds(value, line):
    if value.strip() == "all":
        return list(KINDS)
    kinds = _parse_list(value, line, "kinds", str)
    for k in kinds:
        if k not in KINDS:
            raise ParseError("unknown kind %r" % k, line)
    return kinds


def _parse_rule(value, line, m):
    value = value.strip()
    if value.startswith("constant:"):
        rule = constant_rule(_parse_int(value[len("constant:"):], line,
                                        "rule"))
    elif value.startswith("periodic:"):
        rule = periodic_rule(tuple(_parse_list(value[len("periodic:"):],
                                               line, "rule", int)))
    elif value.startswith("explicit:"):
        rule = explicit_rule(tuple(_parse_list(value[len("explicit:"):],
                                               line, "rule", int)))
    else:
        raise ParseError("rules are constant:j | periodic:... | "
                         "explicit:...", line)
    try:
        Word(rule.data).validate(m)
    except ValueError:
        raise ParseError("rule symbols must lie in 1..%d" % m, line)
    return rule


def _parse_n_range(value, line):
    value = value.strip()
    if ".." in value:
        lo_text, _, hi_text = value.partition("..")
        lo = _parse_int(lo_text, line, "n_range")
        hi = _parse_int(hi_text, line, "n_range")
        if hi < lo:
            raise ParseError("empty depth range", line)
        return list(range(lo, hi + 1))
    return _parse_list(value, line, "n_range", int)


def _parse_points(value, line, system):
    if system.is_shift:
        raise ParseError("shift systems take no explicit points", line)
    groups = [g.strip() for g in value.split(";") if g.strip() != ""]
    if not groups:
        raise ParseError("empty point list", line)
    points = []
    for g in groups:
        coords = _parse_list(g, line, "points", float)
        if system.is_toral:
            if len(coords) != 2:
                raise ParseError("torus points need two coordinates", line)
            points.append((coords[0], coords[1]))
        else:
            if len(coords) != 1:
                raise ParseError("interval points need one coordinate",
                                 line)
            points.append(coords[0])
    return points


# ---------------------------------------------------------------------------
# shared setup


class RunSetup:
    """Everything the commands share: the config's system, seed,
    potential and rule (the last two at their defaults for commands that
    read neither key), and the output flags."""

    def __init__(self, entries, args):
        spec, line = _require(entries, "system")
        self.system = parse_system(spec, line=line)
        spec, line = _get(entries, "potential", "zero")
        self.phi = parse_potential(spec, self.system.m, line=line)
        value, line = _get(entries, "seed", "0")
        self.seed = _parse_int(value, line, "seed")
        value, self.rule_line = _get(entries, "rule")
        self.rule = None if value is None \
            else _parse_rule(value, self.rule_line, self.system.m)
        self.out = args.out
        self.format = args.format


def _require_rule_length(setup, need, use):
    """An explicit rule gives words of at most its own length; constant
    and periodic rules give every length."""
    rule = setup.rule
    if rule and rule.mode == "explicit" and len(rule.data) < need:
        raise ParseError("explicit rule has %d symbols, %s needs %d"
                         % (len(rule.data), use, need), setup.rule_line)


# ---------------------------------------------------------------------------
# output


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(setup, text):
    if setup.out:
        with open(setup.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(setup, rows, command):
    _emit_table(setup, ROW_KEYS, [[row[k] for k in ROW_KEYS] for row in rows],
                command)


def _emit_table(setup, header, rows, command):
    if setup.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command,
               "rows": [dict(zip(header, row)) for row in rows]}
        _write(setup, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(setup, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _estimate_jobs(entries, setup):
    value, line = _require(entries, "kinds")
    kinds = _parse_kinds(value, line)
    if "trajectory" in kinds and setup.rule is None:
        raise ParseError("trajectory estimates need a rule key", line)
    value, line = _require(entries, "depths")
    depths = _parse_list(value, line, "depths", int)
    value, line = _require(entries, "epsilons")
    epsilons = _parse_list(value, line, "epsilons", float)
    if "trajectory" in kinds:
        _require_rule_length(setup, max(depths),
                             "the trajectory at depth %d" % max(depths))
    return kinds, depths, epsilons


def cmd_estimate(entries, setup):
    kinds, depths, epsilons = _estimate_jobs(entries, setup)
    jobs = [(kind, n, eps) for kind in kinds for eps in epsilons
            for n in depths]
    # deepest and finest first, so a depth past the grid budget is
    # refused before any other work; rows keep the config order
    ests = {job: estimate_pressure(setup.system, setup.phi, *job,
                                   rule=setup.rule, seed=setup.seed)
            for job in sorted(jobs, key=lambda job: (-job[1], job[2]))}
    _emit_rows(setup, [ests[job].as_row() for job in jobs], "estimate")
    return 0


def cmd_sweep(entries, setup):
    kinds, depths, epsilons = _estimate_jobs(entries, setup)
    rows = []
    for kind in kinds:
        ests = sweep_estimates(setup.system, setup.phi, kind, depths,
                               epsilons, rule=setup.rule, seed=setup.seed)
        rows.extend(e.as_row() for e in ests)
        tail = extrapolate(ests)
        rows.append({"kind": kind + ":extrapolated", "n": max(depths),
                     "epsilon": min(epsilons),
                     "lower": tail.value - tail.error_bar,
                     "upper": tail.value + tail.error_bar,
                     "cover_size": 0, "method": "Extrapolated",
                     "seed": setup.seed})
    _emit_rows(setup, rows, "sweep")
    return 0


VERIFY_CHECKS = ("chain", "shift", "lipschitz", "lift", "marginal",
                 "separation")


def _verify_rows(entries, setup):
    value, line = _get(entries, "tolerance", "1e-9")
    tolerance = _parse_float(value, line, "tolerance")
    value, line = _get(entries, "checks", "chain,shift,lipschitz,lift")
    names = _parse_list(value, line, "checks", str)
    for name in names:
        if name not in VERIFY_CHECKS:
            raise ParseError("unknown check %r" % name, line)
    value, line = _get(entries, "n", "3")
    n = _parse_int(value, line, "n")
    value, line = _get(entries, "epsilon", "0.125")
    epsilon = _parse_float(value, line, "epsilon")
    if "chain" in names:
        _require_rule_length(setup, n, "the chain at n = %d" % n)
    if "shift" in names:
        # the shifted trajectory drops the rule's first symbol
        _require_rule_length(setup, n + 1, "the shift check at n = %d" % n)
    if "marginal" in names:
        value, mline = _get(entries, "measure", "")
        if value:
            measure = parse_measure(value, setup.system, line=mline)
        else:
            weights = tuple([1.0 / setup.system.m] * setup.system.m)
            measure = ProductMeasureModel(
                weights, parse_measure("lebesgue", setup.system))
        if not isinstance(measure, ProductMeasureModel):
            raise ParseError("marginal check needs a product measure", mline)
    if "separation" in names:
        spec, sline = _require(entries, "system_b")
        other = parse_system(spec, line=sline)
    rows = []

    def add(name, ok, detail):
        rows.append((name, "yes" if ok else "no", detail))

    for name in names:
        if name == "chain":
            report = verify_inequality_chain(
                setup.system, setup.phi, n, epsilon, rule=setup.rule,
                seed=setup.seed, tolerance=tolerance)
            for c in report.checks:
                add("chain:" + c.name, c.ok,
                    "lhs=%s rhs=%s" % (_fmt(c.lhs), _fmt(c.rhs)))
        elif name == "shift":
            rule = setup.rule \
                or periodic_rule(tuple(range(1, setup.system.m + 1)))
            check = trajectory_shift_check(setup.system, setup.phi, rule, n,
                                           epsilon, seed=setup.seed)
            add("shift", check.ok, "difference=%s bound=%s"
                % (_fmt(check.lhs), _fmt(check.rhs)))
        elif name == "lipschitz":
            psi = random_potential(setup.system.m, seed=setup.seed + 1)
            check = lipschitz_check(setup.system, setup.phi, psi,
                                    "amalgamated", n, epsilon,
                                    seed=setup.seed)
            add("lipschitz", check.ok, "difference=%s bound=%s"
                % (_fmt(check.lhs), _fmt(check.rhs)))
        elif name == "lift":
            report = check_lift_inequalities(setup.system, setup.phi, n,
                                             epsilon, seed=setup.seed,
                                             tolerance=tolerance)
            for c in report.checks:
                add("lift:" + c.name, c.ok,
                    "lhs=%s rhs=%s" % (_fmt(c.lhs), _fmt(c.rhs)))
        elif name == "marginal":
            pts = sample_points(measure.base, setup.system, 10,
                                seed=setup.seed)
            # the finite-scale tolerance only absorbs the 1/n tail when
            # the range spans at least a doubling of the depth
            lo_depth = max(2, n)
            report = marginal_bound_check(
                measure, setup.system, pts, epsilon,
                list(range(lo_depth, 2 * lo_depth + 3)), seed=setup.seed)
            for c in report.checks:
                add("marginal", c.ok,
                    "h_plus=%s h_lower=%s bound=%s tolerance=%s"
                    % (_fmt(c.h_plus), _fmt(c.h_lower),
                       _fmt(report.bound), _fmt(c.tolerance)))
        elif name == "separation":
            mine = estimate_pressure(setup.system, setup.phi,
                                     "exhaustive-upper", n, epsilon,
                                     seed=setup.seed)
            mine_lo = estimate_pressure(setup.system, setup.phi,
                                        "exhaustive-lower", n, epsilon,
                                        seed=setup.seed)
            phi_b = setup.phi if other.m == setup.system.m \
                else parse_potential("zero", other.m)
            theirs = estimate_pressure(other, phi_b, "exhaustive-upper", n,
                                       epsilon, seed=setup.seed)
            theirs_lo = estimate_pressure(other, phi_b, "exhaustive-lower",
                                          n, epsilon, seed=setup.seed)
            a = (mine_lo.lower, mine.upper)
            b = (theirs_lo.lower, theirs.upper)
            gap = max(b[0] - a[1], a[0] - b[1])
            distinguishable = gap >= 0.15
            add("separation", distinguishable,
                "distinguishable: %s (gap=%s)"
                % ("yes" if distinguishable else "no", _fmt(gap)))
    return rows


def cmd_verify(entries, setup):
    rows = _verify_rows(entries, setup)
    _emit_table(setup, ("check", "ok", "detail"), rows, "verify")
    return 0 if all(ok == "yes" for _, ok, _ in rows) else 2


def cmd_dimension(entries, setup):
    value, line = _get(entries, "n", "96")
    n = _parse_int(value, line, "n")
    value, line = _get(entries, "epsilon", "0.125")
    epsilon = _parse_float(value, line, "epsilon")
    value, line = _get(entries, "bracket", "0,1")
    bracket = _parse_list(value, line, "bracket", float)
    if len(bracket) != 2:
        raise ParseError("bracket needs two endpoints", line)
    result = bowen_root(setup.system, n, epsilon, tuple(bracket),
                        seed=setup.seed)
    doc = {"schema_version": SCHEMA_VERSION, "command": "dimension",
           "t_uA": result.t_uA,
           "per_map_roots": list(result.per_map_roots),
           "bracket": list(result.bracket),
           "iterations": result.iterations}
    _write(setup, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_localent(entries, setup):
    value, line = _get(entries, "epsilon", "0.125")
    epsilon = _parse_float(value, line, "epsilon")
    value, line = _get(entries, "n_range", "4..8")
    n_range = _parse_n_range(value, line)
    value, line = _get(entries, "resolution", "64")
    resolution = _parse_int(value, line, "resolution")
    value, line = _get(entries, "measure", "lebesgue")
    measure = parse_measure(value, setup.system, line=line,
                            resolution=resolution)
    base = measure.base if isinstance(measure, ProductMeasureModel) \
        else measure
    value, line = _get(entries, "points", "sample:10")
    if value.startswith("sample:"):
        count = _parse_int(value[len("sample:"):], line, "points")
        pts = sample_points(base, setup.system, count, seed=setup.seed)
    else:
        pts = _parse_points(value, line, setup.system)

    def coords(x):
        return (x[0], x[1]) if isinstance(x, tuple) else (x, "")

    if isinstance(measure, ProductMeasureModel):
        report = marginal_bound_check(measure, setup.system, pts, epsilon,
                                      n_range, seed=setup.seed)
        rows = []
        for c in report.checks:
            x, y = coords(c.x)
            rows.append((x, y, c.h_plus, c.h_lower, report.bound,
                         c.tolerance, "yes" if c.ok else "no"))
        _emit_table(setup, ("x", "y", "h_plus", "h_lower", "bound",
                            "tolerance", "ok"), rows, "localent")
        return 0 if report.all_ok else 2

    rows = []
    for pt in pts:
        est = local_amalgamated_entropy(measure, setup.system, pt, epsilon,
                                        n_range, seed=setup.seed)
        x, y = coords(est.x)
        rows.append((x, y, est.h_exhaustive_local, est.h_lower_local,
                     est.h_upper_local, est.epsilon, setup.seed))
    _emit_table(setup, ("x", "y", "h_exhaustive", "h_lower", "h_upper",
                        "epsilon", "seed"), rows, "localent")
    return 0


COMMANDS = {
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "dimension": cmd_dimension,
    "localent": cmd_localent,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="presslab",
        description="pressure and entropy estimation for finitely "
                    "generated map families")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        # accepted and ignored: every request runs on one thread
        p.add_argument("--threads", type=int)
    args = parser.parse_args(argv)
    try:
        entries = load_config(args.config)
        _check_keys(entries, args.command)
        setup = RunSetup(entries, args)
        return COMMANDS[args.command](entries, setup)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 4
    except (DepthTooLarge, AnalyticUnavailable) as exc:
        sys.stderr.write("infeasible: %s\n" % exc)
        return 3
    except ValueError as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
