"""The benchmark's workloads: a fixed sequence of presslab requests per
workload, with the configs generated from the workload seed.

The program only ever sees the config files written from these
requests.  The seed changes potentials, diagonal pairs, constants and
sample points, never the systems, depths or radii that set how much
work a request does, so run time does not depend on the seed.
"""

import math
import random
from dataclasses import dataclass, field

SHEAR_PAIR = "toral:0,1,1,2;2,1,1,0"
COMMUTING_PAIR = "toral:2,1,1,1;5,3,3,2"
SINGLE_MAP = "toral:0,1,1,2"
GAPPED_CANTOR_PAIR = "cantor:3,3|3,3"
RANDOM_AMPLITUDE = 0.25


@dataclass(frozen=True)
class Request:
    """One `presslab <command> --config <file>` call and the checks its
    JSON output must pass (see checks.py)."""

    name: str
    command: str
    config: dict
    checks: tuple
    truths: dict = field(default_factory=dict)

    def config_text(self):
        return "".join("%s = %s\n" % kv for kv in self.config.items())


def _rng(workload, seed):
    return random.Random("perfbench:%s:%d" % (workload, seed))


def _random_potential(rng):
    return "random:%d,%g" % (rng.randrange(1, 10_000), RANDOM_AMPLITUDE)


def _grid_estimate(name, system, potential, epsilon, seed):
    return Request(name, "estimate", {
        "system": system, "potential": potential, "kinds": "all",
        "rule": "periodic:1,2", "depths": "3", "epsilons": epsilon,
        "seed": str(seed)}, ("grid",))


def _grid_verify(name, system, potential, epsilon, seed):
    return Request(name, "verify", {
        "system": system, "potential": potential,
        "checks": "lipschitz,shift", "rule": "periodic:1,2", "n": "3",
        "epsilon": epsilon, "seed": str(seed)}, ("verify",))


def torus_grid(seed):
    rng = _rng("torus-grid", seed)
    shear_phi = _random_potential(rng)
    commuting_phi = _random_potential(rng)
    return [
        _grid_estimate("estimate-shear", SHEAR_PAIR, shear_phi, "0.125",
                       seed),
        _grid_estimate("estimate-commuting", COMMUTING_PAIR, commuting_phi,
                       "0.125", seed),
        _grid_verify("verify-shear", SHEAR_PAIR, shear_phi, "0.125", seed),
    ]


def line_shift_grid(seed):
    rng = _rng("line-shift-grid", seed)
    shift_phi = _random_potential(rng)
    cantor_phi = _random_potential(rng)
    # at 1/128 the interval grid has 1,025 points and the region keeps
    # the 304 joint survivors of the two maps
    return [
        _grid_estimate("estimate-shift", "shift:2", shift_phi, "0.125",
                       seed),
        _grid_estimate("estimate-cantor", GAPPED_CANTOR_PAIR, cantor_phi,
                       "0.0078125", seed),
        _grid_verify("verify-shift", "shift:2", shift_phi, "0.125", seed),
        _grid_verify("verify-cantor", GAPPED_CANTOR_PAIR, cantor_phi,
                     "0.0078125", seed),
    ]


def diagonal_truths(a, b, c, d):
    """Exhaustive, amalgamated and condensed entropies of the pair
    {diag(a, b), diag(c, d)} by their closed forms."""
    return {
        "exhaustive-upper": math.log(min(a, c) * min(b, d)),
        "amalgamated": min(math.log(a * b), math.log(c * d)),
        "condensed-upper": math.log(max(a, c) * max(b, d)),
    }


def _sweep(name, system, kinds, depths, epsilon, seed, truths, rule=None):
    config = {"system": system, "potential": "zero", "kinds": kinds,
              "depths": ",".join(str(n) for n in depths),
              "epsilons": epsilon, "seed": str(seed)}
    if rule is not None:
        config["rule"] = rule
    return Request(name, "sweep", config, ("sweep", "zero-potential"),
                   truths)


def closed_form(seed):
    rng = _rng("closed-form", seed)
    requests = []
    for i in range(2):
        a, b, c, d = (rng.randint(2, 6) for _ in range(4))
        # entries up to 6 need eps <= 1/(2*7) for the torus packing
        # certificates, hence 1/16
        requests.append(_sweep(
            "sweep-diag-%d" % (i + 1), "diag:%d,%d|%d,%d" % (a, b, c, d),
            "exhaustive-upper,amalgamated,condensed-upper", range(4, 13),
            "0.0625", seed, diagonal_truths(a, b, c, d)))
    # the alternating product of the shear pair is unipotent: entropy 0
    requests.append(_sweep(
        "sweep-shear", SHEAR_PAIR, "amalgamated,trajectory",
        range(8, 65, 8), "0.26", seed,
        {"amalgamated": 0.0, "trajectory": 0.0}, rule="periodic:1,2"))
    requests.append(_sweep(
        "sweep-single", SINGLE_MAP, "amalgamated", range(16, 97, 16),
        "0.125", seed, {"amalgamated": math.log(1.0 + math.sqrt(2.0))}))
    for slopes in ("3,3", "5,5", "4,4", "2,2", "3,3|5,5"):
        requests.append(Request(
            "dimension-" + slopes.replace(",", "-").replace("|", "_"),
            "dimension", {"system": "cantor:" + slopes, "n": "96",
                          "epsilon": "0.125", "seed": str(seed)},
            ("dimension",)))
    requests.append(Request("localent-product", "localent", {
        "system": "cantor:2,2|2,2",
        "measure": "bernoulli:0.5,0.5 x lebesgue", "resolution": "64",
        "epsilon": "0.125", "n_range": "4..12", "points": "sample:50",
        "seed": str(seed)}, ("localent",)))
    constant = rng.randint(-50, 50) / 100.0
    requests.append(Request("verify-chain-lift", "verify", {
        "system": "diag:2,3|3,2", "potential": "constants:%g" % constant,
        "checks": "chain,lift", "n": "9", "epsilon": "0.125",
        "seed": str(seed)}, ("verify",)))
    return requests


WORKLOADS = {
    "torus-grid": torus_grid,
    "line-shift-grid": line_shift_grid,
    "closed-form": closed_form,
}


if __name__ == "__main__":
    # python3 perfbench/workloads.py SEED: print every config a seed makes
    import sys
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    for workload, make in WORKLOADS.items():
        for req in make(seed):
            print("# %s %s: presslab %s" % (workload, req.name, req.command))
            print(req.config_text())
