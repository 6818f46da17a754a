"""Traced runner: one presslab CLI request with per-layer wrappers.

    python3 perfbench/traced.py COUNTERS.json <presslab arguments...>

Wraps the layers' functions and methods by name, calls
`presslab.cli.main` with the remaining arguments, then writes the time
and counts recorded per layer to COUNTERS.json.  The program's source is
not touched: each wrapper replaces the name on every presslab module
(and module-level dict) that binds it, so calls through an imported name
are caught too.  A name that is gone is listed as absent and its layer
metrics are reported absent, without failing the request.

Seconds are summed over threads, so a layer run by two threads at once
can report more seconds than the request's wall time.
"""

import functools
import importlib
import json
import sys
import threading
import time


def _engine_built(tracer, args, result, error):
    if error is None:
        engine = args[0]
        tracer.add("grid.engines_built", 1)
        tracer.add("grid.pair_entries",
                   len(engine.words) * len(engine.points) ** 2)


def _cover_greedy(tracer, args, result, error):
    tracer.add("grid.cover_candidates", len(args[1]))
    if error is None:
        tracer.add("grid.cover_picked", len(result[1]))


def _packing_greedy(tracer, args, result, error):
    if error is None:
        tracer.add("grid.packing_kept", result[1])


def _analytic_engine(tracer, args, result, error):
    tracer.add("analytic.calls", 1)
    if type(error).__name__ == "AnalyticUnavailable":
        tracer.add("analytic.declined", 1)


def _estimate(tracer, args, result, error):
    tracer.add("pressure.estimates", 1)
    if tracer.inside("dimension.s"):
        tracer.add("dimension.pressure_evals", 1)
    if error is None and "lower clamped to upper" in result.note:
        tracer.add("pressure.clamped_lower", 1)


def _counter(metric):
    def hook(tracer, args, result, error):
        tracer.add(metric, 1)
    hook.metrics = (metric,)
    return hook


_engine_built.metrics = ("grid.engines_built", "grid.pair_entries")
_cover_greedy.metrics = ("grid.cover_candidates", "grid.cover_picked")
_packing_greedy.metrics = ("grid.packing_kept",)
_analytic_engine.metrics = ("analytic.calls", "analytic.declined")
_estimate.metrics = ("pressure.estimates", "pressure.clamped_lower",
                     "dimension.pressure_evals")

# (module.name[.attribute], span metric timed around the call, hook)
LAYERS = (
    ("pressure._GridEngine.__init__", "grid.build_s", _engine_built),
    ("pressure._GridEngine._build_metrics", "grid.metric_s", None),
    ("pressure._GridEngine.weights", "grid.weights_s", None),
    ("pressure._GridEngine._greedy_cover_matrix", "grid.cover_s",
     _cover_greedy),
    ("pressure._GridEngine._greedy_packing", "grid.packing_s",
     _packing_greedy),
    ("pressure._GridEngine._mask_packing", "grid.packing_s",
     _packing_greedy),
    ("potentials.MultiPotential.eval", None,
     _counter("potentials.eval_calls")),
    ("analytic.toral_cover", "analytic.polygon_s", _analytic_engine),
    ("analytic.toral_packing", "analytic.polygon_s", _analytic_engine),
    ("analytic.diag_cover", "analytic.diag_s", _analytic_engine),
    ("analytic.diag_packing", "analytic.diag_s", _analytic_engine),
    ("analytic.interval_cover", "analytic.interval_s", _analytic_engine),
    ("analytic.interval_packing", "analytic.interval_s", _analytic_engine),
    ("pressure.estimate_pressure", None, _estimate),
    ("pressure.verify_inequality_chain", "pressure.chain_s", None),
    ("pressure.sweep_estimates", "pressure.sweep_s", None),
    ("dimension.bowen_root", "dimension.s", None),
    ("localent.local_amalgamated_entropy", "localent.s", None),
    ("localent.marginal_bound_check", "localent.s", None),
    ("localent.ball_measure", None,
     _counter("localent.ball_measure_calls")),
    ("lift.check_lift_inequalities", "lift.s", None),
    ("lift.lift_pressure_estimate", "lift.s", None),
    ("cli.load_config", "cli.parse_s", None),
    ("cli.RunSetup.__init__", "cli.parse_s", None),
    ("cli.cmd_estimate", "cli.command_s", None),
    ("cli.cmd_sweep", "cli.command_s", None),
    ("cli.cmd_verify", "cli.command_s", None),
    ("cli.cmd_dimension", "cli.command_s", None),
    ("cli.cmd_localent", "cli.command_s", None),
    ("cli._emit_rows", "cli.emit_s", None),
    ("cli._emit_table", "cli.emit_s", None),
    ("cli._write", "cli.emit_s", None),
)


class Tracer:
    """Per-layer totals shared by every thread of the request.  A span
    is timed only at its outermost call in each thread, so recursion or
    one layer function calling another is not counted twice."""

    def __init__(self):
        self.values = {}
        self.installed = set()
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, metric, amount):
        with self._lock:
            self.values[metric] = self.values.get(metric, 0) + amount

    def _depths(self):
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def inside(self, span):
        return self._depths().get(span, 0) > 0

    def wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depths = tracer._depths()
            outer = span is not None and depths.get(span, 0) == 0
            if span is not None:
                depths[span] = depths.get(span, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(tracer, args, None, exc)
                raise
            finally:
                if span is not None:
                    depths[span] -= 1
                    if outer:
                        tracer.add(span, time.perf_counter() - start)
            if hook is not None:
                hook(tracer, args, result, None)
            return result

        return wrapper

    def install(self, target, span, hook):
        module_name, _, path = target.partition(".")
        try:
            module = importlib.import_module("presslab." + module_name)
        except ImportError:
            self.absent.append(target)
            return
        owner = module
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(name)
        if original is None:
            self.absent.append(target)
            return
        wrapper = self.wrap(original, span, hook)
        if owner is module:
            _rebind(original, wrapper)
        else:
            setattr(owner, name, wrapper)
        if span is not None:
            self.installed.add(span)
        self.installed.update(getattr(hook, "metrics", ()))


def _rebind(original, wrapper):
    """Replace `original` on every loaded presslab module, and in every
    module-level dict (such as the CLI's command table), that binds it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "presslab"
                                  or module_name.startswith("presslab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def main(argv):
    counters_path, cli_args = argv[0], argv[1:]
    import presslab  # noqa: F401  (loads every module before rebinding)
    import presslab.cli
    tracer = Tracer()
    for target, span, hook in LAYERS:
        tracer.install(target, span, hook)
    try:
        return presslab.cli.main(cli_args)
    finally:
        with open(counters_path, "w", encoding="utf-8") as fh:
            json.dump({"values": tracer.values,
                       "installed": sorted(tracer.installed),
                       "absent": tracer.absent}, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
