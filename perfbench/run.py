"""presslab benchmark: runs one workload as a fixed sequence of CLI
requests and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
run from the checkout's `src` directory.  Each request is its own
`python3 -m presslab.cli <command> --config ... --format json` process,
started one at a time, with `--threads` set to the cores this process
may use.  Whole rounds of the workload's requests are repeated until
S seconds have passed; every output is checked after timing.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates plain rounds with rounds run through perfbench/traced.py and
reports the per-layer metrics, including the tracing overhead: the
traced rounds' median wall time less the plain rounds'.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record of the run is
written to perfbench/results/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "presslab")
TRACED_RUNNER = os.path.join(BENCH_DIR, "traced.py")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")

# set-up is timed before every round, so its median spans the run
SETUP_SAMPLES_PER_ROUND = 4
# a run must end within 180 s; no request or round starts past this
HARD_LIMIT_S = 165.0


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


def spawn_and_wait(argv, env, stdout_path, stderr_path, timeout):
    """Run one child process to its end; returns (wall seconds, exit
    code, rusage).  A child still running after `timeout` seconds is
    killed and reported with exit code None."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    pid = None
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        pid = None
        return wall, os.waitstatus_to_exitcode(status), usage
    except RequestTimeout:
        return timeout, None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class Run:
    """One benchmark run: its requests, working files and samples."""

    def __init__(self, requests, work, deadline):
        self.requests = requests
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("PRESSLAB_THREADS", None)
        self.threads = len(os.sched_getaffinity(0))
        self.configs = {}
        for req in requests:
            path = os.path.join(work, req.name + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(req.config_text())
            self.configs[req.name] = path
        self.rounds = []

    def remaining(self):
        return self.deadline - time.perf_counter()

    def setup(self, samples):
        """Time fresh interpreters that import presslab.cli and exit."""
        argv = [sys.executable, "-c", "import presslab.cli"]
        log = os.path.join(self.work, "setup.log")
        times = []
        for _ in range(samples):
            wall, code, _ = spawn_and_wait(argv, self.env, log, log,
                                           self.remaining())
            if code != 0:
                raise SystemExit("perfbench: importing presslab.cli from "
                                 "%s failed: %s" % (SRC, _tail(log)))
            times.append(wall)
        return times

    def round(self, traced):
        """All requests back to back; outputs are checked later."""
        index = len(self.rounds)
        out_dir = os.path.join(self.work, "round-%d" % index)
        os.mkdir(out_dir)
        samples = []
        start = time.perf_counter()
        for req in self.requests:
            base = os.path.join(out_dir, req.name)
            cli_args = [req.command, "--config", self.configs[req.name],
                        "--format", "json", "--out", base + ".json",
                        "--threads", str(self.threads)]
            if traced:
                argv = [sys.executable, TRACED_RUNNER,
                        base + ".trace.json"] + cli_args
            else:
                argv = [sys.executable, "-m", "presslab.cli"] + cli_args
            wall, code, usage = spawn_and_wait(
                argv, self.env, base + ".stdout", base + ".stderr",
                self.remaining())
            samples.append({
                "request": req.name, "wall_s": wall, "exit": code,
                "peak_rss_mb": usage.ru_maxrss / 1024.0 if usage else None,
                "cpu_s": usage.ru_utime + usage.ru_stime if usage else None,
                "base": base})
        wall = time.perf_counter() - start
        self.rounds.append({"traced": traced, "wall_s": wall,
                            "requests": samples})
        return wall

    def check(self):
        """Check every request's output; returns (attempted, failed,
        correct, failure messages)."""
        attempted = failed = 0
        correct = True
        messages = []
        for rnd, data in enumerate(self.rounds):
            for req, sample in zip(self.requests, data["requests"]):
                attempted += 1
                where = "round %d %s" % (rnd, req.name)
                if sample["exit"] != 0:
                    failed += 1
                    messages.append("%s: exit %s (%s)" % (
                        where, sample["exit"],
                        _tail(sample["base"] + ".stderr")))
                    continue
                try:
                    with open(sample["base"] + ".json",
                              encoding="utf-8") as fh:
                        doc = json.load(fh)
                    problems = checks.check_output(req, doc)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = ["unreadable output: %r" % (exc,)]
                if problems:
                    failed += 1
                    correct = False
                    messages.extend("%s: %s" % (where, p) for p in problems)
        return attempted, failed, correct, messages


def _tail(path, limit=300):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read().strip()
    except OSError:
        return "no stderr"
    return text[-limit:] if text else "no stderr"


def source_lines():
    total = 0
    for dirpath, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def end_to_end(run, setup):
    rounds = run.rounds
    requests = [s for r in rounds for s in r["requests"] if s["exit"] == 0] \
        or [s for r in rounds for s in r["requests"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "request_p50_s": statistics.median(s["wall_s"] for s in requests),
        "peak_rss_mb": statistics.median(
            max(s["peak_rss_mb"] or 0.0 for s in r["requests"])
            for r in rounds),
        "setup_s": statistics.median(setup),
    }


def per_layer(run):
    """Medians over the traced rounds of each layer's per-round total,
    and the wrapped names that were not found."""
    plain = [r for r in run.rounds if not r["traced"]]
    traced = [r for r in run.rounds if r["traced"]]
    installed = {"process.cpu_s"}
    absent_names = set()
    totals = []
    for rnd in traced:
        values = {"process.cpu_s": sum(s["cpu_s"] or 0.0
                                       for s in rnd["requests"])}
        for sample in rnd["requests"]:
            try:
                with open(sample["base"] + ".trace.json",
                          encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                continue
            installed.update(record["installed"])
            absent_names.update(record["absent"])
            for key, value in record["values"].items():
                values[key] = values.get(key, 0) + value
        values["cli.compute_s"] = values.get("cli.command_s", 0.0) \
            - values.get("cli.emit_s", 0.0)
        totals.append(values)
    if "cli.command_s" in installed:
        installed.add("cli.compute_s")
    metrics = {name: statistics.median(t.get(name, 0) for t in totals)
               for name in installed}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["src.lines"] = source_lines()
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in plain)
    return metrics, sorted(absent_names)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.stderr.write("perfbench: no presslab source at %s\n" % PACKAGE)
        return 2
    spec = load_spec()
    requests = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=WORK_DIR)
    try:
        run = Run(requests, work, started + HARD_LIMIT_S)
        run.setup(1)  # warm-up: byte-compiles the package once
        setup = []
        measure_from = time.perf_counter()
        while True:
            if args.trace:
                # plain and traced rounds alternate, so the overhead
                # compares rounds that ran under the same machine load
                run.round(traced=False)
            else:
                setup.extend(run.setup(SETUP_SAMPLES_PER_ROUND))
            last = run.round(traced=bool(args.trace))
            if time.perf_counter() - measure_from >= args.seconds \
                    or run.remaining() < 1.5 * last:
                break
        attempted, failed, correct, messages = run.check()
        if args.trace:
            metrics, absent_names = per_layer(run)
            wanted = spec["per_layer"]
        else:
            metrics, absent_names = end_to_end(run, setup), []
            wanted = spec["end_to_end"]
        absent = [m["name"] for m in wanted if m["name"] not in metrics]
        result = {m["name"]: {"value": metrics.get(m["name"], 0),
                              "unit": m["unit"]} for m in wanted}
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": run.threads, "setup_samples_s": setup,
            "requests": [{"name": r.name, "command": r.command,
                          "config": r.config} for r in requests],
            "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"],
                        "requests": [{k: v for k, v in s.items()
                                      if k != "base"}
                                     for s in r["requests"]]}
                       for r in run.rounds],
            "absent_metrics": absent,
            "absent_names": absent_names,
            "failures": messages,
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for message in messages:
        print("FAILED " + message)
    for name in absent:
        print("absent %s" % name)
    for name in record["absent_names"]:
        print("absent name %s" % name)
    for name, metric in result.items():
        print("%-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("requests attempted %d, failed %d; record in %s"
          % (attempted, failed, os.path.relpath(path, ROOT)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
