"""spheresys benchmark: one workload, measured in cold interpreters.

Usage, from the repository root:

    python3 perfbench/run.py --workload census-n10 --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``child.py``), one at a
time, so module-level caches such as the enumeration's class cache start
empty, as they do for a command-line user.  With ``--trace 0`` it
repeats the workload until the next repetition would end after
``--seconds`` (always at least once), adds set-up-only interpreters
until set-up was measured five times, and prints the end-to-end metrics.
With ``--trace 1`` it runs one plain and one traced repetition and
prints the per-layer metrics.  The last line of standard output is one
JSON object; metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import monotonic

from expected import COUNTS
from tracing import NOT_SEEN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
MIN_PERCENTILE_SAMPLES = 200
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(workload, seed, size, mode, deadline):
    """Run one repetition; return its JSON result and elapsed time."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           workload, str(seed), size, mode]
    start = monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} repetition passed the {DEADLINE_S:.0f} s "
                          "limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} repetition exited with code "
                          f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = monotonic() - start
    return result


def percentile(values, q):
    """Nearest-rank percentile: ceil(q * n) - 1 values lie at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def graph_percentiles_ms(reps):
    """Median and 95th percentile of the time per graph, in milliseconds.

    With fewer requests than p95 needs to have ten samples beyond it,
    both are the mean time per graph: each request's time divided over
    the graphs it covers.
    """
    times = [(s, graphs) for r in reps for _, s, graphs in r["items"]]
    if len(times) >= MIN_PERCENTILE_SAMPLES:
        ms = [1000.0 * s / graphs for s, graphs in times]
        return percentile(ms, 0.50), percentile(ms, 0.95)
    mean = 1000.0 * sum(s for s, _ in times) / sum(g for _, g in times)
    return mean, mean


def drift_report(reps):
    """Print by name every count that differs from the stored value."""
    stored = COUNTS["full"]
    lines = {f"count drift: {name} = {value} (stored {stored.get(name)})"
             for r in reps for name, value in r["counts"].items()
             if stored.get(name) != value}
    for line in sorted(lines):
        print(line)


def measure(workload, seed, seconds, trace, size="full"):
    """Run the repetitions of one benchmark run; return them and the metrics."""
    deadline = monotonic() + DEADLINE_S
    if trace:
        plain = child(workload, seed, size, "run", deadline)
        traced = child(workload, seed, size, "trace", deadline)
        reps = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    else:
        reps = [child(workload, seed, size, "run", deadline)]
        spent = reps[0]["elapsed"]
        while spent + reps[-1]["elapsed"] <= seconds:
            reps.append(child(workload, seed, size, "run", deadline))
            spent += reps[-1]["elapsed"]
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(child(workload, seed, size, "setup",
                                deadline)["setup_s"])
        p50, p95 = graph_percentiles_ms(reps)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
            "pass_frac": 1.0 - failed(reps) / attempted(reps),
            "graph_p50_ms": p50,
            "graph_p95_ms": p95,
        }
    return reps, metrics


def attempted(reps):
    return sum(r["attempted"] for r in reps)


def failed(reps):
    return sum(len(r["failed"]) for r in reps)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        reps, values = measure(args.workload, args.seed, args.seconds,
                               args.trace)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for r in reps:
        for name in r["failed"]:
            print(f"check failed: {name}")
        if r["raised"]:
            print(f"run raised: {r['raised']}")
    drift_report(reps)
    if args.trace:
        print(f"trace note: {NOT_SEEN}; spans are in perfbench/out/")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed(reps) == 0,
                      "attempted": attempted(reps), "failed": failed(reps),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
