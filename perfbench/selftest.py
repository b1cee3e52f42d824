"""Fast self-test of the benchmark at reduced sizes (under a minute).

Usage, from the repository root:  python3 perfbench/selftest.py

Runs every workload untraced and traced at the "small" size (density up
to n=8, sweeps at trace bound 10, census at n=7) and asserts that every
answer check passes, that the exact counts equal the stored ones, that
every metric named in BENCHMARK.json is produced, and that the layer
self times plus the benchmark's own time add up to the traced wall
time.  Then runs the benchmark in a copy of its own files with no
``src`` directory and asserts that it fails without printing a result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import run
from expected import COUNTS


def check_workload(spec, workload):
    untraced_reps, untraced = run.measure(workload, 1, 0, 0, size="small")
    traced_reps, layer = run.measure(workload, 1, 0, 1, size="small")
    for reps in (untraced_reps, traced_reps):
        for rep in reps:
            assert rep["raised"] is None, (workload, rep["raised"])
            assert not rep["failed"], (workload, rep["failed"])
            for name, value in rep["counts"].items():
                assert COUNTS["small"].get(name) == value, (workload, name)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    assert set(untraced) == e2e, set(untraced) ^ e2e
    assert set(layer) == layers, set(layer) ^ layers
    # every span name has one .self_s metric; bench.self_s is the rest
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    wall = layer["trace.wall_s"]
    assert abs(self_total - wall) < 1e-6 * max(1.0, wall), (workload, wall)
    print(f"ok {workload}: {run.attempted(untraced_reps)} checks, "
          f"wall {untraced['wall_s']:.3f} s, traced overhead "
          f"{layer['trace.overhead_frac']:+.2f}")


def check_without_program():
    """In a copy holding only BENCHMARK.json and perfbench/, it must fail."""
    bare = os.path.join(run.HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-n10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok without src: exit code", proc.returncode)


def main():
    spec = run.load_spec()
    for w in spec["workloads"]:
        check_workload(spec, w["name"])
    check_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
