"""One cold repetition of one workload, in its own interpreter.

Usage: child.py WORKLOAD SEED SIZE MODE

MODE is ``setup`` (import and build the inputs only), ``run`` (also the
timed region and the answer checks) or ``trace`` (as ``run``, with the
spheresys entry points wrapped in spans).  Prints one JSON object.
Exits with code 3, printing no result, when ``spheresys`` cannot be
imported from this checkout's ``src`` directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class Items:
    """Times each request of the timed region and labels its spans.

    ``graphs`` is the number of graphs a request covers, for the
    time per graph that ``run.py`` reports.
    """

    def __init__(self, tracer=None):
        self.times = []
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self, label, graphs=1):
        if self.tracer is not None:
            self.tracer.item = label
        start = perf_counter()
        yield
        self.times.append((label, perf_counter() - start, graphs))


def main(argv):
    workload, seed, size, mode = argv[1], int(argv[2]), argv[3], argv[4]
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    try:
        import spheresys
    except ImportError as exc:
        print(f"cannot import spheresys from {SRC}: {exc}", file=sys.stderr)
        return 3
    if os.path.dirname(os.path.dirname(spheresys.__file__)) != SRC:
        print(f"spheresys imported from {spheresys.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    import workloads
    setup, run, verify = workloads.WORKLOADS[workload]
    inputs = setup(workloads.SIZES[size], seed)
    result = {"setup_s": perf_counter() - t0}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer(f"{workload}/seed{seed}")
        tracer.install()
    items = Items(tracer)
    out = {}
    raised = None
    t1 = perf_counter()
    try:
        run(inputs, items, out)
    except Exception as exc:    # a failed request fails the run's checks
        traceback.print_exc()
        raised = f"{type(exc).__name__}: {exc}"
    wall_s = perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, counts = verify(inputs, out)
    if raised is not None:
        checks = [(name, False) for name, _ in checks]
    result.update(wall_s=wall_s, rss_mb=rss_mb, items=items.times,
                  failed=[name for name, ok in checks if not ok],
                  attempted=len(checks), counts=counts, raised=raised)
    if tracer is not None:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl")
        tracer.write(path, t1)
        result["layers"] = tracer.layer_metrics(wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
