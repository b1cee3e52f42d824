"""Spans around the calls the benchmark makes into each spheresys module.

The traced run replaces public entry points with timing wrappers:
methods on their class (``Triangulation.validate``,
``MoebiusMap.__mul__``, ...) and module functions on their module
(``geodesics.systole_matrix_group``, ...).  A call is seen only when it
looks the name up at call time, so calls through a name bound early by
``from x import f`` are not seen.  Spans are kept in memory and written
out once, after the timed region.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

NOT_SEEN = ("calls through names bound early by 'from x import f' are "
            "not seen; only module-attribute and class-method lookups are")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, item."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.item = ""          # label of the request being timed
        self.spans = []         # [name, start, end, parent, item, counts]
        self._stack = []
        self._restore = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.item, None])

    def _close(self, counts=None):
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        span[5] = counts

    def wrap(self, name, fn, count=None):
        """A call-timing wrapper; ``count(result)`` gives the span's counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close()
                raise
            tracer._close(count(result) if count else None)
            return result
        return wrapper

    def wrap_generator(self, name, fn, count):
        """One span per step of a generator; ``count(args)`` per yield.

        The consumer's work between steps is outside the spans, so the
        generator's own work is not charged with what its caller does
        with each item.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            per_item = count(args)
            while True:
                tracer._open(name)
                try:
                    value = next(gen)
                except StopIteration:
                    tracer._close()
                    return
                except BaseException:
                    tracer._close()
                    raise
                tracer._close(per_item)
                yield value
        return wrapper

    def patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public entry points of every spheresys layer."""
        from spheresys import developing, enumeration, geodesics
        from spheresys.modular import MoebiusMap
        from spheresys.triangulation import Triangulation

        self.patch(enumeration, "verify_proposition", self.wrap(
            "enumeration.verify_proposition", enumeration.verify_proposition))
        self.patch(enumeration, "enumerate_triangulations", self.wrap_generator(
            "enumeration.enumerate_triangulations",
            enumeration.enumerate_triangulations,
            lambda args: {f"classes.n{args[0].n}": 1}))

        simple = Triangulation.__dict__["from_simple_rotations"].__func__
        self.patch(Triangulation, "from_simple_rotations", classmethod(self.wrap(
            "triangulation.from_simple_rotations", simple)))
        for method in ("validate", "density"):
            self.patch(Triangulation, method, self.wrap(
                f"triangulation.{method}", Triangulation.__dict__[method]))

        for fn in ("develop", "check_cusp_parabolics", "generators"):
            self.patch(developing, fn, self.wrap(
                f"developing.{fn}", getattr(developing, fn)))

        self.patch(MoebiusMap, "__mul__", self.wrap(
            "modular.moebius_mul", MoebiusMap.__dict__["__mul__"]))
        self.patch(MoebiusMap, "__post_init__", self.wrap(
            "modular.moebius_init", MoebiusMap.__dict__["__post_init__"]))

        self.patch(geodesics, "systole_combinatorial", self.wrap(
            "geodesics.systole_combinatorial", geodesics.systole_combinatorial,
            lambda r: {"witnesses": len(r[1])}))
        self.patch(geodesics, "enumerate_geodesics_combinatorial", self.wrap(
            "geodesics.enumerate_geodesics_combinatorial",
            geodesics.enumerate_geodesics_combinatorial,
            lambda r: {"classes": len(r)}))
        self.patch(geodesics, "systole_matrix_group", self.wrap(
            "geodesics.systole_matrix_group", geodesics.systole_matrix_group,
            lambda r: {"states": r.states_explored,
                       "witnesses": len(r.witnesses)}))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path, t0):
        """Write every span, times relative to ``t0``, one JSON list a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "note": NOT_SEEN,
                                 "fields": ["run", "name", "start_s", "end_s",
                                            "parent", "item", "counts"]}))
            fh.write("\n")
            for name, start, end, parent, item, counts in self.spans:
                fh.write(json.dumps([self.run_id, name, start - t0, end - t0,
                                     parent, item, counts]))
                fh.write("\n")

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics from the spans of one traced timed region.

        A span's self time is its duration minus that of its child
        spans; ``bench.self_s`` is the traced wall time outside every
        top-level span, so the self times plus it add up to
        ``trace.wall_s``.
        """
        calls = Counter()
        self_s = defaultdict(float)
        by_item = defaultdict(float)
        counts = Counter()
        item_counts = Counter()
        children = defaultdict(float)
        top = 0.0
        for name, start, end, parent, item, cnt in self.spans:
            if parent >= 0:
                children[parent] += end - start
            else:
                top += end - start
        for i, (name, start, end, parent, item, cnt) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - children[i]
            by_item[name, item] += end - start
            for key, value in (cnt or {}).items():
                counts[name, key] += value
                item_counts[name, item, key] += value

        m = {}
        verify = "enumeration.verify_proposition"
        enum = "enumeration.enumerate_triangulations"
        for n in (10, 11, 12):
            m[f"{verify}.n{n}_s"] = by_item[verify, f"n{n}"]
        m["enumeration.self_s"] = sum(v for k, v in self_s.items()
                                      if k.startswith("enumeration."))
        m["enumeration.classes.n12"] = counts[enum, "classes.n12"]
        m["enumeration.classes_per_s.n12"] = _ratio(
            counts[enum, "classes.n12"], by_item[verify, "n12"])

        for name in ("triangulation.from_simple_rotations",
                     "triangulation.validate", "triangulation.density",
                     "developing.develop", "developing.check_cusp_parabolics",
                     "modular.moebius_mul", "modular.moebius_init",
                     "geodesics.systole_combinatorial"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for name in ("developing.generators",
                     "geodesics.enumerate_geodesics_combinatorial",
                     "geodesics.systole_matrix_group"):
            m[f"{name}.self_s"] = self_s[name]

        comb = "geodesics.systole_combinatorial"
        m[f"{comb}.witnesses"] = counts[comb, "witnesses"]
        walk = "geodesics.enumerate_geodesics_combinatorial"
        m[f"{walk}.classes"] = counts[walk, "classes"]

        sweep = "geodesics.systole_matrix_group"
        for group in ("gamma10", "alpha10"):
            m[f"{sweep}.{group}_s"] = by_item[sweep, group]
            m[f"{sweep}.{group}_states"] = item_counts[sweep, group, "states"]
        m[f"{sweep}.states"] = counts[sweep, "states"]
        m[f"{sweep}.states_per_s"] = _ratio(
            counts[sweep, "states"],
            sum(v for (name, _), v in by_item.items() if name == sweep))
        m[f"{sweep}.witnesses"] = counts[sweep, "witnesses"]

        m["trace.wall_s"] = wall_s
        m["bench.self_s"] = wall_s - top
        return m


def _ratio(num, den):
    return num / den if den else 0.0
