"""The benchmark's workloads: inputs, timed requests and answer checks.

Each workload has three parts.  ``setup`` builds the inputs outside the
timed region.  ``run`` issues the timed requests through the public
spheresys API, times each one with ``item(label, graphs)``, and keeps every
output in ``out``.  ``verify`` runs after the timed region and checks
the kept outputs against the literal values in ``expected.py``; it
returns the checks as ``(name, passed)`` pairs and the exact counts for
the drift report.

Library functions are called as attributes of their module
(``geodesics.systole_matrix_group``, not a name imported from it) so
that the traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import random
from collections import Counter

from spheresys import developing, enumeration, fixtures, geodesics, modular

import expected

# Reduced sizes keep the self-test fast; "full" is what the benchmark runs.
SIZES = {
    "full": {"density_n_max": 12, "sweep_bound": 18, "census_n": 10},
    "small": {"density_n_max": 8, "sweep_bound": 10, "census_n": 7},
}


def _classes(n):
    q = enumeration.EnumerationQuery(n)
    return list(enumeration.enumerate_triangulations(q))


def _passed(test):
    """Evaluate one answer check; a missing or malformed output fails it."""
    try:
        return bool(test())
    except (KeyError, TypeError, AttributeError, IndexError, ValueError):
        return False


# -- certify-n10: certified sweeps of the published 10-cusp groups -------

def certify_setup(size, seed):
    g, tree, edge = fixtures.named_development("ten-long")
    dev = developing.develop(g, tree, seed=edge)
    return {"bound": size["sweep_bound"],
            "diameter": geodesics.polygon_diameter_proxy(dev),
            "groups": {"gamma10": fixtures.GAMMA10,
                       "alpha10": fixtures.ALPHA10}}


def certify_run(inputs, item, out):
    for name, gens in inputs["groups"].items():
        with item(name):
            out[name] = geodesics.systole_matrix_group(
                gens, inputs["bound"], diameter=inputs["diameter"])


def certify_verify(inputs, out):
    bound = inputs["bound"]
    checks, counts = [], {}
    for name in inputs["groups"]:
        want = expected.SWEEPS[bound][name]
        rep = out.get(name)
        checks += [
            (f"{name}.classes", _passed(
                lambda: len(rep.witnesses) == want["classes"])),
            (f"{name}.traces", _passed(
                lambda: all(abs(w.trace) == want["trace"]
                            for w in rep.witnesses))),
            (f"{name}.exhausted", _passed(lambda: rep.frontier_exhausted)),
            (f"{name}.min_above", _passed(
                lambda: rep.min_trace_above_bound == want["min_above"])),
        ]
        if rep is not None:
            counts[f"certify.{name}.states"] = rep.states_explored
            counts[f"certify.{name}.witnesses"] = len(rep.witnesses)
    return checks, counts


# -- density-n4-12: the extremal-density proposition, cold ---------------

def density_setup(size, seed):
    return {"ns": list(range(4, size["density_n_max"] + 1))}


def density_run(inputs, item, out):
    for n in inputs["ns"]:
        with item(f"n{n}", graphs=expected.A000109[n]):
            out[n] = enumeration.verify_proposition(n)


def density_verify(inputs, out):
    checks, counts = [], {}
    for n in inputs["ns"]:
        rep = out.get(n)
        count = sum(1 for _ in enumeration.enumerate_triangulations(
            enumeration.EnumerationQuery(n)))
        checks += [
            (f"n{n}.classes", count == expected.A000109[n]),
            (f"n{n}.max_min_density", _passed(
                lambda: rep["regular_max_min_density"]
                == expected.MAX_MIN_DENSITY[n])),
            (f"n{n}.degenerate", _passed(lambda: rep["degenerate_ok"] is True)),
        ]
        counts[f"density.classes.n{n}"] = count
        if rep is not None:
            counts[f"density.extremal.n{n}"] = rep["extremal_count"]
    return checks, counts


# -- census-n10: every 10-vertex class on a seeded random tree -----------

def census_setup(size, seed):
    graphs = _classes(size["census_n"])
    rng = random.Random(seed)
    trees = [developing.SpanningTree.random_tree(g, rng) for g in graphs]
    return {"n": size["census_n"], "graphs": graphs, "trees": trees}


def census_run(inputs, item, out):
    for i, (g, tree) in enumerate(zip(inputs["graphs"], inputs["trees"])):
        with item(f"graph{i}"):
            dev = developing.develop(g, tree)
            parabolics = developing.check_cusp_parabolics(dev)
            _, witnesses = geodesics.systole_combinatorial(g)
        out[i] = (parabolics, witnesses)


def census_verify(inputs, out):
    n, graphs = inputs["n"], inputs["graphs"]
    checks = []
    for i in range(len(graphs)):
        parabolics, witnesses = out.get(i, (False, None))
        checks += [
            (f"graph{i}.parabolics", parabolics is True),
            (f"graph{i}.witness_traces", _passed(lambda: witnesses and all(
                abs(modular.lr_word_value(w.word).trace) == abs(w.trace)
                for w in witnesses))),
        ]
    systoles = Counter(int(abs(out[i][1][0].trace)) for i in out)
    codes = {g.canonical_code() for g in graphs}
    checks += [
        ("classes", len(graphs) == expected.A000109[n]),
        ("distinct_codes", len(codes) == len(graphs)),
        ("systole_histogram", dict(systoles) == expected.CENSUS_SYSTOLES[n]),
    ]
    counts = {f"census.systole_trace.{t}": k for t, k in systoles.items()}
    counts["census.witnesses"] = sum(len(out[i][1]) for i in out)
    return checks, counts


WORKLOADS = {
    "certify-n10": (certify_setup, certify_run, certify_verify),
    "density-n4-12": (density_setup, density_run, density_verify),
    "census-n10": (census_setup, census_run, census_verify),
}
