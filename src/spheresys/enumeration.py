"""Isomorphism-free generation of simple sphere triangulations.

Generation walks the vertex-splitting tree rooted at the tetrahedron:
every simple sphere triangulation (minimum degree 3) arises from the
tetrahedron by repeated vertex splits, and duplicates are rejected by a
minimal-traversal-code canonical form.  A slow flip-closure generator
doubles as an independent correctness oracle for small vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .triangulation import (Triangulation, canonical_traversal,
                            neighbor_darts, tetrahedron)

__all__ = [
    "EnumerationQuery",
    "ResourceLimitError",
    "enumerate_triangulations",
    "naive_enumerate_count",
    "max_min_density",
    "verify_proposition",
]

# A000109: simple sphere triangulations (3-connected planar) by vertices
KNOWN_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}

MAX_VERTICES = 12


class ResourceLimitError(RuntimeError):
    """Raised when a query exceeds the supported desk-scale range."""


@dataclass(frozen=True)
class EnumerationQuery:
    n: int
    min_degree: int = 3

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 vertices")
        if self.min_degree < 1:
            raise ValueError("min_degree must be >= 1")


# -- vertex splitting ------------------------------------------------------

def _split_vertex(rot, v, i, j):
    """Split vertex v between rotation positions i < j; returns new lists.

    The vertex keeps the neighbour arc rot[v][i..j] and a new last vertex
    takes the complementary arc; both also gain each other.  The shared
    arc endpoints see the pair in the orientation-consistent order.
    """
    nbrs = rot[v]
    k = len(nbrs)
    a_i, a_j = nbrs[i], nbrs[j]
    v2 = len(rot)
    new = [list(r) for r in rot]
    arc1 = list(nbrs[i:j + 1])
    arc2 = list(nbrs[j:]) + list(nbrs[:i + 1])
    new[v] = arc1 + [v2]
    new.append(arc2 + [v])
    for t in range(j + 1, k):
        w = nbrs[t]
        new[w][new[w].index(v)] = v2
    for t in range(0, i):
        w = nbrs[t]
        new[w][new[w].index(v)] = v2
    p = new[a_i].index(v)
    new[a_i][p:p + 1] = [v, v2]
    p = new[a_j].index(v)
    new[a_j][p:p + 1] = [v2, v]
    return [tuple(r) for r in new]


def _k4_rotations():
    return [tuple(r) for r in tetrahedron().simple_neighbor_lists()]


_CLASS_CACHE: Dict[int, Dict[Tuple, List[Tuple]]] = {}


def _classes(n: int) -> Dict[Tuple, List[Tuple]]:
    """All simple triangulation classes with n vertices, keyed by code."""
    if 4 not in _CLASS_CACHE:
        k4 = _k4_rotations()
        _CLASS_CACHE[4] = {canonical_traversal(*neighbor_darts(k4))[0]: k4}
    size = max(s for s in _CLASS_CACHE if s <= n)
    while size < n:
        nxt: Dict[Tuple, List[Tuple]] = {}
        for rot in _CLASS_CACHE[size].values():
            for v in range(size):
                k = len(rot[v])
                for i in range(k):
                    for j in range(i + 1, k):
                        child = _split_vertex(rot, v, i, j)
                        code = canonical_traversal(*neighbor_darts(child))[0]
                        if code not in nxt:
                            nxt[code] = child
        size += 1
        _CLASS_CACHE[size] = nxt
    return _CLASS_CACHE[n]


def enumerate_triangulations(q: EnumerationQuery) -> Iterator[Triangulation]:
    """One representative per isomorphism class, deterministically ordered."""
    if q.n > MAX_VERTICES:
        raise ResourceLimitError(
            f"simple triangulations enumerated up to {MAX_VERTICES} vertices")
    classes = _classes(q.n)
    for code in sorted(classes):
        rot = classes[code]
        if min(len(r) for r in rot) < q.min_degree:
            continue
        t = Triangulation.from_simple_rotations(rot)
        assert t.validate().ok
        yield t


# -- independent oracle --------------------------------------------------

def naive_enumerate_count(n: int) -> int:
    """Count simple triangulation classes by diagonal-flip closure.

    Independent of the splitting generator and of the canonical code:
    starts from one triangulation with n vertices, closes under diagonal
    flips (the flip graph of simple sphere triangulations is connected),
    and counts classes with graph-isomorphism testing.  For simple
    sphere triangulations graph isomorphism agrees with map isomorphism
    up to reflection, so the counts are comparable.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    rot = _k4_rotations()
    while len(rot) < n:
        rot = _split_vertex(rot, 0, 0, 1)
    start = Triangulation.from_simple_rotations(rot)

    def to_graph(t):
        g = nx.Graph()
        for e in range(t.n_edges):
            g.add_edge(*t.edge_endpoints(e))
        return g

    reps: List[Tuple[Triangulation, "nx.Graph", str]] = []

    def find(t):
        g = to_graph(t)
        h = nx.weisfeiler_lehman_graph_hash(g, iterations=4)
        for _, g2, h2 in reps:
            if h == h2 and GraphMatcher(g, g2).is_isomorphic():
                return True
        reps.append((t, g, h))
        return False

    queue = [start]
    find(start)
    while queue:
        t = queue.pop()
        for e in range(t.n_edges):
            f = t.flip(e)
            if f is not None and not find(f):
                queue.append(f)
    return len(reps)


# -- density extremes ----------------------------------------------------

def max_min_density(q: EnumerationQuery):
    """Largest min edge density over the class, with all attaining maps."""
    best = None
    extremal = []
    for t in enumerate_triangulations(q):
        m = t.density().min_density
        if best is None or m > best:
            best = m
            extremal = [t]
        elif m == best:
            extremal.append(t)
    return best, extremal


EXPECTED_MAX_MIN = {4: 9, 5: 12, 6: 16, 7: 16, 8: 18, 9: 20, 10: 20, 11: 20, 12: 25}


def verify_proposition(n: int) -> dict:
    """Exhaustive check of the extremal-density statement for n cusps.

    Covers the regular case by enumeration and the degenerate cases by
    pattern certificates on constructed low-degree families.
    """
    from .triangulation import (bipyramid_with_duplicates, example_loop)

    if not 4 <= n <= 12:
        raise ValueError("n must be between 4 and 12")
    value, extremal = max_min_density(EnumerationQuery(n))
    report = {
        "n": n,
        "regular_max_min_density": value,
        "expected": EXPECTED_MAX_MIN[n],
        "regular_ok": value == EXPECTED_MAX_MIN[n],
        "extremal_count": len(extremal),
        "degenerate_ok": True,
        "degenerate_checks": [],
    }
    # Degenerate families with n vertices: the best certified trace
    # (from a low-density edge between distinct cusps, or from a
    # structural pattern certificate) must undercut value - 2, the
    # trace implied by the regular-class density bound.
    def best_trace(t):
        report = t.density()
        density_traces = [report.densities[e] - 2 for e in range(t.n_edges)
                          if not t.is_loop(e) and report.densities[e] >= 5]
        cert_traces = [c.trace_bound for c in t.pattern_certificates()]
        return min(density_traces + cert_traces)

    checks = []
    b = bipyramid_with_duplicates(n - 2)
    checks.append(("bipyramid", best_trace(b), best_trace(b) <= value - 2))
    if n == 4:
        t = example_loop()
        checks.append(("loop-with-pendant", best_trace(t), best_trace(t) <= value - 2))
        inner = [f for f in range(t.n_faces)
                 if sorted(t.face_vertices(f)) == [0, 0, 1]]
        s = t.stellate(inner)
        checks.append(("stellated-loop", best_trace(s), best_trace(s) <= value - 2))
    report["degenerate_checks"] = checks
    report["degenerate_ok"] = all(ok for _, _, ok in checks)
    report["ok"] = report["regular_ok"] and report["degenerate_ok"]
    return report
