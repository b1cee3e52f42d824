"""Isomorphism-free generation of simple sphere triangulations.

Generation walks the vertex-splitting tree rooted at the tetrahedron
along McKay's canonical construction path: every simple sphere
triangulation other than K4 has a contractible edge (Steinitz-
Rademacher), so it arises from one with a vertex fewer by a vertex
split, and a split is kept only if contracting its new edge is the
canonical way to undo it.  Contraction of an edge in the canonical
orbit determines the parent class, so no class is reached from two
parents.  The edge code that decides canonicity is also a complete
class invariant, so it keys the kept class and no class gets a second
code (``_classes`` gives the argument in full).  The independent
correctness oracle for small vertex counts, a slow flip-closure count,
lives in tests/test_enumeration.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from . import geodesics
from .geodesics import ResourceLimitError
from .triangulation import (Triangulation, bipyramid_with_duplicates,
                            canonical_traversal, example_loop,
                            neighbor_darts, tetrahedron)

__all__ = [
    "EnumerationQuery",
    "enumerate_triangulations",
    "max_min_density",
    "neighbor_lists",
    "verify_proposition",
]

MAX_VERTICES = 12


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
    a_i, a_j = nbrs[i], nbrs[j]
    v2 = len(rot)
    new = [list(r) for r in rot]
    new[v] = [*nbrs[i:j + 1], v2]
    new.append([*nbrs[j:], *nbrs[:i + 1], v])
    for w in nbrs[j + 1:] + nbrs[:i]:
        new[w][new[w].index(v)] = v2
    p = new[a_i].index(v)
    new[a_i][p:p + 1] = [v, v2]
    p = new[a_j].index(v)
    new[a_j][p:p + 1] = [v2, v]
    return [tuple(r) for r in new]


def _ranked_split(rot, degrees, v, i, j):
    """Split v at (i, j) if no contractible edge ranks below the new edge.

    Edges are ranked by the sorted degrees of their ends, then the
    sorted degrees of their two apexes.  ``degrees`` are the parent's.
    Returns None, without building the child when the degrees already
    decide, as soon as a contractible edge ranks strictly lower than the
    new edge {v, v2}.  Otherwise returns (child, ties), where ties are
    the child's other contractible edges of equal rank as (a, b) pairs.
    """
    nbrs = rot[v]
    k = len(nbrs)
    v2 = len(rot)
    deg = degrees + [k - j + i + 2]
    deg[v] = j - i + 2
    deg[nbrs[i]] += 1
    deg[nbrs[j]] += 1
    lo, hi = sorted((deg[v], deg[v2]))
    if lo > min(deg):
        return None  # every vertex has a contractible edge (see _classes)
    new_key = (lo, hi, *sorted((deg[nbrs[i]], deg[nbrs[j]])))
    new_edge = (v, v2)
    child = _split_vertex(rot, v, i, j)
    ties = []
    for a, around in enumerate(child):
        if deg[a] != lo:
            continue
        for t, b in enumerate(around):
            if (deg[b] > hi or (deg[b] == lo and b < a)
                    or (a in new_edge and b in new_edge)):
                continue
            apexes = (around[t - 1], around[(t + 1) % lo])
            key = (lo, deg[b], *sorted((deg[apexes[0]], deg[apexes[1]])))
            if key > new_key or len(set(around).intersection(child[b])) != 2:
                continue
            if key < new_key:
                return None
            ties.append((a, b))
    return child, ties


def _edge_code(child, darts, edges):
    """Least traversal code rooted at a dart of one of the given edges.

    ``darts`` is ``neighbor_darts(child)``.  The roots are the edges'
    darts leaving a lower-degree end, read with sigma and with its
    inverse, so the code is the same for edges that an isomorphism or a
    reflection maps onto each other.
    """
    sigma, alpha, origin, index = darts
    roots = []
    for a, b in edges:
        if len(child[a]) <= len(child[b]):
            roots.append(index[a, b])
        if len(child[b]) <= len(child[a]):
            roots.append(index[b, a])
    return canonical_traversal(sigma, alpha, origin, roots)


_COUNT_KEYS = ("children", "rejected_by_rank", "edge_codes",
               "sibling_duplicates", "classes")

# Per vertex count: (classes keyed by edge code, generation counts)
_CLASS_CACHE: Dict[int, Tuple[Dict[Tuple, List[Tuple]], Dict[str, int]]] = {}


def _classes(n: int) -> Tuple[Dict[Tuple, List[Tuple]], Dict[str, int]]:
    """All simple triangulation classes with n vertices, keyed by edge code.

    Canonical construction path (McKay 1998): a child of a vertex split
    is kept only if contracting its new edge {v, v2} is the canonical
    way to undo it.  With at least 5 vertices, an edge ab is
    contractible (its contraction is again a simple triangulation) iff a
    and b have exactly 2 common neighbours, the apexes of its two faces.
    The argument:

    - Every simple triangulation other than K4 has a contractible edge
      (Steinitz-Rademacher), and contracting one undoes a split of the
      contracted vertex, so every class with n vertices is a child of a
      class with n - 1 vertices.  In fact every vertex u has a
      contractible edge: ux is contractible unless x ends a chord of u's
      link cycle (an edge between two non-consecutive neighbours of u),
      and chords do not cross, so at least two link vertices end none.
      So the least rank starts with the minimum degree.
    - The canonical edges of a child are its contractible edges of least
      rank (see _ranked_split) and, among those, of least edge code (see
      _edge_code).  Both depend only on the isomorphism class, so the
      canonical edges form one orbit under automorphisms and reflection,
      and contracting any of them gives the same parent class.  A class
      is therefore accepted only from that parent's representative.
    - A kept child's code, its new edge's edge code, is beaten by no
      tie, so it is the least edge code over the contractible edges of
      least rank, a set that depends only on the class.  The traversal
      reaches every dart, so the code determines the map and keys the
      class (K4's edges form one orbit, so any of them gives its key).
      Two splits of one parent can still give isomorphic children; no
      class comes from two parents, so a code already in the level
      marks such a sibling duplicate.

    Returns the classes and the level's counts: children tried,
    children rejected by rank, children that reached an edge code (the
    rest of those lose on code), sibling duplicates and classes.
    """
    if 4 not in _CLASS_CACHE:
        k4 = [tuple(r) for r in tetrahedron().simple_neighbor_lists()]
        _CLASS_CACHE[4] = ({_edge_code(k4, neighbor_darts(k4), [(0, 1)]): k4},
                           dict.fromkeys(_COUNT_KEYS, 0) | {"classes": 1})
    size = max(s for s in _CLASS_CACHE if s <= n)
    while size < n:
        nxt: Dict[Tuple, List[Tuple]] = {}
        counts = dict.fromkeys(_COUNT_KEYS, 0)
        for rot in _CLASS_CACHE[size][0].values():
            degrees = [len(r) for r in rot]
            for v in range(size):
                k = degrees[v]
                for i in range(k):
                    for j in range(i + 1, k):
                        counts["children"] += 1
                        ranked = _ranked_split(rot, degrees, v, i, j)
                        if ranked is None:
                            counts["rejected_by_rank"] += 1
                            continue
                        counts["edge_codes"] += 1
                        child, ties = ranked
                        darts = neighbor_darts(child)
                        # the split adds vertex number `size`
                        code = _edge_code(child, darts, [(v, size)])
                        if ties and _edge_code(child, darts, ties) < code:
                            continue
                        if code in nxt:
                            counts["sibling_duplicates"] += 1
                            continue
                        nxt[code] = child
        size += 1
        _CLASS_CACHE[size] = (nxt, counts | {"classes": len(nxt)})
    return _CLASS_CACHE[n]


def neighbor_lists(q: EnumerationQuery) -> Iterator[List[Tuple]]:
    """Neighbour lists of the classes that q admits, in key order."""
    if q.n > MAX_VERTICES:
        raise ResourceLimitError(
            f"simple triangulations enumerated up to {MAX_VERTICES} vertices")
    for _, rot in sorted(_classes(q.n)[0].items()):
        if min(len(r) for r in rot) >= q.min_degree:
            yield rot


def enumerate_triangulations(q: EnumerationQuery) -> Iterator[Triangulation]:
    """One representative per isomorphism class, deterministically ordered."""
    for rot in neighbor_lists(q):
        yield Triangulation.from_simple_rotations(rot)


# -- density extremes ----------------------------------------------------

def max_min_density(q: EnumerationQuery):
    """Largest min edge density over the class, with all attaining maps.

    Densities are read off the neighbour lists; only attaining maps are built.
    """
    mins = [(min(len(nbrs) * len(rot[w]) for nbrs in rot for w in nbrs), rot)
            for rot in neighbor_lists(q)]
    best = max((m for m, _ in mins), default=None)
    return best, [Triangulation.from_simple_rotations(rot)
                  for m, rot in mins if m == best]


def verify_proposition(n: int) -> dict:
    """Measurements behind the extremal-density statement for n cusps.

    The regular case by enumeration: the largest minimum edge density
    D and the number of classes attaining it.  The degenerate cases by
    the dual walk on constructed maps with loops, duplicate edges or
    low-degree vertices: each must have a closed geodesic of |trace| at
    most D - 2, and its row in "degenerate_checks" holds its exact
    systole trace (None if the walk finds no class).  The report's
    "generation" entry holds the enumeration's counts for level n (see
    ``_classes``).
    """
    if not 4 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be between 4 and {MAX_VERTICES}")
    value, extremal = max_min_density(EnumerationQuery(n))
    checks = []

    def check(name, t):
        witnesses = geodesics.enumerate_geodesics_combinatorial(t, value - 2)
        best = min((int(abs(w.trace)) for w in witnesses), default=None)
        checks.append((name, best, best is not None))

    check("bipyramid", bipyramid_with_duplicates(n - 2))
    if n == 4:
        t = example_loop()
        check("loop-with-pendant", t)
        inner = [f for f in range(t.n_faces)
                 if sorted(t.face_vertices(f)) == [0, 0, 1]]
        check("stellated-loop", t.stellate(inner))
    return {
        "n": n,
        "regular_max_min_density": value,
        "extremal_count": len(extremal),
        "generation": dict(_classes(n)[1]),
        "degenerate_ok": all(ok for _, _, ok in checks),
        "degenerate_checks": checks,
    }
