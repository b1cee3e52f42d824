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

import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
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

def _split_lists(rot, v, i, j):
    """The neighbour lists that splitting v between positions i < j changes.

    The vertex keeps the neighbour arc rot[v][i..j] and a new last vertex
    takes the complementary arc; both also gain each other.  The shared
    arc endpoints see the pair in the orientation-consistent order.
    Returns {vertex: new tuple} for v, the new vertex, the two shared
    endpoints and the vertices of the complementary arc, which now see
    the new vertex in place of v; every other list is unchanged.
    """
    nbrs = rot[v]
    v2 = len(rot)
    changed = {v: (*nbrs[i:j + 1], v2), v2: (*nbrs[j:], *nbrs[:i + 1], v)}
    for w in nbrs[j + 1:] + nbrs[:i]:
        r = rot[w]
        p = r.index(v)
        changed[w] = r[:p] + (v2,) + r[p + 1:]
    for w, pair in ((nbrs[i], (v, v2)), (nbrs[j], (v2, v))):
        r = rot[w]
        p = r.index(v)
        changed[w] = r[:p] + pair + r[p + 1:]
    return changed


def _ranked_split(rot, degrees, v, i, j):
    """Split v at (i, j) if no contractible edge ranks below the new edge.

    Edges are ranked by the sorted degrees of their ends, then the
    sorted degrees of their two apexes.  ``degrees`` are the parent's.
    Returns None, without splitting when the degrees already decide, as
    soon as a contractible edge ranks strictly lower than the new edge
    {v, v2}.  Otherwise returns (changed, ties): the split's changed
    lists (see _split_lists) and the child's other contractible edges of
    equal rank as (a, b) pairs.
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
    changed = _split_lists(rot, v, i, j)
    ties = []
    for a, d in enumerate(deg):
        if d != lo:
            continue
        around = changed[a] if a in changed else rot[a]
        for t, b in enumerate(around):
            if (deg[b] > hi or (deg[b] == lo and b < a)
                    or (a in new_edge and b in new_edge)):
                continue
            key = (lo, deg[b], *sorted((deg[around[t - 1]],
                                        deg[around[(t + 1) % lo]])))
            if key > new_key or len(set(around).intersection(
                    changed[b] if b in changed else rot[b])) != 2:
                continue
            if key < new_key:
                return None
            ties.append((a, b))
    return changed, ties


def _edge_code(child, darts, edges, bound=None):
    """Least traversal code rooted at a dart of one of the given edges.

    ``darts`` is ``neighbor_darts(child)``.  The roots are the edges'
    darts leaving a lower-degree end, read with sigma and with its
    inverse, so the code is the same for edges that an isomorphism or a
    reflection maps onto each other.  Given ``bound``, returns a code
    below it, or None if there is none (see ``canonical_traversal``).
    """
    sigma, alpha, origin, index = darts
    roots = []
    for a, b in edges:
        if len(child[a]) <= len(child[b]):
            roots.append(index[a, b])
        if len(child[b]) <= len(child[a]):
            roots.append(index[b, a])
    return canonical_traversal(sigma, alpha, origin, roots, bound)


_COUNT_KEYS = ("children", "rejected_by_rank", "edge_codes",
               "sibling_duplicates", "classes")

# Per vertex count: (classes keyed by edge code, generation counts)
_CLASS_CACHE: Dict[int, Tuple[Dict[Tuple, List[Tuple]], Dict[str, int]]] = {}

# A level is generated on one worker per available CPU when its parent
# level has at least this many classes.  Medians of 5 builds on a 2-CPU
# host (Python 3.11), in this process -> on two forked workers: level 9
# (14 parents) 31 -> 45-51 ms, level 10 (50 parents) 97 -> 90-101 ms,
# level 11 (233 parents) 484 -> 297 ms, level 12 (1,249 parents)
# 2.35 -> 1.48 s.  Starting the pool costs about as much as level 10
# saves, so levels up to 10 stay in process.
PARALLEL_MIN_PARENTS = 200
# Contiguous slices per worker, so that the last slice to finish leaves
# the other workers idle only briefly (4 and 8 timed the same).
_SLICES_PER_WORKER = 4


def _children(size: int, part: slice):
    """Kept children of the parents ``part`` of level ``size``, with counts.

    Returns ([(code, child)], counts) in the order the parents and their
    splits are tried.  Two splits of one parent can give one class;
    only the first is kept and the rest count as sibling duplicates.
    """
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    kept = []
    for rot in list(_CLASS_CACHE[size][0].values())[part]:
        degrees = [len(r) for r in rot]
        codes = set()
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
                    changed, ties = ranked
                    child = [changed.get(a, r) for a, r in enumerate(rot)]
                    child.append(changed[size])  # the new vertex
                    darts = neighbor_darts(child)
                    code = _edge_code(child, darts, [(v, size)])
                    if ties and _edge_code(child, darts, ties, code):
                        continue
                    if code in codes:
                        counts["sibling_duplicates"] += 1
                        continue
                    codes.add(code)
                    kept.append((code, child))
    return kept, counts


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(parents: int) -> int:
    """Workers to fork for a level with this many parents; 1: none.

    One per available CPU for a large level, where the platform has
    fork.  Fork copies only the calling thread, so a lock that another
    thread holds would stay held in the workers: a process running
    other threads forks none, and neither does a daemonic process (a
    pool's worker), which may not have children.  The fork flushes the
    standard streams first, and a flush that fails there (a pipe whose
    reader has gone) would raise out of the fork, so then none either.
    """
    cpus = _available_cpus()
    if (parents < PARALLEL_MIN_PARENTS or cpus < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    import multiprocessing  # about 23 ms to import; small runs skip it
    if multiprocessing.current_process().daemon:
        return 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            return 1
        except (AttributeError, ValueError):  # None or closed: not flushed
            pass
    return cpus


def _merge(size: int, results):
    """One level from the (kept, counts) of its slices, in parent order."""
    nxt: Dict[Tuple, List[Tuple]] = {}
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    for kept, part_counts in results:
        for key, value in part_counts.items():
            counts[key] += value
        for code, child in kept:
            if code in nxt:
                raise ValueError(f"two parents with {size} vertices give one "
                                 "class; the canonical construction is broken")
            nxt[code] = child
    counts["classes"] = len(nxt)
    return nxt, counts


def _level(size: int):
    """The classes with size + 1 vertices and their counts (see _classes).

    With several workers (see _workers), contiguous slices of the
    parents run on forked workers, which inherit the parent level, so
    only slice bounds are sent; otherwise one slice of every parent runs
    here.  Slices are merged in parent order either way, so the level
    does not depend on the choice.
    """
    parents = len(_CLASS_CACHE[size][0])
    workers = _workers(parents)
    if workers == 1:
        return _merge(size, [_children(size, slice(parents))])
    import multiprocessing
    step = -(-parents // (_SLICES_PER_WORKER * workers))
    parts = [slice(s, s + step) for s in range(0, parents, step)]
    with multiprocessing.get_context("fork").Pool(
            min(workers, len(parts))) as pool:
        level = _merge(size, pool.imap(partial(_children, size), parts))
        pool.close()
        pool.join()
    return level


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
    - Each parent's children can be generated on their own.  A kept
      code determines the child with its new edge, and contracting that
      edge gives back the parent, so children of different parents have
      different codes and the level is the disjoint union of the
      parents' children (``_level`` runs large levels on several
      processes).  Two splits of one parent can still give isomorphic
      children; ``_children`` drops these sibling duplicates per
      parent.  The merge checks the argument instead of trusting it: a
      code that two parents both give raises ValueError.

    Returns the classes and the level's counts: children tried,
    children rejected by rank, children that reached an edge code (the
    rest of those lose on code), sibling duplicates and classes.
    """
    if 4 not in _CLASS_CACHE:
        k4 = [tuple(r) for r in tetrahedron().simple_neighbor_lists()]
        _CLASS_CACHE[4] = ({_edge_code(k4, neighbor_darts(k4), [(0, 1)]): k4},
                           dict.fromkeys(_COUNT_KEYS, 0) | {"classes": 1})
    built = max(s for s in _CLASS_CACHE if s <= n)
    for size in range(built, n):
        _CLASS_CACHE[size + 1] = _level(size)
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
    D and the number of classes attaining it.  Every edge of a simple
    triangulation has density at least 9, so each class has a closed
    geodesic of |trace| at most its least density minus 2
    (``Triangulation.a_priori_trace_bound``), hence at most D - 2.  The
    dual walk at bound D - 2 on each extremal class gives its exact
    systole trace and witness count ("extremal_systoles", in key
    order); "extremal_ok" holds when every one has trace exactly D - 2,
    so that the largest systole over simple triangulations with n
    vertices is 2 arccosh((D - 2) / 2).  The degenerate cases by the
    dual walk on constructed maps with loops, duplicate edges or
    low-degree vertices: each must have a closed geodesic of |trace| at
    most D - 2, and its row in "degenerate_checks" holds its exact
    systole trace (None if the walk finds no class).  The report's
    "generation" entry holds the enumeration's counts for level n (see
    ``_classes``).
    """
    if not 4 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be between 4 and {MAX_VERTICES}")
    value, extremal = max_min_density(EnumerationQuery(n))

    def systole(t):
        """(least |trace| up to D - 2 or None, witnesses attaining it)."""
        witnesses = geodesics.enumerate_geodesics_combinatorial(t, value - 2)
        best = min((int(abs(w.trace)) for w in witnesses), default=None)
        return best, sum(1 for w in witnesses if abs(w.trace) == best)

    systoles = [systole(t) for t in extremal]
    checks = []

    def check(name, t):
        best = systole(t)[0]
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
        "extremal_systoles": systoles,
        "extremal_ok": all(trace == value - 2 for trace, _ in systoles),
        "generation": dict(_classes(n)[1]),
        "degenerate_ok": all(ok for _, _, ok in checks),
        "degenerate_checks": checks,
    }
