"""Developing a triangulation into the Farey tessellation.

Given a sphere triangulation, a spanning tree, and a terminal seed edge,
assign a Farey label to every face corner by breadth-first development
across non-tree edges, read off the ideal fundamental polygon, and
derive side-pairing generators and cusp parabolics of the resulting
finite-index subgroup of the modular group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .modular import (Frac, INF, MoebiusMap, cusp_parabolic, farey_adjacent,
                      mat_mul)
from .triangulation import Triangulation

__all__ = [
    "SpanningTree",
    "Development",
    "develop",
    "generators",
    "check_cusp_parabolics",
    "render_polygon",
]


class SpanningTree:
    """A spanning subset of edges of a triangulation."""

    def __init__(self, g: Triangulation, edges: Sequence[int]):
        self.g = g
        self.edges = frozenset(edges)
        if len(self.edges) != g.n_vertices - 1:
            raise ValueError("a spanning tree needs exactly n-1 edges")
        # n - 1 edges that close no cycle span the n vertices
        if not all(map(_forest_grower(g), self.edges)):
            raise ValueError("edges do not span the triangulation")
        self.tree_degree = [0] * g.n_vertices
        for e in self.edges:
            for v in g.edge_endpoints(e):
                self.tree_degree[v] += 1

    def __contains__(self, e: int) -> bool:
        return e in self.edges

    def terminal_edges(self) -> List[int]:
        """Tree edges with an endpoint of tree-degree 1, sorted."""
        out = []
        for e in sorted(self.edges):
            u, v = self.g.edge_endpoints(e)
            if self.tree_degree[u] == 1 or self.tree_degree[v] == 1:
                out.append(e)
        return out

    @classmethod
    def from_vertex_pairs(cls, g: Triangulation, pairs) -> "SpanningTree":
        edges = []
        for u, v in pairs:
            matches = [e for e in range(g.n_edges)
                       if sorted(g.edge_endpoints(e)) == sorted((u, v))]
            if len(matches) != 1:
                raise ValueError(f"edge {u}-{v} is missing or ambiguous")
            edges.append(matches[0])
        return cls(g, edges)

    @classmethod
    def bfs_tree(cls, g: Triangulation) -> "SpanningTree":
        seen = {0}
        edges = []
        queue = [0]
        while queue:
            u = queue.pop(0)
            for d in g.vertex_darts[u]:
                w = g.head(d)
                if w not in seen:
                    seen.add(w)
                    edges.append(g.edge_of_dart[d])
                    queue.append(w)
        return cls(g, edges)

    @classmethod
    def random_tree(cls, g: Triangulation, rng) -> "SpanningTree":
        order = list(range(g.n_edges))
        rng.shuffle(order)
        return cls(g, list(filter(_forest_grower(g), order)))


def _forest_grower(g: Triangulation):
    """A test that accepts an edge, and keeps it, iff it closes no cycle
    with the edges accepted before it (union-find over the vertices);
    a loop closes one at once."""
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def accept(e):
        ru, rv = (find(v) for v in g.edge_endpoints(e))
        if ru == rv:
            return False
        parent[ru] = rv
        return True

    return accept


@dataclass
class Development:
    """Farey corner labels and the group data read from them.

    ``side_pairings`` is the one side-pairing table: ``generators``
    returns it and ``check_cusp_parabolics`` composes it.
    """

    g: Triangulation
    tree: SpanningTree
    seed: Tuple[int, int]                      # (terminal tree edge, face id)
    corner_labels: List[Frac]                  # indexed by dart
    polygon: List[Frac]                        # ideal vertices, infinity last
    side_pairings: Dict[int, MoebiusMap]       # tree edge -> pairing
    cusp_generators: Dict[int, MoebiusMap]     # vertex -> parabolic

    def face_labels(self, f: int) -> Tuple[Frac, ...]:
        return tuple(self.corner_labels[d] for d in self.g.faces[f])

    def side_label_pairs(self, e: int):
        """The two (origin-label, head-label) pairs of a tree edge."""
        d1, d2 = self.g.edges[e]
        g = self.g
        return ((self.corner_labels[d1], self.corner_labels[g.face_next(d1)]),
                (self.corner_labels[d2], self.corner_labels[g.face_next(d2)]))


def _farey_third(x: Frac, y: Frac, old: Optional[Frac]) -> Frac:
    """The Farey neighbor of edge (x, y) on the far side from `old`."""
    mediant = Frac(x.p + y.p, x.q + y.q)
    difference = Frac(x.p - y.p, x.q - y.q)
    candidates = [c for c in (mediant, difference) if c != old]
    if old is not None and len(candidates) != 1:
        raise AssertionError(f"ambiguous development across ({x}, {y})")
    third = candidates[0]
    assert farey_adjacent(third, x) and farey_adjacent(third, y)
    return third


def _pairing_from_pairs(src: Tuple[Frac, Frac], dst: Tuple[Frac, Frac]) -> MoebiusMap:
    """Integer unimodular map sending src[0] -> dst[0], src[1] -> dst[1]."""
    (x1, y1), (x2, y2) = src, dst
    a = (x1.p, y1.p, x1.q, y1.q)        # columns are the source fractions
    b = (x2.p, y2.p, x2.q, y2.q)
    det_a = a[0] * a[3] - a[1] * a[2]
    det_b = b[0] * b[3] - b[1] * b[2]
    assert abs(det_a) == 1 and abs(det_b) == 1
    if det_a != det_b:
        b = (-b[0], b[1], -b[2], b[3])
        det_b = -det_b
    # m = B * A^{-1} with A = (a0 a1; a2 a3)
    inv = (det_a * a[3], -det_a * a[1], -det_a * a[2], det_a * a[0])
    m = MoebiusMap(*mat_mul(b, inv))
    assert m(x1) == x2 and m(y1) == y2
    return m


def develop(g: Triangulation, tree: Optional[SpanningTree] = None,
            seed: Optional[Tuple[int, int]] = None) -> Development:
    """Label every face corner with a Farey vertex and derive the group data.

    The seed is a pair (terminal tree edge, incident face).  The terminal
    endpoint becomes the cusp at infinity, its tree neighbor the cusp at
    0, and the third vertex of the seed face the cusp at 1; all other
    labels follow by crossing non-tree edges, each new face being the
    Farey triangle adjacent across the crossed edge.
    """
    report = g.validate()
    if not report.ok:
        raise ValueError("invalid triangulation: " + "; ".join(report.diagnostics))
    if tree is None:
        tree = SpanningTree.bfs_tree(g)
    if tree.g is not g:
        raise ValueError("tree does not belong to this triangulation")
    if seed is None:
        e0 = tree.terminal_edges()[0]
        f0 = min(g.face_of_dart[d] for d in g.edges[e0])
        seed = (e0, f0)
    e0, f0 = seed
    if e0 not in tree:
        raise ValueError("seed edge must belong to the spanning tree")
    u, v = g.edge_endpoints(e0)
    if tree.tree_degree[u] == 1:
        v_inf = u
    elif tree.tree_degree[v] == 1:
        v_inf = v
    else:
        raise ValueError("seed edge must be terminal in the tree")
    seed_darts = [d for d in g.edges[e0] if g.face_of_dart[d] == f0]
    if not seed_darts:
        raise ValueError("seed face is not incident to the seed edge")
    d0 = seed_darts[0]

    labels: List[Optional[Frac]] = [None] * g.n_darts
    first_label: Dict[int, Frac] = {}

    def set_label(d, value):
        labels[d] = value
        first_label.setdefault(g.origin[d], value)

    p = g.face_next(d0)
    q = g.face_next(p)
    if g.origin[d0] == v_inf:
        set_label(d0, INF)
        set_label(p, Frac(0))
    else:
        set_label(d0, Frac(0))
        set_label(p, INF)
    set_label(q, Frac(1))

    face_done = [False] * g.n_faces
    face_done[f0] = True
    queue = [d0, p, q]
    while queue:
        d = queue.pop(0)
        e = g.edge_of_dart[d]
        if e in tree:
            continue
        dd = g.alpha[d]
        f = g.face_of_dart[dd]
        if face_done[f]:
            continue
        x, y = labels[d], labels[g.face_next(d)]
        old = labels[g.face_next(g.face_next(d))]
        third = _farey_third(x, y, old)
        pp = g.face_next(dd)
        qq = g.face_next(pp)
        set_label(dd, y)
        set_label(pp, x)
        set_label(qq, third)
        face_done[f] = True
        queue.extend([dd, pp, qq])
    assert all(face_done), "development did not reach every face"
    assert all(l is not None for l in labels)

    # each face must be a Farey triangle
    for cycle in g.faces:
        a, b, c = (labels[d] for d in cycle)
        assert farey_adjacent(a, b) and farey_adjacent(b, c) and farey_adjacent(a, c)

    # label-count invariant: distinct labels per vertex = tree degree
    per_vertex: Dict[int, set] = {w: set() for w in range(g.n_vertices)}
    for d in range(g.n_darts):
        per_vertex[g.origin[d]].add(labels[d])
    for w in range(g.n_vertices):
        assert len(per_vertex[w]) == tree.tree_degree[w]

    polygon = sorted(l for l in set(labels) if l != INF) + [INF]

    side_pairings: Dict[int, MoebiusMap] = {}
    for e in sorted(tree.edges):
        d1, d2 = g.edges[e]
        src = (labels[d1], labels[g.face_next(d1)])
        dst = (labels[g.face_next(d2)], labels[d2])
        side_pairings[e] = _pairing_from_pairs(src, dst)

    cusp_generators = {w: cusp_parabolic(first_label[w], g.degree[w])
                       for w in range(g.n_vertices)}

    return Development(g, tree, seed, labels, polygon, side_pairings,
                       cusp_generators)


def generators(dev: Development) -> List[MoebiusMap]:
    """The side pairings, one per tree edge.

    The tree's n-1 side pairings pair all 2(n-1) polygon sides and hence
    generate the group.
    """
    return [dev.side_pairings[e] for e in sorted(dev.side_pairings)]


def check_cusp_parabolics(dev: Development) -> bool:
    """Verify the exported cusp generators against the side pairings.

    At each vertex w, ``dev.cusp_generators[w]`` must be the parabolic of
    width d (the vertex degree) fixing the label of one of w's corners.
    Walking the rotation from that corner composes the side pairings met
    at tree edges, read from ``dev.side_pairings`` as ``generators``
    returns them and inverted at an edge's second dart; the composite
    must equal the cusp generator up to inversion.
    """
    g, labels = dev.g, dev.corner_labels
    for w in range(g.n_vertices):
        cusp = dev.cusp_generators[w]
        rot = g.vertex_darts[w]
        start = next((i for i, d in enumerate(rot)
                      if cusp(labels[d]) == labels[d]), None)
        if (start is None
                or cusp != cusp_parabolic(labels[rot[start]], g.degree[w])):
            return False
        gamma = None
        for d in rot[start:] + rot[:start]:
            nxt = g.sigma[d]
            e = g.edge_of_dart[d]
            if e in dev.tree:
                m = dev.side_pairings[e]
                if d == g.edges[e][1]:
                    m = m.inverse()
                if m(labels[d]) != labels[nxt]:
                    return False
                gamma = m if gamma is None else m * gamma
            elif labels[nxt] != labels[d]:
                return False
        if gamma not in (cusp, cusp.inverse()):
            return False
    return True


def render_polygon(dev: Development) -> str:
    """Upper-half-plane SVG of the developed Farey triangles."""
    width, height = 800, 400
    if not dev.polygon:
        raise ValueError("empty development")
    finite = [x.as_rational() for x in dev.polygon if x != INF]
    lo, hi = min(finite), max(finite)
    span = float(hi - lo) or 1.0
    margin = 0.05 * span
    scale = width / (span + 2 * margin)

    def sx(x):
        return (float(x) - float(lo) + margin) * scale

    tree_sides = set()
    for e in dev.side_pairings:
        for pair in dev.side_label_pairs(e):
            tree_sides.add(frozenset(pair))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<line x1="0" y1="{height - 2}" x2="{width}" y2="{height - 2}" '
             'stroke="black"/>']

    def emit(a: Frac, b: Frac, thick: bool):
        style = 'stroke="black" fill="none" ' + \
            ('stroke-width="3"' if thick else 'stroke-width="1"')
        if a == INF or b == INF:
            x = sx((b if a == INF else a).as_rational())
            parts.append(f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" '
                         f'y2="{height - 2}" {style}/>')
        else:
            xa, xb = sorted((sx(a.as_rational()), sx(b.as_rational())))
            r = (xb - xa) / 2
            parts.append(
                f'<path d="M {xa:.2f} {height - 2} A {r:.2f} {r:.2f} 0 0 1 '
                f'{xb:.2f} {height - 2}" {style}/>')

    drawn = set()
    for f in range(dev.g.n_faces):
        lab = dev.face_labels(f)
        for i in range(3):
            a, b = lab[i], lab[(i + 1) % 3]
            key = frozenset((a, b))
            if key in drawn:
                continue
            drawn.add(key)
            emit(a, b, key in tree_sides)
    parts.append("</svg>")
    return "\n".join(parts)
