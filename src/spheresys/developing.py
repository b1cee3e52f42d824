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

from .modular import (Frac, INF, MoebiusMap, cusp_parabolic, maps_to,
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
        strays = sorted(self.edges.difference(range(g.n_edges)))
        if strays:
            raise ValueError(f"edge id {strays[0]} is not an edge of the triangulation")
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


def _frame(a: Frac, b: Frac, c: Frac) -> Tuple[int, int, int, int]:
    """The integer matrix sending infinity, 0 and 1 to a, b and c.

    Its columns are l*a and m*b, with a and b read as vectors (p, q),
    l = det(c, b) and m = det(a, c); l*a + m*b = det(a, b)*c.  Its
    determinant is l*m*det(a, b), which is +-1 exactly when (a, b, c) is
    a Farey triangle, and it sends -1 to the corner across (a, b) from c.
    """
    l = c.p * b.q - b.p * c.q
    m = a.p * c.q - c.p * a.q
    return (l * a.p, m * b.p, l * a.q, m * b.q)


def develop(g: Triangulation, tree: SpanningTree,
            seed: Optional[Tuple[int, int]] = None) -> Development:
    """Label every face corner with a Farey vertex and derive the group data.

    The seed is a pair (terminal tree edge, incident face).  The terminal
    endpoint becomes the cusp at infinity, its tree neighbor the cusp at
    0, and the third vertex of the seed face the cusp at 1; all other
    labels follow by crossing non-tree edges.  The frames of the faces
    (``_frame``) give the corner across each crossed edge, each face's
    Farey test and each side pairing.
    """
    g.require_valid()
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
    for d in queue:                     # breadth first: the queue grows
        e = g.edge_of_dart[d]
        if e in tree:
            continue
        dd = g.alpha[d]
        f = g.face_of_dart[dd]
        if face_done[f]:
            continue
        x, y = labels[d], labels[g.face_next(d)]
        fa, fb, fc, fd = _frame(x, y, labels[g.face_next(g.face_next(d))])
        third = Frac(fb - fa, fd - fc)          # the frame's image of -1
        pp = g.face_next(dd)
        qq = g.face_next(pp)
        set_label(dd, y)
        set_label(pp, x)
        set_label(qq, third)
        face_done[f] = True
        queue.extend([dd, pp, qq])
    if not all(face_done) or any(l is None for l in labels):
        raise AssertionError("development did not reach every face")

    # each face must be a Farey triangle
    for cycle in g.faces:
        a, b, c = (labels[d] for d in cycle)
        fa, fb, fc, fd = _frame(a, b, c)
        if abs(fa * fd - fb * fc) != 1:
            raise AssertionError(f"face {cycle}: ({a}, {b}, {c}) is not a "
                                 f"Farey triangle")

    # label-count invariant: distinct labels per vertex = tree degree
    per_vertex: Dict[int, set] = {w: set() for w in range(g.n_vertices)}
    for d in range(g.n_darts):
        per_vertex[g.origin[d]].add(labels[d])
    for w in range(g.n_vertices):
        if len(per_vertex[w]) != tree.tree_degree[w]:
            raise AssertionError(f"vertex {w} has {len(per_vertex[w])} "
                                 f"labels, not its tree degree "
                                 f"{tree.tree_degree[w]}")

    polygon = sorted(l for l in set(labels) if l != INF) + [INF]

    side_pairings: Dict[int, MoebiusMap] = {}
    for e in sorted(tree.edges):
        # the pairing sends d1's face (x1, y1, c1) onto the face across
        # (x2, y2) from d2's face (x2, y2, c2); the frame of that face is
        # the frame of (x2, y2, c2) after z -> -z, and the pairing is it
        # times the adjugate of the frame of (x1, y1, c1)
        d1, d2 = g.edges[e]
        x1, y1 = labels[d1], labels[g.face_next(d1)]
        x2, y2 = labels[g.face_next(d2)], labels[d2]
        fa, fb, fc, fd = _frame(x1, y1, labels[g.face_next(g.face_next(d1))])
        ga, gb, gc, gd = _frame(x2, y2, labels[g.face_next(g.face_next(d2))])
        m = mat_mul((-ga, gb, -gc, gd), (fd, -fb, -fc, fa))
        if not (maps_to(m, x1, x2) and maps_to(m, y1, y2)):
            raise AssertionError(f"the pairing does not send ({x1}, {y1}) "
                                 f"to ({x2}, {y2})")
        side_pairings[e] = MoebiusMap(*m)

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
    width d (the vertex degree) fixing the label p/q of one of w's
    corners: its canonical entries must be the closed form (1 - dpq,
    dp^2, -dq^2, 1 + dpq) of ``cusp_parabolic``, over denominator 1, up
    to sign.  Walking the rotation from that corner composes the side
    pairings met at tree edges, read from ``dev.side_pairings`` as
    ``generators`` returns them and inverted at an edge's second dart.
    The composite is kept as integers over a running denominator den,
    and each pairing must send the label of its corner to the next one
    (``maps_to``), so no map is built; it must be +-den times the cusp
    generator's integers or their adjugate (the generator's inverse).
    """
    g, labels = dev.g, dev.corner_labels
    for w in range(g.n_vertices):
        cusp = dev.cusp_generators[w]
        rot = g.vertex_darts[w]
        start = next((i for i, d in enumerate(rot)
                      if maps_to(cusp.quad, labels[d], labels[d])), None)
        if start is None or cusp.den != 1:
            return False
        p, q, width = labels[rot[start]].p, labels[rot[start]].q, g.degree[w]
        closed = (1 - width * p * q, width * p * p, -width * q * q,
                  1 + width * p * q)
        if cusp.quad not in (closed, tuple(-x for x in closed)):
            return False
        gamma, den = (1, 0, 0, 1), 1
        for d in rot[start:] + rot[:start]:
            nxt = g.sigma[d]
            e = g.edge_of_dart[d]
            if e in dev.tree:
                m = dev.side_pairings[e]
                quad = ((m.nd, -m.nb, -m.nc, m.na) if d == g.edges[e][1]
                        else m.quad)
                if not maps_to(quad, labels[d], labels[nxt]):
                    return False
                gamma, den = mat_mul(quad, gamma), m.den * den
            elif labels[nxt] != labels[d]:
                return False
        # a vertex with no tree edge leaves gamma the identity, which is
        # no cusp generator
        a, b, c, d = (den * x for x in cusp.quad)
        if gamma not in ((a, b, c, d), (-a, -b, -c, -d),
                         (d, -b, -c, a), (-d, b, c, -a)):
            return False
    return True


def render_polygon(dev: Development) -> str:
    """Upper-half-plane SVG of the developed Farey triangles, with the
    polygon's sides, which are the tree edges' sides, drawn thick."""
    width, height = 800, 400
    finite = [x.as_rational() for x in dev.polygon if x != INF]
    lo, hi = min(finite), max(finite)
    span = float(hi - lo)
    margin = 0.05 * span
    scale = width / (span + 2 * margin)

    def sx(x):
        return (float(x) - float(lo) + margin) * scale

    poly = dev.polygon                   # its sides close up through infinity
    sides = set(map(frozenset, zip(poly, poly[-1:] + poly)))

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
            emit(a, b, key in sides)
    parts.append("</svg>")
    return "\n".join(parts)
