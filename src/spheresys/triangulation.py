"""Dart-based combinatorial maps for sphere triangulations.

A triangulation is stored as a set of darts (half-edges) with two
permutations: ``sigma`` rotates a dart to the next one around its origin
vertex, and ``alpha`` is the fixed-point-free involution pairing darts
into edges.  Faces are the orbits of d -> sigma[alpha[d]].  Loops and
duplicate edges are allowed; every incidence counts separately towards
vertex degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Triangulation",
    "ValidationReport",
    "DensityReport",
    "tetrahedron",
    "octahedron",
    "icosahedron",
    "bipyramid_with_duplicates",
    "example_loop",
    "neighbor_darts",
    "canonical_traversal",
]


@dataclass
class ValidationReport:
    ok: bool
    diagnostics: List[str]
    degrees: List[int]
    regular: bool
    has_loops: bool
    has_duplicate_edges: bool


@dataclass
class DensityReport:
    densities: List[int]          # indexed by edge id
    min_density: int
    witness_edge: int


class Triangulation:
    """An orientable combinatorial map, intended to be a sphere triangulation."""

    def __init__(self, sigma: Sequence[int], alpha: Sequence[int], origin: Sequence[int]):
        n = len(sigma)
        if len(alpha) != n or len(origin) != n:
            raise ValueError("sigma, alpha, origin must have equal length")
        self.sigma = tuple(sigma)
        self.alpha = tuple(alpha)
        self.origin = tuple(origin)
        self._check_structure()
        self._build_derived()

    # -- construction -------------------------------------------------

    @classmethod
    def from_rotation_lists(cls, rotations: Sequence[Sequence[int]],
                            twins: Sequence[Tuple[int, int]]) -> "Triangulation":
        """Build from per-vertex dart rotation lists and twin pairs."""
        if not rotations or not all(rotations):
            raise ValueError("every vertex needs at least one dart")
        n = sum(len(r) for r in rotations)

        def check(d):
            if not 0 <= d < n:
                raise ValueError(f"dart {d} out of range: {n} darts are listed")

        sigma = [0] * n
        origin = [0] * n
        for v, rot in enumerate(rotations):
            for i, d in enumerate(rot):
                check(d)
                sigma[d] = rot[(i + 1) % len(rot)]
                origin[d] = v
        alpha = [0] * n
        for a, b in twins:
            check(a)
            check(b)
            alpha[a] = b
            alpha[b] = a
        return cls(sigma, alpha, origin)

    @classmethod
    def from_simple_rotations(cls, neighbors: Sequence[Sequence[int]]) -> "Triangulation":
        """Build from per-vertex cyclic neighbour lists (simple graphs only)."""
        return cls(*neighbor_darts(neighbors))

    @classmethod
    def from_oriented_faces(cls, faces: Sequence[Tuple[int, int, int]]) -> "Triangulation":
        """Build from oriented triangles: each directed edge once, and its reverse."""
        face_of_dart = {}
        for f in faces:
            if len(f) != 3:
                raise ValueError(f"face {tuple(f)} has {len(f)} vertices, not 3")
            for i in range(3):
                key = (f[i], f[(i + 1) % 3])
                if key in face_of_dart:
                    raise ValueError(f"directed edge {key} appears twice; orientation inconsistent")
                face_of_dart[key] = (f[(i + 2) % 3],)
        for u, v in face_of_dart:
            if (v, u) not in face_of_dart:
                raise ValueError(f"directed edge {(u, v)} has no reverse; the faces do not close up")
        ids = {key: i for i, key in enumerate(sorted(face_of_dart))}
        n = len(ids)
        sigma = [0] * n
        alpha = [0] * n
        origin = [0] * n
        for (u, v), i in ids.items():
            (w,) = face_of_dart[(u, v)]
            sigma[i] = ids[(u, w)]
            alpha[i] = ids[(v, u)]
            origin[i] = u
        return cls(sigma, alpha, origin)

    def _check_structure(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise ValueError("sigma is not a permutation of the darts")
        for d in range(n):
            if self.alpha[d] == d or self.alpha[self.alpha[d]] != d:
                raise ValueError("alpha is not a fixed-point-free involution")
            if self.origin[self.sigma[d]] != self.origin[d]:
                raise ValueError("sigma must preserve dart origins")

    def _build_derived(self):
        n = len(self.sigma)
        self.n_darts = n
        nv = max(self.origin) + 1 if n else 0
        self.n_vertices = nv
        self.vertex_darts: List[List[int]] = [[] for _ in range(nv)]
        seen = [False] * n
        for d in range(n):
            if not seen[d]:
                v = self.origin[d]
                if self.vertex_darts[v]:
                    raise ValueError(f"vertex {v}'s darts form more than one rotation cycle")
                x = d
                while not seen[x]:
                    seen[x] = True
                    self.vertex_darts[v].append(x)
                    x = self.sigma[x]
        for v, rot in enumerate(self.vertex_darts):
            if not rot:
                raise ValueError(f"vertex {v} has no darts")
        self.degree = [len(rot) for rot in self.vertex_darts]
        # edges
        self.edge_of_dart = [0] * n
        self.edges: List[Tuple[int, int]] = []
        for d in range(n):
            if d < self.alpha[d]:
                e = len(self.edges)
                self.edges.append((d, self.alpha[d]))
                self.edge_of_dart[d] = e
                self.edge_of_dart[self.alpha[d]] = e
        self.n_edges = len(self.edges)
        # faces: orbits of d -> sigma[alpha[d]]
        self.face_of_dart = [-1] * n
        self.faces: List[List[int]] = []
        for d in range(n):
            if self.face_of_dart[d] == -1:
                f = len(self.faces)
                cycle = []
                x = d
                while self.face_of_dart[x] == -1:
                    self.face_of_dart[x] = f
                    cycle.append(x)
                    x = self.sigma[self.alpha[x]]
                self.faces.append(cycle)
        self.n_faces = len(self.faces)

    # -- elementary queries -------------------------------------------

    def head(self, d: int) -> int:
        return self.origin[self.alpha[d]]

    def edge_endpoints(self, e: int) -> Tuple[int, int]:
        d1, d2 = self.edges[e]
        return (self.origin[d1], self.origin[d2])

    def face_next(self, d: int) -> int:
        return self.sigma[self.alpha[d]]

    def face_vertices(self, f: int) -> List[int]:
        return [self.origin[d] for d in self.faces[f]]

    def is_loop(self, e: int) -> bool:
        u, v = self.edge_endpoints(e)
        return u == v

    def loop_edges(self) -> List[int]:
        return [e for e in range(self.n_edges) if self.is_loop(e)]

    def rotations(self) -> List[List[int]]:
        return [list(rot) for rot in self.vertex_darts]

    def simple_neighbor_lists(self) -> List[List[int]]:
        """Per-vertex cyclic neighbour lists; requires a simple graph."""
        report = self.validate()
        if report.has_loops or report.has_duplicate_edges:
            raise ValueError("graph is not simple")
        return [[self.head(d) for d in rot] for rot in self.vertex_darts]

    # -- validation ----------------------------------------------------

    def validate(self) -> ValidationReport:
        diagnostics = []
        for f, cycle in enumerate(self.faces):
            if len(cycle) != 3:
                diagnostics.append(f"non-triangular face {f} with {len(cycle)} sides")
        # each traversal from the least unvisited dart spans one component
        unvisited = set(range(self.n_darts))
        components = 0
        while unvisited:
            components += 1
            unvisited.difference_update(
                _root_code(self.sigma, self.alpha, min(unvisited))[1])
        if components != 1:
            diagnostics.append(f"{components} connected components; a sphere has 1")
        euler = self.n_vertices - self.n_edges + self.n_faces
        if euler != 2:
            diagnostics.append(f"euler characteristic {euler} != 2")
        has_loops = bool(self.loop_edges())
        has_dups = len({tuple(sorted(self.edge_endpoints(e)))
                        for e in range(self.n_edges)}) != self.n_edges
        return ValidationReport(
            ok=not diagnostics,
            diagnostics=diagnostics,
            degrees=list(self.degree),
            has_loops=has_loops,
            has_duplicate_edges=has_dups,
            regular=(not diagnostics and min(self.degree) >= 3
                     and not has_loops and not has_dups),
        )

    def require_valid(self) -> None:
        """Raise ValueError naming the diagnostics unless ``validate`` is ok."""
        report = self.validate()
        if not report.ok:
            raise ValueError("invalid triangulation: " + "; ".join(report.diagnostics))

    # -- densities ------------------------------------------------------

    def density(self) -> DensityReport:
        densities = []
        for e in range(self.n_edges):
            u, v = self.edge_endpoints(e)
            densities.append(self.degree[u] * self.degree[v])
        witness = min(range(self.n_edges), key=lambda e: densities[e])
        return DensityReport(densities, densities[witness], witness)

    def a_priori_trace_bound(self) -> Optional[int]:
        """Least |trace| of a density walk, or None if there is none.

        A non-loop edge of density D = m1 m2 >= 5 joins two cusps whose
        parabolics P1, P2 give |trace(P1 P2^-1)| = D - 2 (see
        ``parabolic_product_trace``): the walk L R^(m1-2) L R^(m2-2) unless
        an end has degree 1, where R^-1 makes the word no walk.  So the
        least such trace bounds the systole's from above, and the dual
        walk finds a class there.  It equals the systole's on every simple
        class with up to 10 vertices and on the fixture graphs; a map with
        loops or duplicate edges can have shorter walks.

        A valid map with n >= 4 vertices has such an edge.  The non-loop
        edges span the vertices.  Were each non-loop density at most 4,
        either a vertex of degree >= 3 has only degree-1 neighbours, so
        the map is a star with centre degree 5n - 11 <= 4, or every
        degree is at most 2, so 6n - 12 <= 2n (2E = 6n - 12).  Either way
        n <= 3.  The valid maps on 6 darts have degrees (2, 2, 2) and
        (1, 1, 4): neither has a bound, and both have least trace 6.
        """
        densities = self.density().densities
        return min((densities[e] - 2 for e in range(self.n_edges)
                    if not self.is_loop(e) and densities[e] >= 5),
                   default=None)

    # -- surgery --------------------------------------------------------

    def stellate(self, face_ids: Sequence[int]) -> "Triangulation":
        """Insert a degree-3 vertex into each selected face."""
        face_ids = list(face_ids)
        if len(set(face_ids)) != len(face_ids):
            raise ValueError("face ids must be distinct")
        for f in face_ids:
            if not 0 <= f < self.n_faces:
                raise ValueError(f"unknown face id {f}")
        rotations = self.rotations()
        twins = [(d, self.alpha[d]) for d in range(self.n_darts) if d < self.alpha[d]]
        next_dart = self.n_darts
        for f in face_ids:
            cycle = self.faces[f]
            if len(cycle) != 3:
                raise ValueError("can only stellate triangular faces")
            spokes_at_corner = []
            spokes_at_center = []
            for d in cycle:
                x = next_dart
                y = next_dart + 1
                next_dart += 2
                # corner of the face at head(d) lies between alpha[d] and
                # sigma[alpha[d]]; the new spoke goes in between
                corner_vertex = self.head(d)
                rot = rotations[corner_vertex]
                pos = rot.index(self.alpha[d])
                rot.insert(pos + 1, x)
                spokes_at_corner.append(x)
                spokes_at_center.append(y)
                twins.append((x, y))
            # rotation at the new centre vertex: reversed spoke order keeps
            # the three new faces triangular
            rotations.append([spokes_at_center[0], spokes_at_center[2], spokes_at_center[1]])
        return Triangulation.from_rotation_lists(rotations, twins)

    # -- canonical code ------------------------------------------------

    def canonical_code(self) -> Tuple[int, ...]:
        """Least traversal code rooted at the darts minimizing (degree of
        origin, degree of head), over both orientations.

        Two maps have equal codes iff they are isomorphic as maps up to
        orientation-preserving or -reversing homeomorphism.
        """
        key = [(self.degree[self.origin[d]], self.degree[self.head(d)])
               for d in range(self.n_darts)]
        least = min(key)
        return canonical_traversal(self.sigma, self.alpha,
                                   [d for d, k in enumerate(key) if k == least])

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for v, rot in enumerate(self.vertex_darts):
            lines.append(f"rotation {v}: " + " ".join(str(d) for d in rot))
        for d in range(self.n_darts):
            if d < self.alpha[d]:
                lines.append(f"twin {d} {self.alpha[d]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Triangulation":
        rotations: Dict[int, List[int]] = {}
        twins = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if line.startswith("rotation"):
                    head, darts = line.split(":", 1)
                    v = int(head.split()[1])
                    if v in rotations:
                        raise ValueError(f"vertex {v} listed twice")
                    rotations[v] = [int(x) for x in darts.split()]
                elif line.startswith("twin"):
                    _, a, b = line.split()
                    twins.append((int(a), int(b)))
                else:
                    raise ValueError(f"unrecognized directive {line.split()[0]!r}")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if sorted(rotations) != list(range(len(rotations))):
            raise ValueError("vertex ids must be 0..n-1")
        rot_lists = [rotations[v] for v in range(len(rotations))]
        return cls.from_rotation_lists(rot_lists, twins)


# -- dart arrays and the canonical code ----------------------------------


def neighbor_darts(neighbors: Sequence[Sequence[int]]):
    """(sigma, alpha, origin) of a simple map given by cyclic neighbour
    lists.

    Darts are numbered vertex by vertex, each vertex's darts in the order
    of its list.
    """
    index = {}
    origin = []
    for v, nbrs in enumerate(neighbors):
        for w in nbrs:
            index[(v, w)] = len(origin)
            origin.append(v)
    if len(index) != len(origin):
        raise ValueError("neighbour lists repeat a neighbour; the graph is not simple")
    sigma = [0] * len(origin)
    alpha = [0] * len(origin)
    base = 0
    try:
        for v, nbrs in enumerate(neighbors):
            k = len(nbrs)
            for t, w in enumerate(nbrs):
                sigma[base + t] = base + (t + 1) % k
                alpha[base + t] = index[(w, v)]
            base += k
    except KeyError as missing:
        w, v = missing.args[0]
        raise ValueError(f"vertex {v} lists {w}, but {w} does not list {v}") from None
    return sigma, alpha, origin


def canonical_traversal(sigma: Sequence[int], alpha: Sequence[int],
                        roots: Sequence[int]) -> Tuple[int, ...]:
    """Minimal rooted traversal code of a connected map, as a tuple.

    The roots are read with sigma and with its inverse (the mirror
    image).  The code describes the whole map only if the traversal
    reaches every dart, so a map with more than one component raises
    ValueError, and so does an empty list of roots.
    """
    n = len(sigma)
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[sigma[d]] = d
    return tuple(_least_code(sigma, sigma_inv, alpha, roots))


def _least_code(sigma, sigma_inv, alpha, roots):
    """``canonical_traversal``'s code as a list, given sigma's inverse."""
    if not roots:
        raise ValueError("no root dart was given for the traversal")
    n = len(sigma)
    best = reached = None
    for rot, root in product((sigma, sigma_inv), roots):
        code, order = _root_code(rot, alpha, root)
        if best is None or code < best:
            best, reached = code, len(order)
    if reached != n:
        raise ValueError("map is not connected: the traversal reaches "
                         f"{reached} of {n} darts")
    return best


def _root_code(sigma, alpha, root):
    """(code, darts in the order visited) for one rooted, oriented map,
    as two lists; the darts are the root's component.

    Lists compare lexicographically, so a code that is a prefix of
    another (its root's component is smaller) compares lower.
    """
    label = [-1] * len(sigma)
    label[root] = 0
    order = [root]
    code = []
    append = code.append
    for d in order:  # order grows while it is read
        nxt = sigma[d]
        lab = label[nxt]
        if lab < 0:
            lab = label[nxt] = len(order)
            order.append(nxt)
        append(lab)
        nxt = alpha[d]
        lab = label[nxt]
        if lab < 0:
            lab = label[nxt] = len(order)
            order.append(nxt)
        append(lab)
    return code, order


# -- fixed small builders -----------------------------------------------


def tetrahedron() -> Triangulation:
    return Triangulation.from_oriented_faces(
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def octahedron() -> Triangulation:
    # vertices 0..5 with 0/5 the poles, 1-2-3-4 the equator
    return Triangulation.from_oriented_faces([
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ])


def icosahedron() -> Triangulation:
    # poles 0 and 11, upper ring 1..5, lower ring 6..10
    faces = []
    for i in range(5):
        a, b = 1 + i, 1 + (i + 1) % 5
        c, d = 6 + i, 6 + (i + 1) % 5
        faces.append((0, a, b))
        faces.append((a, c, d))
        faces.append((a, d, b))
        faces.append((11, d, c))
    return Triangulation.from_oriented_faces(faces)


def bipyramid_with_duplicates(m: int) -> Triangulation:
    """Two poles joined by m parallel edges, one degree-2 vertex per bigon.

    Vertices: 0 = north, 1 = south, 2..m+1 the bigon vertices.  Every
    face is a triangle; the m parallel edges are pairwise duplicates.
    """
    if m < 2:
        raise ValueError("need at least two parallel edges")
    # darts: parallel edge i: 2*i (north end), 2*i+1 (south end)
    # spoke north-c_i: 2*m + 4*i ; twin at c_i: 2*m+4*i+1
    # spoke south-c_i: 2*m + 4*i + 2 ; twin at c_i: 2*m+4*i+3
    rot_north = []
    rot_south = []
    rotations = []
    twins = []
    for i in range(m):
        rot_north.extend([2 * i, 2 * m + 4 * i])
        twins.append((2 * m + 4 * i, 2 * m + 4 * i + 1))
        twins.append((2 * m + 4 * i + 2, 2 * m + 4 * i + 3))
    for i in reversed(range(m)):
        rot_south.extend([2 * i + 1, 2 * m + 4 * ((i - 1) % m) + 2])
    rotations.append(rot_north)
    rotations.append(rot_south)
    for i in range(m):
        rotations.append([2 * m + 4 * i + 1, 2 * m + 4 * i + 3])
    for i in range(m):
        twins.append((2 * i, 2 * i + 1))
    t = Triangulation.from_rotation_lists(rotations, twins)
    return t


def example_loop() -> Triangulation:
    """Four-vertex triangulation with a loop and a degree-1 vertex.

    Vertices: 0 the loop vertex (degree 6), 1 the enclosed degree-1
    vertex, 2 degree 2, 3 degree 3.
    """
    # edges: loop at 0 (darts 0,1); 0-1 (2,3); 0-2 (4,5);
    # 0-3 upper (6,7); 0-3 lower (8,9); 3-2 outer arc (10,11)
    rotations = [
        [4, 6, 0, 2, 1, 8],     # vertex 0: to 2, to 3 up, loopN, to 1, loopS, to 3 low
        [3],                    # vertex 1
        [5, 10],                # vertex 2: to 0, arc to 3
        [7, 11, 9],             # vertex 3: upper to 0, arc to 2, lower to 0
    ]
    twins = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
    return Triangulation.from_rotation_lists(rotations, twins)
