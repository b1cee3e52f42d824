"""Dart-based combinatorial maps for sphere triangulations.

A triangulation is stored as a set of darts (half-edges) with two
permutations: ``sigma`` rotates a dart to the next one around its origin
vertex, and ``alpha`` is the fixed-point-free involution pairing darts
into edges.  Faces are the orbits of d -> sigma[alpha[d]].  Loops and
duplicate edges are allowed; every incidence counts separately towards
vertex degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .modular import lr_word_value

__all__ = [
    "Triangulation",
    "ValidationReport",
    "DensityReport",
    "PatternCertificate",
    "tetrahedron",
    "octahedron",
    "icosahedron",
    "bipyramid_with_duplicates",
    "example_duplicate_edges",
    "example_loop",
    "neighbor_darts",
    "canonical_traversal",
]


@dataclass
class ValidationReport:
    ok: bool
    diagnostics: List[str]
    degrees: List[int]
    min_degree: int
    has_loops: bool
    has_duplicate_edges: bool
    regular: bool

    def __bool__(self):
        return self.ok


@dataclass
class DensityReport:
    densities: List[int]          # indexed by edge id
    min_density: int
    witness_edge: int


@dataclass
class PatternCertificate:
    pattern: str                  # "adjacent-degree-2", "loop-walk", "degree-1"
    trace_bound: int
    word: str                     # L/R word realizing the bound
    detail: Tuple


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
        """Build from consistently oriented triangles (each directed edge once)."""
        face_of_dart = {}
        for f in faces:
            k = len(f)
            for i in range(k):
                key = (f[i], f[(i + 1) % k])
                if key in face_of_dart:
                    raise ValueError(f"directed edge {key} appears twice; orientation inconsistent")
                face_of_dart[key] = (f[(i + 2) % k],)
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

    def duplicate_edge_pairs(self) -> List[Tuple[int, int]]:
        by_ends: Dict[Tuple[int, int], List[int]] = {}
        for e in range(self.n_edges):
            u, v = sorted(self.edge_endpoints(e))
            by_ends.setdefault((u, v), []).append(e)
        pairs = []
        for group in by_ends.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    pairs.append((group[i], group[j]))
        return pairs

    def rotations(self) -> List[List[int]]:
        return [list(rot) for rot in self.vertex_darts]

    def simple_neighbor_lists(self) -> List[List[int]]:
        """Per-vertex cyclic neighbour lists; requires a simple graph."""
        out = []
        for v, rot in enumerate(self.vertex_darts):
            nbrs = [self.head(d) for d in rot]
            if len(set(nbrs)) != len(nbrs) or v in nbrs:
                raise ValueError("graph is not simple")
            out.append(nbrs)
        return out

    # -- validation ----------------------------------------------------

    def validate(self) -> ValidationReport:
        diagnostics = []
        for f, cycle in enumerate(self.faces):
            if len(cycle) != 3:
                diagnostics.append(f"non-triangular face {f} with {len(cycle)} sides")
        euler = self.n_vertices - self.n_edges + self.n_faces
        if euler != 2:
            diagnostics.append(f"euler characteristic {euler} != 2")
        deficiency = sum(6 - d for d in self.degree)
        if not diagnostics and deficiency != 12:
            diagnostics.append(f"degree deficiency sum {deficiency} != 12")
        if 2 * self.n_edges != 3 * self.n_faces and not any(
                "non-triangular" in d for d in diagnostics):
            diagnostics.append("edge/face count violates 2E = 3F")
        has_loops = bool(self.loop_edges())
        has_dups = bool(self.duplicate_edge_pairs())
        min_deg = min(self.degree)
        return ValidationReport(
            ok=not diagnostics,
            diagnostics=diagnostics,
            degrees=list(self.degree),
            min_degree=min_deg,
            has_loops=has_loops,
            has_duplicate_edges=has_dups,
            regular=(not diagnostics and min_deg >= 3 and not has_loops and not has_dups),
        )

    # -- densities ------------------------------------------------------

    def density(self) -> DensityReport:
        densities = []
        for e in range(self.n_edges):
            u, v = self.edge_endpoints(e)
            densities.append(self.degree[u] * self.degree[v])
        witness = min(range(self.n_edges), key=lambda e: densities[e])
        return DensityReport(densities, densities[witness], witness)

    def a_priori_trace_bound(self) -> Optional[int]:
        """Least |trace| certified without a search, or None if none is.

        A non-loop edge of density D >= 5 is crossed by a dual walk of
        trace D - 2 (``geodesics.verify_density_length``), and each
        pattern certificate names a walk of its trace bound.
        """
        density = self.density()
        bounds = [density.densities[e] - 2 for e in range(self.n_edges)
                  if not self.is_loop(e) and density.densities[e] >= 5]
        bounds += [cert.trace_bound for cert in self.pattern_certificates()]
        return min(bounds, default=None)

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

    def flip(self, e: int) -> Optional["Triangulation"]:
        """Diagonal flip of an interior edge; None if the flip is degenerate.

        Only defined on simple triangulations and only performed when the
        result is again simple.
        """
        d = self.edges[e][0]
        dd = self.alpha[d]
        u, v = self.origin[d], self.origin[dd]
        if u == v:
            return None
        p = self.face_next(d)
        q = self.face_next(p)
        r = self.face_next(dd)
        s = self.face_next(r)
        a = self.origin[self.alpha[p]]
        b = self.origin[self.alpha[r]]
        if a == b:
            return None
        # reject if a-b already an edge
        for x in self.vertex_darts[a]:
            if self.head(x) == b:
                return None
        if self.degree[u] <= 3 or self.degree[v] <= 3:
            return None
        rotations = self.rotations()
        rotations[u].remove(d)
        rotations[v].remove(dd)
        rot_a = rotations[a]
        rot_a.insert(rot_a.index(self.alpha[p]) + 1, d)
        rot_b = rotations[b]
        rot_b.insert(rot_b.index(self.alpha[r]) + 1, dd)
        twins = [(x, self.alpha[x]) for x in range(self.n_darts) if x < self.alpha[x]]
        return Triangulation.from_rotation_lists(rotations, twins)

    def duplicate_edge_split(self, e1: int, e2: int) -> Tuple[int, int]:
        """Triangle counts of the two components separated by a bigon."""
        if e1 == e2:
            raise ValueError("need two distinct edges")
        if self.is_loop(e1) or self.is_loop(e2):
            raise ValueError("duplicate edges must have two distinct endpoints")
        if sorted(self.edge_endpoints(e1)) != sorted(self.edge_endpoints(e2)):
            raise ValueError("edges are not duplicates of each other")
        blocked = {e1, e2}
        side = self._face_side(blocked, self.face_of_dart[self.edges[e1][0]])
        c1 = len(side)
        c2 = self.n_faces - c1
        return tuple(sorted((c1, c2)))

    def _face_side(self, blocked_edges: Set[int], start_face: int) -> Set[int]:
        """Faces reachable from start_face without crossing blocked edges."""
        seen = {start_face}
        stack = [start_face]
        while stack:
            f = stack.pop()
            for d in self.faces[f]:
                if self.edge_of_dart[d] in blocked_edges:
                    continue
                g = self.face_of_dart[self.alpha[d]]
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return seen

    # -- structural pattern certificates --------------------------------

    def pattern_certificates(self) -> List[PatternCertificate]:
        """Short-geodesic certificates from low-degree configurations.

        Detects the three configurations that force a short hyperbolic
        element: degree-2 apexes of adjacent triangles, loops whose two
        sides both contain at least two triangles, and degree-1 vertices.
        Trace bounds for the walk-based patterns are computed exactly
        from the constructed L/R word, never quoted from a statement.
        """
        certs: List[PatternCertificate] = []
        certs.extend(self._adjacent_degree2_certificates())
        certs.extend(self._loop_certificates())
        certs.extend(self._degree1_certificates())
        return certs

    def _opposite_corner(self, f: int, e: int) -> Optional[int]:
        """Vertex of face f whose corner is not an endpoint of a dart of e."""
        # corner at origin of dart d lies between alpha[prev] and d; the
        # corner opposite to edge e is the origin of the dart whose edge
        # and whose predecessor's edge are both != e
        cycle = self.faces[f]
        for i, d in enumerate(cycle):
            prev = cycle[i - 1]
            if self.edge_of_dart[d] != e and self.edge_of_dart[prev] != e:
                return self.origin[d]
        return None

    def _adjacent_degree2_certificates(self) -> List[PatternCertificate]:
        certs = []
        seen = set()
        for e in range(self.n_edges):
            d1, d2 = self.edges[e]
            f1, f2 = self.face_of_dart[d1], self.face_of_dart[d2]
            if f1 == f2:
                continue
            v1 = self._opposite_corner(f1, e)
            v2 = self._opposite_corner(f2, e)
            if v1 is None or v2 is None:
                continue
            for a, b in ((v1, v2), (v2, v1)):
                if self.degree[a] == 2 and self.degree[b] in (2, 3):
                    trace = 14 if self.degree[b] == 2 else 22
                    key = (min(a, b), max(a, b), trace)
                    if key not in seen:
                        seen.add(key)
                        m2 = 8 if self.degree[b] == 2 else 12
                        word = "LL" + "R" * (m2 - 2)
                        assert lr_word_value(word).trace == trace
                        certs.append(PatternCertificate(
                            "adjacent-degree-2", trace, word, (a, b, e)))
                    break
        return certs

    def _loop_sides(self, e: int):
        d1, d2 = self.edges[e]
        side1 = self._face_side({e}, self.face_of_dart[d1])
        side2 = self._face_side({e}, self.face_of_dart[d2])
        return d1, d2, side1, side2

    def _loop_certificates(self) -> List[PatternCertificate]:
        certs = []
        for e in self.loop_edges():
            d1, d2, side1, side2 = self._loop_sides(e)
            if len(side1) < 2 or len(side2) < 2:
                continue  # one side is the single degree-1 triangle
            v = self.origin[d1]
            rot = self.vertex_darts[v]
            i1, i2 = rot.index(d1), rot.index(d2)
            lo, hi = sorted((i1, i2))
            arc_a = rot[lo + 1:hi]
            arc_b = rot[hi + 1:] + rot[:lo]
            # pick the arc lying on the smaller side of the loop
            best = None
            for arc in (arc_a, arc_b):
                if not arc:
                    continue
                k = len(arc)
                if best is None or k < best:
                    best = k
            if best is None or best < 2:
                continue
            word = "L" * (best - 1) + "R"
            m = lr_word_value(word)
            certs.append(PatternCertificate(
                "loop-walk", int(abs(m.trace)), word, (e, v, best)))
        return certs

    def _degree1_certificates(self) -> List[PatternCertificate]:
        certs = []
        for v in range(self.n_vertices):
            if self.degree[v] != 1:
                continue
            d = self.vertex_darts[v][0]
            containing = self.face_of_dart[d]
            loop_darts = [x for x in self.faces[containing]
                          if self.is_loop(self.edge_of_dart[x])]
            if not loop_darts:
                continue
            l = loop_darts[0]
            enclosing = self.face_of_dart[self.alpha[l]]
            w = self.origin[l]
            third = [self.origin[x] for x in self.faces[enclosing]
                     if self.origin[x] != w]
            if not third:
                continue
            dd = self.degree[third[0]]
            word = "LLLL" + "R" * (dd - 1)
            m = lr_word_value(word)
            assert m.trace == 4 * dd - 2
            certs.append(PatternCertificate(
                "degree-1", 4 * dd - 2, word, (v, third[0])))
        return certs

    # -- canonical form and isomorphism ---------------------------------

    def canonical_code(self) -> Tuple[int, ...]:
        """Minimal traversal code over all root darts and both orientations.

        Two maps have equal codes iff they are isomorphic as maps up to
        orientation-preserving or -reversing homeomorphism.
        """
        return canonical_traversal(self.sigma, self.alpha, self.origin)[0]

    def canonical_form(self) -> "Triangulation":
        """Relabel darts into the canonical traversal order."""
        _, rot, order = canonical_traversal(self.sigma, self.alpha, self.origin)
        n = self.n_darts
        label = [0] * n
        for i, d in enumerate(order):
            label[d] = i
        # relabelled vertices by first-seen dart order
        vmap = {}
        for d in order:
            vmap.setdefault(self.origin[d], len(vmap))
        new_sigma = [0] * n
        new_alpha = [0] * n
        new_origin = [0] * n
        for d in range(n):
            new_sigma[label[d]] = label[rot[d]]
            new_alpha[label[d]] = label[self.alpha[d]]
            new_origin[label[d]] = vmap[self.origin[d]]
        return Triangulation(new_sigma, new_alpha, new_origin)

    def is_isomorphic(self, other: "Triangulation") -> bool:
        if (self.n_darts != other.n_darts
                or sorted(self.degree) != sorted(other.degree)):
            return False
        return self.canonical_code() == other.canonical_code()

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

    def to_json_obj(self):
        return {
            "rotations": [list(rot) for rot in self.vertex_darts],
            "twins": [[d, self.alpha[d]] for d in range(self.n_darts) if d < self.alpha[d]],
        }

    @classmethod
    def from_json_obj(cls, data) -> "Triangulation":
        return cls.from_rotation_lists(data["rotations"],
                                       [tuple(t) for t in data["twins"]])


# -- dart arrays and the canonical code ----------------------------------


def neighbor_darts(neighbors: Sequence[Sequence[int]]):
    """(sigma, alpha, origin) of a simple map given by cyclic neighbour lists.

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
    for v, nbrs in enumerate(neighbors):
        k = len(nbrs)
        for t, w in enumerate(nbrs):
            sigma[base + t] = base + (t + 1) % k
            alpha[base + t] = index[(w, v)]
        base += k
    return sigma, alpha, origin


def canonical_traversal(sigma: Sequence[int], alpha: Sequence[int],
                        origin: Sequence[int]):
    """Minimal rooted traversal code of a connected map, with its witness.

    Roots are the darts minimizing (degree of origin, degree of head),
    read with sigma and with its inverse (the mirror image).  Returns
    ``(code, rotation, order)``: the least code as a tuple, the rotation
    (sigma or its inverse) that attains it, and the darts in the
    traversal order of the attaining root, so that ``order[i]`` is the
    dart labelled i.
    """
    n = len(sigma)
    deg = [0] * (max(origin) + 1)
    for v in origin:
        deg[v] += 1
    key = [(deg[origin[d]], deg[origin[alpha[d]]]) for d in range(n)]
    best_key = min(key)
    roots = [d for d in range(n) if key[d] == best_key]
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[sigma[d]] = d
    best = rotation = order = None
    for rot in (sigma, sigma_inv):
        for root in roots:
            found = _root_code(rot, alpha, root, best)
            if found is not None and (best is None or found[0] < best):
                best, order = found
                rotation = rot
    return tuple(best), rotation, order


def _root_code(sigma, alpha, root, best):
    """(code, dart order) for one rooted, oriented map; None if > best."""
    label = [-1] * len(sigma)
    label[root] = 0
    order = [root]
    code = []
    for d in order:  # order grows while it is read
        for nxt in (sigma[d], alpha[d]):
            lab = label[nxt]
            if lab < 0:
                lab = label[nxt] = len(order)
                order.append(nxt)
            if best is not None:
                if len(code) >= len(best):
                    return None
                b = best[len(code)]
                if lab > b:
                    return None
                if lab < b:
                    best = None  # strictly better; stop comparing
            code.append(lab)
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


def example_duplicate_edges() -> Triangulation:
    """Five-vertex triangulation with a duplicate pair and a degree-2 vertex.

    Vertices: 0 bottom apex (degree 5), 1 middle (degree 2), 2 top apex
    (degree 5), 3 right (degree 3), 4 left (degree 3).
    """
    # darts, per edge: (at-first-endpoint, at-second-endpoint)
    # e0 = 0-1 (0,1); e1 = 1-2 (2,3); e2 = 0-3 (4,5); e3 = 0-4 (6,7)
    # e4 = 3-2 (8,9); e5 = 4-2 (10,11); e6 = 0-2 right (12,13)
    # e7 = 0-2 left (14,15); e8 = 3-4 top arc (16,17)
    rotations = [
        [4, 12, 0, 14, 6],      # vertex 0: D, Cright, B, Cleft, E
        [0 + 1, 2],             # vertex 1: to 0 (dart 1), to 2 (dart 2)
        [11, 15, 3, 13, 9],     # vertex 2: E, Cleft, B, Cright, D
        [17, 8, 5],             # vertex 3: arc to 4, to 2, to 0
        [10, 16, 7],            # vertex 4: to 2, arc to 3, to 0
    ]
    twins = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15), (16, 17)]
    return Triangulation.from_rotation_lists(rotations, twins)


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
