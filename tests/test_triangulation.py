import random

import pytest
from hypothesis import given, settings, strategies as st

from spheresys.developing import SpanningTree, develop
from spheresys.enumeration import EnumerationQuery, enumerate_triangulations
from spheresys.geodesics import systole_combinatorial
from spheresys.modular import (INF, cusp_parabolic, lr_word_value,
                               parabolic_product_trace)
from spheresys.triangulation import (
    Triangulation,
    bipyramid_with_duplicates,
    canonical_traversal,
    example_loop,
    icosahedron,
    octahedron,
    tetrahedron,
)
from test_enumeration import flip


def stellated_loop() -> Triangulation:
    """``example_loop`` with a degree-3 vertex in the face around its
    pendant edge: 5 vertices, degrees 8, 2, 2, 3, 3."""
    t = example_loop()
    return t.stellate([f for f in range(t.n_faces)
                       if sorted(t.face_vertices(f)) == [0, 0, 1]])


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


def tetrahedron_and_torus():
    """The tetrahedron beside a disjoint 7-vertex torus: Euler sum 2."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    for i in range(7):
        a, b, c, d = (4 + (i + s) % 7 for s in (0, 1, 2, 3))
        faces += [(a, b, d), (a, d, c)]
    return Triangulation.from_oriented_faces(faces)


def relabel(t, perm):
    lists = t.simple_neighbor_lists()
    new = [None] * len(lists)
    for v, nbrs in enumerate(lists):
        new[perm[v]] = [perm[w] for w in nbrs]
    return Triangulation.from_simple_rotations(new)


def relabel_darts(t, rnd, reflect=False):
    """Shuffle dart and vertex ids; optionally read the map in a mirror."""
    n = t.n_darts
    perm = list(range(n))
    rnd.shuffle(perm)
    vperm = list(range(t.n_vertices))
    rnd.shuffle(vperm)
    sigma = [0] * n
    alpha = [0] * n
    origin = [0] * n
    for d in range(n):
        nxt = t.sigma[d]
        if reflect:
            sigma[perm[nxt]] = perm[d]
        else:
            sigma[perm[d]] = perm[nxt]
        alpha[perm[d]] = perm[t.alpha[d]]
        origin[perm[d]] = vperm[t.origin[d]]
    return Triangulation(sigma, alpha, origin)


# every simple class with at most 8 vertices (the octahedron among them),
# plus the two degenerate examples
SMALL_MAPS = [t for n in range(4, 9)
              for t in enumerate_triangulations(EnumerationQuery(n))]
SMALL_MAPS += [example_loop(), example_duplicate_edges()]


def mirror(t):
    lists = t.simple_neighbor_lists()
    return Triangulation.from_simple_rotations([list(reversed(n)) for n in lists])


class TestPlatonic:
    def test_tetrahedron(self):
        t = tetrahedron()
        assert (t.n_vertices, t.n_edges, t.n_faces) == (4, 6, 4)
        report = t.validate()
        assert report.ok and report.regular
        assert report.degrees == [3, 3, 3, 3]
        d = t.density()
        assert d.min_density == 9 and d.densities == [9] * 6

    def test_octahedron(self):
        o = octahedron()
        assert (o.n_vertices, o.n_edges, o.n_faces) == (6, 12, 8)
        assert o.validate().regular
        assert o.density().min_density == 16

    def test_icosahedron(self):
        i = icosahedron()
        assert (i.n_vertices, i.n_edges, i.n_faces) == (12, 30, 20)
        assert i.validate().regular
        assert i.density().min_density == 25

    def test_degree_deficiency(self):
        for t in (tetrahedron(), octahedron(), icosahedron(),
                  example_duplicate_edges(), example_loop()):
            assert sum(6 - d for d in t.degree) == 12


class TestDegenerateExamples:
    def test_duplicate_edge_example(self):
        t = example_duplicate_edges()
        report = t.validate()
        assert report.ok and not report.regular
        assert report.degrees == [5, 2, 5, 3, 3]
        assert report.has_duplicate_edges and not report.has_loops
        assert t.density().min_density == 9

    def test_loop_example(self):
        t = example_loop()
        report = t.validate()
        assert report.ok and not report.regular
        assert report.degrees == [6, 1, 2, 3]
        assert report.has_loops and report.has_duplicate_edges
        # loop density counts the loop vertex squared
        d = t.density()
        loop_edge = t.loop_edges()[0]
        assert d.densities[loop_edge] == 36

    def test_bipyramids(self):
        for m in range(2, 7):
            b = bipyramid_with_duplicates(m)
            report = b.validate()
            assert report.ok and report.has_duplicate_edges
            assert sorted(report.degrees) == [2] * m + [2 * m, 2 * m]
            assert b.density().min_density == 4 * m

    def test_invalid_structures_rejected(self):
        with pytest.raises(ValueError):
            Triangulation([0, 1], [0, 1], [0, 0])  # alpha has fixed points
        with pytest.raises(ValueError):
            Triangulation([0, 0], [1, 0], [0, 0])  # sigma not a permutation
        with pytest.raises(ValueError):
            Triangulation.from_simple_rotations([[1, 1], [0, 0]])

    @pytest.mark.parametrize("lists,pair", [
        ([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2, 5]], "vertex 3 lists 5"),
        ([[1, 2, 3], [0, 2], [0, 1, 3], [0, 1, 2]], "vertex 3 lists 1"),
    ], ids=["no-such-vertex", "asymmetric"])
    def test_neighbour_lists_that_do_not_match_rejected(self, lists, pair):
        with pytest.raises(ValueError, match=pair + ", but"):
            Triangulation.from_simple_rotations(lists)

    def test_vertex_with_two_rotation_cycles_rejected(self):
        # one vertex label on two sigma cycles would read back from its
        # text as one cycle, a different map
        with pytest.raises(ValueError, match="vertex 0's darts form more"):
            Triangulation([1, 0, 3, 2], [2, 3, 0, 1], [0, 0, 0, 0])
        # two tetrahedra that share only vertex 0
        tetra = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
        other = [tuple(v and v + 3 for v in f) for f in tetra]
        with pytest.raises(ValueError, match="vertex 0's darts form more"):
            Triangulation.from_oriented_faces(tetra + other)

    def test_faces_that_do_not_close_up_rejected(self):
        # one triangle, and the tetrahedron without its face (1, 3, 2)
        for faces, edge in (([(0, 1, 2)], r"\(0, 1\)"),
                            ([(0, 1, 2), (0, 2, 3), (0, 3, 1)], r"\(1, 2\)")):
            with pytest.raises(ValueError, match=f"directed edge {edge} has no reverse"):
                Triangulation.from_oriented_faces(faces)

    def test_face_that_is_not_a_triangle_rejected(self):
        for faces, face in (([(0, 1, 2, 3), (3, 2, 1, 0)], r"\(0, 1, 2, 3\)"),
                            ([(0, 1), (1, 0)], r"\(0, 1\)")):
            with pytest.raises(ValueError, match=f"face {face} has"):
                Triangulation.from_oriented_faces(faces)

    def test_euler_failure_reported(self):
        # a map on the torus: one vertex, two loops, one square face, and
        # two components whose Euler characteristics sum to 2
        torus = Triangulation.from_rotation_lists([[0, 2, 1, 3]], [(0, 1), (2, 3)])
        for t, diagnostic in ((torus, "euler"),
                              (tetrahedron_and_torus(), "components")):
            report = t.validate()
            assert not report.ok and not report.regular
            assert any(diagnostic in d for d in report.diagnostics)

    def test_component_count_diagnostic(self):
        # the three Platonic maps side by side, and the map with no darts
        lists = []
        for t in (tetrahedron(), octahedron(), icosahedron()):
            lists += [[w + len(lists) for w in r]
                      for r in t.simple_neighbor_lists()]
        for t, count in ((Triangulation.from_simple_rotations(lists), 3),
                         (Triangulation([], [], []), 0)):
            assert (f"{count} connected components; a sphere has 1"
                    in t.validate().diagnostics)


@pytest.mark.parametrize("call, exception, fragment", [
    pytest.param(lambda: Triangulation([0], [0, 1], [0]), ValueError,
                 "must have equal length", id="unequal-arrays"),
    pytest.param(lambda: Triangulation.from_oriented_faces(
        [(0, 1, 2), (0, 1, 2)]), ValueError, "appears twice",
        id="face-twice"),
    pytest.param(lambda: Triangulation([1, 0], [1, 0], [0, 1]), ValueError,
                 "preserve dart origins", id="sigma-moves-origin"),
    pytest.param(lambda: Triangulation([1, 0, 3, 2], [2, 3, 0, 1],
                                       [0, 0, 2, 2]), ValueError,
                 "vertex 1 has no darts", id="vertex-without-darts"),
    pytest.param(lambda: example_loop().simple_neighbor_lists(), ValueError,
                 "graph is not simple", id="loop-not-simple"),
    pytest.param(lambda: bipyramid_with_duplicates(2).simple_neighbor_lists(),
                 ValueError, "graph is not simple", id="duplicate-not-simple"),
    pytest.param(lambda: tetrahedron().stellate([0, 0]), ValueError,
                 "must be distinct", id="stellate-repeated-face"),
    pytest.param(lambda: tetrahedron().stellate([4]), ValueError,
                 "unknown face id 4", id="stellate-unknown-face"),
    # the torus map with one vertex, two loops and one square face
    pytest.param(lambda: Triangulation.from_rotation_lists(
        [[0, 2, 1, 3]], [(0, 1), (2, 3)]).stellate([0]), ValueError,
        "only stellate triangular", id="stellate-square"),
    pytest.param(lambda: bipyramid_with_duplicates(1), ValueError,
                 "at least two parallel edges", id="bipyramid-one-edge"),
    pytest.param(lambda: EnumerationQuery(4, min_degree=0), ValueError,
                 "min_degree must be >= 1", id="min-degree-zero"),
    pytest.param(lambda: develop(tetrahedron(),
                                 SpanningTree.bfs_tree(tetrahedron())),
                 ValueError, "does not belong", id="develop-foreign-tree"),
    pytest.param(lambda: INF.as_rational(), ZeroDivisionError,
                 "infinity has no rational value", id="infinity-rational"),
    pytest.param(lambda: cusp_parabolic(INF, 0), ValueError,
                 "width must be positive", id="cusp-width-zero"),
    pytest.param(lambda: parabolic_product_trace(0, 3), ValueError,
                 "widths must be positive", id="product-width-zero"),
    pytest.param(lambda: lr_word_value("LX"), ValueError,
                 "unknown turn letter 'X'", id="turn-letter"),
])
def test_refusal(call, exception, fragment):
    with pytest.raises(exception, match=fragment):
        call()


def systole_words(g):
    """The dual walk's least |trace| on g and its witness words."""
    _, witnesses = systole_combinatorial(g)
    return abs(witnesses[0].trace), ["".join(w.word) for w in witnesses]


class TestPatternCertificates:
    """Exact systoles of regular maps and of maps with low-degree
    vertices, duplicate edges or loops."""

    def test_regular_has_none(self):
        # on these simple maps the density walk attains the systole
        for g, trace in ((tetrahedron(), 7), (octahedron(), 14)):
            assert systole_words(g)[0] == trace == g.a_priori_trace_bound()

    def test_adjacent_degree_two_three(self):
        assert systole_words(example_duplicate_edges()) == (7, ["RLRL"])

    def test_adjacent_degree_two_two(self):
        # both bigon vertices have degree 2 and face each other
        trace, words = systole_words(bipyramid_with_duplicates(2))
        assert trace == 6 and len(words) == 2

    def test_degree_one(self):
        assert systole_words(example_loop()) == (4, ["LRL"])

    def test_loop_walk_after_stellation(self):
        s = stellated_loop()
        assert s.validate().ok
        trace, words = systole_words(s)
        assert trace == 4 and len(words) == 2


class TestSurgery:
    def test_stellate_all_tetrahedron(self):
        s = tetrahedron().stellate(range(4))
        report = s.validate()
        assert report.ok
        assert sorted(report.degrees) == [3, 3, 3, 3, 6, 6, 6, 6]
        assert s.density().min_density == 18

    def test_stellate_one(self):
        s = tetrahedron().stellate([0])
        assert s.validate().ok
        assert sorted(s.degree) == [3, 3, 4, 4, 4]

    # the flip-closure oracle's flip, which lives beside it
    def test_flip_octahedron(self):
        o = octahedron()
        flipped = [flip(o, e) for e in range(o.n_edges)]
        assert all(f is not None for f in flipped)
        for f in flipped:
            assert f.validate().ok
            assert sorted(f.degree) == [3, 3, 4, 4, 5, 5]

    def test_flip_tetrahedron_degenerate(self):
        t = tetrahedron()
        assert all(flip(t, e) is None for e in range(t.n_edges))


class TestCanonical:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL_MAPS), st.randoms(use_true_random=False),
           st.booleans())
    def test_relabel_invariance(self, base, rnd, reflect):
        other = relabel_darts(base, rnd, reflect)
        assert other.canonical_code() == base.canonical_code()

    def test_mirror_identified(self):
        for t in (tetrahedron(), octahedron(), icosahedron()):
            assert t.canonical_code() == mirror(t).canonical_code()

    def test_distinct_maps_distinguished(self):
        assert tetrahedron().canonical_code() != octahedron().canonical_code()
        # the two simple classes with 6 vertices: the octahedron and one other
        codes = {t.canonical_code()
                 for t in enumerate_triangulations(EnumerationQuery(6))}
        assert len(codes) == 2 and octahedron().canonical_code() in codes

    def test_disconnected_maps_refused(self):
        # a traversal reaches only its root's component, so equal codes
        # would not mean isomorphic maps
        tetra = tetrahedron().simple_neighbor_lists()
        octa = [[w + 4 for w in r] for r in octahedron().simple_neighbor_lists()]
        swapped = [list(r) for r in octa]
        swapped[0][:2] = swapped[0][1::-1]
        a = Triangulation.from_simple_rotations(tetra + octa)
        b = Triangulation.from_simple_rotations(tetra + swapped)
        for t in (a, b, tetrahedron_and_torus()):
            with pytest.raises(ValueError, match="not connected"):
                t.canonical_code()

    def test_traversal_refuses_disconnected_darts(self):
        # the dart arrays alone, as the enumerator passes them, with a
        # root in either component
        t = Triangulation.from_simple_rotations(
            tetrahedron().simple_neighbor_lists()
            + [[w + 4 for w in r] for r in octahedron().simple_neighbor_lists()])
        for roots in ([0], [t.n_darts - 1]):
            with pytest.raises(ValueError, match="not connected"):
                canonical_traversal(t.sigma, t.alpha, roots)

    def test_traversal_refuses_no_roots(self):
        # a connected map with no root: the refusal names the roots,
        # not the connectivity
        t = tetrahedron()
        with pytest.raises(ValueError, match="no root dart"):
            canonical_traversal(t.sigma, t.alpha, [])


class TestSerialization:
    def test_text_roundtrip(self):
        for t in (tetrahedron(), octahedron(), icosahedron(),
                  example_loop(), example_duplicate_edges()):
            text = t.to_text()
            back = Triangulation.from_text(text)
            assert back.to_text() == text
            assert back.canonical_code() == t.canonical_code()

    def test_malformed_text(self):
        for text in ("rotation 0: 0 1\nfrob 1 2\n",
                     "rotation 0: x y\n",
                     "rotation 0: 5 1 2\nrotation 1: 3 4\ntwin 0 3\n",
                     "rotation 0: 0 1 2\nrotation 1: 3\ntwin 0 9\n",
                     "rotation 0: -1 1\ntwin 0 1\n",
                     "rotation 0:\nrotation 1: 0 1\ntwin 0 1\n",
                     "rotation 0: 7 8 9\n" + tetrahedron().to_text(),
                     ""):
            with pytest.raises(ValueError):
                Triangulation.from_text(text)

    def test_canonical_text_stable_across_relabeling(self):
        o = octahedron()
        rng = random.Random(9)
        reference = o.canonical_code()
        for _ in range(5):
            perm = list(range(6))
            rng.shuffle(perm)
            assert relabel(o, perm).canonical_code() == reference
