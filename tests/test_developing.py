import hashlib
import random

import pytest

from spheresys.developing import (
    SpanningTree,
    check_cusp_parabolics,
    develop,
    generators,
    render_polygon,
)
from spheresys.enumeration import EnumerationQuery, enumerate_triangulations
from spheresys.modular import Frac, INF, L, MoebiusMap, cusp_parabolic
from spheresys.triangulation import (
    Triangulation,
    bipyramid_with_duplicates,
    octahedron,
    tetrahedron,
)
from spheresys import cli, fixtures


TEN_COMPACT_TREE_EDGES = sorted(
    fixtures.named_development("ten-compact")[1].edges)


def frac(s):
    if s in ("inf", "1/0"):
        return INF
    if "/" in s:
        p, q = s.split("/")
        return Frac(int(p), int(q))
    return Frac(int(s))


def fixed_corners(g, dev, m):
    """The (corner label, vertex) pairs whose label m fixes."""
    return {(lab, g.origin[d]) for d, lab in enumerate(dev.corner_labels)
            if m(lab) == lab}


class TestSpanningTree:
    def test_tetrahedron_star(self):
        t = tetrahedron()
        tree = SpanningTree.from_vertex_pairs(t, [(0, 1), (0, 2), (0, 3)])
        assert tree.tree_degree == [3, 1, 1, 1]
        assert len(tree.terminal_edges()) == 3

    def test_wrong_edge_count(self):
        t = tetrahedron()
        with pytest.raises(ValueError):
            SpanningTree(t, [0, 1])

    @pytest.mark.parametrize("edges,bad", [([-1, 0, 1], -1), ([0, 1, 99], 99)],
                             ids=["negative", "past-the-end"])
    def test_edge_id_out_of_range_rejected(self, edges, bad):
        # -1 would otherwise index the last edge, and 99 no edge at all
        with pytest.raises(ValueError, match=f"edge id {bad} is not an edge"):
            SpanningTree(tetrahedron(), edges)

    def test_non_spanning_rejected(self):
        o = octahedron()
        # five edges that contain a cycle cannot span six vertices
        cyc = [e for e in range(o.n_edges)
               if set(o.edge_endpoints(e)) <= {0, 1, 2, 3}]
        with pytest.raises(ValueError):
            SpanningTree(o, cyc[:5])

    def test_loops_rejected(self):
        t = bipyramid_with_duplicates(3)
        loops = t.loop_edges()
        assert loops == []
        # build a tree legitimately to show loop-free graphs still work
        tree = SpanningTree.bfs_tree(t)
        assert sorted(tree.tree_degree)[0] >= 1

    def test_random_tree_spans(self):
        rng = random.Random(5)
        o = octahedron()
        for _ in range(20):
            tree = SpanningTree.random_tree(o, rng)
            assert len(tree.edges) == 5
            assert sum(tree.tree_degree) == 10

    @pytest.mark.parametrize("name,seed,edges", [
        ("octahedron", 5, [2, 6, 7, 10, 11]),
        ("ten", 1, [0, 5, 10, 11, 13, 17, 20, 21, 23]),
    ])
    def test_random_tree_pinned(self, name, seed, edges):
        """The tree a seed draws is part of the output: seeded runs over
        random trees (the census of 10-vertex maps) depend on it."""
        g = fixtures.GRAPHS[name]()
        tree = SpanningTree.random_tree(g, random.Random(seed))
        assert sorted(tree.edges) == edges


class TestDevelopTetrahedron:
    def test_star_tree_polygon(self):
        t = tetrahedron()
        tree = SpanningTree.from_vertex_pairs(t, [(0, 1), (0, 2), (0, 3)])
        dev = develop(t, tree)
        assert [str(x) for x in dev.polygon] == \
            ["0/1", "1/1", "3/2", "2/1", "3/1", "1/0"]
        gens = set()
        for m in generators(dev):
            gens.add(m)
            gens.add(m.inverse())
        assert L ** 3 in gens
        assert cusp_parabolic(Frac(1), 3) in gens or \
            cusp_parabolic(Frac(1), 3).inverse() in gens
        assert cusp_parabolic(Frac(2), 3) in gens or \
            cusp_parabolic(Frac(2), 3).inverse() in gens

    def test_all_seeds_give_same_polygon(self):
        t = tetrahedron()
        tree = SpanningTree.from_vertex_pairs(t, [(0, 1), (0, 2), (0, 3)])
        polys = set()
        for e in tree.terminal_edges():
            for f in range(t.n_faces):
                if e in {t.edge_of_dart[d] for d in t.faces[f]}:
                    dev = develop(t, tree, seed=(e, f))
                    polys.add(tuple(str(x) for x in dev.polygon))
        assert polys == {("0/1", "1/1", "3/2", "2/1", "3/1", "1/0")}


class TestDevelopTenCusp:
    def test_worked_polygon_verbatim(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        assert [str(x) for x in dev.polygon] == [
            "0/1", "1/2", "1/1", "3/2", "2/1", "7/3", "5/2", "3/1", "10/3",
            "7/2", "18/5", "29/8", "11/3", "4/1", "9/2", "14/3", "5/1", "1/0"]

    def test_worked_side_pairings(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        gens = set()
        for m in dev.side_pairings.values():
            gens.add(m)
            gens.add(m.inverse())
        for m, (src, dst) in fixtures.EXAMPLE2_PAIRINGS.items():
            assert m in gens
            # the recorded map really sends its source side to its target
            assert m(frac(src[0])) == frac(dst[0])
            assert m(frac(src[1])) == frac(dst[1])

    def test_worked_parabolic_pairings(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        gens = set()
        for m in dev.side_pairings.values():
            gens.add(m)
            gens.add(m.inverse())
        # sides ending at a cusp of degree d are paired by conjugates of L^d
        for fix in (Frac(2), Frac(3), Frac(4)):
            p = cusp_parabolic(fix, 5)
            assert p in gens or p.inverse() in gens
        for fix in (Frac(1), Frac(7, 2)):
            p = cusp_parabolic(fix, 4)
            assert p in gens or p.inverse() in gens
        assert L ** 5 in gens

    def test_long_tree_cusp_generators(self):
        g, tree, seed = fixtures.named_development("ten-long")
        dev = develop(g, tree, seed=seed)
        assert [str(x) for x in dev.polygon] == [
            "0/1", "1/3", "2/5", "1/2", "1/1", "4/3", "7/5", "3/2", "2/1",
            "7/3", "12/5", "5/2", "3/1", "10/3", "17/5", "7/2", "4/1", "1/0"]
        for i, m in fixtures.GAMMA10.items():
            # the one corner label that m fixes, and its vertex
            ((fix, v),) = fixed_corners(g, dev, m)
            p = cusp_parabolic(fix, g.degree[v])
            assert m in (p, p.inverse()), i


class TestDevelopSevenCusp:
    def test_published_generators(self):
        g, tree, seed = fixtures.named_development("seven")
        dev = develop(g, tree, seed=seed)
        assert [str(x) for x in dev.polygon] == [
            "0/1", "1/2", "1/1", "3/2", "2/1", "5/2", "3/1", "7/2", "4/1",
            "9/2", "5/1", "1/0"]
        gens = set()
        for m in dev.side_pairings.values():
            gens.add(m)
            gens.add(m.inverse())
        # five of the six published generators are side pairings; the
        # sixth (the parabolic at 0) is Nielsen-equivalent: the pairing
        # for that side is a2 * a1^-1, and a2 is the cusp parabolic
        a = fixtures.A7
        for i in (1, 3, 4, 5, 6):
            assert a[i] in gens or a[i].inverse() in gens
        assert a[2] * a[1].inverse() in gens or \
            (a[2] * a[1].inverse()).inverse() in gens
        assert dev.cusp_generators[3] in (a[2], a[2].inverse())


class TestDevelopElevenCusp:
    def test_published_generators(self):
        g, tree, seed = fixtures.named_development("eleven")
        dev = develop(g, tree, seed=seed)
        gens = set()
        for m in dev.side_pairings.values():
            gens.add(m)
            gens.add(m.inverse())
        gam = fixtures.GAMMA11
        for i in (1, 2, 3, 4, 5, 6, 7, 9, 12):
            assert gam[i] in gens or gam[i].inverse() in gens, i
        # the remaining parabolics in the published list are cusp
        # generators of the development
        for i in (10, 11):
            ((fix, v),) = fixed_corners(g, dev, gam[i])
            p = cusp_parabolic(fix, g.degree[v])
            assert gam[i] in (p, p.inverse())


class TestInvariants:
    def graphs(self):
        yield tetrahedron()
        yield octahedron()
        yield fixtures.seven_cusp_graph()
        yield fixtures.ten_cusp_graph()
        yield fixtures.eleven_cusp_graph()
        yield bipyramid_with_duplicates(3)

    def test_label_count_equals_tree_degree(self):
        rng = random.Random(11)
        for g in self.graphs():
            tree = SpanningTree.random_tree(g, rng)
            dev = develop(g, tree)
            per_vertex = {v: set() for v in range(g.n_vertices)}
            for d, lab in enumerate(dev.corner_labels):
                per_vertex[g.origin[d]].add(lab)
            for v in range(g.n_vertices):
                assert len(per_vertex[v]) == tree.tree_degree[v]

    def test_polygon_size(self):
        # 2(n-1) sides means n-1 finite labels beyond 0, plus 0 and inf
        rng = random.Random(7)
        for g in self.graphs():
            tree = SpanningTree.random_tree(g, rng)
            dev = develop(g, tree)
            assert len(dev.polygon) == 2 * (g.n_vertices - 1)
            assert dev.polygon[-1] == INF

    def test_pairings_are_unimodular_and_map_sides(self):
        rng = random.Random(3)
        for g in self.graphs():
            tree = SpanningTree.random_tree(g, rng)
            dev = develop(g, tree)
            assert len(dev.side_pairings) == g.n_vertices - 1
            for e, m in dev.side_pairings.items():
                assert m.a * m.d - m.b * m.c == 1
                (s0, s1), (t0, t1) = (
                    (dev.corner_labels[d], dev.corner_labels[g.face_next(d)])
                    for d in g.edges[e])
                assert m(s0) == t1 and m(s1) == t0

    def test_cusp_parabolics_certificate(self):
        rng = random.Random(23)
        for g in self.graphs():
            for _ in range(5):
                tree = SpanningTree.random_tree(g, rng)
                dev = develop(g, tree)
                assert check_cusp_parabolics(dev)

    @pytest.mark.parametrize("tamper", ["times-L2", "inverse"])
    @pytest.mark.parametrize("e", TEN_COMPACT_TREE_EDGES)
    def test_certificate_detects_tampering(self, e, tamper):
        """Changing one exported side pairing fails the check."""
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        m = dev.side_pairings[e]
        dev.side_pairings[e] = {"times-L2": m * (L ** 2),
                                "inverse": m.inverse()}[tamper]
        assert not check_cusp_parabolics(dev)

    @pytest.mark.parametrize("e", TEN_COMPACT_TREE_EDGES)
    @pytest.mark.parametrize("side", [0, 1])
    def test_certificate_covers_corner_labels(self, e, side):
        """Changing the label of one corner at a tree edge fails the check."""
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        d = g.edges[e][side]
        assert dev.corner_labels[d] != Frac(-1)
        dev.corner_labels[d] = Frac(-1)
        assert not check_cusp_parabolics(dev)

    @pytest.mark.parametrize("tamper", ["square", "inverse", "L7"])
    @pytest.mark.parametrize("w", range(fixtures.ten_cusp_graph().n_vertices))
    def test_certificate_covers_cusp_table(self, w, tamper):
        """Changing one exported cusp generator fails the check."""
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        m = dev.cusp_generators[w]
        dev.cusp_generators[w] = {"square": m * m, "inverse": m.inverse(),
                                  "L7": L ** 7}[tamper]
        assert not check_cusp_parabolics(dev)

    def test_deterministic(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        # g and tree are inputs, with no JSON form
        one, two = (cli.to_json(dict(vars(develop(g, tree, seed=seed)),
                                     g=None, tree=None)) for _ in range(2))
        assert one == two

    def test_developments_digest(self):
        # corner labels, side pairings and cusp generators of every class
        # with 4..9 vertices, on three seeded random trees each, from
        # both faces of the first terminal edge: 438 developments
        digest = hashlib.sha256()
        for n in range(4, 10):
            rng = random.Random(n)
            for g in enumerate_triangulations(EnumerationQuery(n)):
                for _ in range(3):
                    tree = SpanningTree.random_tree(g, rng)
                    e0 = tree.terminal_edges()[0]
                    for f0 in sorted(g.face_of_dart[d] for d in g.edges[e0]):
                        dev = develop(g, tree, seed=(e0, f0))
                        digest.update(repr((
                            [str(x) for x in dev.corner_labels],
                            [(e, m.quad, m.den)
                             for e, m in sorted(dev.side_pairings.items())],
                            [(w, m.quad, m.den)
                             for w, m in sorted(dev.cusp_generators.items())],
                        )).encode())
        assert digest.hexdigest() == (
            "d8b4ca1263be738d20f8adadeae989be65349e04d7ee87ebc8a56f43198b92e4")

    def test_sweep_small_triangulations(self):
        rng = random.Random(171)
        for n in range(4, 8):
            for g in enumerate_triangulations(EnumerationQuery(n)):
                tree = SpanningTree.random_tree(g, rng)
                dev = develop(g, tree)
                assert check_cusp_parabolics(dev)


class TestErrors:
    def test_seed_edge_not_in_tree(self):
        t = tetrahedron()
        tree = SpanningTree.from_vertex_pairs(t, [(0, 1), (0, 2), (0, 3)])
        non_tree = next(e for e in range(t.n_edges) if e not in tree)
        with pytest.raises(ValueError):
            develop(t, tree, seed=(non_tree, 0))

    def test_seed_face_not_incident(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        e0, f0 = seed
        other = next(f for f in range(g.n_faces)
                     if e0 not in {g.edge_of_dart[d] for d in g.faces[f]})
        with pytest.raises(ValueError):
            develop(g, tree, seed=(e0, other))

    def test_non_terminal_seed_edge(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        interior = next(e for e in sorted(tree.edges)
                        if all(tree.tree_degree[v] > 1
                               for v in g.edge_endpoints(e)))
        f = min(g.face_of_dart[d] for d in g.edges[interior])
        with pytest.raises(ValueError):
            develop(g, tree, seed=(interior, f))

    def test_invalid_triangulation_rejected(self):
        torus = Triangulation.from_rotation_lists([[0, 2, 1, 3]], [(0, 1), (2, 3)])
        tree = SpanningTree.bfs_tree(torus)
        with pytest.raises(ValueError, match="invalid triangulation"):
            develop(torus, tree)


class TestRender:
    def test_svg_structure(self):
        g, tree, seed = fixtures.named_development("ten-compact")
        dev = develop(g, tree, seed=seed)
        svg = render_polygon(dev)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<path") > 10
        assert 'stroke-width="3"' in svg

    def test_polygon_sides_are_tree_sides(self):
        """The sides render_polygon draws thick, consecutive polygon
        vertices with infinity closing the cycle, are the label pairs of
        the tree edges' darts, on every 10-vertex class."""
        rng = random.Random(10)
        for g in enumerate_triangulations(EnumerationQuery(10)):
            dev = develop(g, SpanningTree.random_tree(g, rng))
            poly = dev.polygon
            tree_sides = {frozenset((dev.corner_labels[d],
                                     dev.corner_labels[g.face_next(d)]))
                          for e in dev.tree.edges for d in g.edges[e]}
            assert set(map(frozenset, zip(poly, poly[-1:] + poly))) \
                == tree_sides
            assert len(tree_sides) == len(poly)

    def test_tetrahedron_vertical_side(self):
        t = tetrahedron()
        dev = develop(t, SpanningTree.bfs_tree(t))
        svg = render_polygon(dev)
        assert "<line" in svg
