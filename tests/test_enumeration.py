import hashlib
import os
import resource
import subprocess
import sys

import pytest

from spheresys import enumeration
from spheresys.enumeration import (
    EnumerationQuery,
    ResourceLimitError,
    enumerate_triangulations,
    max_min_density,
    verify_proposition,
)
from spheresys.triangulation import (Triangulation, icosahedron, octahedron,
                                     tetrahedron)

# A000109: simple sphere triangulations (3-connected planar) by vertices
KNOWN_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}


def classes(n, **kw):
    return list(enumerate_triangulations(EnumerationQuery(n, **kw)))


def split_vertex(rot, v, i, j):
    """Whole child of splitting vertex v between rotation positions i < j.

    The vertex keeps the neighbour arc rot[v][i..j] and a new last vertex
    takes the complementary arc; both also gain each other.  The shared
    arc endpoints see the pair in the orientation-consistent order.
    """
    nbrs = rot[v]
    v2 = len(rot)
    new = [list(r) for r in rot]
    new[v] = [*nbrs[i:j + 1], v2]
    new.append([*nbrs[j:], *nbrs[:i + 1], v])
    for w in nbrs[j + 1:] + nbrs[:i]:
        new[w][new[w].index(v)] = v2
    p = new[nbrs[i]].index(v)
    new[nbrs[i]][p:p + 1] = [v, v2]
    p = new[nbrs[j]].index(v)
    new[nbrs[j]][p:p + 1] = [v2, v]
    return [tuple(r) for r in new]


def flip(t, e):
    """Diagonal flip of edge e of a simple triangulation, or None.

    None when the flip would leave the simple triangulations: e is a
    loop, its two apexes coincide or are already joined, or an end has
    degree 3.
    """
    d = t.edges[e][0]
    dd = t.alpha[d]
    u, v = t.origin[d], t.origin[dd]
    if u == v:
        return None
    p = t.face_next(d)
    r = t.face_next(dd)
    a = t.origin[t.alpha[p]]
    b = t.origin[t.alpha[r]]
    if a == b or any(t.head(x) == b for x in t.vertex_darts[a]):
        return None
    if t.degree[u] <= 3 or t.degree[v] <= 3:
        return None
    rotations = t.rotations()
    rotations[u].remove(d)
    rotations[v].remove(dd)
    rot_a = rotations[a]
    rot_a.insert(rot_a.index(t.alpha[p]) + 1, d)
    rot_b = rotations[b]
    rot_b.insert(rot_b.index(t.alpha[r]) + 1, dd)
    twins = [(x, t.alpha[x]) for x in range(t.n_darts) if x < t.alpha[x]]
    return Triangulation.from_rotation_lists(rotations, twins)


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

    rot = tetrahedron().simple_neighbor_lists()
    while len(rot) < n:
        rot = split_vertex(rot, 0, 0, 1)
    start = Triangulation.from_simple_rotations(rot)

    def to_graph(t):
        g = nx.Graph()
        for e in range(t.n_edges):
            g.add_edge(*t.edge_endpoints(e))
        return g

    reps = []

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
            f = flip(t, e)
            if f is not None and not find(f):
                queue.append(f)
    return len(reps)


def split_closure(n_max):
    """Classes per level, {n: {code: neighbour lists}}, from
    canonicalising every vertex-split child.

    The reference keeps the first child per canonical code, so it needs
    no argument about which splits to skip.
    """
    levels = {4: {tetrahedron().canonical_code():
                  tetrahedron().simple_neighbor_lists()}}
    for n in range(5, n_max + 1):
        nxt = levels[n] = {}
        for rot in levels[n - 1].values():
            for v, nbrs in enumerate(rot):
                for i in range(len(nbrs)):
                    for j in range(i + 1, len(nbrs)):
                        child = split_vertex(rot, v, i, j)
                        code = Triangulation.from_simple_rotations(child).canonical_code()
                        nxt.setdefault(code, child)
    return levels


def split_closure_codes(n_max):
    """Codes per level of ``split_closure``."""
    return {n: set(level) for n, level in split_closure(n_max).items()}


class TestCounts:
    @pytest.mark.parametrize("n", range(4, 12))
    def test_reference_counts(self, n):
        assert len(classes(n)) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", range(4, 8))
    def test_independent_oracle(self, n):
        assert len(classes(n)) == naive_enumerate_count(n)

    def test_same_classes_as_every_child_canonicalised(self):
        for n, codes in split_closure_codes(10).items():
            assert {t.canonical_code() for t in classes(n)} == codes

    def test_unique_known_small_cases(self):
        (only4,) = classes(4)
        assert only4.canonical_code() == tetrahedron().canonical_code()
        (only5,) = classes(5)
        assert sorted(only5.degree) == [3, 3, 4, 4, 4]

    def test_min_degree_filter(self):
        assert len(classes(6, min_degree=4)) == 1
        (only6,) = classes(6, min_degree=4)
        assert only6.canonical_code() == octahedron().canonical_code()
        seven = classes(7, min_degree=4)
        assert len(seven) == 1 and sorted(seven[0].degree) == [4, 4, 4, 4, 4, 5, 5]
        assert classes(5, min_degree=4) == []


class TestStreamProperties:
    def test_all_valid_and_distinct(self):
        for n in range(4, 11):
            emitted = classes(n)
            codes = set()
            for t in emitted:
                report = t.validate()
                assert report.ok and report.regular
                codes.add(t.canonical_code())
            assert len(codes) == len(emitted)

    def test_deterministic_order(self):
        first = [t.canonical_code() for t in classes(7)]
        second = [t.canonical_code() for t in classes(7)]
        assert first == second

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_triangulations(EnumerationQuery(13)))

    @pytest.mark.parametrize("n", (7, 8, 9))
    def test_low_degree_vertex_has_low_degree_neighbor(self, n):
        # the prose case analyses exclude a degree-3 vertex whose
        # neighbours all have degree >= 7 (planarity via K33); no
        # generated triangulation realizes it
        for t in classes(n):
            lists = t.simple_neighbor_lists()
            for v, nbrs in enumerate(lists):
                if t.degree[v] == 3:
                    assert min(t.degree[w] for w in nbrs) < 7


class TestLevels:
    """Per-parent generation, the merge's check and the two selections."""

    def test_split_lists_give_the_whole_child(self):
        for n in range(4, 9):
            for rot in enumeration._classes(n)[0].values():
                for v, nbrs in enumerate(rot):
                    for i in range(len(nbrs)):
                        for j in range(i + 1, len(nbrs)):
                            changed = enumeration._split_lists(rot, v, i, j)
                            child = [changed.get(a, r) for a, r in enumerate(rot)]
                            child.append(changed[n])
                            assert ([tuple(r) for r in child]
                                    == split_vertex(rot, v, i, j))
                            assert all(changed[a] != rot[a] for a in changed if a < n)

    def test_split_darts_give_the_whole_child(self):
        # the relinked arrays build a map whose rotation at each vertex
        # is split_vertex's row, up to its starting point; the parents
        # come from the reference, so a broken relinking cannot stall
        # the generator first
        for n, level in split_closure(8).items():
            for rot in level.values():
                parent, offset = enumeration._parent_darts(rot)
                kept = [list(a) for a in parent]
                for v, nbrs in enumerate(rot):
                    for i in range(len(nbrs)):
                        for j in range(i + 1, len(nbrs)):
                            sigma, sigma_inv, alpha, origin = (
                                enumeration._split_darts(parent, offset, v, i, j))
                            t = Triangulation(sigma, alpha, origin)
                            assert all(sigma_inv[s] == d for d, s in enumerate(sigma))
                            e1 = offset[n]  # the new edge's root from v
                            assert (origin[e1], t.head(e1)) == (v, n)
                            want = split_vertex(rot, v, i, j)
                            assert len(t.vertex_darts) == len(want)
                            for darts, row in zip(t.vertex_darts, want):
                                heads = [t.head(d) for d in darts]
                                s = heads.index(row[0])
                                assert tuple(heads[s:] + heads[:s]) == row
                assert [list(a) for a in parent] == kept

    def test_levels_digest(self):
        # every class of levels 4..11 by value, in insertion order, with
        # the level's counts and neighbor_lists' order: a change to how
        # a level is stored leaves this digest as it is
        digest = hashlib.sha256()
        for n in range(4, 12):
            level, counts = enumeration._classes(n)
            rows = [[tuple(r) for r in rot]
                    for rot in enumeration.neighbor_lists(EnumerationQuery(n))]
            digest.update(repr(([(tuple(code), [tuple(r) for r in rot])
                                 for code, rot in level.items()],
                                counts, rows)).encode())
        assert digest.hexdigest() == (
            "80d4e8c82b5bfcb33ef84aae16eb82a6d9fceb673a17bd4d50713660ede0afc9")

    def test_level_12_digest(self):
        # test_levels_digest's format for the largest level
        digest = hashlib.sha256()
        for n in range(12, 13):
            level, counts = enumeration._classes(n)
            rows = [[tuple(r) for r in rot]
                    for rot in enumeration.neighbor_lists(EnumerationQuery(n))]
            digest.update(repr(([(tuple(code), [tuple(r) for r in rot])
                                 for code, rot in level.items()],
                                counts, rows)).encode())
        assert digest.hexdigest() == (
            "515189ea0065d646a10f4cde39ab4771dc4f0bf10005401a42bf9f8799f6f7cb")

    def test_class_from_two_parents_raises(self, monkeypatch):
        # with a rank test that accepts every split the degrees allow,
        # a class is kept once per orbit of new edges, so the next level
        # has isomorphic parents, which give equal codes
        monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
        monkeypatch.setattr(
            enumeration, "_ranked_split",
            lambda rot, degrees, v, i, j: (enumeration._split_lists(rot, v, i, j), []))
        with pytest.raises(ValueError, match="two parents with 6 vertices"):
            enumeration._classes(7)

    @staticmethod
    def levels(monkeypatch, cpus):
        monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
        monkeypatch.setattr(enumeration, "_available_cpus", lambda: cpus)
        enumeration._classes(11)
        return [(list(enumeration._CLASS_CACHE[n][0].items()),
                 enumeration._CLASS_CACHE[n][1]) for n in (10, 11)]

    def test_forked_levels_equal_in_process_levels(self, monkeypatch):
        # levels 10 and 11 (50 and 233 parents) on two forked workers,
        # then in this process: same classes, insertion order and counts
        monkeypatch.setattr(enumeration, "PARALLEL_MIN_PARENTS", 50)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        forked = self.levels(monkeypatch, 2)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        # the workers did the work and were joined
        assert after.ru_utime > before.ru_utime
        assert self.levels(monkeypatch, 1) == forked

    def test_daemonic_process_builds_in_process(self, monkeypatch):
        # a pool's worker may not have children of its own
        import multiprocessing
        monkeypatch.setattr(enumeration, "_CLASS_CACHE", {})
        monkeypatch.setattr(enumeration, "_available_cpus", lambda: 2)
        monkeypatch.setattr(enumeration, "PARALLEL_MIN_PARENTS", 50)
        proc = multiprocessing.get_context("fork").Process(
            target=enumeration._classes, args=(11,), daemon=True)
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 0

    def test_closed_stdout_pipe_builds_in_process(self):
        # a fork flushes stdout first; a line still buffered for a pipe
        # whose reader has gone makes that flush raise BrokenPipeError.
        # PYTHONUNBUFFERED would write the line at once and hide this.
        script = "\n".join([
            "import os, sys",
            "from spheresys import enumeration",
            "enumeration._available_cpus = lambda: 2",
            "enumeration.PARALLEL_MIN_PARENTS = 50  # level 10 would fork",
            "print('buffered')",
            "r, w = os.pipe()",
            "os.close(r)",
            "os.dup2(w, 1)",
            "print(len(enumeration._classes(10)[0]), file=sys.stderr)",
            "os._exit(0)  # the buffered line can never be written",
        ])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(enumeration.__file__))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert (proc.returncode, proc.stderr) == (0, "233\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_memory_per_class(self):
        """Building level 11 in process raises the peak RSS of a fresh
        process by at most 750 bytes per class: its edge code and its
        neighbour lists as bytes, with the list and the dict entry that
        hold them (about 560 B).  Tuples of ints take it to 880.  The
        peak is VmHWM, not ru_maxrss, which a child process inherits
        from the test process that forked it."""
        script = "\n".join([
            "import pathlib, re",
            "from spheresys import enumeration",
            "enumeration.PARALLEL_MIN_PARENTS = 10 ** 9  # in process",
            "def peak():",
            "    text = pathlib.Path('/proc/self/status').read_text()",
            "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', text)[1])",
            "enumeration._classes(10)",
            "before = peak()",
            "level = enumeration._classes(11)[0]",
            "print(len(level), (peak() - before) * 1024)",
        ])
        src = os.path.dirname(os.path.dirname(enumeration.__file__))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        classes, grown = map(int, proc.stdout.split())
        assert classes == KNOWN_COUNTS[11]
        assert grown / classes <= 750

    def test_import_leaves_multiprocessing_out(self):
        # it takes about 23 ms to import, and only a large level needs it
        src = os.path.dirname(os.path.dirname(enumeration.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, spheresys; print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout == "False\n"


class TestMaxMinDensity:
    @pytest.mark.parametrize("n,value", [(4, 9), (5, 12), (6, 16), (7, 16),
                                         (8, 18), (9, 20), (10, 20)])
    def test_values(self, n, value):
        got, extremal = max_min_density(EnumerationQuery(n))
        assert got == value
        assert extremal
        for t in extremal:
            assert t.density().min_density == value

    def test_n9_extremal_degree_sequence(self):
        _, extremal = max_min_density(EnumerationQuery(9))
        assert len(extremal) == 1
        assert sorted(extremal[0].degree) == [4, 4, 4, 5, 5, 5, 5, 5, 5]

    def test_n6_extremal_is_octahedron(self):
        _, extremal = max_min_density(EnumerationQuery(6))
        assert len(extremal) == 1
        assert extremal[0].canonical_code() == octahedron().canonical_code()

    @pytest.mark.parametrize("min_degree", (3, 4))
    @pytest.mark.parametrize("n", range(4, 11))
    def test_matches_brute_force(self, n, min_degree):
        mins = [(t.density().min_density, t.canonical_code())
                for t in classes(n, min_degree=min_degree)]
        best = max((m for m, _ in mins), default=None)
        got, extremal = max_min_density(EnumerationQuery(n, min_degree))
        assert got == best
        assert ({t.canonical_code() for t in extremal}
                == {code for m, code in mins if m == best})

    def test_builds_only_extremal_classes(self, monkeypatch):
        built = []
        build = Triangulation.from_simple_rotations

        def counting(rot):
            built.append(rot)
            return build(rot)

        monkeypatch.setattr(Triangulation, "from_simple_rotations", counting)
        _, extremal = max_min_density(EnumerationQuery(12))
        assert len(built) == len(extremal) == 1


class TestVerifyProposition:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_reports(self, n):
        report = verify_proposition(n)
        assert report["regular_max_min_density"] == {
            4: 9, 5: 12, 6: 16, 7: 16, 8: 18, 9: 20}[n]
        assert report["degenerate_ok"]
        # exact dual-walk systole traces of the degenerate maps
        # (the stellated loop has 5 vertices)
        degenerate = [("bipyramid", {4: 6, 5: 10}.get(n, 14), True)]
        if n == 4:
            degenerate.append(("loop-with-pendant", 4, True))
        if n == 5:
            degenerate.append(("stellated-loop", 4, True))
        assert report["degenerate_checks"] == degenerate
        counts = report["generation"]
        assert counts["classes"] == KNOWN_COUNTS[n]
        assert counts["children"] == counts["rejected_by_rank"] + counts["edge_codes"]
        if n > 4:  # K4 is the root, not a child
            splits = sum(d * (d - 1) // 2 for t in classes(n - 1)
                         for d in t.degree)
            assert counts["children"] == splits
            assert counts["edge_codes"] >= counts["sibling_duplicates"] + counts["classes"]

    def test_generation_counts(self):
        # a split that ranks or codes its new edge wrongly either loses a
        # class or lets duplicates reach the final code; the counts show both
        assert verify_proposition(10)["generation"] == {
            "children": 4259, "rejected_by_rank": 3750, "edge_codes": 509,
            "sibling_duplicates": 233, "classes": 233}

    @pytest.mark.parametrize("n,counts", [
        (11, {"children": 23857, "rejected_by_rank": 21729,
              "edge_codes": 2128, "sibling_duplicates": 619,
              "classes": 1249}),
        (12, {"children": 150139, "rejected_by_rank": 139594,
              "edge_codes": 10545, "sibling_duplicates": 1566,
              "classes": 7595}),
    ])
    def test_generation_counts_n11_n12(self, n, counts):
        assert verify_proposition(n)["generation"] == counts

    def test_extremal_systoles(self):
        """Every extremal class has systole trace exactly D - 2; the
        witnesses per class, in key order."""
        witnesses = {4: [3], 5: [6], 6: [12], 7: [5], 8: [12], 9: [12],
                     10: [8, 9], 11: [6, 8, 8], 12: [30]}
        for n, counts in witnesses.items():
            report = verify_proposition(n)
            d = report["regular_max_min_density"]
            assert report["extremal_ok"]
            assert report["extremal_systoles"] == [(d - 2, k) for k in counts]

    def test_extremal_check_reads_the_walk(self, monkeypatch):
        # the 6-vertex class with a degree-3 vertex has density 9 < 16, so
        # a systole below 14: passed off as extremal, it fails the check
        other = [t for t in classes(6) if min(t.degree) == 3]
        monkeypatch.setattr(enumeration, "max_min_density",
                            lambda q: (16, other))
        report = verify_proposition(6)
        assert report["extremal_systoles"] == [(10, 2)]
        assert not report["extremal_ok"]

    def test_range_check(self):
        # one cap, one error: the query refuses n < 4, the enumerator n > 12
        with pytest.raises(ValueError):
            verify_proposition(3)
        with pytest.raises(ResourceLimitError):
            verify_proposition(13)

    def test_degenerate_map_has_n_vertices(self, monkeypatch):
        # a degenerate map is checked in the row of its own vertex count
        monkeypatch.setattr(enumeration, "example_loop", octahedron)
        with pytest.raises(AssertionError, match="6 vertices, not 4"):
            verify_proposition(4)
