import dataclasses
import decimal
import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import accumulate, permutations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spheresys import cli, fixtures
from spheresys.developing import SpanningTree, develop, generators
from spheresys import geodesics
from spheresys.enumeration import EnumerationQuery, enumerate_triangulations
from spheresys.geodesics import (GeodesicWitness, ResourceLimitError,
                                 _cyclic_key, _direction_table, _gram,
                                 _prefilter,
                                 enumerate_geodesics_combinatorial,
                                 polygon_diameter_proxy,
                                 systole_combinatorial,
                                 systole_matrix_group)
from spheresys.modular import (IDENTITY, TURNS, L, R, MoebiusMap,
                               NotHyperbolicError, lr_word_value, mat_mul,
                               schmutz_bound, trace_to_length)
from spheresys.triangulation import (Triangulation, bipyramid_with_duplicates,
                                     example_loop, icosahedron, octahedron,
                                     tetrahedron)
from test_enumeration import flip
from test_modular import _unimodular
from test_triangulation import example_duplicate_edges, stellated_loop


def cyclic_words_equal(w1, w2):
    """Equality of cyclic generator words, inverses identified."""
    def key(w):
        inv = tuple((lab, -exp) for lab, exp in reversed(w))
        return min(s[i:] + s[:i] for s in (tuple(w), inv)
                   for i in range(len(s)))
    return key(w1) == key(w2)


class TestCombinatorialSystole:
    def test_tetrahedron(self):
        length, witnesses = systole_combinatorial(tetrahedron())
        assert abs(length - 2 * math.acosh(3.5)) < 1e-12
        assert len(witnesses) == 3
        assert all(w.trace == 7 for w in witnesses)

    def test_octahedron_meets_schmutz_bound(self):
        length, witnesses = systole_combinatorial(octahedron())
        assert abs(length - 2 * math.acosh(7)) < 1e-12
        assert abs(length - schmutz_bound(6)) < 1e-12
        assert len(witnesses) == 12

    def test_icosahedron_thirty_systoles(self):
        length, witnesses = systole_combinatorial(icosahedron())
        assert abs(length - 2 * math.acosh(11.5)) < 1e-12
        assert abs(length - schmutz_bound(12)) < 1e-12
        assert len(witnesses) == 30
        assert all(abs(w.trace) == 23 for w in witnesses)

    @pytest.mark.parametrize("a_priori", [3, None])
    def test_start_below_systole_raises(self, a_priori):
        # the start is proved, so one walk there that finds nothing (the
        # icosahedron's systole trace is 23) is a fault, not a cue to
        # search higher; without a bound the start is 6
        with mock.patch.object(Triangulation, "a_priori_trace_bound",
                               lambda self: a_priori):
            with pytest.raises(AssertionError, match="proved start"):
                systole_combinatorial(icosahedron())

    def test_three_vertex_maps(self):
        """The n = 3 case of the lemma in ``a_priori_trace_bound``.  Every
        map is, after relabelling its darts, one with alpha = (0 1)(2 3)
        (4 5); of all sigma on 6 darts, the valid maps are the triangle
        and the loop with two pendant edges.  Neither has an a-priori
        bound, and both have least trace 6, the default start."""
        alpha = (1, 0, 3, 2, 5, 4)
        maps = []
        for sigma in permutations(range(6)):
            origin, vertices = [None] * 6, 0
            for d in range(6):
                if origin[d] is None:
                    x = d
                    while origin[x] is None:
                        origin[x], x = vertices, sigma[x]
                    vertices += 1
            g = Triangulation(sigma, alpha, origin)
            if g.validate().ok:
                maps.append(g)
        assert len({g.canonical_code() for g in maps}) == 2
        assert {tuple(sorted(g.degree)) for g in maps} == {(2, 2, 2),
                                                           (1, 1, 4)}
        for g in maps:
            assert g.a_priori_trace_bound() is None
            assert {abs(w.trace) for w in systole_combinatorial(g)[1]} == {6}

    def test_every_built_map_has_a_proved_start(self):
        """The n >= 4 case of the lemma: every map the suite builds has an
        a-priori bound, and the one walk at it (capped at the limit)
        finds a class."""
        limit = geodesics.MAX_WALK_TRACE_BOUND
        maps = [*(g for n in range(4, 10)
                  for g in enumerate_triangulations(EnumerationQuery(n))),
                *(make() for make in fixtures.GRAPHS.values()),
                *(bipyramid_with_duplicates(m) for m in range(2, 11)),
                example_loop(), stellated_loop(), example_duplicate_edges(),
                *flipped_icosahedra(50, 17)]
        for g in maps:
            bound = g.a_priori_trace_bound()
            assert bound is not None
            assert enumerate_geodesics_combinatorial(g, min(bound, limit))

    def test_seven_cusp_five_systoles(self):
        length, witnesses = systole_combinatorial(fixtures.seven_cusp_graph())
        assert abs(length - 2 * math.acosh(7)) < 1e-12
        assert len(witnesses) == 5

    def test_ten_cusp_eight_systoles(self):
        length, witnesses = systole_combinatorial(fixtures.ten_cusp_graph())
        assert abs(length - 2 * math.acosh(9)) < 1e-12
        assert len(witnesses) == 8
        assert all(abs(w.trace) == 18 for w in witnesses)

    def test_eleven_cusp_six_systoles(self):
        length, witnesses = systole_combinatorial(fixtures.eleven_cusp_graph())
        assert abs(length - 2 * math.acosh(9)) < 1e-12
        assert len(witnesses) == 6

    def test_witness_words_reproduce_matrices(self):
        for g in (tetrahedron(), fixtures.seven_cusp_graph()):
            for w in enumerate_geodesics_combinatorial(g, 30):
                assert abs(w.trace) > 2
                assert lr_word_value("".join(w.word)) == w.matrix
                assert abs(w.length - trace_to_length(abs(w.trace))) < 1e-12

    def test_deterministic_order(self):
        a = enumerate_geodesics_combinatorial(octahedron(), 25)
        b = enumerate_geodesics_combinatorial(octahedron(), 25)
        assert [(w.word, w.trace) for w in a] == [(w.word, w.trace) for w in b]

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            enumerate_geodesics_combinatorial(tetrahedron(), 2)

    def test_bound_above_limit(self):
        limit = geodesics.MAX_WALK_TRACE_BOUND
        with pytest.raises(ResourceLimitError, match=f"limit of {limit}"):
            enumerate_geodesics_combinatorial(tetrahedron(), limit + 1)

    @pytest.mark.parametrize("a_priori", [7, None])
    def test_empty_walk_at_limit_raises(self, monkeypatch, a_priori):
        # the tetrahedron's systole trace is 7; the start is capped at
        # the limit 6, where the walk finds nothing
        monkeypatch.setattr(geodesics, "MAX_WALK_TRACE_BOUND", 6)
        monkeypatch.setattr(Triangulation, "a_priori_trace_bound",
                            lambda self: a_priori)
        with pytest.raises(ResourceLimitError):
            systole_combinatorial(tetrahedron())

    def test_start_capped_at_limit(self, monkeypatch):
        # the a-priori bound 18 lies above the limit, the systole 14 not
        g = bipyramid_with_duplicates(5)
        assert g.a_priori_trace_bound() == 18
        expected = systole_combinatorial(g, 14)
        monkeypatch.setattr(geodesics, "MAX_WALK_TRACE_BOUND", 14)
        assert systole_combinatorial(g) == expected

    def test_json_roundtrip_fields(self):
        _, witnesses = systole_combinatorial(tetrahedron())
        obj = json.loads(cli.to_json(witnesses[0]))
        assert obj["trace"] == "7"
        assert list(obj) == ["word", "matrix", "trace", "length"]
        assert MoebiusMap(*obj["matrix"]) == witnesses[0].matrix


def three_vertex_map():
    """Vertex 2 has degree 1 and is the third vertex of the face
    enclosing the loop around vertex 1."""
    return Triangulation.from_rotation_lists(
        [[0, 4, 1, 2], [3], [5]], [(0, 1), (2, 3), (4, 5)])


def walk_oracle(g, bound):
    """Exhaustive unpruned per-dart search of closed dual walks.

    Returns class key -> (trace, the least start dart where the class
    closes, the words that close it there).  Any closed turn word using
    both letters has trace at least its length plus one, so searching
    words of up to bound - 1 letters loses nothing.
    """
    sigma, alpha = g.sigma, g.alpha
    sigma_inv = [0] * g.n_darts
    for d in range(g.n_darts):
        sigma_inv[sigma[d]] = d

    def step(d, letter):
        return sigma[d] if letter == "L" else alpha[sigma_inv[alpha[d]]]

    def canon(darts):
        rev = tuple(alpha[d] for d in reversed(darts))
        return min(s[i:] + s[:i] for s in (darts, rev)
                   for i in range(len(s)))

    found = {}
    for d0 in range(g.n_darts):
        stack = [(d0, "", (), IDENTITY)]
        while stack:
            d, word, darts, m = stack.pop()
            if len(word) >= bound - 1:
                continue
            for letter in "LR":
                nxt = step(d, letter)
                nword, ndarts = word + letter, darts + (nxt,)
                nm = m * (L if letter == "L" else R)
                if nxt == d0 and 2 < nm.trace <= bound:
                    _, start, words = found.setdefault(
                        canon(ndarts), (nm.trace, d0, set()))
                    if start == d0:
                        words.add(nword)
                stack.append((nxt, nword, ndarts, nm))
    return found


class TestBruteForceOracle:
    def test_classes_and_witnesses(self):
        """The engine finds the oracle's classes with their traces, and
        each witness closes its class at the class's least start dart."""
        maps = [tetrahedron(), octahedron(),
                *enumerate_triangulations(EnumerationQuery(7)),
                example_loop(), example_duplicate_edges(),
                bipyramid_with_duplicates(2), bipyramid_with_duplicates(3),
                three_vertex_map()]
        for g in maps:
            found = walk_oracle(g, 10)
            witnesses = enumerate_geodesics_combinatorial(g, 10)
            # symmetric classes can share a witness word, so pair each
            # witness with a class it closes at that class's least dart
            options = [[key for key, (_, _, words) in found.items()
                        if "".join(w.word) in words] for w in witnesses]
            owner = {}

            def claim(i, tried):
                for key in options[i]:
                    if key not in tried:
                        tried.add(key)
                        if key not in owner or claim(owner[key], tried):
                            owner[key] = i
                            return True
                return False

            assert all(claim(i, set()) for i in range(len(witnesses)))
            assert {key: witnesses[i].trace for key, i in owner.items()} == {
                key: tr for key, (tr, _, _) in found.items()}


def all_darts_walk(g, trace_bound):
    """The dual walk as it was before it carried only live start darts:
    every start dart's reached dart at every word, keys formed for every
    closure."""
    sigma, alpha = g.sigma, g.alpha
    n_darts = g.n_darts
    # the turns as dart permutations; R(d) = alpha[sigma^-1[alpha[d]]] is
    # sigma[alpha[sigma[d]]] since faces are triangles.  Swapping L and R
    # transposes the cyclic product, so it changes only the spelling
    perms = {"L": sigma,
             "R": [sigma[alpha[sigma[d]]] for d in range(n_darts)]}

    found = {}
    # iterative DFS: (matrix, word, dart reached from each start dart)
    stack = [((1, 0, 0, 1), "", tuple(range(n_darts)))]
    while stack:
        m, word, reached = stack.pop()
        for letter in "LR":
            nm = mat_mul(m, TURNS[letter])
            tr = nm[0] + nm[3]
            # a trace above the bound never drops back down, and a pure
            # word past trace_bound - 2 letters closes nothing below it
            if tr > trace_bound or tr == 2 and len(word) >= trace_bound - 2:
                continue
            nword = word + letter
            nreached = tuple(map(perms[letter].__getitem__, reached))
            for d0, d in enumerate(nreached):
                if d != d0 or tr == 2:
                    continue
                darts = tuple(accumulate(
                    nword, lambda x, turn: perms[turn][x], initial=d0))[1:]
                key = _cyclic_key(darts, tuple(alpha[x] for x in reversed(darts)))
                if d0 == key[0] and key not in found:
                    mat = MoebiusMap(*nm)
                    found[key] = GeodesicWitness(
                        tuple(nword), mat, mat.trace, trace_to_length(tr))
            stack.append((nm, nword, nreached))

    return sorted(found.values(),
                  key=lambda w: (abs(w.trace), len(w.word), w.word))


def flipped_icosahedra(count, seed):
    """``count`` distinct maps on a seeded random walk of diagonal flips
    from the icosahedron."""
    rng = random.Random(seed)
    t, maps, codes = icosahedron(), [], set()
    while len(maps) < count:
        t = flip(t, rng.randrange(t.n_edges)) or t
        if t.canonical_code() not in codes:
            codes.add(t.canonical_code())
            maps.append(t)
    return maps


class TestLiveStarts:
    # the reference takes 0.1-0.2 s per map at bound 60, so that bound
    # sees the classes up to 7 vertices and 10 flipped icosahedra
    @pytest.mark.parametrize("bound, n_max, flips",
                             [(10, 8, 50), (30, 8, 50), (60, 7, 10)])
    def test_witnesses_equal_all_darts_walk(self, bound, n_max, flips):
        """Carrying only the live starts gives the all-darts walk's
        witnesses, words, traces, matrices and order included."""
        maps = [*(make() for make in fixtures.GRAPHS.values()),
                example_loop(), example_duplicate_edges(),
                *(bipyramid_with_duplicates(m) for m in range(2, 6)),
                three_vertex_map(),
                *(g for n in range(4, n_max + 1)
                  for g in enumerate_triangulations(EnumerationQuery(n))),
                *flipped_icosahedra(flips, 17)]
        for g in maps:
            assert [(w.word, w.trace, w.matrix)
                    for w in enumerate_geodesics_combinatorial(g, bound)] == \
                [(w.word, w.trace, w.matrix) for w in all_darts_walk(g, bound)]

    def test_one_tree_across_bounds(self, monkeypatch):
        """Walks at bounds 100, 22, 10, 30 and 14 in one process all read
        the tree built at 100, and each gives the all-darts walk's
        witnesses at its own bound."""
        monkeypatch.setattr(geodesics, "_shared_tree", None)
        maps = [tetrahedron(), three_vertex_map(), example_loop(),
                bipyramid_with_duplicates(2)]
        for bound in (100, 22, 10, 30, 14):
            for g in maps:
                assert [(w.word, w.trace, w.matrix) for w in
                        enumerate_geodesics_combinatorial(g, bound)] == \
                    [(w.word, w.trace, w.matrix)
                     for w in all_darts_walk(g, bound)]
        tree = geodesics._shared_tree
        assert tree.bound == 100
        # the empty word and 26,310 others, as MAX_WALK_TRACE_BOUND states
        assert len(tree.kids) == len(tree.parent) == 26311


class TestMatrixGroup:
    def test_arithmetic_eleven_classes(self, gamma11_search):
        rep = gamma11_search
        assert rep.frontier_exhausted
        assert len(rep.witnesses) == 6
        assert all(abs(w.trace) == 18 for w in rep.witnesses)
        assert rep.min_trace_above_bound == 22
        matched = set()
        for w in rep.witnesses:
            for i, printed in enumerate(fixtures.ELEVEN_CUSP_SYSTOLE_WORDS):
                if cyclic_words_equal(w.word, printed):
                    matched.add(i)
        assert matched == set(range(6))

    def test_arithmetic_ten_classes(self, gamma10_search):
        rep = gamma10_search
        assert rep.frontier_exhausted
        assert len(rep.witnesses) == 8
        assert all(abs(w.trace) == 18 for w in rep.witnesses)

    def test_perturbed_eleven_certified_empty(self, alpha11_search):
        rep = alpha11_search
        assert rep.witnesses == []
        assert rep.frontier_exhausted
        assert rep.min_trace_above_bound == Q(36361, 2020)

    def test_perturbed_ten_certified_empty(self, alpha10_search):
        rep = alpha10_search
        assert rep.witnesses == []
        assert rep.frontier_exhausted
        assert f"{-float(rep.min_trace_above_bound):.4f}" == "-18.1596"

    def test_report_carries_certificate_parameters(self, alpha11_search):
        rep = alpha11_search
        assert rep.trace_bound == 18
        assert rep.diameter is not None
        expected = 2 * math.acosh(9) + 2 * rep.diameter
        assert abs(rep.horizon - expected) < 1e-12
        assert rep.states_explored > 0

    def test_without_diameter_not_certified(self):
        gens = {2: fixtures.A7[2], 3: fixtures.A7[3]}
        rep = systole_matrix_group(gens, 14)
        assert not rep.frontier_exhausted
        assert rep.diameter is None
        assert any(abs(w.trace) == 14 for w in rep.witnesses)

    def test_states_explored_pinned(self, gamma10_search, alpha10_search,
                                    gamma11_search, alpha11_search):
        assert [rep.states_explored for rep in (
            gamma10_search, alpha10_search, gamma11_search,
            alpha11_search)] == [124766, 124480, 373061, 372753]

    def test_state_cap_reported_as_partial(self):
        # a cap is checked as each element is added, not once per level
        for cap in (100, 1000, 20000):
            with mock.patch.object(geodesics, "MAX_SWEEP_STATES", cap):
                rep = systole_matrix_group(fixtures.GAMMA10, 18,
                                           diameter=4.5)
            assert not rep.frontier_exhausted
            assert rep.states_explored == cap

    def test_cap_inside_a_level(self, monkeypatch):
        """A cap of 20,000 stops the ALPHA10 sweep while level 5 (11,197
        to 29,372 elements) is being built from level 4: every count,
        the least trace above and the witnesses, pinned."""
        gens, diameter = fixtures.generator_set("alpha10")
        monkeypatch.setattr(geodesics, "MAX_SWEEP_STATES", 20000)
        rep = systole_matrix_group(gens, 18, diameter=diameter)
        assert (rep.states_explored, rep.products_tried, rep.filter_rejects,
                rep.exact_rejects, rep.frontier_exhausted) == (
                    20000, 95513, 75513, 0, False)
        assert rep.min_trace_above_bound == Q(45399, 2500)
        assert rep.witnesses == []

    def test_sweep_finishing_at_its_cap(self, monkeypatch):
        gens = {2: fixtures.A7[2], 3: fixtures.A7[3]}
        full = systole_matrix_group(gens, 14, diameter=1.0)
        assert full.frontier_exhausted
        n = full.states_explored
        monkeypatch.setattr(geodesics, "MAX_SWEEP_STATES", n)
        exact = systole_matrix_group(gens, 14, diameter=1.0)
        assert exact.frontier_exhausted and exact.states_explored == n
        assert exact.witnesses == full.witnesses
        monkeypatch.setattr(geodesics, "MAX_SWEEP_STATES", n - 1)
        short = systole_matrix_group(gens, 14, diameter=1.0)
        assert not short.frontier_exhausted
        assert short.states_explored == n - 1

    def test_relation_refused(self):
        """Two words giving one element prove the generators are not a
        free basis; the error names both words."""
        with pytest.raises(ValueError, match="relation") as err:
            systole_matrix_group({1: fixtures.A7[2], 2: fixtures.A7[2]}, 14,
                                 diameter=1.0)
        assert "1^1" in str(err.value) and "2^1" in str(err.value)
        # the 13 published GAMMA11 matrices: 12 = 2 8^-1 4^-1
        _, diameter = fixtures.generator_set("gamma11")
        with pytest.raises(ValueError, match="relation"):
            systole_matrix_group(fixtures.GAMMA11, 18, diameter=diameter)

    @pytest.mark.parametrize("gens,bound,message", [
        # the 13 published GAMMA11 matrices: 12 = 2 8^-1 4^-1
        (fixtures.GAMMA11, 18, "the generators satisfy a relation, so they "
         "are not a free basis: the words 4^-1 12^-1 and 8^1 2^-1 give the "
         "same element"),
        ({1: fixtures.A7[2], 2: fixtures.A7[2]}, 14, "the generators satisfy "
         "a relation, so they are not a free basis: the words 1^1 and 2^1 "
         "give the same element"),
        # 1^1 1^1 2^1 is the rotation (3/5, -4/5; 4/5, 3/5)
        ({1: MoebiusMap(4, 0, 0, Q(1, 4)),
          2: MoebiusMap(Q(3, 80), Q(-1, 20), Q(64, 5), Q(48, 5))}, 18,
         "the group is not discrete: the word 1^1 1^1 2^1 has trace 6/5, "
         "an elliptic of infinite order"),
    ], ids=["gamma11-relation", "repeated-generator", "infinite-order"])
    def test_refusal_spells_words_in_full(self, gens, bound, message):
        """The words in a refusal are spelled letter for letter."""
        diameter = (fixtures.generator_set("gamma11")[1]
                    if gens is fixtures.GAMMA11 else 1.0)
        with pytest.raises(ValueError) as err:
            systole_matrix_group(gens, bound, diameter=diameter)
        assert str(err.value) == message

    @pytest.mark.parametrize("gens,word", [({1: IDENTITY}, "1^1"),
                                           ({1: L, 2: IDENTITY}, "2^1")])
    def test_identity_generator_refused(self, gens, word):
        """Only an identity generator reaches the identity, so the
        refusal names its one word."""
        with pytest.raises(ValueError) as err:
            systole_matrix_group(gens, 18, diameter=1.0)
        assert str(err.value) == (
            f"the generators satisfy a relation, so they are not a free "
            f"basis: the word {word} gives the identity")

    @pytest.mark.parametrize("gens,bound,cap", [
        ({2: fixtures.A7[2], 3: fixtures.A7[3]}, 14,
         geodesics.MAX_SWEEP_STATES),
        ({2: fixtures.A7[2], 3: fixtures.A7[3]}, 14, 20),
        ({1: fixtures.A7[2], 2: fixtures.A7[2]}, 14,
         geodesics.MAX_SWEEP_STATES),
        ({1: MoebiusMap(4, 0, 0, Q(1, 4)),
          2: MoebiusMap(Q(3, 80), Q(-1, 20), Q(64, 5), Q(48, 5))}, 18,
         geodesics.MAX_SWEEP_STATES),
    ], ids=["a7-pair", "a7-pair-capped", "repeated-generator",
            "infinite-order"])
    def test_hash_collisions_change_nothing(self, gens, bound, cap):
        """With a hash of three values, nearly every element's key is
        already in the seen set: each hit is settled on the entries, so
        the sweep gives the same report (all 39 states of the A7 pair, or
        20 at a cap), or the same refusal."""
        def sweep():
            with mock.patch.object(geodesics, "MAX_SWEEP_STATES", cap):
                try:
                    return systole_matrix_group(gens, bound, diameter=1.0)
                except ValueError as exc:
                    return str(exc)

        plain = sweep()
        with mock.patch.object(geodesics, "hash", lambda t: t[0] % 3,
                               create=True):
            assert sweep() == plain

    @given(_unimodular(), _unimodular())
    def test_keys_hash_the_canonical_form(self, x, y):
        """The expansion loop's inline copy of ``MoebiusMap``'s canonical
        form: the sweep hashes each element's entries in canonical form,
        and level 2 holds the canonical forms of the products of the
        steps, in move order."""
        gens = {1: MoebiusMap(*x), 2: MoebiusMap(*y)}
        steps = [m for g in gens.values() for m in (g, g.inverse())]
        pairs = [(s, t) for i, s in enumerate(steps)
                 for j, t in enumerate(steps) if j != i ^ 1]
        # a cap of at least 2 cosh(2 diameter), above every element of
        # levels 1 and 2
        needed = max(map(norm2, steps + [s * t for s, t in pairs]))
        diameter = math.acosh(float(needed) / 2) / 2 + 1
        hashed = []
        refused = False
        with mock.patch.object(geodesics, "hash",
                               lambda t: hashed.append(t) or hash(t),
                               create=True), \
                mock.patch.object(geodesics, "MAX_SWEEP_STATES", 17):
            try:
                systole_matrix_group(gens, 3, diameter=diameter)
            except ValueError:
                refused = True
        assert all(dataclasses.astuple(MoebiusMap(*t)) == t for t in hashed)
        if not refused:
            # the identity, level 1, then level 2
            assert hashed[5:17] == [dataclasses.astuple(s * t)
                                    for s, t in pairs]

    @pytest.mark.parametrize("diameter", [math.nan, math.inf, -5, "abc",
                                          True])
    def test_diameter_must_be_finite_nonnegative(self, diameter):
        gens = {1: fixtures.A7[2], 2: fixtures.A7[3]}
        with pytest.raises(ValueError):
            systole_matrix_group(gens, 14, diameter=diameter)

    def test_witness_words_reproduce_matrices(self, gamma11_search):
        # a rational generator set too: its states carry denominators
        gens, diameter = fixtures.generator_set("b7")
        b7 = systole_matrix_group(gens, Q(351, 25), diameter=diameter)
        assert b7.frontier_exhausted
        assert (len(b7.witnesses), b7.states_explored) == (5, 5805)
        for gens, rep in ((fixtures.GAMMA11, gamma11_search),
                          (fixtures.B7, b7)):
            for w in rep.witnesses:
                assert fixtures.word_matrix(gens, w.word) in (
                    w.matrix, w.matrix.inverse())
                assert abs(w.trace) > 2

    def test_non_unimodular_generator(self):
        # generators reach the engine as MoebiusMaps, and the constructor
        # refuses a rational matrix whose determinant is not 1
        assert MoebiusMap(Q(2, 3), Q(1, 5), 0, Q(3, 2)).den == 30
        with pytest.raises(ValueError):
            MoebiusMap(Q(2, 3), Q(1, 5), 0, Q(5, 2))

    @pytest.mark.parametrize("bound,diameter", [(10 ** 400, 1.0), (18, 400),
                                                (18, 10 ** 400)])
    def test_horizon_overflow_refused(self, bound, diameter):
        with pytest.raises(ValueError):
            systole_matrix_group(fixtures.A7, bound, diameter=diameter)

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            systole_matrix_group(fixtures.A7, 2)

    def test_empty_generator_set_refused(self):
        # the trivial group has no class to sweep: nothing to certify
        with pytest.raises(ValueError, match="no generators"):
            systole_matrix_group({}, 18, diameter=1.0)

    def test_prune_counts(self):
        """Every product tried is rejected by the float filter or the
        exact test, or explored; the counts of one small sweep, with the
        filter on and off."""
        gens = {2: fixtures.A7[2], 3: fixtures.A7[3]}
        rep = systole_matrix_group(gens, 14, diameter=1.0)
        assert rep.frontier_exhausted
        assert (rep.states_explored, rep.products_tried, rep.filter_rejects,
                rep.exact_rejects) == (39, 118, 80, 0)
        with mock.patch.object(geodesics, "_prefilter", lambda *args: None):
            exact = systole_matrix_group(gens, 14, diameter=1.0)
        assert (exact.states_explored, exact.products_tried,
                exact.filter_rejects, exact.exact_rejects) == (39, 118, 0, 80)
        # at the cap, the product that found it full is tried but is
        # neither rejected nor explored, and no later move is tried
        with mock.patch.object(geodesics, "MAX_SWEEP_STATES", 38):
            capped = systole_matrix_group(gens, 14, diameter=1.0)
        assert (capped.states_explored, capped.products_tried,
                capped.filter_rejects, capped.exact_rejects) == (38, 110, 72, 0)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak RSS from /proc/self/status")
    def test_memory_per_explored_element(self):
        """The bound-18 sweeps raise the peak RSS of a fresh process by at
        most 180 (GAMMA10) and 210 (ALPHA10's rationals) bytes per
        explored element: the hash of its entries in the seen set and the
        key array, two array entries for its parent and last move, and
        its entry tuple while its level is built or expanded (about 155
        and 179 B).  Keeping every element's tuple for the whole sweep
        takes them to about 285 and 374.
        The peak is VmHWM, not ru_maxrss, which a child process inherits
        from the test process that forked it."""
        for name, states, limit in (("gamma10", 124766, 180),
                                    ("alpha10", 124480, 210)):
            script = "\n".join([
                "import pathlib, re",
                "from spheresys import fixtures, geodesics",
                "def peak():",
                "    text = pathlib.Path('/proc/self/status').read_text()",
                "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', text)[1])",
                f"gens, diameter = fixtures.generator_set({name!r})",
                "before = peak()",
                "rep = geodesics.systole_matrix_group(gens, 18, "
                "diameter=diameter)",
                "print(rep.states_explored, (peak() - before) * 1024)",
            ])
            src = os.path.dirname(os.path.dirname(geodesics.__file__))
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  timeout=120,
                                  env=dict(os.environ, PYTHONPATH=src))
            explored, grown = map(int, proc.stdout.split())
            assert explored == states
            assert grown / explored <= limit, name

    def test_no_cosh_on_certified_path(self):
        """The cap is exact arithmetic: with math.cosh and math.exp
        raising, the A7 pair and B7 still certify, with their counts."""
        def refuse(*args):
            raise AssertionError("cosh or exp on the certified path")

        with mock.patch.object(math, "cosh", refuse), \
                mock.patch.object(math, "exp", refuse):
            rep = systole_matrix_group({2: fixtures.A7[2], 3: fixtures.A7[3]},
                                       14, diameter=1.0)
            gens, diameter = fixtures.generator_set("b7")
            b7 = systole_matrix_group(gens, Q(351, 25), diameter=diameter)
        assert rep.frontier_exhausted and rep.states_explored == 39
        assert b7.frontier_exhausted
        assert (len(b7.witnesses), b7.states_explored) == (5, 5805)


def norm2(m):
    """The exact a^2 + b^2 + c^2 + d^2, summed over the integers: adding
    Fractions with 400-digit parts would take most of a sweep's time."""
    return Q(sum(x * x for x in m.quad), m.den * m.den)


def reference_sweep(gens, bound, diameter, max_states):
    """The breadth-first sweep with the exact displacement test alone.

    Returns the explored elements with their words, the candidates
    (hyperbolic, |trace| <= bound), the least |trace| above the bound
    and the products equal to an element already explored (each proves
    a relation), computed with Fractions throughout.  Like the engine,
    it stops at the first new element found once max_states are held,
    so nothing past that point is recorded.
    """
    cap = Q(*geodesics._sweep_cap(Q(bound), Q(diameter)))
    steps = {}
    for lab, m in gens.items():
        steps[(lab, 1)] = m
        steps[(lab, -1)] = m.inverse()
    seen = {IDENTITY: ()}
    frontier = [IDENTITY]
    candidates, above, repeated = {}, [], []
    full = False
    while frontier and not full:
        nxt = []
        for s in frontier:
            word = seen[s]
            for tok, t in steps.items():
                if word and word[-1] == (tok[0], -tok[1]):
                    continue
                # the exact norm test on the raw product, before the gcd
                prod, den = mat_mul(s.quad, t.quad), s.den * t.den
                if (sum(x * x for x in prod) * cap.denominator
                        > den * den * cap.numerator):
                    continue
                w = MoebiusMap(*prod, den)
                if w in seen:
                    repeated.append(w)
                    continue
                if len(seen) >= max_states:
                    full = True
                    break
                seen[w] = word + (tok,)
                nxt.append(w)
                tr = abs(w.trace)
                if tr > bound:
                    above.append(tr)
                elif tr > 2:
                    candidates[w] = seen[w]
            if full:
                break
        frontier = nxt
    return seen, candidates, min(above, default=None), repeated


def diameter_for_cap(bound, norm):
    """The least diameter whose sweep cap, as the engine rounds it, is
    at least norm (and 0 when the bound alone gives a larger cap)."""
    def cap(d):
        return Q(*geodesics._sweep_cap(Q(bound), Q(d)))

    base = 2.0 * math.acosh(bound / 2.0)
    lo, hi = 0.0, max(0.0, (math.acosh(norm / 2.0) - base) / 2.0)
    if cap(lo) >= norm:
        return lo
    while cap(hi) < norm:
        hi = math.nextafter(hi, math.inf)
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if cap(mid) >= norm else (mid, hi)
    return hi


def exact_cap(bound, diameter):
    """2 cosh(2 arccosh(bound/2) + 2 diameter) to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(bound.numerator) / bound.denominator / 2
        h = 2 * (x + (x * x - 1).sqrt()).ln() + 2 * decimal.Decimal(diameter)
        return Q(h.exp() + (-h).exp())


CAP_BOUNDS = [Q(2) + Q(1, 2 ** 60), Q(201, 100), Q(3), Q(7, 2), Q(351, 25),
              Q(14), Q(18), Q(30)]


def cap_cases(bound):
    """(bound, diameter) pairs for the cap checks: seven diameters, and at
    bound 18 the named sets' proxy diameters (A7 and B7 at 14)."""
    cases = [(bound, d) for d in (0.0, 0.25, 1.0, 1.5, 3.0, 10.0, 300.0)]
    if bound == 18:
        cases += [(Q(14) if name in ("a7", "b7") else bound,
                   fixtures.generator_set(name)[1])
                  for name in fixtures.GENERATOR_SETS]
    return cases


class TestSweepCap:
    @pytest.mark.parametrize("bound", CAP_BOUNDS, ids=str)
    def test_cap_rounded_outward(self, bound):
        """The exact cap M / K is at least 2 cosh of the horizon and within
        a relative 2^-60 of it; the 60-digit oracle is itself good to
        about 10^-55, so it is allowed 10^-50 below."""
        for b, d in cap_cases(bound):
            cap, exact = Q(*geodesics._sweep_cap(b, Q(d))), exact_cap(b, d)
            assert exact * (1 - Q(1, 10 ** 50)) <= cap
            assert cap <= exact * (1 + Q(1, 2 ** 60)), (b, d)

    @pytest.mark.parametrize("bound", CAP_BOUNDS, ids=str)
    def test_closed_form_bounds_its_square(self, bound):
        """In rationals alone: at the C the cap is built from, y = M/(2K) -
        (b^2/2 - 1)(2 C^2 - 1) >= 0 and y^2 >= b^2 C^2 (b^2 - 4)(C^2 - 1),
        so M / K is at least the closed form's exact value; and C >= 1."""
        for b, d in cap_cases(bound):
            m, k = geodesics._sweep_cap(b, Q(d))
            c = Q(*geodesics._cosh_above(Q(d)))
            y = Q(m, 2 * k) - (b * b / 2 - 1) * (2 * c * c - 1)
            assert c >= 1 and y >= 0
            assert y * y >= b * b * c * c * (b * b - 4) * (c * c - 1)


def unimodular(a, b, c):
    """The determinant-one matrix (a b; c (1 + b c) / a)."""
    return MoebiusMap(a, b, c, (1 + b * c) / a)


_small = st.integers(-3, 3)
_integer_gen = st.tuples(_small, _small, _small).map(
    lambda t: MoebiusMap(1, t[0], 0, 1) * MoebiusMap(1, 0, t[1], 1)
    * MoebiusMap(1, t[2], 0, 1))
_rational_gen = st.tuples(
    st.sampled_from([1, 2, -1, Q(1, 2), Q(-3, 2), Q(2, 3), 3]),
    st.fractions(Q(-3), Q(3), max_denominator=7),
    st.fractions(Q(-3), Q(3), max_denominator=7)).map(
    lambda t: unimodular(*t))
_tiny = Q(1, 10 ** 400)
_huge_gen = st.sampled_from([
    MoebiusMap(1 / _tiny, 0, 0, _tiny),
    MoebiusMap(1, 1 / _tiny, 0, 1),
    MoebiusMap(_tiny, -1, 1 - 3 * _tiny, 3)])


@st.composite
def _generator_sets(draw):
    """Integer, rational and huge- or tiny-entry generators, at times
    all conjugated by one rational matrix."""
    ms = draw(st.lists(_integer_gen | _rational_gen | _huge_gen,
                       min_size=1, max_size=3))
    c = draw(st.none() | _rational_gen)
    if c is not None:
        ms = [c * m * c.inverse() for m in ms]
    return {i + 1: m for i, m in enumerate(ms)}


class TestFloatPrefilter:
    @settings(max_examples=40, deadline=None)
    @given(_generator_sets(), st.sampled_from([3, Q(7, 2), 5, 8, 12]),
           st.floats(0.0, 1.5), st.sampled_from([100, 400]),
           st.sampled_from([0, 1, 3]))
    # L^-1 = (1, -1, 0, 1, 1) and L^-2 hash alike, as hash(-1) == hash(-2)
    @example({1: L}, 3, 0.0, 100, 0)
    def test_sweep_matches_exact_reference(self, gens, bound, diameter,
                                           max_states, short):
        seen = reference_sweep(gens, bound, diameter, max_states)[0]
        if len(seen) < max_states:
            # lower the cap onto the largest norm found: the sweep is the
            # same, with that element on the boundary of the exact test
            diameter = diameter_for_cap(bound, max(map(norm2, seen)))
            # and stop it `short` states before its full size, so that
            # it meets max_states part way through an element's moves
            max_states = max(1, len(seen) - short)
        seen, candidates, min_above, repeated = reference_sweep(
            gens, bound, diameter, max_states)
        # a relation among the generators, or an elliptic of infinite
        # order (the group is not discrete), refuses the generator set
        refused = bool(repeated) or any(
            abs(w.trace) < 2 and abs(w.trace) not in (0, 1) for w in seen)

        def sweep():
            try:
                with mock.patch.object(geodesics, "MAX_SWEEP_STATES",
                                       max_states):
                    return systole_matrix_group(gens, bound, diameter=diameter)
            except ValueError as exc:
                assert "relation" in str(exc) or "not discrete" in str(exc)
                return None

        rep = sweep()
        # the same sweep with the filter off
        with mock.patch.object(geodesics, "_prefilter", lambda *args: None):
            exact = sweep()
        assert (rep is None) == (exact is None) == refused
        if refused:
            return
        assert rep.states_explored == len(seen)
        assert rep.min_trace_above_bound == min_above
        for w in rep.witnesses:
            assert candidates[w.matrix] == w.word
        # the filter moves rejects from the exact test to itself and
        # changes nothing else; each product tried is rejected or
        # explored, or found the cap full (with a diameter given, only
        # the cap leaves the frontier unexhausted)
        for r in (rep, exact):
            assert r.products_tried == (
                r.filter_rejects + r.exact_rejects + r.states_explored - 1
                + (not r.frontier_exhausted))
        assert exact.filter_rejects == 0
        assert rep == dataclasses.replace(
            exact, filter_rejects=rep.filter_rejects,
            exact_rejects=exact.exact_rejects - rep.filter_rejects)

    @given(st.lists(_integer_gen | _rational_gen, min_size=1, max_size=6),
           _integer_gen | _rational_gen | _huge_gen)
    def test_never_rejects_an_accepted_product(self, factors, t):
        """At a cap just above both ||S||^2 and ||S t||^2 nothing is cut."""
        s = functools.reduce(lambda x, y: x * y, factors)
        needed = max(norm2(s), norm2(s * t))
        assume(needed < 2 ** 1000)
        cap = float(needed)
        if Q(cap) < needed:
            cap = math.nextafter(cap, math.inf)
        filt = _prefilter(t, cap)
        if filt is None:
            return
        g11, g12, g22 = _gram(s.quad, s.den)
        h11, h12x2, h22, threshold, _ = filt
        assert g11 * h11 + g12 * h12x2 + g22 * h22 <= threshold

    @given(st.lists(_integer_gen | _rational_gen, min_size=1, max_size=6),
           _integer_gen | _rational_gen | _huge_gen, st.integers(0, 2))
    def test_never_accepts_a_rejected_product(self, factors, t, steps):
        """A product at or below the accept threshold passes ``_within``.
        The cap is max(||S||^2, ||S t||^2) rounded to a float, then up to
        two floats lower (never below ||S||^2), where the exact test is
        tightest: an accept threshold of the cap itself fails here."""
        s = functools.reduce(lambda x, y: x * y, factors)
        needed = max(norm2(s), norm2(s * t))
        assume(needed < 2 ** 1000)
        cap = float(needed)
        for _ in range(steps):
            cap = math.nextafter(cap, 0)
        assume(Q(cap) >= norm2(s))
        filt = _prefilter(t, cap)
        if filt is None:
            return
        g11, g12, g22 = _gram(s.quad, s.den)
        h11, h12x2, h22, _, accept = filt
        if g11 * h11 + g12 * h12x2 + g22 * h22 <= accept:
            prod, den = mat_mul(s.quad, t.quad), s.den * t.den
            assert geodesics._within(prod, den, Q(cap).as_integer_ratio())


    @settings(max_examples=300)
    @given(st.lists(_integer_gen | _rational_gen, min_size=1, max_size=6),
           _integer_gen | _rational_gen | _huge_gen)
    # a bucket whose least value of ||S t||^2 lies inside the shell
    @example([MoebiusMap(1, 1, 1, 2)], MoebiusMap(4, -3, -1, 1))
    def test_table_drops_only_rejected_moves(self, factors, t):
        """A move the direction table leaves out for S is one the float
        filter rejects.  Each partial product S of the factors is tested,
        at a cap just above the largest ||S||^2 and ||S t||^2: the filter
        passes S t where ||S t||^2 is that largest, so S's bucket must
        list t there, and the other S lie inside the shell."""
        prefixes = list(accumulate(factors, lambda x, y: x * y))
        needed = max(max(norm2(s), norm2(s * t)) for s in prefixes)
        assume(needed < 2 ** 1000)
        cap = float(needed)
        if Q(cap) < needed:
            cap = math.nextafter(cap, math.inf)
        filt = _prefilter(t, cap) or (0.0, 0.0, 0.0, math.inf, -math.inf)
        moves = [(0, *filt)]
        outer, scale, rows = _direction_table([t], moves, [moves], cap)
        h11, h12x2, h22, threshold, _ = filt
        for s in prefixes:
            g11, g12, g22 = _gram(s.quad, s.den)
            if g11 + g22 < outer:
                continue        # S tests every move
            # the expansion loop's bucket of S
            bucket = rows[0][int((math.atan2(g12, (g11 - g22) / 2)
                                  + math.pi) * scale)]
            if not bucket:
                assert g11 * h11 + g12 * h12x2 + g22 * h22 > threshold

    def test_table_lists_few_moves_far_out(self):
        """On GAMMA10 at bound 18 an outer bucket lists fewer than half
        of the 18 moves on average, so the table saves filter tests."""
        gens, diameter = fixtures.generator_set("gamma10")
        cap = math.nextafter(
            Q(*geodesics._sweep_cap(Q(18), Q(diameter))), math.inf)
        steps = [m for g in gens.values() for m in (g, g.inverse())]
        moves = [(k, *_prefilter(t, cap)) for k, t in enumerate(steps)]
        _, _, rows = _direction_table(steps, moves, [moves], cap)
        sizes = [len(bucket) for bucket in rows[0]]
        assert sum(sizes) < len(sizes) * len(moves) / 2


class TestWordTrace:
    def test_pair_product(self):
        # the product is (-25 16; -11 7) up to the canonical sign
        m = fixtures.word_matrix(fixtures.GAMMA11, [(4, 1), (3, 1)])
        assert abs(m.trace) == 18
        assert (abs(m.a), abs(m.b), abs(m.c), abs(m.d)) == (25, 16, 11, 7)

    def test_parabolic_quotient(self):
        m = fixtures.word_matrix(fixtures.GAMMA10, [(2, 1), (1, -1)])
        assert abs(m.trace) == 18

    def test_empty_word(self):
        assert fixtures.word_matrix(fixtures.GAMMA10, []).trace == 2

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            fixtures.word_matrix(fixtures.GAMMA10, [(42, 1)])


def brute_cyclic_key(seq, rev):
    return min(s[i:] + s[:i] for s in (seq, rev) for i in range(len(s)))


class TestCyclicKey:
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=12),
           st.integers(0, 11), st.booleans())
    def test_dart_cycles(self, darts, shift, invert):
        alpha = [d ^ 1 for d in range(8)]          # twins 0-1, 2-3, ...

        def key(seq):
            return _cyclic_key(seq, tuple(alpha[d] for d in reversed(seq)))

        seq = tuple(darts)
        other = seq[shift % len(seq):] + seq[:shift % len(seq)]
        if invert:
            other = tuple(alpha[d] for d in reversed(other))
        assert key(other) == key(seq)
        assert key(seq) == brute_cyclic_key(
            seq, tuple(alpha[d] for d in reversed(seq)))

    @given(st.lists(st.tuples(st.sampled_from([1, 2, 3]),
                              st.sampled_from([1, -1])),
                    min_size=1, max_size=10),
           st.integers(0, 9), st.booleans())
    def test_generator_words(self, word, shift, invert):
        def inverse(w):
            return tuple((lab, -exp) for lab, exp in reversed(w))

        def key(w):
            return _cyclic_key(w, inverse(w))

        w = tuple(word)
        other = w[shift % len(w):] + w[:shift % len(w)]
        if invert:
            other = inverse(other)
        assert key(other) == key(w)
        assert key(w) == brute_cyclic_key(w, inverse(w))


def verify_density_length(g, e):
    """Trace and length of the dual-walk witness crossing edge e.

    The geodesic crossing an edge with endpoint degrees m1, m2 spells
    L R^(m1-2) L R^(m2-2) and has trace D - 2 for density D = m1 * m2.
    """
    u, v = g.edge_endpoints(e)
    m1, m2 = g.degree[u], g.degree[v]
    if m1 < 2 or m2 < 2:
        raise ValueError("witness word needs both endpoint degrees >= 2")
    d = m1 * m2
    if d <= 4:
        raise NotHyperbolicError(f"density {d} gives trace {d - 2} <= 2")
    word = "L" + "R" * (m1 - 2) + "L" + "R" * (m2 - 2)
    assert lr_word_value(word).trace == d - 2
    return d - 2, trace_to_length(d - 2)


class TestVerifyDensityLength:
    def test_tetrahedron_edge(self):
        tr, length = verify_density_length(tetrahedron(), 0)
        assert tr == 7
        assert abs(length - 2 * math.acosh(3.5)) < 1e-12

    def test_density_twenty_edge(self):
        g = fixtures.ten_cusp_graph()
        dens = g.density()
        e = dens.densities.index(20)
        tr, length = verify_density_length(g, e)
        assert tr == 18
        assert abs(length - 2 * math.acosh(9)) < 1e-12

    def test_smallest_hyperbolic_density(self):
        g = example_loop()
        e = next(e for e in range(g.n_edges)
                 if sorted(g.degree[v] for v in g.edge_endpoints(e)) == [2, 3])
        tr, length = verify_density_length(g, e)
        assert tr == 4
        assert abs(length - 2 * math.acosh(2)) < 1e-12

    def test_not_hyperbolic(self):
        doubled = Triangulation.from_oriented_faces([(0, 1, 2), (0, 2, 1)])
        with pytest.raises(NotHyperbolicError):
            verify_density_length(doubled, 0)

    def test_degree_one_endpoint(self):
        g = example_loop()
        e = next(e for e in range(g.n_edges)
                 if 1 in (g.degree[v] for v in g.edge_endpoints(e)))
        with pytest.raises(ValueError):
            verify_density_length(g, e)


class TestConsistency:
    def test_cross_engine_trace_multisets(self, cross_engine_multisets):
        for label, (comb, matrix, report) in cross_engine_multisets.items():
            assert report.frontier_exhausted, label
            assert comb == matrix, label

    def test_systole_below_every_density_witness(self):
        for g in (tetrahedron(), fixtures.seven_cusp_graph(),
                  fixtures.ten_cusp_graph(), fixtures.eleven_cusp_graph()):
            length, _ = systole_combinatorial(g)
            dens = g.density()
            for e in range(g.n_edges):
                if dens.densities[e] >= 5:
                    _, wlen = verify_density_length(g, e)
                    assert length <= wlen + 1e-12

    def test_schmutz_bound_equality_cases(self):
        cases = [(4, tetrahedron(), True), (6, octahedron(), True),
                 (7, fixtures.seven_cusp_graph(), False),
                 (10, fixtures.ten_cusp_graph(), False),
                 (11, fixtures.eleven_cusp_graph(), False),
                 (12, icosahedron(), True)]
        for n, g, equal in cases:
            length, _ = systole_combinatorial(g)
            assert length <= schmutz_bound(n) + 1e-12
            assert (abs(length - schmutz_bound(n)) < 1e-9) == equal

    def test_spectrum_independent_of_tree(self):
        rng = random.Random(7)
        g = fixtures.seven_cusp_graph()
        spectra = []
        for _ in range(3):
            dev = develop(g, SpanningTree.random_tree(g, rng))
            gens = {i + 1: m for i, m in enumerate(generators(dev))}
            rep = systole_matrix_group(gens, 18,
                                       diameter=polygon_diameter_proxy(dev))
            assert rep.frontier_exhausted
            spectra.append(sorted(abs(w.trace) for w in rep.witnesses))
        assert spectra[0] == spectra[1] == spectra[2]

    def test_pattern_certificates_confirmed(self):
        """The walk from the density bound finds the least trace on the
        bipyramids, also for m >= 5, where that bound 4m - 2 lies above
        the systole 14."""
        for m in range(2, 11):
            g = bipyramid_with_duplicates(m)
            _, witnesses = systole_combinatorial(g)
            assert g.a_priori_trace_bound() == 4 * m - 2
            assert {abs(w.trace) for w in witnesses} == {min(4 * m - 2, 14)}
            assert witnesses == systole_combinatorial(g, 30)[1]

    @given(st.lists(st.sampled_from(["L", "R"]), min_size=1, max_size=30),
           st.sampled_from(["L", "R"]))
    def test_positive_words_grow_monotonically(self, letters, extra):
        m = lr_word_value("".join(letters))
        bigger = lr_word_value("".join(letters) + extra)
        assert max(bigger.a, bigger.b, bigger.c, bigger.d) >= \
            max(m.a, m.b, m.c, m.d)
