import functools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from spheresys import fixtures
from spheresys.developing import SpanningTree, develop, generators
from spheresys import geodesics
from spheresys.geodesics import (GeodesicWitness, _conjugacy_classes,
                                 _cyclic_key,
                                 enumerate_geodesics_combinatorial,
                                 polygon_diameter_proxy,
                                 systole_combinatorial,
                                 systole_matrix_group,
                                 verify_density_length)
from spheresys.modular import (MoebiusMap, NotHyperbolicError, lr_word_value,
                               schmutz_bound, trace_to_length)
from spheresys.triangulation import (Triangulation, bipyramid_with_duplicates,
                                     example_duplicate_edges, example_loop,
                                     icosahedron, octahedron, tetrahedron)


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

    def test_json_roundtrip_fields(self):
        _, witnesses = systole_combinatorial(tetrahedron())
        obj = witnesses[0].to_json_obj()
        assert obj["trace"] == "7"
        assert set(obj) == {"word", "matrix", "trace", "length"}


class TestBruteForceOracle:
    def test_tetrahedron_small_depth(self):
        """Exhaustive unpruned walk enumeration agrees with the engine.

        Any closed turn word using both letters has trace at least its
        length plus one, so trace <= 12 needs length <= 11 and a cap of
        12 loses nothing.
        """
        g = tetrahedron()
        sigma, alpha = g.sigma, g.alpha
        sigma_inv = [0] * g.n_darts
        for d in range(g.n_darts):
            sigma_inv[sigma[d]] = d

        def step(d, letter):
            return sigma[d] if letter == "L" else alpha[sigma_inv[alpha[d]]]

        def canon(darts):
            seq = tuple(darts)
            rev = tuple(alpha[d] for d in reversed(seq))
            return min(s[i:] + s[:i] for s in (seq, rev)
                       for i in range(len(s)))

        found = {}
        for d0 in range(g.n_darts):
            stack = [(d0, "", ())]
            while stack:
                d, word, darts = stack.pop()
                if len(word) >= 12:
                    continue
                for letter in "LR":
                    nxt = step(d, letter)
                    nword, ndarts = word + letter, darts + (nxt,)
                    tr = lr_word_value(nword).trace
                    if nxt == d0 and 2 < tr <= 12:
                        found.setdefault(canon(ndarts), tr)
                    stack.append((nxt, nword, ndarts))

        witnesses = enumerate_geodesics_combinatorial(g, 12)
        assert sorted(found.values()) == sorted(w.trace for w in witnesses)


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

    def test_state_cap_reported_as_partial(self):
        rep = systole_matrix_group(fixtures.GAMMA10, 18, diameter=4.5,
                                   max_states=100)
        assert not rep.frontier_exhausted

    def test_class_closure_cap_reported(self, monkeypatch):
        gens = {2: fixtures.A7[2], 3: fixtures.A7[3]}
        steps = {(lab, e): m ** e for lab, m in gens.items() for e in (1, -1)}
        word = ((2, 1), (3, 1))
        start = fixtures.word_matrix(gens, word)
        groups, closed = _conjugacy_classes({start: word}, steps, 1000)
        assert closed and groups == [[start]]
        _, closed = _conjugacy_classes({start: word}, steps, 1000,
                                       node_cap=2)
        assert not closed
        # a sweep whose class closure is cut short certifies nothing
        assert systole_matrix_group(gens, 14, diameter=1.0).frontier_exhausted
        monkeypatch.setattr(geodesics, "_conjugacy_classes", functools.partial(
            _conjugacy_classes, node_cap=2))
        assert not systole_matrix_group(
            gens, 14, diameter=1.0).frontier_exhausted

    @pytest.mark.parametrize("diameter", [math.nan, math.inf, -5, "abc",
                                          True])
    def test_diameter_must_be_finite_nonnegative(self, diameter):
        gens = {1: fixtures.A7[2], 2: fixtures.A7[3]}
        with pytest.raises(ValueError):
            systole_matrix_group(gens, 14, diameter=diameter)

    def test_witness_words_reproduce_matrices(self, gamma11_search):
        for w in gamma11_search.witnesses:
            assert fixtures.word_matrix(fixtures.GAMMA11, w.word) in (
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
        import random
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
        """Each certified trace bound is attained by an actual walk."""
        for g in (example_loop(), example_duplicate_edges(),
                  bipyramid_with_duplicates(3)):
            for cert in g.pattern_certificates():
                witnesses = enumerate_geodesics_combinatorial(
                    g, cert.trace_bound)
                assert witnesses
                assert min(abs(w.trace) for w in witnesses) <= cert.trace_bound

    @given(st.lists(st.sampled_from(["L", "R"]), min_size=1, max_size=30),
           st.sampled_from(["L", "R"]))
    def test_positive_words_grow_monotonically(self, letters, extra):
        m = lr_word_value("".join(letters))
        bigger = lr_word_value("".join(letters) + extra)
        assert max(bigger.a, bigger.b, bigger.c, bigger.d) >= \
            max(m.a, m.b, m.c, m.d)
