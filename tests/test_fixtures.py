from fractions import Fraction as Q

import pytest

from spheresys import fixtures
from spheresys.modular import trace_to_length


ALL_SETS = [fixtures.A7, fixtures.B7, fixtures.GAMMA10, fixtures.ALPHA10,
            fixtures.GAMMA11, fixtures.ALPHA11]


class TestMatrices:
    def test_determinants(self):
        for gens in ALL_SETS:
            for m in gens.values():
                assert m.a * m.d - m.b * m.c == 1

    def test_arithmetic_sets_are_integral(self):
        for m in fixtures.A7.values():
            assert m.den == 1
        for gens in (fixtures.GAMMA10, fixtures.GAMMA11):
            for m in gens.values():
                assert m.den == 1

    def test_perturbed_sets_are_not_integral(self):
        for gens in (fixtures.B7, fixtures.ALPHA10, fixtures.ALPHA11):
            assert any(m.den != 1 for m in gens.values())

    def test_ten_cusp_generators_parabolic(self):
        for m in fixtures.GAMMA10.values():
            assert m.is_parabolic


class TestSevenCuspWords:
    def test_arithmetic_traces(self):
        for w in fixtures.SEVEN_CUSP_TRACE14_WORDS:
            m = fixtures.word_matrix(fixtures.A7, w)
            assert abs(m.trace) == 14

    def test_perturbed_traces_match_printed_roundings(self):
        got = []
        for w in fixtures.SEVEN_CUSP_TRACE14_WORDS:
            m = fixtures.word_matrix(fixtures.B7, w)
            got.append(f"{float(abs(m.trace)):.4f}")
        assert got == ["14.0364", "14.0364", "14.0037", "14.0071", "14.0211"]

    def test_perturbation_lengthens_systole(self):
        for w in fixtures.SEVEN_CUSP_TRACE14_WORDS:
            t = abs(fixtures.word_matrix(fixtures.B7, w).trace)
            assert trace_to_length(t) > trace_to_length(14)


class TestTenCuspWords:
    def test_arithmetic_traces(self):
        for w in fixtures.TEN_CUSP_SYSTOLE_WORDS:
            m = fixtures.word_matrix(fixtures.GAMMA10, w)
            assert abs(m.trace) == 18

    def test_perturbed_traces(self):
        for w in fixtures.TEN_CUSP_SYSTOLE_WORDS:
            m = fixtures.word_matrix(fixtures.ALPHA10, w)
            assert f"{float(abs(m.trace)):.4f}" == "18.1596"

    def test_conjugation_scheme(self):
        # the perturbed set is built from two seeds by conjugating with
        # a parabolic of displacement 101/100
        p = fixtures.P10
        assert p.b == Q(101, 100)
        for k in (3, 4, 5):
            expected = (p ** (k - 2)) * fixtures.ALPHA10[2] * (p ** -(k - 2))
            assert fixtures.ALPHA10[k] == expected


class TestElevenCuspWords:
    def test_arithmetic_traces(self):
        for w in fixtures.ELEVEN_CUSP_SYSTOLE_WORDS:
            m = fixtures.word_matrix(fixtures.GAMMA11, w)
            assert abs(m.trace) == 18

    def test_perturbed_traces_exact(self):
        traces = [abs(fixtures.word_matrix(fixtures.ALPHA11, w).trace)
                  for w in fixtures.ELEVEN_CUSP_SYSTOLE_WORDS]
        assert traces[:2] == [Q(454, 25)] * 2
        assert traces[2:] == [Q(36361, 2020)] * 4
        assert all(t > 18 for t in traces)


class TestGraphs:
    def test_seven_cusp_graph(self):
        g = fixtures.seven_cusp_graph()
        assert g.validate().regular
        assert sorted(g.degree) == [4, 4, 4, 4, 4, 5, 5]
        assert g.density().min_density == 16

    def test_ten_cusp_graph(self):
        g = fixtures.ten_cusp_graph()
        assert g.validate().regular
        assert sorted(g.degree) == [4, 4] + [5] * 8
        assert g.density().min_density == 20

    def test_eleven_cusp_graph(self):
        g = fixtures.eleven_cusp_graph()
        assert g.validate().regular
        assert sorted(g.degree) == [4, 4] + [5] * 8 + [6]
        d = g.density()
        assert d.min_density == 20
        assert sum(1 for x in d.densities if x == 20) == 6

    def test_trees_span(self):
        for name in ("seven", "ten-compact", "ten-long", "eleven"):
            g, tree, (e0, f0) = fixtures.named_development(name)
            assert len(tree.edges) == g.n_vertices - 1
            assert e0 in tree.terminal_edges()
            assert e0 in {g.edge_of_dart[d] for d in g.faces[f0]}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixtures.named_development("twelve")
        with pytest.raises(ValueError, match="'nope'"):
            fixtures.generator_set("nope")


class TestWordMatrix:
    def test_empty_word_is_identity(self):
        m = fixtures.word_matrix(fixtures.A7, [])
        assert m.a == 1 and m.b == 0 and m.c == 0 and m.d == 1

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            fixtures.word_matrix(fixtures.A7, [(99, 1)])

    def test_inverse_exponent(self):
        m = fixtures.word_matrix(fixtures.A7, [(3, 1), (3, -1)])
        assert m.a == 1 and m.b == 0 and m.c == 0 and m.d == 1
