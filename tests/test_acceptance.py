"""End-to-end acceptance gate, one criterion per test.

Each test records a single pass/fail line; the conftest terminal-summary
hook prints all seven verdicts at the end of the run.
"""

import math
import random
from fractions import Fraction as Q

from spheresys import fixtures
from spheresys.developing import SpanningTree, check_cusp_parabolics, develop
from spheresys.enumeration import (EnumerationQuery, max_min_density,
                                   enumerate_triangulations)
from spheresys.geodesics import systole_combinatorial
from spheresys.modular import (cusp_parabolic, farey_adjacent, Frac,
                               lr_word_value, parabolic_product_trace,
                               schmutz_bound, trace_to_length)
from spheresys.triangulation import icosahedron, octahedron, tetrahedron

from test_enumeration import naive_enumerate_count
from test_geodesics import cyclic_words_equal


VERDICTS = []


def verdict(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICTS.append(line)
    assert ok, line


def test_criterion_1_extremal_densities():
    expected = {4: 9, 5: 12, 6: 16, 7: 16, 8: 18, 9: 20, 10: 20, 11: 20,
                12: 25}
    got = {n: max_min_density(EnumerationQuery(n))[0] for n in range(4, 13)}
    verdict(1, got == expected,
            "max-min densities n=4..12: "
            + " ".join(str(got[n]) for n in range(4, 13)))


def test_criterion_2_systole_values(gamma11_search):
    ok = True
    details = []

    length, ws = systole_combinatorial(tetrahedron())
    ok &= abs(length - 2 * math.acosh(3.5)) < 1e-12 and len(ws) == 3
    details.append(f"tetra {length:.6f}")

    length, ws = systole_combinatorial(octahedron())
    ok &= (abs(length - 2 * math.acosh(7)) < 1e-12
           and abs(length - schmutz_bound(6)) < 1e-12)
    details.append(f"octa {length:.6f}")

    length, ws = systole_combinatorial(icosahedron())
    ok &= (abs(length - 2 * math.acosh(11.5)) < 1e-12
           and abs(length - schmutz_bound(12)) < 1e-12 and len(ws) == 30)
    details.append(f"icosa {len(ws)} witnesses")

    length, ws = systole_combinatorial(fixtures.ten_cusp_graph())
    ok &= (len(ws) == 8 and all(abs(w.trace) == 18 for w in ws)
           and abs(length - 2 * math.acosh(9)) < 1e-12)
    details.append(f"n=10 {len(ws)} witnesses")

    matched = set()
    for w in gamma11_search.witnesses:
        for i, printed in enumerate(fixtures.ELEVEN_CUSP_SYSTOLE_WORDS):
            if cyclic_words_equal(w.word, printed):
                matched.add(i)
    ok &= (len(gamma11_search.witnesses) == 6 and matched == set(range(6))
           and all(abs(w.trace) == 18 for w in gamma11_search.witnesses))
    details.append("n=11 6 witnesses match printed words")

    verdict(2, ok, "; ".join(details))


def test_criterion_3_fixture_verification():
    ok = all(m.a * m.d - m.b * m.c == 1
             for gens in (fixtures.A7, fixtures.B7, fixtures.GAMMA10,
                          fixtures.ALPHA10, fixtures.GAMMA11, fixtures.ALPHA11)
             for m in gens.values())

    ok &= all(abs(fixtures.word_matrix(fixtures.GAMMA10, w).trace) == 18
              for w in fixtures.TEN_CUSP_SYSTOLE_WORDS)
    ok &= all(abs(fixtures.word_matrix(fixtures.GAMMA11, w).trace) == 18
              for w in fixtures.ELEVEN_CUSP_SYSTOLE_WORDS)

    eleven = [abs(fixtures.word_matrix(fixtures.ALPHA11, w).trace)
              for w in fixtures.ELEVEN_CUSP_SYSTOLE_WORDS]
    ok &= sorted(set(eleven)) == [Q(36361, 2020), Q(454, 25)]

    ten = {fixtures.word_matrix(fixtures.ALPHA10, w).trace
           for w in fixtures.TEN_CUSP_SYSTOLE_WORDS}
    ok &= len(ten) == 1 and f"{float(next(iter(ten))):.4f}" == "-18.1596"

    seven = [abs(fixtures.word_matrix(fixtures.B7, w).trace)
             for w in fixtures.SEVEN_CUSP_TRACE14_WORDS]
    ok &= ([f"{float(t):.4f}" for t in seven]
           == ["14.0364", "14.0364", "14.0037", "14.0071", "14.0211"])
    ok &= all(t > 14 for t in seven)

    verdict(3, ok, "determinants, word traces, and perturbed minima exact")


def test_criterion_4_certified_absence(alpha10_search, alpha11_search):
    ok = True
    details = []
    for name, rep, minimum in (("n=10", alpha10_search, Q(45399, 2500)),
                               ("n=11", alpha11_search, Q(36361, 2020))):
        ok &= (rep.witnesses == [] and rep.frontier_exhausted
               and rep.trace_bound == 18 and rep.diameter is not None
               and rep.horizon > 0 and rep.states_explored > 0
               and rep.min_trace_above_bound == minimum)
        details.append(f"{name} empty, exhausted, min above "
                       f"{rep.min_trace_above_bound}")
    verdict(4, ok, "; ".join(details))


def test_criterion_5_algebraic_identities():
    rng = random.Random(20260824)
    cases = 0
    ok = True

    for _ in range(10_000):
        m1, m2 = rng.randint(2, 25), rng.randint(2, 25)
        word = "L" + "R" * (m1 - 2) + "L" + "R" * (m2 - 2)
        ok &= lr_word_value(word).trace == m1 * m2 - 2
        cases += 1

    for _ in range(10_000):
        d = rng.randint(2, 60)
        ok &= lr_word_value("L" * 4 + "R" * (d - 1)).trace == 4 * d - 2
        cases += 1

    for _ in range(10_000):
        # random Farey-adjacent cusp pair via a mediant walk
        x, y = Frac(0, 1), Frac(1, 0)
        for _ in range(rng.randint(0, 10)):
            mediant = Frac(x.p + y.p, x.q + y.q)
            if rng.random() < 0.5:
                x = mediant
            else:
                y = mediant
        ok &= farey_adjacent(x, y)
        d1, d2 = rng.randint(1, 12), rng.randint(1, 12)
        a, b = cusp_parabolic(x, d1), cusp_parabolic(y, d2)
        expected = parabolic_product_trace(d1, d2)
        ok &= expected in (abs((a * b).trace), abs((a * b.inverse()).trace))
        cases += 1

    for n in range(4, 9):
        for g in enumerate_triangulations(EnumerationQuery(n)):
            ok &= sum(6 - d for d in g.degree) == 12
            cases += 1
            dev = develop(g, SpanningTree.bfs_tree(g))
            for f in range(g.n_faces):
                x, y, z = dev.face_labels(f)
                ok &= (farey_adjacent(x, y) and farey_adjacent(y, z)
                       and farey_adjacent(x, z))
                cases += 1

    verdict(5, ok and cases >= 10_000, f"{cases} random/derived cases checked")


def test_criterion_6_developing_correctness(developments):
    t = tetrahedron()
    dev = develop(t, SpanningTree.bfs_tree(t))
    ok = [str(x) for x in dev.polygon] == ["0/1", "1/1", "3/2", "2/1",
                                           "3/1", "1/0"]

    compact = developments["ten-compact"]
    ok &= [str(x) for x in compact.polygon] == [
        "0/1", "1/2", "1/1", "3/2", "2/1", "7/3", "5/2", "3/1", "10/3",
        "7/2", "18/5", "29/8", "11/3", "4/1", "9/2", "14/3", "5/1", "1/0"]
    pairings = set(compact.side_pairings.values())
    for m in fixtures.EXAMPLE2_PAIRINGS:
        ok &= m in pairings or m.inverse() in pairings

    rng = random.Random(3)
    checked = 0
    for n in range(4, 9):
        for g in enumerate_triangulations(EnumerationQuery(n)):
            for tree in (SpanningTree.bfs_tree(g),
                         SpanningTree.random_tree(g, rng),
                         SpanningTree.random_tree(g, rng)):
                ok &= check_cusp_parabolics(develop(g, tree))
                checked += 1

    verdict(6, ok, f"worked examples verbatim; cusp parabolic check on "
                   f"{checked} developments (n<=8)")


def test_criterion_7_oracle_equivalence(cross_engine_multisets):
    counts_ok = all(
        sum(1 for _ in enumerate_triangulations(EnumerationQuery(n)))
        == naive_enumerate_count(n)
        for n in range(4, 9))
    engines_ok = all(comb == matrix and rep.frontier_exhausted
                     for comb, matrix, rep in cross_engine_multisets.values())
    verdict(7, counts_ok and engines_ok,
            "enumeration counts match naive oracle (n<=8); "
            "trace multisets up to 30 agree on "
            + ", ".join(sorted(cross_engine_multisets)))
