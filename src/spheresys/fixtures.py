"""Reference data: named triangulations, spanning trees, and matrices.

The matrix lists reproduce the published generator sets for the 7-, 10-
and 11-cusp examples, together with their perturbed (non-arithmetic)
variants and the designated short-geodesic words.  One printed matrix
has determinant 449; the sign-corrected determinant-one version is
stored (see the d entry of GAMMA10[5] / GAMMA11[5]).  ``GRAPHS`` and
``GENERATOR_SETS`` are the command line's ``fixture:NAME`` inputs.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict

from .modular import IDENTITY, MoebiusMap
from .triangulation import Triangulation, icosahedron, octahedron, tetrahedron
from .developing import SpanningTree, develop
from .geodesics import polygon_diameter_proxy

__all__ = [
    "seven_cusp_graph", "ten_cusp_graph", "eleven_cusp_graph", "GRAPHS",
    "DEVELOPMENTS", "named_development", "GENERATOR_SETS", "generator_set",
    "A7", "B7", "SEVEN_CUSP_TRACE14_WORDS",
    "GAMMA10", "P10", "ALPHA10", "TEN_CUSP_SYSTOLE_WORDS",
    "GAMMA11", "TAU11", "ALPHA11", "ELEVEN_CUSP_SYSTOLE_WORDS",
    "ELEVEN_CUSP_BASIS_WORDS",
    "EXAMPLE2_PAIRINGS",
    "word_matrix",
]


_m = MoebiusMap       # entries are ints or Fractions


# -- graphs --------------------------------------------------------------

def seven_cusp_graph() -> Triangulation:
    """7 vertices: five of degree 4, two non-adjacent of degree 5.

    Vertex 0 is a degree-5 apex (the cusp at infinity in the published
    development), vertex 1 the opposite degree-5 apex.
    """
    return Triangulation.from_simple_rotations([
        [5, 6, 2, 3, 4],
        [6, 5, 4, 3, 2],
        [3, 0, 6, 1],
        [2, 1, 4, 0],
        [3, 1, 5, 0],
        [4, 1, 6, 0],
        [0, 5, 1, 2],
    ])


def ten_cusp_graph() -> Triangulation:
    """10 vertices: two non-adjacent of degree 4 (0 and 9), eight of degree 5."""
    return Triangulation.from_simple_rotations([
        [2, 1, 4, 3],
        [5, 8, 4, 0, 2],
        [5, 1, 0, 3, 6],
        [2, 0, 4, 7, 6],
        [0, 1, 8, 7, 3],
        [9, 8, 1, 2, 6],
        [9, 5, 2, 3, 7],
        [6, 3, 4, 8, 9],
        [5, 9, 7, 4, 1],
        [7, 8, 5, 6],
    ])


def eleven_cusp_graph() -> Triangulation:
    """11 vertices with exactly six density-20 edges; vertex 0 has degree 6."""
    return Triangulation.from_simple_rotations([
        [5, 1, 4, 3, 2, 6],
        [5, 9, 4, 0],
        [6, 0, 3, 8],
        [2, 0, 4, 10, 8],
        [1, 9, 10, 3, 0],
        [9, 1, 0, 6, 7],
        [7, 5, 0, 2, 8],
        [9, 5, 6, 8, 10],
        [7, 6, 2, 3, 10],
        [7, 10, 4, 1, 5],
        [4, 9, 7, 8, 3],
    ])


GRAPHS = {"tetrahedron": tetrahedron, "octahedron": octahedron,
          "icosahedron": icosahedron, "seven": seven_cusp_graph,
          "ten": ten_cusp_graph, "eleven": eleven_cusp_graph}


# -- 7-cusp generators ---------------------------------------------------

A7 = {
    1: _m(1, 5, 0, 1),
    2: _m(1, 0, 4, 1),
    3: _m(5, -4, 4, -3),
    4: _m(9, -16, 4, -7),
    5: _m(13, -36, 4, -11),
    6: _m(17, -64, 4, -15),
}

B7 = {
    1: _m(1, 5, 0, 1),
    2: _m(1, 0, 4, 1),
    3: _m(Q(53, 11), Q(-441, 110), Q(40, 11), Q(-31, 11)),
    4: _m(Q(47, 5), Q(-441, 25), 4, Q(-37, 5)),
    5: _m(Q(1331, 97), Q(-380689, 9700), Q(400, 97), Q(-1137, 97)),
    6: _m(Q(569, 31), Q(-217083, 3100), Q(400, 93), Q(-507, 31)),
}

# the five adjacent-cusp products that are systoles in the arithmetic
# case (one per density-16 edge); all have trace -14 in A7
SEVEN_CUSP_TRACE14_WORDS = [
    [(2, 1), (3, 1)],
    [(3, 1), (4, 1)],
    [(4, 1), (5, 1)],
    [(5, 1), (6, 1)],
    [(6, 1), (1, 1), (2, 1), (1, -1)],
]


# -- 10-cusp generators --------------------------------------------------

GAMMA10 = {
    1: _m(1, 4, 0, 1),
    2: _m(1, 0, 5, 1),
    3: _m(6, -5, 5, -4),
    4: _m(11, -20, 5, -9),
    5: _m(16, -45, 5, -14),   # printed with d = 14 (determinant 449); corrected
    6: _m(11, -5, 20, -9),
    7: _m(31, -45, 20, -29),
    8: _m(51, -125, 20, -49),
    9: _m(71, -245, 20, -69),
}

P10 = _m(1, Q(101, 100), 0, 1)

ALPHA10 = {
    1: _m(1, Q(404, 100), 0, 1),
    2: _m(1, 0, Q(499, 100), 1),
    6: _m(Q(111197, 10399), Q(-5090299, 1039900),
          Q(199600, 10399), Q(-90399, 10399)),
}
ALPHA10[3] = P10 * ALPHA10[2] * P10.inverse()
ALPHA10[4] = (P10 ** 2) * ALPHA10[2] * (P10 ** -2)
ALPHA10[5] = (P10 ** 3) * ALPHA10[2] * (P10 ** -3)
ALPHA10[7] = P10 * ALPHA10[6] * P10.inverse()
ALPHA10[8] = (P10 ** 2) * ALPHA10[6] * (P10 ** -2)
ALPHA10[9] = (P10 ** 3) * ALPHA10[6] * (P10 ** -3)

TEN_CUSP_SYSTOLE_WORDS = [
    [(2, 1), (1, -1)],
    [(3, 1), (1, -1)],
    [(4, 1), (1, -1)],
    [(5, 1), (1, -1)],
    [(2, 1), (1, -1), (9, 1), (5, 1), (8, 1), (4, 1), (7, 1), (3, 1)],
    [(7, 1), (3, 1), (2, 1), (1, -1), (9, 1), (5, 1), (8, 1), (4, 1)],
    [(8, 1), (4, 1), (7, 1), (3, 1), (2, 1), (1, -1), (9, 1), (5, 1)],
    [(9, 1), (5, 1), (8, 1), (4, 1), (7, 1), (3, 1), (2, 1), (1, -1)],
]


# -- 11-cusp generators --------------------------------------------------

GAMMA11 = {
    1: _m(1, 6, 0, 1),
    2: _m(-29, 6, -5, 1),
    3: _m(5, -4, 4, -3),
    4: _m(11, -20, 5, -9),
    5: _m(16, -45, 5, -14),
    6: _m(17, -64, 4, -15),
    7: _m(26, -125, 5, -24),
    8: _m(25, -11, 16, -7),
    9: _m(-73, 251, -16, 55),
    10: _m(-49, 125, -20, 51),
    11: _m(111, -605, 20, -109),
    12: _m(-118, 281, -21, 50),
    13: _m(-113, 296, -21, 55),
}

TAU11 = _m(1, Q(1, 100), 0, 1)

ALPHA11 = {
    1: _m(1, Q(602, 100), 0, 1),
    2: (TAU11 ** 2) * GAMMA11[2],
    3: _m(Q(503, 101), Q(-40401, 10100), Q(400, 101), Q(-301, 101)),
    4: TAU11 * GAMMA11[4] * TAU11.inverse(),
    5: TAU11 * GAMMA11[5] * TAU11.inverse(),
    6: _m(Q(1707, 101), Q(-644809, 10100), Q(400, 101), Q(-1505, 101)),
    7: (TAU11 ** 2) * GAMMA11[7] * (TAU11 ** -2),
    8: TAU11 * GAMMA11[8],
    9: (TAU11 ** 2) * GAMMA11[9] * TAU11.inverse(),
    10: TAU11 * GAMMA11[10] * TAU11.inverse(),
    11: (TAU11 ** 2) * GAMMA11[11] * (TAU11 ** -2),
    12: (TAU11 ** 2) * GAMMA11[12] * TAU11.inverse(),
    13: (TAU11 ** 2) * GAMMA11[13] * TAU11.inverse(),
}

ELEVEN_CUSP_SYSTOLE_WORDS = [
    [(8, 1)],
    [(9, 1)],
    [(4, 1), (3, 1)],
    [(6, 1), (5, 1)],
    [(7, 1), (6, 1)],
    [(3, 1), (2, -1), (1, 1)],
]

# generators 11, 12 and 13 as words in generators 1-10, in GAMMA11 and
# in ALPHA11 alike, so 1-10 generate each group.  The group of an
# 11-punctured sphere is free of rank 10, and free groups of finite rank
# are Hopfian, so ten generators of it are a free basis: the sweeps,
# which need one, run on 1-10.
ELEVEN_CUSP_BASIS_WORDS = [
    [(2, 1), (8, -1), (4, -1), (10, 1), (5, -1), (9, -1), (7, -1)],
    [(2, 1), (8, -1), (4, -1)],
    [(7, 1), (9, 1), (5, 1)],
]


# -- worked-development side pairings (compact 10-cusp tree) -------------

EXAMPLE2_PAIRINGS = {
    # matrix -> (source side, target side), as fraction-string pairs
    _m(-24, 5, -5, 1): (("1/2", "0"), ("14/3", "5")),
    _m(-114, 415, -25, 91): (("29/8", "11/3"), ("14/3", "9/2")),
    _m(-112, 271, -31, 75): (("7/3", "5/2"), ("29/8", "18/5")),
}


# -- published developments ----------------------------------------------

# name: (GRAPHS key, spanning tree as vertex pairs, seed edge, seed face)
DEVELOPMENTS = {
    "seven": ("seven",
              [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (0, 3)],
              (0, 3), (0, 3, 2)),
    # the worked development (polygon from 0 to 5)
    "ten-compact": ("ten",
                    [(0, 2), (2, 1), (2, 3), (3, 4), (5, 2), (2, 6), (7, 6),
                     (8, 5), (5, 9)],
                    (3, 4), (0, 3, 4)),
    # the development that yields the printed 10-cusp generators
    "ten-long": ("ten",
                 [(0, 2), (2, 6), (1, 5), (3, 7), (4, 8), (9, 5), (9, 6),
                  (9, 7), (9, 8)],
                 (0, 2), (0, 1, 2)),
    "eleven": ("eleven",
               [(0, 3), (3, 8), (8, 2), (6, 8), (9, 1), (7, 5), (10, 4),
                (8, 7), (9, 7), (10, 7)],
               (0, 3), (0, 2, 3)),
}


def named_development(name: str):
    """A (graph, tree, seed) triple reproducing a published development:
    one of ``DEVELOPMENTS``."""
    if name not in DEVELOPMENTS:
        raise ValueError(f"unknown development name {name!r}")
    graph, pairs, seed_edge, seed_face = DEVELOPMENTS[name]
    g = GRAPHS[graph]()
    tree = SpanningTree.from_vertex_pairs(g, pairs)
    edge = next(e for e in tree.edges
                if set(g.edge_endpoints(e)) == set(seed_edge))
    face = next(f for f in range(g.n_faces)
                if sorted(g.face_vertices(f)) == sorted(seed_face))
    return g, tree, (edge, face)


# name: (generators, the development whose polygon gives the certified
# search diameter); the 11-cusp sets are the free basis 1-10
GENERATOR_SETS = {
    "a7": (A7, "seven"), "b7": (B7, "seven"),
    "gamma10": (GAMMA10, "ten-long"), "alpha10": (ALPHA10, "ten-long"),
    "gamma11": ({k: GAMMA11[k] for k in range(1, 11)}, "eleven"),
    "alpha11": ({k: ALPHA11[k] for k in range(1, 11)}, "eleven"),
}


def generator_set(name: str):
    """(generators, certified search diameter) of a ``GENERATOR_SETS``
    entry: the diameter is the polygon proxy of its development."""
    if name not in GENERATOR_SETS:
        raise ValueError(f"unknown generator set name {name!r}")
    gens, dev_name = GENERATOR_SETS[name]
    return gens, polygon_diameter_proxy(develop(*named_development(dev_name)))


def word_matrix(gens: Dict[int, MoebiusMap], word) -> MoebiusMap:
    """Left-to-right product of generators given as (index, exponent) pairs."""
    result = None
    for idx, exp in word:
        if idx not in gens:
            raise KeyError(f"unknown generator index {idx}")
        m = gens[idx] if exp == 1 else gens[idx] ** exp
        result = m if result is None else result * m
    return IDENTITY if result is None else result
