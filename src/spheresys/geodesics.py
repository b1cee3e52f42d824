"""Systole computation by certified short-geodesic enumeration.

Two engines.  For a triangulation, closed geodesics of the developed
group correspond to closed left/right turn sequences on the dual
trivalent ribbon graph; the enumerator walks all such cycles below an
exact trace bound.  For an explicitly given matrix group (possibly
non-arithmetic), a breadth-first search over reduced words with
displacement pruning sweeps every conjugacy class below the bound, up to
an exact integer cap derived from a fundamental-domain diameter proxy.
The generators must be a free basis: then each element has one reduced
word, and a class is named by its cyclically reduced word up to
rotation and inversion.  Two words found to give the same element prove
a relation, and the sweep refuses the generator set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import accumulate, count
from numbers import Real
from typing import Dict, List, Optional, Tuple

from .modular import (IDENTITY, INF, TURNS, MoebiusMap, lr_word_value,
                      mat_mul, trace_to_length)
from .triangulation import Triangulation

__all__ = [
    "GeodesicWitness",
    "MatrixSearchReport",
    "ResourceLimitError",
    "check_diameter",
    "enumerate_geodesics_combinatorial",
    "systole_combinatorial",
    "systole_matrix_group",
    "polygon_diameter_proxy",
]


class ResourceLimitError(RuntimeError):
    """Raised when a query exceeds the supported desk-scale range."""


@dataclass(frozen=True)
class GeodesicWitness:
    """A conjugacy-class representative of a closed geodesic."""

    word: Tuple                 # ("L","R",...) or ((label, exp), ...)
    matrix: MoebiusMap
    trace: Q
    length: float


# -- combinatorial engine ------------------------------------------------

# The dual walk's word tree depends only on the trace bound: 26,311
# words at bound 100, 294,519 at 300 and 893,085 at 500 (the empty word
# included), on any map.  Each walk visits exactly the tree at its
# bound, carrying a few start darts per word, so this cap on the bound
# caps the work.  The walks share one ``_WordTree``, built once per
# process for the largest bound walked so far: it keeps 0.24 MB and
# takes 2 ms at bound 28, and keeps 54 MB and takes 0.5 s at 300.  At
# 300 the icosahedron and the octahedron then take about 0.5 s each,
# 0.8 s with the build (Python 3.11, 2-vCPU VM).
MAX_WALK_TRACE_BOUND = 300

# The most elements a sweep explores.  An element costs its hash (an int
# in the seen set, and an entry of the key array), its two parent-array
# entries, and its canonical tuple while its level is built or
# expanded.  As growth of the peak RSS that is about 155 B for GAMMA10
# at bound 18, 143 B for the 1,041,706-element GAMMA11 sweep at bound 30
# and 179 B for ALPHA10's rationals, so the cap costs 0.29-0.36 GB
# (Python 3.11, 64-bit Linux).
MAX_SWEEP_STATES = 2_000_000


def _cyclic_key(seq: Tuple, rev: Tuple) -> Tuple:
    """Least rotation of a cyclic sequence or of its reversed inverse.

    ``rev`` is ``seq`` read backwards with each element inverted (the
    twin of each dart, the inverse of each generator letter), so the key
    is the same for every rotation of the cycle and of its inverse.  A
    least rotation starts at an occurrence of the least element, so only
    those starts are compared.
    """
    low = min(min(seq), min(rev))
    return min(s[i:] + s[:i] for s in (seq, rev)
               for i, x in enumerate(s) if x == low)


class _WordTree:
    """The dual walk's L/R word tree at one trace bound, map-free.

    Node 0 is the empty word.  ``kids[node]`` lists the node's children
    in the order the search meets them, L before R, each as (trace,
    depth, letter, child): the trace of the child's turn product, the
    child's length, its last letter and its index.  ``parent`` and
    ``letter`` give each node's parent and last letter, from which a
    word is spelled.  A child is kept unless its trace is above the
    bound, or it is a pure word (trace 2) with depth above bound - 2.
    No matrices are kept: they exist only on the stack while the tree
    is built.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.kids: List[Tuple] = [()]
        self.parent = [0]
        self.letter = [""]
        stack = [((1, 0, 0, 1), 0, 0)]      # (matrix, node, depth)
        while stack:
            m, node, depth = stack.pop()
            depth += 1                      # the children's depth
            kids = []
            for letter in "LR":
                nm = mat_mul(m, TURNS[letter])
                tr = nm[0] + nm[3]
                # a trace above the bound never drops back down, and a
                # pure word past bound - 2 letters closes nothing below it
                if tr > bound or tr == 2 and depth > bound - 2:
                    continue
                child = len(self.parent)
                self.kids.append(())
                self.parent.append(node)
                self.letter.append(letter)
                kids.append((tr, depth, letter, child))
                stack.append((nm, child, depth))
            self.kids[node] = tuple(kids)

    def word(self, node: int) -> str:
        letters = []
        while node:
            letters.append(self.letter[node])
            node = self.parent[node]
        return "".join(reversed(letters))


# The one word tree every walk reads, for the largest bound walked so far.
_shared_tree: Optional[_WordTree] = None


def enumerate_geodesics_combinatorial(g: Triangulation, trace_bound: int
                                      ) -> List[GeodesicWitness]:
    """All non-peripheral dual-walk classes with |trace| <= trace_bound.

    A walk state is the dart about to be crossed; after crossing edge(d)
    the walk leaves the new face through one of its two other sides.
    Turning around the origin vertex (d -> sigma[d]) is the L turn; the
    opposite turn is R.  Pure one-letter cycles are peripheral (they
    wind around a single vertex, trace 2) and are excluded.

    The pruning reads only the L/R word, so one depth-first search over
    words serves every start dart.  It ends, by three facts about
    nonnegative turn products: appending a turn never decreases an
    entry, so a prefix with a + d above the bound cannot recover; X^m Y
    has trace m + 2 (X != Y), so a pure word (trace 2) is cut past
    trace_bound - 2 letters; and once both letters occur, b and c are
    positive, so each further turn (L adds c to the trace, R adds b)
    raises the trace by at least 1.  No word passes 2 * (trace_bound - 2)
    letters.

    The word tree does not depend on the map, so every walk reads one
    shared ``_WordTree``, built at the largest bound walked so far in
    the process.  A walk at bound b reads the tree at a bound B >= b
    and skips a child by the two rules above at b: its trace is above b,
    or it is a pure word longer than b - 2 letters.  Each rule is
    stricter at b than at B, so every word of the tree at b is in the
    tree at B, and skipping a child drops exactly its subtree at b: the
    walk pops the words of the tree at b, and no others, in the same
    order as a search built at b.  The tree holds no matrices: a
    closure spells its word from the parent links, and its witness
    matrix is ``lr_word_value`` of the word, formed only when its class
    is new.

    A class's key (``_cyclic_key`` of its darts and their reversed
    twins) starts with the least dart the closed walk crosses or whose
    twin it crosses, and its witness is the first word in search order
    that closes it at that start dart d0 = key[0].  So the search
    carries, down the word tree, only the live starts: pairs (d0, dart
    reached) such that every dart x crossed so far has x >= d0 and
    alpha[x] >= d0, starting from the darts with alpha[d0] > d0.  A
    closure at d0 has d0 = key[0] exactly when d0 stayed live along the
    whole word, so dropping a start loses no witness, and the keys are
    formed only for these closures; a closure with key[0] != d0 raises
    AssertionError.  Dart 0 is always live, so no subtree is cut.  Every
    rotation of a closed word below the bound, and its reversed walk,
    survive the pruning, and pruning removes subtrees without reordering
    the rest, so the witnesses do not depend on the bound.  A bound above
    ``MAX_WALK_TRACE_BOUND`` raises ResourceLimitError before the search.
    """
    global _shared_tree
    g.require_valid()
    if trace_bound < 3:
        raise ValueError("trace bound must be at least 3")
    if trace_bound > MAX_WALK_TRACE_BOUND:
        raise ResourceLimitError(
            f"trace bound {trace_bound} is above the dual walk's limit of "
            f"{MAX_WALK_TRACE_BOUND}")
    if _shared_tree is None or _shared_tree.bound < trace_bound:
        _shared_tree = _WordTree(trace_bound)
    tree = _shared_tree
    kids = tree.kids

    sigma, alpha = g.sigma, g.alpha
    n_darts = g.n_darts
    # the turns as dart permutations; R(d) = alpha[sigma^-1[alpha[d]]] is
    # sigma[alpha[sigma[d]]] since faces are triangles.  Swapping L and R
    # transposes the cyclic product, so it changes only the spelling
    perms = {"L": sigma,
             "R": [sigma[alpha[sigma[d]]] for d in range(n_darts)]}

    found: Dict[Tuple, GeodesicWitness] = {}
    # iterative DFS: (tree node, live (start dart, dart reached) pairs)
    stack = [(0, [(d0, d0) for d0 in range(n_darts) if alpha[d0] > d0])]
    while stack:
        node, live = stack.pop()
        for tr, depth, letter, child in kids[node]:
            # the tree's two rules, at this walk's bound
            if tr > trace_bound or tr == 2 and depth > trace_bound - 2:
                continue
            perm = perms[letter]
            nlive = [(d0, x) for d0, d in live
                     if (x := perm[d]) >= d0 and alpha[x] >= d0]
            for d0, d in nlive:
                if d != d0 or tr == 2:
                    continue
                word = tree.word(child)
                darts = tuple(accumulate(
                    word, lambda x, turn: perms[turn][x], initial=d0))[1:]
                key = _cyclic_key(darts, tuple(alpha[x] for x in reversed(darts)))
                if key[0] != d0:
                    raise AssertionError(f"{word} from {d0}: key {key}")
                if key not in found:
                    mat = lr_word_value(word)
                    found[key] = GeodesicWitness(
                        tuple(word), mat, mat.trace, trace_to_length(tr))
            stack.append((child, nlive))

    return sorted(found.values(),
                  key=lambda w: (abs(w.trace), len(w.word), w.word))


def systole_combinatorial(g: Triangulation,
                          trace_bound: Optional[int] = None
                          ) -> Tuple[float, List[GeodesicWitness]]:
    """Systole length and all witnesses attaining it.

    Without a ``trace_bound`` the walk runs once, at the a-priori bound
    (``Triangulation.a_priori_trace_bound`` proves a class there) or 6
    if there is none, capped at ``MAX_WALK_TRACE_BOUND``.  The walk
    returns every class up to its bound, so a start above the systole
    (possible on maps with loops or duplicate edges) still gives the
    least trace.  A walk that finds nothing raises ValueError at a given
    bound, ResourceLimitError at the limit and AssertionError below it.
    A bound given above the limit raises ResourceLimitError.
    """
    bound = trace_bound
    if bound is None:
        bound = min(g.a_priori_trace_bound() or 6, MAX_WALK_TRACE_BOUND)
    if not (witnesses := enumerate_geodesics_combinatorial(g, bound)):
        if trace_bound is not None:
            raise ValueError(f"no hyperbolic class with |trace| <= {bound}; "
                             f"the systole lies above the trace bound")
        if bound == MAX_WALK_TRACE_BOUND:
            raise ResourceLimitError(f"no hyperbolic class with |trace| <= "
                                     f"{bound}, the dual walk's limit")
        raise AssertionError(f"no class up to the proved start {bound}")
    best = min(abs(w.trace) for w in witnesses)
    systoles = [w for w in witnesses if abs(w.trace) == best]
    return trace_to_length(best), systoles


# -- matrix-group engine -------------------------------------------------

@dataclass
class MatrixSearchReport:
    trace_bound: Q
    diameter: Optional[float]
    horizon: float
    states_explored: int
    frontier_exhausted: bool
    min_trace_above_bound: Optional[Q]
    products_tried: int     # element-move pairs the sweep considered
    filter_rejects: int     # of those, rejected by the float pre-filter,
                            # or ruled out by the direction table
    exact_rejects: int      # rejected by the exact test ``_within``
    witnesses: List[GeodesicWitness]


def _within(quad, den, cap) -> bool:
    """Whether (a^2 + b^2 + c^2 + d^2) / den^2 <= M / K for cap = (M, K).

    For W = quad / den this bounds 2 cosh d(i, W i); the test is exact
    integer arithmetic and unchanged by scaling quad and den together.
    """
    a, b, c, d = quad
    return (a * a + b * b + c * c + d * d) * cap[1] <= den * den * cap[0]


def _cosh_above(diam: Q) -> Tuple[int, int]:
    """(p, q) with cosh x <= p / q <= cosh x + 2^-63 sinh x, x = diam
    rounded up to a multiple of 2^-64.  The terms t_k = x^2k / (2k)! fall
    by ratios x^2 / ((2k + 1)(2k + 2)) that fall, so once one is at most
    1/2 the terms after t_k sum to at most 2 t_{k+1}; the sum stops there
    once 2^64 t_{k+1} <= t_1 = x^2 / 2 <= sinh x too."""
    x = -(-diam.numerator * 2 ** 64 // diam.denominator)
    u, p, q, n = x * x, 1, 1, 1     # x^2 = u / 2^128, t_k = p / q, sum n / q
    for k in count():
        step = (2 * k + 1) * (2 * k + 2) * 2 ** 128
        p, q, n = p * u, q * step, n * step     # now t_{k+1} = p / q
        if 2 * u <= step and 2 ** 193 * p <= u * q:
            return n + 2 * p, q
        n += p


def _sweep_cap(trace_bound: Q, diam: Q) -> Tuple[int, int]:
    """(M, K) with M / K >= 2 cosh(2 arccosh(b/2) + 2 diam), b =
    trace_bound, within a relative 2^-60.  As cosh 2a = b^2/2 - 1 and
    sinh 2a = (b/2) sqrt(b^2 - 4) for a = arccosh(b/2), that is
    2 (b^2/2 - 1)(2 C^2 - 1) + 2 b C sqrt((b^2 - 4)(C^2 - 1)) at C =
    cosh(diam), increasing in C >= 1: here C = ``_cosh_above(diam)``, and
    each term is rounded up to a multiple of 1 / K = 2^-64."""
    (bn, bd), (cn, cd) = trace_bound.as_integer_ratio(), _cosh_above(diam)
    b2, c2, d = bn * bn, cn * cn, (bd * cd) ** 2    # b^2 C^2 = b2 c2 / d
    root = math.isqrt(-(-b2 * c2 * (b2 - 4 * bd * bd) * (c2 - cd * cd)
                        * 2 ** 130 // (d * d))) + 1
    first = -(-(b2 - 2 * bd * bd) * (2 * c2 - cd * cd) * 2 ** 64 // d)
    return first + root, 2 ** 64


def _gram(quad, den) -> Tuple[float, float, float]:
    """G = S^T S of S = quad / den in floats, as (g11, g12, g22).

    Each entry of S is rounded once from its exact value (int / int
    true division rounds correctly), so no float error is carried from
    one element to the next.  The sweep's loop forms it inline.
    """
    a, b, c, d = quad
    a, b, c, d = a / den, b / den, c / den, d / den
    return a * a + c * c, a * b + c * d, b * b + d * d


# The float pre-filter's error constant c and unit roundoff u.
_FILTER_C = 16
_U = Q(1, 2 ** 53)


def _prefilter(t: MoebiusMap, cap: float):
    """Float pre-filter for the exact displacement test of products S t.

    With G = S^T S (``_gram``) and H = t t^T, the product's squared
    Frobenius norm is tr(G H) = g11 h11 + 2 g12 h12 + g22 h22: three
    multiplications per product once G is formed per element and H per
    move, against eight and four squares for the plain float product.
    Returns (h11, 2 h12, h22, threshold, accept), or None where the
    filter does not apply; a product whose float value exceeds the
    threshold fails the exact test ``_within``, one whose float value is
    at most accept passes it, and only a product between the two goes
    on to it.

    The bound.  ``cap`` is the exact cap M / K of ``_within`` correctly
    rounded and then moved one float up, so M / K <= cap <= (1 + 3.01 u)
    M / K with u = 2^-53; every S the filter sees passed ``_within``, so
    ||S||^2 <= cap; and ||S||^2, ||t||^2 >= 2 since the determinant is 1.
    Entries of S and t are rounded once; each entry of G or H then
    carries at most four roundings (two inputs, a product, a sum) and
    each term of the trace form three more (a product and two sums; the
    doubling is exact), so the computed value differs from tr(G H) by at
    most (11 u + O(u^2)) (g11 h11 + 2 p q + g22 h22), with p = |ab| + |cd|
    <= sqrt(g11 g22) and q likewise for H.  By AM-GM that is at most
    11.01 u ||S||^2 ||t||^2 <= 11.01 u cap ||t||^2.  Underflow adds
    below 2^-1074 per operation, negligible against u ||S||^2 ||t||^2 >=
    4 u.  Let margin = c u cap ||t||^2 with c = 16, computed from the
    exact entries of t rather than fixed.

    Reject.  The threshold is cap + margin, rounded twice to the nearest
    float.  A float value above it proves the exact value is above cap
    >= M / K: the margin of 5 u cap ||t||^2 >= 10 u cap left over covers
    the two roundings of the threshold itself.

    Accept.  The accept threshold is cap - margin, exactly, rounded once
    to the nearest float, so at most cap - margin + u cap.  A float value
    at most it proves the exact value is at most cap + u cap - (16 -
    11.01) u cap ||t||^2 <= (1 + u - 9.98 u) cap < (1 - 3.01 u) cap <= M
    / K, so ``_within`` holds.

    The filter applies only while cap ||t||^2 <= 2^1000, so that no
    float it forms can overflow (a generator with entries of 1e400 fails
    this), and while c u ||t||^2 <= 2^-10, so that it stays a tight test.
    """
    exact_cap = Q(cap)
    bound = exact_cap * Q(sum(x * x for x in t.quad), t.den * t.den)
    margin = _FILTER_C * _U * bound
    if bound > 2 ** 1000 or margin > exact_cap / 2 ** 10:
        return None
    e, f, g, h = (x / t.den for x in t.quad)
    return (e * e + f * f, 2.0 * (e * g + f * h), g * g + h * h,
            cap + float(margin), float(exact_cap - margin))


def _direction_table(steps: List[MoebiusMap], moves: List[Tuple],
                     moves_after: List[List[Tuple]], cap: float):
    """The moves each swept element's direction allows: (outer, scale,
    rows).  An element with Gram entries g11, g12, g22 (``_gram``),
    reached by move last, tests the moves of ``moves_after[last]`` if
    g11 + g22 < outer, and else those of rows[last][j], j = int((atan2(
    g12, (g11 - g22) / 2) + pi) * scale).  Each list is a sublist of
    ``moves_after[last]``, in its order, that drops only moves whose
    float pre-filter (``_prefilter``) rejects every element of its
    bucket.  ``steps`` are the moves' maps, in the order of ``moves``.

    The geometry.  A determinant-one S gives the point p_S = (X, Y, Z) =
    ((g11 + g22)/2, (g11 - g22)/2, g12) on the hyperboloid X^2 - Y^2 -
    Z^2 = 1, at distance r from (1, 0, 0), X = cosh r and 2 X = ||S||^2.
    A move t with H = t t^T gives q_t = (A, U, V) = ((h11 + h22)/2,
    -(h11 - h22)/2, -h12), with A = ||t||^2 / 2 and rho = sqrt(A^2 -
    1) = sqrt(U^2 + V^2).  The filter's value g11 h11 + 2 g12 h12 + g22
    h22, which is ||S t||^2, is 2 <p_S, q_t> = 2 (A X - rho sinh r cos(
    theta - phi)), theta and phi the angles of (Y, Z) and (U, V).  An
    explored S passed ``_within``, so X <= c1 = cap / 2.

    The buckets.  The outer shell is g11 + g22 >= outer = max(4, cap /
    16).  g11 and g22 carry relative errors of at most 4.01 u (u =
    2^-53) and g12 an error of at most 4.01 u (|ab| + |cd|) <= 4.01 u X
    (``_prefilter``), so the computed sum one of at most 5.01 u: in the
    shell X >= c0 = (outer / 2)(1 - 2^-30), so sinh r >= 0.86 X.  The
    computed Y is off by at most 5.01 u X and Z by 4.01 u X, so (Y, Z)
    by 6.5 u X <= 7.6 u sinh r and theta by below 2^-49; the roundings
    of atan2, of phi, of the index and of the sector's ends and gap are
    a few ulps of 2 pi.  So the sector of index j, widened by 2^-30 on
    each side, holds the exact theta of every element the loop puts in
    it, and the computed angle ``gap`` from phi to that arc is at most
    the angle |theta - phi| (mod 2 pi) of every element in the bucket.

    The bound.  So over the bucket, with B = rho cos(gap), ||S t||^2 >=
    2 f(X) for f(X) = A X - B sqrt(X^2 - 1), X in [c0, c1].  If B <= 0,
    f increases and its least value there is f(c0).  If B > 0, f is
    convex, least at X* = A / m with the value m = sqrt(A^2 - B^2) =
    hypot(1, rho sin(gap)); its least value on [c0, c1] is f(c0) if X*
    < c0, f(c1) if X* > c1, and m otherwise.  m is at most f anywhere,
    so it is used unless X* is outside [c0, c1] by a relative 2^-30,
    which its rounding (8 u) cannot fake.  A, rho and phi are rounded
    from t's exact entries, and sqrt(X^2 - 1) is formed as sqrt(X - 1)
    sqrt(X + 1): no cosh or exp enters, and nothing overflows, since
    the filter applies only while cap ||t||^2 <= 2^1000.

    The float errors.  Forming the bound lb (A, rho, cos and sin
    rounded, then products and a difference of terms at most A c1)
    costs at most 13 u A c1, and the filter's float value is within
    11.01 u cap ||t||^2 of ||S t||^2 (``_prefilter``); with A c1 = cap
    ||t||^2 / 4 that is below 18 u cap ||t||^2 in all.  A move is
    dropped only when 2 lb > threshold + 2^-40 cap ||t||^2, a slack of
    8192 u cap ||t||^2 that covers it and the rounding of the test.
    Then the filter's float value for every element of the bucket is
    above the threshold: the filter would reject t there, so dropping
    it changes no count.  A move the filter does not apply to (its
    threshold is inf) is in every bucket.
    """
    # 32 sectors and the shell from cap / 16.  At bound 18, 92% of
    # GAMMA10's and ALPHA10's explored elements lie in it and test 3.5 of
    # their 17 moves, 4.6 per element in all; 16 or 64 sectors give 5.3
    # or 4.3, a shell from cap / 8 or cap / 64 gives 4.7 or 6.8.  Each
    # table takes about 1 ms to build (Python 3.11, 2-vCPU VM).
    sectors = 32
    outer = max(4.0, cap / 16)
    scale = sectors / (2 * math.pi)
    c0, c1 = outer / 2 * (1 - 2 ** -30), cap / 2
    # (c, sqrt(c^2 - 1)) at the two ends of the shell
    ends = [(c, math.sqrt(c - 1) * math.sqrt(c + 1)) for c in (c0, c1)]
    keep = [set() for _ in range(sectors)]
    for (k, _, _, _, threshold, _), t in zip(moves, steps):
        if threshold == math.inf:
            for kept in keep:
                kept.add(k)
            continue
        e, f, g, h = t.quad
        den2 = t.den * t.den
        h11, h12, h22 = e * e + f * f, e * g + f * h, g * g + h * h
        a = Q(h11 + h22, 2 * den2)
        big_a, rho = float(a), math.sqrt(float(a * a - 1))
        phi = math.atan2(-h12 / den2, (h22 - h11) / (2 * den2))
        limit = threshold + 2 ** -40 * cap * 2 * big_a
        for j, kept in enumerate(keep):
            # the sector's arc, widened by 2^-30 each side, and its angle
            # from phi
            lo, width = j / scale - math.pi - 2 ** -30, 1 / scale + 2 ** -29
            gap = (phi - lo) % (2 * math.pi)
            gap = 0.0 if gap <= width else min(gap - width, 2 * math.pi - gap)
            b = rho * math.cos(gap)
            least = math.hypot(1.0, rho * math.sin(gap))
            x = big_a / least
            if b <= 0 or x * (1 + 2 ** -30) < c0:
                lb = big_a * ends[0][0] - b * ends[0][1]
            elif x * (1 - 2 ** -30) > c1:
                lb = big_a * ends[1][0] - b * ends[1][1]
            else:
                lb = least
            if not 2 * lb > limit:
                kept.add(k)
    # index j = sectors is theta = pi, the start of sector 0
    rows = [[[m for m in after if m[0] in kept] for kept in keep + keep[:1]]
            for after in moves_after]
    return outer, scale, rows


def _spell(word: Tuple) -> str:
    return " ".join(f"{lab}^{exp}" for lab, exp in word)


def _class_key(word: Tuple) -> Tuple:
    """The conjugacy-class key of a reduced word, inverses identified:
    its cyclic reduction up to rotation and inversion."""
    while len(word) > 1 and word[0] == (word[-1][0], -word[-1][1]):
        word = word[1:-1]
    return _cyclic_key(word, tuple((lab, -exp) for lab, exp in reversed(word)))


def check_diameter(diameter) -> None:
    """Raise ValueError unless the diameter is a finite real number >= 0."""
    if isinstance(diameter, bool) or not isinstance(diameter, Real):
        raise ValueError(f"diameter must be a real number, not {diameter!r}")
    if not 0 <= diameter < math.inf:
        raise ValueError(f"diameter must be finite and >= 0, not {diameter}")


def systole_matrix_group(gens: Dict[object, MoebiusMap], trace_bound,
                         diameter: Optional[float] = None
                         ) -> MatrixSearchReport:
    """Sweep all conjugacy classes with |trace| <= trace_bound.

    Breadth-first search over reduced words in the generators: no move
    follows a token with its inverse.  The generators must be a free
    basis (a set with no relation among its elements), so each element
    has exactly one reduced word and the search meets it at most once;
    a product equal to an element already explored proves a relation
    and raises ValueError naming both words.  In a free group two
    elements are conjugate exactly when their cyclically reduced words
    agree up to rotation and inversion, so a class below the bound is
    the set of candidates with one ``_class_key``, and its witness is
    its shortest word, ties broken by spelling.

    An element W is explored only while the displacement d(i, W i) stays
    below the horizon 2 arccosh(bound/2) + 2 * diameter: any class below
    the bound has an axis passing within the covering radius of the base
    point's orbit, hence a representative inside the horizon, whose cap
    ``_sweep_cap`` bounds exactly (the float horizon is for display).
    Without a diameter the search is a labeled non-exhaustive sweep to
    the same horizon with diameter 0 plus one unit of slack.  A diameter
    must be a finite real >= 0; a horizon above 709 is refused.

    At most ``MAX_SWEEP_STATES`` elements (the identity included) are
    explored; a sweep that needs more stops at the cap and is not
    certified.  Each product first meets the float pre-filter of
    ``_prefilter``, which rejects only products the exact test would
    reject and accepts only products it would accept, so the filter
    changes no explored element, witness, trace or count; the exact test
    runs only on products between the filter's two thresholds.

    An element far from the origin meets only the moves its direction
    allows.  ``_direction_table``, built once per call with no cosh or
    exp, cuts the outer shell of elements (||S||^2 at least cap / 16)
    into angle sectors by the direction of S^T S, and lists for each
    sector and last move, in move order and without the last move's
    inverse, the moves whose float filter could pass for some element
    of the sector: it proves that the others' float values exceed their
    reject thresholds.  So a move the table leaves out is one the filter
    would reject, and it is counted as a filter reject; the counts, the
    explored elements and the witnesses are the full filter's, and at
    the cap the moves never tried are counted in the full move list.

    A product is put in ``MoebiusMap``'s canonical form, written out
    inline without its checks: the product of two canonical forms has
    a positive denominator den and determinant den^2, and dividing by
    a common factor g divides both sides by g^2.  An explored element
    is kept as the hash of its five entries, in the seen set and in an
    array in BFS order, with two array entries: its parent's index and
    its last move's index.  Distinct entries can share a hash (hash(-1)
    == hash(-2), so L^-1 and L^-2 do), so a hit scans the hash array and
    rebuilds each earlier element with that hash from its word, one map
    product per letter; only equal entries are a relation.  A hit thus
    costs time but changes nothing explored, and as int hashes are not
    salted by PYTHONHASHSEED, the same hits come on every run.  Its
    entry tuple is kept only while its level is being built or expanded,
    and for the candidates below the bound.  So the elements of a level
    are consecutive indices, the moves that may follow an element are
    looked up by its last move, and a word is rebuilt from the parent
    chain only where it is printed or compared: for the candidates, on
    a hit and in the two errors.  Maps are built only for the witnesses
    and on a hit.  Each element-move pair considered is
    rejected by the filter (the table's omissions included) or the
    exact test, or explored, or finds the cap full (at most once).  An
    empty generator set raises ValueError: the trivial group has no
    class to sweep, so nothing to certify.

    An explored element with |trace| < 2 other than 0 or 1 raises
    ValueError: by Niven's theorem it has infinite order, since a
    rational elliptic of finite order has trace 0 or +-1, so the group
    is not discrete.
    """
    if not gens:
        raise ValueError("no generators: the trivial group has no "
                         "hyperbolic class to sweep")
    trace_bound = Q(trace_bound)
    if trace_bound <= 2:
        raise ValueError("trace bound must exceed 2")
    certified = diameter is not None
    if certified:
        check_diameter(diameter)
    diam = Q(diameter if certified else 1)
    # floats below 2^1000 convert; below 709, 2 cosh(horizon) < 2^1023
    if max(trace_bound, diam) > 2 ** 1000 or (horizon := 2 * math.acosh(
            trace_bound / 2) + 2 * float(diam)) > 709:
        raise ValueError("the trace bound and diameter give a search "
                         "horizon above 709, too large for a float")
    # displacement test: 2 cosh d(i, Wi) = (a^2+b^2+c^2+d^2) / den^2
    cap = _sweep_cap(trace_bound, diam)
    cap_float = math.nextafter(cap[0] / cap[1], math.inf)    # rounded up
    steps = {}
    for lab, m in gens.items():
        steps[(lab, 1)] = m
        steps[(lab, -1)] = m.inverse()
    bound_num, bound_den = trace_bound.numerator, trace_bound.denominator
    tokens = list(steps)
    # each move's integer entries, read only for products past the filter
    entries = [(t.quad, t.den) for t in steps.values()]
    # (move index, its float pre-filter); a move the filter does not
    # apply to gets H = 0 and thresholds inf and -inf, so the filter
    # neither rejects nor accepts a product of it
    moves = [(k, *(_prefilter(t, cap_float)
                   or (0.0, 0.0, 0.0, math.inf, -math.inf)))
             for k, t in enumerate(steps.values())]
    # the moves that may follow move k: all but its inverse; the
    # identity's entry (last move -1) allows every move
    moves_after = [[m for m in moves if tokens[m[0]] != (lab, -exp)]
                   for lab, exp in tokens] + [moves]
    outer, scale, rows = _direction_table(list(steps.values()), moves,
                                          moves_after, cap_float)

    from array import array     # about 160 kB to load; only a sweep needs it

    state_limit = MAX_SWEEP_STATES  # a local: read once per call
    gcd = math.gcd
    # explored element i has the key keys[i], the hash of its canonical
    # entries; its word is its parent's word followed by
    # tokens[last_move[i]]
    keys = array("q", [hash((1, 0, 0, 1, 1))])
    seen = set(keys)
    parent, last_move = array("i", [0]), array("i", [-1])

    def word(i: int) -> Tuple:
        letters = []
        while i:
            letters.append(tokens[last_move[i]])
            i = parent[i]
        return tuple(reversed(letters))

    exhausted = True
    candidates = []         # (index, entries) of hyperbolics below the bound
    min_above = None        # least |trace| above the bound, as (num, den)
    tried = passed = exact_rejects = 0      # passed: past the float filter
    # the level being expanded, elements start, start + 1, ...
    level, start = [(1, 0, 0, 1, 1)], 0

    while level and exhausted:
        built = []          # the next level, in BFS order
        for i, s in enumerate(level, start):
            last = last_move[i]
            follow = moves_after[last]
            tried += len(follow)
            a, b, c, d, den = s
            # _gram here and mat_mul below, inline: calling them took
            # certify-n10 from 1.35 to 1.71 s (medians of 4 pairs)
            fa, fb, fc, fd = a / den, b / den, c / den, d / den
            g11, g12, g22 = (fa * fa + fc * fc, fa * fb + fc * fd,
                             fb * fb + fd * fd)
            if g11 + g22 >= outer:
                # the moves this direction allows; the rest the filter
                # would reject, and they count as its rejects
                follow = rows[last][int((math.atan2(g12, (g11 - g22) / 2)
                                         + math.pi) * scale)]
            for k, h11, h12x2, h22, threshold, accept in follow:
                norm = g11 * h11 + g12 * h12x2 + g22 * h22
                if norm > threshold:
                    continue
                passed += 1
                (e, f, g, h), nden = entries[k]
                na, nb, nc, nd = (a * e + b * g, a * f + b * h,
                                  c * e + d * g, c * f + d * h)
                nden *= den
                # test the raw product exactly before the gcd
                if norm > accept and not _within((na, nb, nc, nd), nden,
                                                 cap):
                    exact_rejects += 1
                    continue
                # MoebiusMap's canonical form, inline and unchecked: a call
                # took the GAMMA10 and ALPHA10 sweeps from 0.69 to 0.72 s
                # (medians of 6 processes, best of 5 sweeps each)
                r = gcd(nden, na, nb, nc, nd)
                if r > 1:
                    na, nb, nc, nd, nden = (na // r, nb // r, nc // r,
                                            nd // r, nden // r)
                if na < 0 or (na == 0 and nb < 0):
                    na, nb, nc, nd = -na, -nb, -nc, -nd
                ns = na, nb, nc, nd, nden
                key = hash(ns)
                if key in seen:
                    # a hit proves nothing until the entries agree
                    m = MoebiusMap(*ns)
                    j = next((j for j, x in enumerate(keys) if x == key
                              and m == math.prod(map(steps.get, word(j)),
                                                 start=IDENTITY)), None)
                    # j = 0 (the identity) only for an identity generator:
                    # a reduced word of length >= 2 giving the identity
                    # has a prefix equal to its last letter's inverse, an
                    # element of the same norm explored at level 1, so a
                    # relation was refused at level 1 or at that prefix
                    if j is not None:
                        this = _spell(word(i) + (tokens[k],))
                        raise ValueError(
                            "the generators satisfy a relation, so they are "
                            "not a free basis: " + (
                                f"the word {this} gives the identity" if j == 0
                                else f"the words {_spell(word(j))} and {this} "
                                "give the same element"))
                if len(keys) >= state_limit:
                    exhausted = False
                    # the moves after this one were never tried
                    after = moves_after[last]
                    tried -= len(after) - 1 - [m[0] for m in after].index(k)
                    break
                seen.add(key)
                keys.append(key)
                parent.append(i)
                last_move.append(k)
                built.append(ns)
                tr = abs(na + nd)
                if tr > 2 * nden:
                    if tr * bound_den <= bound_num * nden:
                        candidates.append((len(keys) - 1, ns))
                    elif (min_above is None
                          or tr * min_above[1] < min_above[0] * nden):
                        min_above = (tr, nden)
                elif tr < 2 * nden and tr not in (0, nden):
                    raise ValueError(
                        f"the group is not discrete: the word "
                        f"{_spell(word(len(keys) - 1))} has trace "
                        f"{Q(na + nd, nden)}, an elliptic of infinite order")
            if not exhausted:
                break
        start += len(level)
        level = built

    # each class's witness is its shortest word, ties broken by spelling
    words = {word(i): ns for i, ns in candidates}
    classes: Dict[Tuple, Tuple] = {}
    for w in sorted(words, key=lambda w: (len(w), str(w))):
        classes.setdefault(_class_key(w), w)
    witnesses = []
    for w in classes.values():
        s = MoebiusMap(*words[w])
        witnesses.append(GeodesicWitness(w, s, s.trace,
                                         trace_to_length(abs(s.trace))))
    witnesses.sort(key=lambda w: (abs(w.trace), len(w.word), str(w.word)))
    return MatrixSearchReport(
        witnesses=witnesses,
        frontier_exhausted=exhausted and certified,
        trace_bound=trace_bound,
        diameter=float(diam) if certified else None,
        horizon=horizon,
        states_explored=len(keys),
        min_trace_above_bound=None if min_above is None else Q(*min_above),
        products_tried=tried,
        filter_rejects=tried - passed,
        exact_rejects=exact_rejects,
    )


def polygon_diameter_proxy(dev) -> float:
    """Covering-radius proxy for a developed ideal polygon.

    Distance from a base point over the polygon's middle to the standard
    horoball of each cusp label (the height-one ball at infinity and its
    modular translates of diameter 1/q^2 at p/q); closed geodesics below
    any moderate trace bound stay in the complement of these horoballs,
    so the maximum is a usable fundamental-domain diameter.
    """
    finite = [x.as_rational() for x in dev.polygon if x != INF]
    x0 = float(finite[0] + finite[-1]) / 2.0
    y0 = 1.0
    worst = 0.0
    for lab in dev.polygon:
        if lab == INF:
            d = max(0.0, math.log(1.0 / y0))
        else:
            p, q = lab.p, lab.q
            # image height under the integer map sending p/q to infinity
            dx = x0 - p / q
            height = y0 / ((q * q) * (dx * dx + y0 * y0))
            d = max(0.0, math.log(1.0 / height))
        worst = max(worst, d)
    return worst
