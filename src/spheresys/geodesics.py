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

from .modular import (INF, TURNS, MoebiusMap, canonical_entries,
                      lr_word_value, mat_mul, trace_to_length)
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

# The most elements a sweep explores.  An element costs its bytes key,
# its seen-set slot, and its list and parent-array entries, and its
# canonical tuple while its level is built or expanded.  As growth of
# the peak RSS that is 146 B for GAMMA10 at bound 18, 157 B for the
# 893,969-element eleven-cusp sweep at bound 30 and 204 B for ALPHA10's
# rationals, so the cap costs 0.3-0.4 GB (Python 3.11, 64-bit Linux).
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
    products_tried: int     # element-move products the sweep formed
    filter_rejects: int     # of those, rejected by the float pre-filter
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
    one element to the next.
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


def _spell(word: Tuple) -> str:
    return " ".join(f"{lab}^{exp}" for lab, exp in word) or "the empty word"


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

    An explored element is kept as one exact key, the bytes of its
    ``canonical_entries`` numerators na, nb, nc, nd in hexadecimal (the
    key is injective: na nd - nb nc = den^2 fixes den > 0), in the seen
    set and in a list in BFS order, with two array entries: its parent's
    index and its last move's index.  Its entry tuple is kept only while
    its level is being built or expanded, and for the candidates below
    the bound.  So the elements of a level are consecutive indices, the
    moves that may follow an element are looked up by its last move, and
    a word is rebuilt from the parent chain only where it is printed or
    compared: for the candidates and in the two errors.  Maps are built
    only for the witnesses.  Each product tried is rejected by the
    filter or the exact test, or explored, or finds the cap full (at
    most once).  An empty generator set raises ValueError: the trivial
    group has no class to sweep, so nothing to certify.

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

    from array import array     # about 160 kB to load; only a sweep needs it

    state_limit = MAX_SWEEP_STATES  # a local: read once per call
    # explored element i has the key keys[i] (the identity's is b"1 0 0
    # 1"); its word is its parent's word followed by tokens[last_move[i]]
    keys = [b"1 0 0 1"]
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
            follow = moves_after[last_move[i]]
            tried += len(follow)
            quad, den = s[:4], s[4]
            g11, g12, g22 = _gram(quad, den)
            for k, h11, h12x2, h22, threshold, accept in follow:
                norm = g11 * h11 + g12 * h12x2 + g22 * h22
                if norm > threshold:
                    continue
                passed += 1
                t_quad, t_den = entries[k]
                # test the raw product exactly before the gcd
                prod, prod_den = mat_mul(quad, t_quad), den * t_den
                if norm > accept and not _within(prod, prod_den, cap):
                    exact_rejects += 1
                    continue
                ns = na, nb, nc, nd, nden = canonical_entries(*prod, prod_den)
                # exact: na nd - nb nc = nden^2 fixes nden > 0
                key = b"%x %x %x %x" % (na, nb, nc, nd)
                if key in seen:
                    raise ValueError(
                        f"the generators satisfy a relation, so they are "
                        f"not a free basis: the words "
                        f"{_spell(word(keys.index(key)))} and "
                        f"{_spell(word(i) + (tokens[k],))} give the same "
                        f"element")
                if len(keys) >= state_limit:
                    exhausted = False
                    # the moves after this one were never tried
                    tried -= len(follow) - 1 - [m[0] for m in follow].index(k)
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
