"""Systole computation by certified short-geodesic enumeration.

Two engines.  For a triangulation, closed geodesics of the developed
group correspond to closed left/right turn sequences on the dual
trivalent ribbon graph; the enumerator walks all such cycles below an
exact trace bound.  For an explicitly given matrix group (possibly
non-arithmetic), a breadth-first search over group elements with
displacement pruning sweeps every conjugacy class below the bound, with
the pruning horizon derived from a fundamental-domain diameter proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from numbers import Real
from typing import Dict, List, Optional, Tuple

from .modular import (IDENTITY, TURNS, MoebiusMap, NotHyperbolicError,
                      lr_word_value, mat_mul, trace_to_length)
from .triangulation import Triangulation

__all__ = [
    "GeodesicWitness",
    "MatrixSearchReport",
    "enumerate_geodesics_combinatorial",
    "systole_combinatorial",
    "systole_matrix_group",
    "verify_density_length",
    "polygon_diameter_proxy",
]


@dataclass(frozen=True)
class GeodesicWitness:
    """A conjugacy-class representative of a closed geodesic."""

    word: Tuple                 # ("L","R",...) or ((label, exp), ...)
    matrix: MoebiusMap
    trace: Q
    length: float

    def to_json_obj(self):
        return {
            "word": list(self.word) if not self.word or isinstance(self.word[0], str)
            else [[lab, exp] for lab, exp in self.word],
            "matrix": self.matrix.to_json(),
            "trace": str(self.trace),
            "length": self.length,
        }


# -- combinatorial engine ------------------------------------------------

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


def enumerate_geodesics_combinatorial(g: Triangulation, trace_bound: int
                                      ) -> List[GeodesicWitness]:
    """All non-peripheral dual-walk classes with |trace| <= trace_bound.

    A walk state is the dart about to be crossed; after crossing edge(d)
    the walk leaves the new face through one of its two other sides.
    Turning around the origin vertex (d -> sigma[d]) is the L turn; the
    opposite turn is R.  Pure one-letter cycles are peripheral (they
    wind around a single vertex, trace 2) and are excluded.  Termination
    is certified by three facts about nonnegative turn products: appending
    a turn never decreases any entry, so a prefix with a + d above the
    bound cannot recover; a run R L^m R forces trace at least m + 2, so
    runs are capped at run_cap = max(trace_bound - 2, max degree); and
    once both letters have occurred, b and c are positive, so every
    further turn (L adds c to the trace, R adds b) raises the trace by at
    least 1.  A pushed prefix is an opening run of at most run_cap
    letters followed by at most trace_bound - 2 trace-raising turns, so
    it has at most run_cap + trace_bound - 2 <= 2 * run_cap letters.
    """
    report = g.validate()
    if not report.ok:
        raise ValueError("invalid triangulation: " + "; ".join(report.diagnostics))
    if trace_bound < 3:
        raise ValueError("trace bound must be at least 3")

    sigma, alpha = g.sigma, g.alpha
    n_darts = g.n_darts
    sigma_inv = [0] * n_darts
    for d in range(n_darts):
        sigma_inv[sigma[d]] = d

    def turn_L(d):
        return sigma[d]

    def turn_R(d):
        return alpha[sigma_inv[alpha[d]]]

    # which turn is L only affects the spelling: swapping L and R
    # transposes the cyclic product
    steps = (("L", turn_L, TURNS["L"]), ("R", turn_R, TURNS["R"]))
    max_deg = max(g.degree)
    run_cap = max(trace_bound - 2, max_deg)

    found: Dict[Tuple, GeodesicWitness] = {}

    for d0 in range(n_darts):
        # iterative DFS: (dart, matrix, word, darts, run letter, run length)
        stack = [(d0, (1, 0, 0, 1), "", (), None, 0)]
        while stack:
            d, m, word, darts, run_letter, run_len = stack.pop()
            for letter, turn, tm in steps:
                if letter == run_letter:
                    if run_len >= run_cap:
                        continue
                    new_run = run_len + 1
                else:
                    new_run = 1
                nxt = turn(d)
                nm = mat_mul(m, tm)
                if nm[0] + nm[3] > trace_bound:
                    # any completion multiplies by an entrywise >= identity
                    # factor, so the closing trace cannot drop back down
                    continue
                nword = word + letter
                ndarts = darts + (nxt,)
                if nxt == d0:
                    tr = nm[0] + nm[3]
                    if 2 < tr <= trace_bound:
                        key = _cyclic_key(ndarts, tuple(
                            alpha[x] for x in reversed(ndarts)))
                        if key not in found:
                            mat = MoebiusMap(*nm)
                            found[key] = GeodesicWitness(
                                tuple(nword), mat, mat.trace,
                                trace_to_length(tr))
                stack.append((nxt, nm, nword, ndarts, letter, new_run))

    order = sorted(found.values(),
                   key=lambda w: (abs(w.trace), len(w.word), w.word))
    return order


def systole_combinatorial(g: Triangulation,
                          trace_bound: Optional[int] = None
                          ) -> Tuple[float, List[GeodesicWitness]]:
    """Systole length and all witnesses attaining it.

    The enumeration bound defaults to the best a-priori upper bound (a
    low-density edge or a pattern certificate), which is itself realized
    by a dual walk, so the enumeration always sees the systole class.
    A given ``trace_bound`` below the systole's |trace| raises ValueError.
    """
    given = trace_bound is not None
    if not given:
        trace_bound = g.a_priori_trace_bound() or 30
    witnesses = enumerate_geodesics_combinatorial(g, trace_bound)
    if not witnesses and given:
        raise ValueError(f"no hyperbolic class with |trace| <= {trace_bound}; "
                         f"the systole lies above the trace bound")
    if not witnesses:
        raise RuntimeError("no hyperbolic class at or below the bound; "
                           "the a-priori bound should be attained")
    best = min(abs(w.trace) for w in witnesses)
    systoles = [w for w in witnesses if abs(w.trace) == best]
    return trace_to_length(best), systoles


# -- matrix-group engine -------------------------------------------------

@dataclass
class MatrixSearchReport:
    witnesses: List[GeodesicWitness]
    frontier_exhausted: bool
    trace_bound: Q
    diameter: Optional[float]
    horizon: float
    states_explored: int
    min_trace_above_bound: Optional[Q]


def _cyclic_reduce(word):
    w = list(word)
    out = []
    for tok in w:
        if out and out[-1][0] == tok[0] and out[-1][1] == -tok[1]:
            out.pop()
        else:
            out.append(tok)
    while len(out) >= 2 and out[0][0] == out[-1][0] and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return tuple(out)


def _within(quad, den, cap) -> bool:
    """Whether (a^2 + b^2 + c^2 + d^2) / den^2 <= M / K for cap = (M, K).

    For W = quad / den this bounds 2 cosh d(i, W i); the test is exact
    integer arithmetic and unchanged by scaling quad and den together.
    """
    a, b, c, d = quad
    return (a * a + b * b + c * c + d * d) * cap[1] <= den * den * cap[0]


def _conjugacy_classes(candidates: Dict, steps: Dict, norm_cap,
                       extra_pairs=(), node_cap: int = 200_000):
    """Partition candidate elements into conjugacy classes.

    From each candidate, close under single-generator conjugation (which
    preserves the trace) within the slightly enlarged displacement cap
    norm_cap on (a^2 + b^2 + c^2 + d^2); the conjugates of a class form
    a connected tube around its axis, so the closure visits every class
    member, including ones whose connecting conjugates lie just outside
    the searched ball.  Inverse classes are merged afterwards.  Returns
    the classes and whether every closure ran to the end; one cut short
    at node_cap may leave a class split, so its caller must not certify
    the partition.
    """
    cap = norm_cap.as_integer_ratio()
    conjugators = [(t, t.inverse()) for t in steps.values()]
    assigned: Dict[MoebiusMap, int] = {}
    label = 0
    closed = True
    for start in candidates:
        if start in assigned:
            continue
        assigned[start] = label
        queue = [start]
        visited = {start}
        while queue and len(visited) < node_cap:
            s = queue.pop()
            for t, t_inv in conjugators:
                u = t * s * t_inv
                if u in visited or not _within(u.quad, u.den, cap):
                    continue
                visited.add(u)
                queue.append(u)
                if u in candidates:
                    assigned[u] = label
        closed = closed and not queue
        label += 1

    # merge a class with its inverse class and with any externally
    # supplied conjugate pairs (e.g. cyclic word rotations)
    merged = {}

    def merge(la, lb):
        while la in merged:
            la = merged[la]
        while lb in merged:
            lb = merged[lb]
        if la != lb:
            a, b = sorted((la, lb))
            merged[b] = a

    for s, lab in assigned.items():
        inv = s.inverse()
        if inv in assigned:
            merge(lab, assigned[inv])
    for s, t in extra_pairs:
        if s in assigned and t in assigned:
            merge(assigned[s], assigned[t])
    groups: Dict[int, List] = {}
    for s, lab in assigned.items():
        while lab in merged:
            lab = merged[lab]
        groups.setdefault(lab, []).append(s)
    return list(groups.values()), closed


def systole_matrix_group(gens: Dict[object, MoebiusMap], trace_bound,
                         diameter: Optional[float] = None,
                         max_states: int = 2_000_000) -> MatrixSearchReport:
    """Sweep all conjugacy classes with |trace| <= trace_bound.

    Breadth-first search over group elements (not words; elements are
    deduplicated exactly, so redundant generating sets are fine).  An
    element W is explored only while the displacement d(i, W i) stays
    below the horizon 2 arccosh(bound/2) + 2 * diameter: any class below
    the bound has an axis passing within the covering radius of the base
    point's orbit, hence a representative inside the horizon.  Without a
    diameter the search is a labeled non-exhaustive sweep to the same
    horizon with diameter 0 plus one unit of slack.  A diameter must be
    a finite real >= 0, and a horizon too large for a float is refused;
    a class closure cut short by its node cap clears the certificate.
    """
    trace_bound = Q(trace_bound)
    if trace_bound <= 2:
        raise ValueError("trace bound must exceed 2")
    certified = diameter is not None
    bad_diameter = f"diameter must be a finite real >= 0, not {diameter!r}"
    if certified and (isinstance(diameter, bool)
                      or not isinstance(diameter, Real)):
        raise ValueError(bad_diameter)
    try:
        diam = float(diameter) if certified else 1.0
        if not math.isfinite(diam) or diam < 0:
            raise ValueError(bad_diameter)
        horizon = 2.0 * math.acosh(float(trace_bound) / 2.0) + 2.0 * diam
        # displacement test: 2 cosh d(i, Wi) = (a^2+b^2+c^2+d^2) / den^2
        cap = (2.0 * math.cosh(horizon)).as_integer_ratio()
        closure_cap = 2.0 * math.cosh(horizon + 3.0)
    except OverflowError:
        raise ValueError(f"trace bound {trace_bound} and diameter {diameter!r} "
                         "give a search horizon too large for a float")
    steps = {}
    for lab, m in gens.items():
        steps[(lab, 1)] = m
        steps[(lab, -1)] = m.inverse()
    bound_num, bound_den = trace_bound.numerator, trace_bound.denominator
    # (token, the token that would cancel it, its integer entries)
    moves = [(tok, (tok[0], -tok[1]), t.quad, t.den)
             for tok, t in steps.items()]

    seen = {IDENTITY: ()}
    frontier = [IDENTITY]
    exhausted = True
    candidates: Dict[MoebiusMap, Tuple] = {}
    min_above = None        # least |trace| above the bound, as (num, den)

    while frontier:
        if len(seen) > max_states:
            exhausted = False
            break
        nxt = []
        for s in frontier:
            word = seen[s]
            last = word[-1] if word else None
            quad, den = s.quad, s.den
            for tok, undo, t_quad, t_den in moves:
                if last == undo:
                    continue
                # test the raw product; most are rejected before the gcd
                prod, prod_den = mat_mul(quad, t_quad), den * t_den
                if not _within(prod, prod_den, cap):
                    continue
                ns = MoebiusMap(*prod, prod_den)
                if ns in seen:
                    continue
                nword = word + (tok,)
                seen[ns] = nword
                nxt.append(ns)
                tr = abs(ns.na + ns.nd)
                if tr > 2 * ns.den:
                    if tr * bound_den <= bound_num * ns.den:
                        candidates[ns] = nword
                    elif (min_above is None
                          or tr * min_above[1] < min_above[0] * ns.den):
                        min_above = (tr, ns.den)
        frontier = nxt

    witnesses = []
    # sound pre-merges from the words alone: a freely/cyclically reduced
    # word is a conjugate of the original, and two candidates whose
    # cyclic words agree up to rotation and inversion are conjugate
    extra_pairs = []
    by_key: Dict[Tuple, MoebiusMap] = {}
    for s, word in candidates.items():
        reduced = _cyclic_reduce(word)
        if reduced != word:
            rs = IDENTITY
            for tok in reduced:
                rs = rs * steps[tok]
            if rs != s:
                extra_pairs.append((s, rs))
        key = _cyclic_key(reduced, tuple(
            (lab, -exp) for lab, exp in reversed(reduced)))
        if key in by_key:
            extra_pairs.append((s, by_key[key]))
        else:
            by_key[key] = s

    groups, closed = _conjugacy_classes(candidates, steps, closure_cap,
                                        extra_pairs)
    for group in groups:
        s = min(group, key=lambda x: (len(candidates[x]), str(candidates[x])))
        witnesses.append(GeodesicWitness(candidates[s], s, s.trace,
                                         trace_to_length(abs(s.trace))))
    witnesses.sort(key=lambda w: (abs(w.trace), len(w.word), str(w.word)))
    return MatrixSearchReport(
        witnesses=witnesses,
        frontier_exhausted=exhausted and closed and certified,
        trace_bound=trace_bound,
        diameter=diameter,
        horizon=horizon,
        states_explored=len(seen),
        min_trace_above_bound=None if min_above is None else Q(*min_above),
    )


def polygon_diameter_proxy(dev) -> float:
    """Covering-radius proxy for a developed ideal polygon.

    Distance from a base point over the polygon's middle to the standard
    horoball of each cusp label (the height-one ball at infinity and its
    modular translates of diameter 1/q^2 at p/q); closed geodesics below
    any moderate trace bound stay in the complement of these horoballs,
    so the maximum is a usable fundamental-domain diameter.
    """
    from .modular import INF

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


def verify_density_length(g: Triangulation, e: int) -> Tuple[int, float]:
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
    m = lr_word_value(word)
    assert m.trace == d - 2
    return d - 2, trace_to_length(d - 2)
