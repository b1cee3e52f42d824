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

from .modular import (MoebiusMap, NotHyperbolicError, lr_word_value,
                      trace_to_length)
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

# Turn matrices; which letter is which only affects the word spelling,
# not traces (swapping L and R transposes the cyclic product).
_L = (1, 1, 0, 1)
_R = (1, 0, 1, 1)


def _mul(m, t):
    a, b, c, d = m
    e, f, g, h = t
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


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

    max_deg = max(g.degree)
    run_cap = max(trace_bound - 2, max_deg)

    found: Dict[Tuple, GeodesicWitness] = {}

    for d0 in range(n_darts):
        # iterative DFS: (dart, matrix, word, darts, run letter, run length)
        stack = [(d0, (1, 0, 0, 1), "", (), None, 0)]
        while stack:
            d, m, word, darts, run_letter, run_len = stack.pop()
            for letter, turn, tm in (("L", turn_L, _L), ("R", turn_R, _R)):
                if letter == run_letter:
                    if run_len >= run_cap:
                        continue
                    new_run = run_len + 1
                else:
                    new_run = 1
                nxt = turn(d)
                nm = _mul(m, tm)
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
                            mat = MoebiusMap(Q(nm[0]), Q(nm[1]),
                                             Q(nm[2]), Q(nm[3]))
                            found[key] = GeodesicWitness(
                                tuple(nword), mat, Q(tr),
                                trace_to_length(tr))
                stack.append((nxt, nm, nword, ndarts, letter, new_run))

    order = sorted(found.values(),
                   key=lambda w: (abs(w.trace), len(w.word), w.word))
    return order


def _initial_trace_bound(g: Triangulation) -> int:
    candidates = []
    density = g.density()
    for e in range(g.n_edges):
        if not g.is_loop(e) and density.densities[e] >= 5:
            candidates.append(density.densities[e] - 2)
    for cert in g.pattern_certificates():
        candidates.append(cert.trace_bound)
    return min(candidates) if candidates else 30


def systole_combinatorial(g: Triangulation,
                          trace_bound: Optional[int] = None
                          ) -> Tuple[float, List[GeodesicWitness]]:
    """Systole length and all witnesses attaining it.

    The enumeration bound defaults to the best a-priori upper bound (a
    low-density edge or a pattern certificate), which is itself realized
    by a dual walk, so the enumeration always sees the systole class.
    """
    if trace_bound is None:
        trace_bound = _initial_trace_bound(g)
    witnesses = enumerate_geodesics_combinatorial(g, trace_bound)
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


def _as_integer_state(m: MoebiusMap):
    """(a, b, c, d, den) with integer entries, det = den^2, gcd-reduced."""
    den = 1
    for x in (m.a, m.b, m.c, m.d):
        den = den * x.denominator // math.gcd(den, x.denominator)
    quad = [int(x * den) for x in (m.a, m.b, m.c, m.d)]
    return _reduce_state(quad, den)


def _reduce_state(quad, den):
    g = den
    for x in quad:
        g = math.gcd(g, abs(x))
    if g > 1:
        quad = [x // g for x in quad]
        den //= g
    for x in quad:
        if x != 0:
            if x < 0:
                quad = [-y for y in quad]
            break
    return (quad[0], quad[1], quad[2], quad[3], den)


def _state_mul(s, t):
    a, b, c, d, p = s
    e, f, g, h, q = t
    return _reduce_state(
        [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h], p * q)


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


def _state_norm(s):
    a, b, c, d, p = s
    return Q(a * a + b * b + c * c + d * d, p * p)


def _state_inverse(s):
    a, b, c, d, p = s
    return _reduce_state([d, -b, -c, a], p)


def _conjugacy_classes(candidates: Dict, gen_states: Dict, norm_cap,
                       extra_pairs=(), node_cap: int = 200_000):
    """Partition candidate elements into conjugacy classes.

    From each candidate, close under single-generator conjugation (which
    preserves the trace) within a slightly enlarged displacement cap;
    the conjugates of a class form a connected tube around its axis, so
    the closure visits every class member, including ones whose
    connecting conjugates lie just outside the searched ball.  Inverse
    classes are merged afterwards.  Returns the classes and whether
    every closure ran to the end; one cut short at node_cap may leave a
    class split, so its caller must not certify the partition.
    """
    inv_states = {tok: _state_inverse(ts) for tok, ts in gen_states.items()}
    assigned: Dict[Tuple, int] = {}
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
            for tok, ts in gen_states.items():
                u = _state_mul(_state_mul(ts, s), inv_states[tok])
                if u in visited or _state_norm(u) > norm_cap:
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
        inv = _state_inverse(s)
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


def systole_matrix_group(gens: Dict, trace_bound,
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
    a finite real >= 0; a class closure cut short by its node cap clears
    the certificate.
    """
    trace_bound = Q(trace_bound)
    if trace_bound <= 2:
        raise ValueError("trace bound must exceed 2")
    if diameter is not None and (
            isinstance(diameter, bool) or not isinstance(diameter, Real)
            or not math.isfinite(diameter) or diameter < 0):
        raise ValueError(f"diameter must be a finite real >= 0, not {diameter!r}")
    gen_states = {}
    for lab, m in gens.items():
        if m.a * m.d - m.b * m.c != 1:
            raise ValueError(f"generator {lab!r} is not unimodular")
        gen_states[(lab, 1)] = _as_integer_state(m)
        gen_states[(lab, -1)] = _as_integer_state(m.inverse())

    certified = diameter is not None
    diam = diameter if diameter is not None else 1.0
    horizon = 2.0 * math.acosh(float(trace_bound) / 2.0) + 2.0 * diam
    # displacement test: cosh d(i, Wi) = (a^2+b^2+c^2+d^2) / (2 den^2)
    cosh_horizon = math.cosh(horizon)

    def inside(s):
        a, b, c, d, p = s
        return a * a + b * b + c * c + d * d <= 2 * p * p * cosh_horizon

    identity = (1, 0, 0, 1, 1)
    seen = {identity: ()}
    frontier = [identity]
    exhausted = True
    candidates: Dict[Tuple, Tuple] = {}
    min_above: Optional[Q] = None

    while frontier:
        if len(seen) > max_states:
            exhausted = False
            break
        nxt = []
        for s in frontier:
            word = seen[s]
            for tok, ts in gen_states.items():
                if word and word[-1] == (tok[0], -tok[1]):
                    continue
                ns = _state_mul(s, ts)
                if ns in seen or not inside(ns):
                    continue
                nword = word + (tok,)
                seen[ns] = nword
                nxt.append(ns)
                a, b, c, d, p = ns
                tr = Q(a + d, p)
                if abs(tr) > 2:
                    if abs(tr) <= trace_bound:
                        candidates[ns] = nword
                    elif min_above is None or abs(tr) < min_above:
                        min_above = abs(tr)
        frontier = nxt

    witnesses = []
    # sound pre-merges from the words alone: a freely/cyclically reduced
    # word is a conjugate of the original, and two candidates whose
    # cyclic words agree up to rotation and inversion are conjugate
    extra_pairs = []
    by_key: Dict[Tuple, Tuple] = {}
    for s, word in candidates.items():
        reduced = _cyclic_reduce(word)
        if reduced != word:
            rs = (1, 0, 0, 1, 1)
            for tok in reduced:
                rs = _state_mul(rs, gen_states[tok])
            if rs != s:
                extra_pairs.append((s, rs))
        key = _cyclic_key(reduced, tuple(
            (lab, -exp) for lab, exp in reversed(reduced)))
        if key in by_key:
            extra_pairs.append((s, by_key[key]))
        else:
            by_key[key] = s

    closure_cap = 2.0 * math.cosh(horizon + 3.0)
    groups, closed = _conjugacy_classes(candidates, gen_states, closure_cap,
                                        extra_pairs)
    for group in groups:
        s = min(group, key=lambda x: (len(candidates[x]), str(candidates[x])))
        a, b, c, d, p = s
        mat = MoebiusMap(Q(a, p), Q(b, p), Q(c, p), Q(d, p))
        tr = Q(a + d, p)
        witnesses.append(GeodesicWitness(candidates[s], mat, tr,
                                         trace_to_length(abs(tr))))
    witnesses.sort(key=lambda w: (abs(w.trace), len(w.word), str(w.word)))
    return MatrixSearchReport(
        witnesses=witnesses,
        frontier_exhausted=exhausted and closed and certified,
        trace_bound=trace_bound,
        diameter=diameter,
        horizon=horizon,
        states_explored=len(seen),
        min_trace_above_bound=min_above,
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
