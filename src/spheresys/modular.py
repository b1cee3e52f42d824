"""Exact arithmetic for the modular group and the Farey tessellation.

Fractions are extended rationals p/q with a single point at infinity
(1/0).  Moebius maps are 2x2 unimodular matrices over exact rationals,
considered projectively (M and -M are the same map).  ``MoebiusMap`` is
the one exact matrix type: it stores four integers over a common
positive denominator in a canonical form, so products, inverses,
powers and comparisons are integer arithmetic.  ``mat_mul`` is the one
2x2 product formula (the matrix-group search's expansion loop writes
it out inline) and ``canonical_entries`` the one canonical form,
shared by ``MoebiusMap`` and the matrix-group search, which keeps each
element as those five integers and builds no map for it.  All group
arithmetic is exact; floating point enters only in the final
trace-to-length conversion.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Sequence, Tuple, Union

__all__ = [
    "Frac",
    "INF",
    "MoebiusMap",
    "canonical_entries",
    "mat_mul",
    "maps_to",
    "TURNS",
    "IDENTITY",
    "L",
    "R",
    "NotHyperbolicError",
    "farey_adjacent",
    "trace_to_length",
    "schmutz_bound",
    "parabolic_product_trace",
    "lr_word_value",
    "cusp_parabolic",
]


class NotHyperbolicError(ValueError):
    """Raised when a trace with |t| <= 2 is fed to a length conversion."""


@dataclass(frozen=True, order=False)
class Frac:
    """An extended rational p/q in lowest terms; q == 0 encodes infinity.

    The canonical representative has q > 0, except for infinity which is
    stored as 1/0.
    """

    p: int
    q: int = 1

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0:
            if p == 0:
                raise ValueError("0/0 is not an extended rational")
            object.__setattr__(self, "p", 1)
            return
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q)
        if g > 1:
            p //= g
            q //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def as_rational(self) -> Q:
        if self.q == 0:
            raise ZeroDivisionError("infinity has no rational value")
        return Q(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"

    def __repr__(self):
        return f"Frac({self.p}, {self.q})"

    # with both denominators >= 0 and infinity stored as 1/0, cross
    # multiplication is exact and sorts infinity above every rational
    def __lt__(self, other):
        return self.p * other.q < other.p * self.q

    def __le__(self, other):
        return self.p * other.q <= other.p * self.q


INF = Frac(1, 0)


def farey_adjacent(x: Frac, y: Frac) -> bool:
    """Whether x and y span an edge of the Farey tessellation.

    The vertices p/q and r/s are joined exactly when ps - rq = +-1,
    with both fractions taken in lowest terms.
    """
    if x == y:
        raise ValueError("farey_adjacent requires two distinct vertices")
    return abs(x.p * y.q - y.p * x.q) == 1


def mat_mul(x: Sequence[int], y: Sequence[int]) -> Tuple[int, int, int, int]:
    """Product of two 2x2 matrices given row by row as (a, b, c, d)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def maps_to(quad: Sequence[int], x: Frac, y: Frac) -> bool:
    """Whether the invertible matrix quad = (a, b, c, d) sends x to y.

    Projectively, the image of x = p/q is (ap + bq)/(cp + dq), a nonzero
    vector since the matrix is invertible, and it is y = r/s exactly
    when the cross products agree: (ap + bq) s = (cp + dq) r.  This is
    ``MoebiusMap.__call__(x) == y`` without forming the image.
    """
    a, b, c, d = quad
    return (a * x.p + b * x.q) * y.q == (c * x.p + d * x.q) * y.p


def _abridged(x: Q) -> str:
    """x as str() prints it, with each run of more than 20 digits cut to
    its first 10 and its length, so that an error stays one short line."""
    return re.sub(r"\d{21,}", lambda m: f"{m[0][:10]}...({len(m[0])} digits)",
                  str(x))


def canonical_entries(a: int, b: int, c: int, d: int, den: int
                      ) -> Tuple[int, int, int, int, int]:
    """The canonical form (na, nb, nc, nd, den) of (a b; c d) / den.

    den > 0, gcd(na, nb, nc, nd, den) = 1, the first nonzero numerator
    is positive and na*nd - nb*nc = den^2.  The arguments are ints;
    ValueError if den is not positive or the determinant is not 1.
    """
    if den <= 0:
        raise ValueError(f"denominator {den} is not positive")
    g = gcd(a, b, c, d, den)
    if g > 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    if a * d - b * c != den * den:
        a, b, c, d = (_abridged(Q(x, den)) for x in (a, b, c, d))
        raise ValueError(f"matrix ({a}, {b}; {c}, {d}) has determinant != 1")
    # a = 0 forces b != 0, so the first nonzero entry is a or b
    if a < 0 or (a == 0 and b < 0):
        a, b, c, d = -a, -b, -c, -d
    return a, b, c, d, den


# Turn matrices of the dual walk, by letter.
TURNS = {"L": (1, 1, 0, 1), "R": (1, 0, 1, 1)}


@dataclass(frozen=True, slots=True)
class MoebiusMap:
    """A determinant-one 2x2 matrix over exact rationals, up to sign.

    Stored as the five integers of ``canonical_entries``: the entries
    are na/den, nb/den, nc/den and nd/den.  The representative is thus
    canonical, and equality and hashing are projective.  The constructor
    also takes rational entries (with den left at 1) and brings them to
    this form.
    """

    na: int
    nb: int
    nc: int
    nd: int
    den: int = 1

    def __post_init__(self):
        a, b, c, d, den = self.na, self.nb, self.nc, self.nd, self.den
        if not (type(a) is type(b) is type(c) is type(d) is int):
            a, b, c, d = (Q(x) for x in (a, b, c, d))
            scale = math.lcm(a.denominator, b.denominator,
                             c.denominator, d.denominator)
            a, b, c, d = (int(x * scale) for x in (a, b, c, d))
            den *= scale
        # one call per field: a loop over the slots costs more per map
        a, b, c, d, den = canonical_entries(a, b, c, d, den)
        object.__setattr__(self, "na", a)
        object.__setattr__(self, "nb", b)
        object.__setattr__(self, "nc", c)
        object.__setattr__(self, "nd", d)
        object.__setattr__(self, "den", den)

    @property
    def quad(self) -> Tuple[int, int, int, int]:
        return (self.na, self.nb, self.nc, self.nd)

    # the entries as Fractions
    a = property(lambda self: Q(self.na, self.den))
    b = property(lambda self: Q(self.nb, self.den))
    c = property(lambda self: Q(self.nc, self.den))
    d = property(lambda self: Q(self.nd, self.den))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> Q:
        """Trace of the canonical representative; use abs() for PSL2 data."""
        return Q(self.na + self.nd, self.den)

    @property
    def is_parabolic(self) -> bool:
        return abs(self.na + self.nd) == 2 * self.den and self != IDENTITY

    def __mul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(*mat_mul(self.quad, other.quad),
                          self.den * other.den)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.nd, -self.nb, -self.nc, self.na, self.den)

    def __pow__(self, n: int) -> "MoebiusMap":
        if n < 0:
            return self.inverse() ** (-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Frac) -> Frac:
        """Apply the map projectively to an extended rational."""
        return Frac(self.na * x.p + self.nb * x.q, self.nc * x.p + self.nd * x.q)

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


IDENTITY = MoebiusMap(1, 0, 0, 1)
L = MoebiusMap(*TURNS["L"])
R = MoebiusMap(*TURNS["R"])


def trace_to_length(t: Union[int, Q]) -> float:
    """Geodesic length of a hyperbolic class with trace t: 2 arccosh(|t|/2)."""
    t = Q(t)
    if abs(t) <= 2:
        raise NotHyperbolicError(f"trace {t} is not hyperbolic")
    return 2.0 * math.acosh(abs(t) / 2)


def schmutz_bound(n: int) -> float:
    """Upper bound 4 arccosh((3n-6)/n) for the systole of an n-cusped sphere."""
    if n < 4:
        raise ValueError("a hyperbolic sphere needs at least 4 cusps")
    return 4.0 * math.acosh((3 * n - 6) / n)


def parabolic_product_trace(m1: int, m2: int) -> int:
    """|trace| of the product of a width-m1 and an opposed width-m2 parabolic.

    Computed both from the closed form |m1*m2 - 2| and by multiplying
    the two parabolic matrices; the two must agree.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("cusp widths must be positive")
    closed_form = abs(m1 * m2 - 2)
    product = cusp_parabolic(INF, m1) * cusp_parabolic(Frac(0), m2)
    by_matrix = abs(product.trace)
    if by_matrix != closed_form:
        raise AssertionError(f"widths {m1}, {m2}: trace {by_matrix} by "
                             f"matrices, {closed_form} in closed form")
    return closed_form


def lr_word_value(word: Union[str, Sequence[str]]) -> MoebiusMap:
    """Left-to-right product of the turn matrices L = (1 1; 0 1), R = (1 0; 1 1)."""
    if not word:
        raise ValueError("empty L/R word")
    m = (1, 0, 0, 1)
    for letter in word:
        if letter not in TURNS:
            raise ValueError(f"unknown turn letter {letter!r}")
        m = mat_mul(m, TURNS[letter])
    return MoebiusMap(*m)


def cusp_parabolic(cusp: Frac, width: int) -> MoebiusMap:
    """The parabolic of the given width fixing the cusp p/q, in closed form.

    It is I + width * (-pq, p^2; -q^2, pq), which is M L^width M^-1 for
    every integer unimodular M sending infinity to p/q (the first column
    of M is (p, q)); infinity, stored as 1/0, gives L**width.  Callers
    comparing against other conventions should accept the inverse.
    """
    if width < 1:
        raise ValueError("cusp width must be positive")
    p, q = cusp.p, cusp.q
    result = MoebiusMap(1 - width * p * q, width * p * p,
                        -width * q * q, 1 + width * p * q)
    if not result.is_parabolic or not maps_to(result.quad, cusp, cusp):
        raise AssertionError(f"the width-{width} map at {cusp} is not a "
                             f"parabolic fixing it")
    return result
