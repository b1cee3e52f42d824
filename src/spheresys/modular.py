"""Exact arithmetic for the modular group and the Farey tessellation.

Fractions are extended rationals p/q with a single point at infinity
(1/0).  Moebius maps are 2x2 unimodular matrices over exact rationals,
considered projectively (M and -M are the same map).  ``MoebiusMap`` is
the one exact matrix type: it stores four integers over a common
positive denominator in a canonical form, so products, inverses,
powers and comparisons are integer arithmetic.  ``mat_mul`` is the one
2x2 product formula; the matrix-group search and the dual walk use it
on raw integer entries before (or instead of) building a map.  All
group arithmetic is exact; floating point enters only in the final
trace-to-length conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Iterable, Sequence, Tuple, Union

__all__ = [
    "Frac",
    "INF",
    "MoebiusMap",
    "mat_mul",
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

    @classmethod
    def from_rational(cls, x: Union[int, Q, "Frac"]) -> "Frac":
        if isinstance(x, Frac):
            return x
        if isinstance(x, int):
            return cls(x, 1)
        return cls(x.numerator, x.denominator)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def as_rational(self) -> Q:
        if self.q == 0:
            raise ZeroDivisionError("infinity has no rational value")
        return Q(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"

    def __repr__(self):
        return f"Frac({self.p}, {self.q})"

    def __float__(self):
        if self.q == 0:
            return math.inf
        return self.p / self.q

    def _key(self):
        # infinity sorts above every rational
        if self.q == 0:
            return (1, 0)
        return (0, Q(self.p, self.q))

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    @staticmethod
    def parse(text: str) -> "Frac":
        text = text.strip()
        if "/" in text:
            a, b = text.split("/")
            return Frac(int(a), int(b))
        return Frac(int(text), 1)

    def mediant(self, other: "Frac") -> "Frac":
        return Frac(self.p + other.p, self.q + other.q)


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


# Turn matrices of the dual walk, by letter.
TURNS = {"L": (1, 1, 0, 1), "R": (1, 0, 1, 1)}


@dataclass(frozen=True, slots=True)
class MoebiusMap:
    """A determinant-one 2x2 matrix over exact rationals, up to sign.

    Stored as integers over a common denominator: the entries are
    na/den, nb/den, nc/den, nd/den with den > 0, gcd(na, nb, nc, nd,
    den) = 1, the first nonzero numerator positive and
    na*nd - nb*nc = den^2.  The representative is thus canonical, and
    equality and hashing are projective.  The constructor also takes
    rational entries (with den left at 1) and brings them to this form.
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
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        g = gcd(a, b, c, d, den)
        if g > 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
        if a * d - b * c != den * den:
            raise ValueError(f"matrix ({Q(a, den)}, {Q(b, den)}; {Q(c, den)}, "
                             f"{Q(d, den)}) has determinant != 1")
        # a = 0 forces b != 0, so the first nonzero entry is a or b
        if a < 0 or (a == 0 and b < 0):
            a, b, c, d = -a, -b, -c, -d
        for name, value in zip(self.__slots__, (a, b, c, d, den)):
            object.__setattr__(self, name, value)

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
    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def is_parabolic(self) -> bool:
        return abs(self.na + self.nd) == 2 * self.den and self != IDENTITY

    @property
    def is_hyperbolic(self) -> bool:
        return abs(self.na + self.nd) > 2 * self.den

    @property
    def is_elliptic(self) -> bool:
        return abs(self.na + self.nd) < 2 * self.den

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
        x = Frac.from_rational(x)
        return Frac(self.na * x.p + self.nb * x.q, self.nc * x.p + self.nd * x.q)

    def fixed_rational_point(self) -> Frac:
        """The fixed point of a parabolic map, as an extended rational."""
        if not self.is_parabolic:
            raise ValueError("only parabolic maps have a single rational fixed point")
        if self.nc == 0:
            return INF
        # c x^2 + (d - a) x - b = 0 with zero discriminant
        return Frac(self.na - self.nd, 2 * self.nc)

    def to_json(self):
        return [str(e) for e in self.entries()]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "MoebiusMap":
        a, b, c, d = data
        return cls(a, b, c, d)

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
    p1 = MoebiusMap(1, m1, 0, 1)
    p2 = MoebiusMap(1, 0, m2, 1)
    by_matrix = abs((p1 * p2.inverse()).trace)
    assert by_matrix == closed_form, (m1, m2, by_matrix, closed_form)
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


def _integer_map_to(cusp: Frac) -> MoebiusMap:
    """An integer unimodular map sending infinity to the given cusp."""
    p, q = cusp.p, cusp.q
    if q == 0:
        return IDENTITY
    # p s - r q = 1
    g, s, r = _extended_gcd(p, q)
    assert g == 1
    return MoebiusMap(p, -r, q, s)


def _extended_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def cusp_parabolic(cusp: Frac, width: int) -> MoebiusMap:
    """The conjugate of L**width fixing the given cusp.

    For cusp p/q the result is I + width * (-pq, p^2; -q^2, pq); its
    lower-left entry is width * q^2 up to sign.  Callers comparing
    against other conventions should accept the inverse as well.
    """
    if width < 1:
        raise ValueError("cusp width must be positive")
    m = _integer_map_to(cusp)
    result = m * (L ** width) * m.inverse()
    assert result.is_parabolic
    assert result(cusp) == cusp
    return result
