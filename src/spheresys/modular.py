"""Exact arithmetic for the modular group and the Farey tessellation.

Fractions are extended rationals p/q with a single point at infinity
(1/0).  Moebius maps are 2x2 unimodular matrices over exact rationals,
considered projectively (M and -M are the same map).  All group
arithmetic is exact; floating point enters only in the final
trace-to-length conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Iterable, Sequence, Union

__all__ = [
    "Frac",
    "INF",
    "MoebiusMap",
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


def _canonical_quad(a: Q, b: Q, c: Q, d: Q):
    for entry in (a, b, c, d):
        if entry != 0:
            if entry < 0:
                return (-a, -b, -c, -d)
            break
    return (a, b, c, d)


@dataclass(frozen=True)
class MoebiusMap:
    """A determinant-one 2x2 matrix over exact rationals, up to sign.

    The stored representative is canonical: the first nonzero entry of
    (a, b, c, d) is positive.  Equality and hashing are therefore
    projective.
    """

    a: Q
    b: Q
    c: Q
    d: Q

    def __post_init__(self):
        a = Q(self.a)
        b = Q(self.b)
        c = Q(self.c)
        d = Q(self.d)
        if a * d - b * c != 1:
            raise ValueError(f"matrix ({a}, {b}; {c}, {d}) has determinant != 1")
        a, b, c, d = _canonical_quad(a, b, c, d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Union[int, Q]]]) -> "MoebiusMap":
        (a, b), (c, d) = rows
        return cls(Q(a), Q(b), Q(c), Q(d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> Q:
        """Trace of the canonical representative; use abs() for PSL2 data."""
        return self.a + self.d

    @property
    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries())

    @property
    def is_parabolic(self) -> bool:
        return abs(self.trace) == 2 and self != IDENTITY

    @property
    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2

    @property
    def is_elliptic(self) -> bool:
        return abs(self.trace) < 2

    def __mul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

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
        x = Frac.from_rational(x) if not isinstance(x, Frac) else x
        num = self.a * x.p + self.b * x.q
        den = self.c * x.p + self.d * x.q
        if den == 0:
            return INF
        # clear the common denominator of the two rationals
        scale = num.denominator * den.denominator
        return Frac(int(num * scale), int(den * scale))

    def fixed_rational_point(self) -> Frac:
        """The fixed point of a parabolic map, as an extended rational."""
        if not self.is_parabolic:
            raise ValueError("only parabolic maps have a single rational fixed point")
        if self.c == 0:
            return INF
        # c x^2 + (d - a) x - b = 0 with zero discriminant
        x = (self.a - self.d) / (2 * self.c)
        return Frac(x.numerator, x.denominator)

    def to_json(self):
        return [str(e) for e in self.entries()]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "MoebiusMap":
        return cls(*(Q(s) for s in data))

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


IDENTITY = MoebiusMap(Q(1), Q(0), Q(0), Q(1))
L = MoebiusMap(Q(1), Q(1), Q(0), Q(1))
R = MoebiusMap(Q(1), Q(0), Q(1), Q(1))


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
    p1 = MoebiusMap(Q(1), Q(m1), Q(0), Q(1))
    p2 = MoebiusMap(Q(1), Q(0), Q(m2), Q(1))
    by_matrix = abs((p1 * p2.inverse()).trace)
    assert by_matrix == closed_form, (m1, m2, by_matrix, closed_form)
    return closed_form


def lr_word_value(word: Union[str, Sequence[str]]) -> MoebiusMap:
    """Left-to-right product of the turn matrices L = (1 1; 0 1), R = (1 0; 1 1)."""
    letters = list(word)
    if not letters:
        raise ValueError("empty L/R word")
    # accumulate on integer entries, wrap at the end
    a, b, c, d = 1, 0, 0, 1
    for letter in letters:
        if letter == "L":
            b += a
            d += c
        elif letter == "R":
            a += b
            c += d
        else:
            raise ValueError(f"unknown turn letter {letter!r}")
    return MoebiusMap(Q(a), Q(b), Q(c), Q(d))


def _integer_map_to(cusp: Frac) -> MoebiusMap:
    """An integer unimodular map sending infinity to the given cusp."""
    p, q = cusp.p, cusp.q
    if q == 0:
        return IDENTITY
    # p s - r q = 1
    g, s, r = _extended_gcd(p, q)
    assert g == 1
    return MoebiusMap(Q(p), Q(-r), Q(q), Q(s))


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
