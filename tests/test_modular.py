import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, strategies as st

from spheresys import cli
from spheresys.modular import (
    Frac,
    INF,
    IDENTITY,
    MoebiusMap,
    L,
    canonical_entries,
    NotHyperbolicError,
    cusp_parabolic,
    farey_adjacent,
    lr_word_value,
    maps_to,
    parabolic_product_trace,
    schmutz_bound,
    trace_to_length,
)


def json_roundtrip(m):
    """m through the --json encoder and back through the input loader."""
    gens, _ = cli.parse_input(cli.to_json({"generators": {"1": m}}))
    return gens["1"]


class TestFrac:
    def test_normalization(self):
        assert Frac(2, 4) == Frac(1, 2)
        assert Frac(-2, -4) == Frac(1, 2)
        assert Frac(2, -4) == Frac(-1, 2)
        assert Frac(0, 5) == Frac(0, 1)

    def test_infinity(self):
        assert Frac(3, 0) == INF
        assert Frac(-1, 0) == INF
        assert INF.q == 0
        with pytest.raises(ValueError):
            Frac(0, 0)

    def test_ordering(self):
        assert Frac(1, 2) < Frac(2, 3) < Frac(1, 1) < INF

    @given(st.integers(-40, 40), st.integers(-40, 40),
           st.integers(-40, 40), st.integers(-40, 40))
    def test_ordering_matches_fraction(self, p, q, r, s):
        """< and <= agree with Fraction comparison; infinity (any p/0)
        sorts above every rational and equal to itself."""
        assume((p, q) != (0, 0) and (r, s) != (0, 0))

        def value(a, b):
            return math.inf if b == 0 else Q(a, b)

        x, y = Frac(p, q), Frac(r, s)
        assert (x < y) == (value(p, q) < value(r, s))
        assert (x <= y) == (value(p, q) <= value(r, s))


class TestFareyAdjacent:
    def test_inf_zero(self):
        assert farey_adjacent(INF, Frac(0)) is True

    def test_half_third(self):
        assert farey_adjacent(Frac(1, 2), Frac(1, 3)) is True

    def test_third_two_thirds(self):
        # derived: Farey neighbours of 1/3 with denominator <= 3 are
        # 0/1, 1/2 and 1/4... restrict to q <= 3: 0/1 and 1/2 only.
        neighbours = set()
        for q in range(0, 4):
            for p in range(-5, 6):
                if q == 0 and p != 1:
                    continue
                try:
                    f = Frac(p, q)
                except ValueError:
                    continue
                if f != Frac(1, 3) and farey_adjacent(Frac(1, 3), f):
                    neighbours.add(f)
        assert Frac(2, 3) not in neighbours
        assert farey_adjacent(Frac(1, 3), Frac(2, 3)) is False

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            farey_adjacent(Frac(1, 2), Frac(2, 4))


class TestTraceToLength:
    def test_paper_value_tetrahedron(self):
        assert trace_to_length(7) == pytest.approx(2 * math.acosh(3.5), abs=1e-15)

    def test_double_angle_identity(self):
        # cosh double angle: 2*(3/2)^2 - 1 = 7/2
        assert trace_to_length(7) == pytest.approx(4 * math.acosh(1.5), abs=1e-12)
        assert trace_to_length(7) == pytest.approx(3.8496946004768278, abs=1e-12)

    def test_icosahedron_trace(self):
        assert trace_to_length(23) == pytest.approx(2 * math.acosh(11.5), abs=1e-15)

    def test_not_hyperbolic(self):
        for t in (2, -2, 0, Q(3, 2)):
            with pytest.raises(NotHyperbolicError):
                trace_to_length(t)

    def test_monotone(self):
        values = [trace_to_length(Q(t, 10)) for t in range(21, 300, 7)]
        assert values == sorted(values)


class TestSchmutzBound:
    def test_n5(self):
        assert schmutz_bound(5) == pytest.approx(4.77164, abs=1e-5)

    def test_n12_equals_icosahedron_systole(self):
        assert schmutz_bound(12) == pytest.approx(trace_to_length(23), abs=1e-12)

    def test_n4_equals_trace7(self):
        assert schmutz_bound(4) == pytest.approx(trace_to_length(7), abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            schmutz_bound(3)


class TestParabolicProductTrace:
    @pytest.mark.parametrize("m1,m2,expected", [(2, 8, 14), (2, 12, 22), (1, 2, 0)])
    def test_examples(self, m1, m2, expected):
        assert parabolic_product_trace(m1, m2) == expected

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_closed_form(self, m1, m2):
        assert parabolic_product_trace(m1, m2) == abs(m1 * m2 - 2)


class TestLRWords:
    def test_single_letter(self):
        assert lr_word_value("L") == MoebiusMap(1, 1, 0, 1)
        assert lr_word_value("R") == MoebiusMap(1, 0, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lr_word_value("")

    def test_two_cusp_loop_trace(self):
        for m1 in range(2, 51):
            for m2 in range(2, 51):
                word = "L" + "R" * (m1 - 2) + "L" + "R" * (m2 - 2)
                assert lr_word_value(word).trace == m1 * m2 - 2
                assert parabolic_product_trace(m1, m2) == m1 * m2 - 2

    def test_degree_one_pattern_trace(self):
        for d in range(1, 200):
            assert lr_word_value("LLLL" + "R" * (d - 1)).trace == 4 * d - 2


def extended_gcd(a, b):
    """(g, s, t) with a*s + b*t = g = gcd(a, b) >= 0."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class TestCuspParabolic:
    def test_infinity(self):
        assert cusp_parabolic(INF, 3) == L ** 3

    def test_zero_width_four(self):
        m = cusp_parabolic(Frac(0), 4)
        assert m in (MoebiusMap(1, 0, 4, 1), MoebiusMap(1, 0, -4, 1))

    def test_fixes_two(self):
        m = cusp_parabolic(Frac(2), 5)
        assert abs(m.trace) == 2
        assert m(Frac(2)) == Frac(2)
        # conjugation route: (1 2; 0 1) (0 -1; 1 0) sends infinity to 2
        g = MoebiusMap(1, 2, 0, 1) * MoebiusMap(0, -1, 1, 0)
        assert g(INF) == Frac(2)
        conj = g * (L ** 5) * g.inverse()
        assert conj in (m, m.inverse())

    @given(
        st.just(INF) | st.just(Frac(0)) | st.tuples(
            st.integers(-60, 60), st.integers(1, 60)).filter(
                lambda t: math.gcd(*t) == 1).map(lambda t: Frac(*t)),
        st.integers(1, 12),
    )
    def test_closed_form_is_conjugate(self, cusp, w):
        """cusp_parabolic(p/q, w) is exactly M L^w M^-1 for an integer
        unimodular M with first column (p, q), built by extended gcd."""
        p, q = cusp.p, cusp.q
        g, s, t = extended_gcd(p, q)
        assert g == 1
        m = MoebiusMap(p, -t, q, s)         # det = p s + q t = 1
        assert m(INF) == cusp
        assert cusp_parabolic(cusp, w) == m * (L ** w) * m.inverse()

    @given(
        st.integers(-30, 30),
        st.integers(0, 30),
        st.integers(1, 12),
    )
    def test_power_and_lower_left(self, p, q, d):
        if p == 0 and q == 0:
            return
        cusp = Frac(p, q)
        m = cusp_parabolic(cusp, d)
        assert m(cusp) == cusp
        assert abs(m.trace) == 2
        assert abs(m.c) == d * cusp.q ** 2
        assert m == cusp_parabolic(cusp, 1) ** d


class TestMoebiusMap:
    def test_projective_equality(self):
        m = MoebiusMap(2, 1, 1, 1)
        neg = MoebiusMap(Q(-2), Q(-1), Q(-1), Q(-1))
        assert m == neg
        assert hash(m) == hash(neg)

    def test_canonicalization_idempotent(self):
        m = MoebiusMap(Q(0), Q(-1), Q(1), Q(0))
        again = MoebiusMap(m.a, m.b, m.c, m.d)
        assert m.entries() == again.entries()

    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            MoebiusMap(1, 0, 0, 2)

    def test_classification(self):
        assert L.is_parabolic and abs(L.trace) == 2
        hyperbolic = MoebiusMap(2, 1, 1, 1)
        elliptic = MoebiusMap(0, -1, 1, 0)
        assert abs(hyperbolic.trace) > 2 and not hyperbolic.is_parabolic
        assert abs(elliptic.trace) < 2 and not elliptic.is_parabolic

    @given(st.lists(st.sampled_from(["L", "R"]), min_size=1, max_size=40))
    def test_products_unimodular(self, word):
        m = lr_word_value(word)
        assert m.a * m.d - m.b * m.c == 1
        assert (m * m.inverse()) == IDENTITY

    def test_apply_infinity(self):
        m = MoebiusMap(1, 0, 4, 1)
        assert m(INF) == Frac(1, 4)

    def test_json_roundtrip(self):
        m = MoebiusMap(Q(111197, 10399), Q(-5090299, 1039900), Q(199600, 10399), Q(-90399, 10399))
        assert json_roundtrip(m) == m

    def test_random_word_identities(self):
        rng = random.Random(7)
        for _ in range(200):
            word = "".join(rng.choice("LR") for _ in range(rng.randint(1, 25)))
            m = lr_word_value(word)
            back = IDENTITY
            for ch in word:
                back = back * (MoebiusMap(1, 1, 0, 1) if ch == "L" else MoebiusMap(1, 0, 1, 1))
            assert back == m


def _ref_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _ref_canonical(x):
    """Fraction entries with the first nonzero one made positive."""
    first = next(e for e in x if e != 0)
    return tuple(-e for e in x) if first < 0 else tuple(x)


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def _unimodular(draw):
    """Rational entries (a, b, c, d) with ad - bc = 1, as plain Fractions.

    One draw in about two has a = 0, where the sign rests on b.
    """
    nonzero = _rationals.filter(lambda x: x != 0)
    a, b = draw(st.just(Q(0)) | nonzero), draw(nonzero)
    if a == 0:
        return (a, b, -1 / b, draw(_rationals))
    c = draw(_rationals)
    return (a, b, c, (1 + b * c) / a)


class TestMoebiusMapAgainstFractions:
    """MoebiusMap's integer arithmetic against a plain-Fraction 2x2 reference."""

    @given(_unimodular(), _unimodular(), st.booleans())
    def test_product_inverse_trace(self, x, y, flip):
        if flip:
            x = tuple(-e for e in x)
        m, n = MoebiusMap(*x), MoebiusMap(*y)
        assert m.entries() == _ref_canonical(x)
        assert (m * n).entries() == _ref_canonical(_ref_mul(x, y))
        a, b, c, d = x
        assert m.inverse().entries() == _ref_canonical((d, -b, -c, a))
        assert m.trace == sum(_ref_canonical(x)[::3])
        assert m.den > 0 and math.gcd(m.na, m.nb, m.nc, m.nd, m.den) == 1

    @given(_unimodular(), st.integers(-40, 40), st.integers(0, 40))
    def test_apply(self, x, p, q):
        if p == 0 and q == 0:
            return
        a, b, c, d = x
        num, den = a * p + b * q, c * p + d * q
        want = INF if den == 0 else Frac((num / den).numerator,
                                         (num / den).denominator)
        assert MoebiusMap(*x)(Frac(p, q)) == want

    @given(_unimodular(), st.integers(-40, 40), st.integers(0, 40),
           st.integers(-40, 40), st.integers(0, 40))
    def test_maps_to(self, x, p, q, r, s):
        """``maps_to`` on the integer quad agrees with m(z) == y, for y
        an extended rational (infinity included) and for y = m(z)."""
        assume((p, q) != (0, 0) and (r, s) != (0, 0))
        m, z, y = MoebiusMap(*x), Frac(p, q), Frac(r, s)
        assert maps_to(m.quad, z, y) == (m(z) == y)
        assert maps_to(m.quad, z, m(z))

    @given(_unimodular())
    def test_equality_under_negation(self, x):
        m = MoebiusMap(*x)
        neg = MoebiusMap(*(-e for e in x))
        assert m == neg and hash(m) == hash(neg)
        assert MoebiusMap(*m.entries()) == m
        assert json_roundtrip(m) == m


class TestCanonicalEntries:
    """The one canonical form, shared by MoebiusMap and the matrix sweep."""

    @given(_unimodular(), st.integers(1, 10 ** 6), st.integers(2, 9))
    def test_scaling_and_sign(self, x, k, j):
        den = math.lcm(*(e.denominator for e in x))
        quad = [int(e * den) for e in x]
        form = canonical_entries(*quad, den)
        assert canonical_entries(*(k * e for e in quad), k * den) == form
        assert canonical_entries(*(-e for e in quad), den) == form
        m = MoebiusMap(*x)
        assert form == (m.na, m.nb, m.nc, m.nd, m.den)
        # the determinant is den^2 / j^2, not den^2
        with pytest.raises(ValueError, match="determinant"):
            canonical_entries(*quad, j * den)

    @pytest.mark.parametrize("entries,message", [
        ((1, 2, 3, 4, 1), "matrix (1, 2; 3, 4) has determinant != 1"),
        ((1, 2, 3, 4, 5), "matrix (1/5, 2/5; 3/5, 4/5) has determinant != 1"),
        # 20 digits print in full; 21 and more are abridged
        ((10 ** 19, 0, 0, 1, 1),
         "matrix (10000000000000000000, 0; 0, 1) has determinant != 1"),
        ((10 ** 20, 0, 0, 1, 3), "matrix (1000000000...(21 digits)/3, 0; "
         "0, 1/3) has determinant != 1"),
    ])
    def test_determinant_message(self, entries, message):
        with pytest.raises(ValueError) as err:
            canonical_entries(*entries)
        assert str(err.value) == message

    @pytest.mark.parametrize("den", [0, -1])
    def test_denominator_positive(self, den):
        with pytest.raises(ValueError, match="not positive"):
            canonical_entries(1, 0, 0, 1, den)
