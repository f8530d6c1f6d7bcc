from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netmap.quadext import QuadExt, _sign_triple, squarefree_split

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
radicands = st.integers(min_value=0, max_value=200)
quadexts = st.builds(QuadExt, rationals, rationals, radicands)
nonsquares = radicands.filter(lambda k: isqrt(k) ** 2 != k)


def decimal_value(x: QuadExt) -> Decimal:
    getcontext().prec = 50
    return Decimal(x.a.numerator) / Decimal(x.a.denominator) + (
        Decimal(x.b.numerator) / Decimal(x.b.denominator)
    ) * Decimal(x.k).sqrt()


class TestCanonicalForm:
    def test_square_factor_extraction(self):
        assert squarefree_split(0) == (1, 0)
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(8) == (2, 2)
        assert squarefree_split(360) == (6, 10)

    def test_perfect_square_folds_into_rational(self):
        x = QuadExt(1, 3, 4)  # 1 + 3*sqrt(4) = 7
        assert x.is_rational and x.as_fraction() == 7

    def test_sqrt8_equals_two_sqrt2(self):
        assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)

    def test_sqrt_of_fraction(self):
        # sqrt(2/5) = sqrt(10)/5
        x = QuadExt.sqrt(Fraction(2, 5))
        assert (x.a, x.b, x.k) == (0, Fraction(1, 5), 10)

    def test_zero_coefficient_clears_radicand(self):
        assert QuadExt(3, 0, 7).k == 0


class TestComparison:
    def test_cross_radicand(self):
        assert QuadExt(1, 1, 2) < QuadExt(0, 1, 6)  # 2.414... < 2.449...
        assert QuadExt(0, 1, 2) + 1 > QuadExt(0, 1, 5)  # 2.414... > 2.236...

    def test_equality_only_for_identical_values(self):
        assert not QuadExt(0, 1, 2) == QuadExt(0, 1, 3)
        assert QuadExt(Fraction(1, 2), Fraction(3, 2), 5) == QuadExt(
            Fraction(1, 2), Fraction(3, 2), 5
        )

    @given(rationals, rationals, radicands, rationals, rationals, radicands)
    def test_order_matches_high_precision_decimal(self, a1, b1, k1, a2, b2, k2):
        x, y = QuadExt(a1, b1, k1), QuadExt(a2, b2, k2)
        dx, dy = decimal_value(x), decimal_value(y)
        if x < y:
            assert dx <= dy
        elif x > y:
            assert dx >= dy
        else:
            # Exact equality: decimals agree to ~45 digits.
            assert abs(dx - dy) < Decimal("1e-40")

    @given(rationals, rationals, radicands)
    def test_sign_of_difference(self, a, b, k):
        x = QuadExt(a, b, k)
        assert (x > 0) == (x.sign() > 0)
        assert (x == QuadExt(0)) == (x.sign() == 0)


class TestArithmetic:
    def test_square(self):
        x = QuadExt(1, 2, 3)  # (1 + 2 sqrt 3)^2 = 13 + 4 sqrt 3
        assert x.square() == QuadExt(13, 4, 3)

    def test_pure_radical_square_is_rational(self):
        r = Fraction(4, 3) * QuadExt.sqrt(6)
        assert r.square().as_fraction() == Fraction(32, 3)

    def test_negation_and_subtraction(self):
        x = QuadExt(1, 1, 2)
        assert x - x == QuadExt(0)
        assert (-x) + x == QuadExt(0)

    def test_as_fraction_rejects_irrational(self):
        with pytest.raises(ValueError):
            QuadExt(0, 1, 2).as_fraction()


def sign_unfiltered(x: QuadExt, y: QuadExt) -> int:
    """The sign algorithm alone, without the integer-box filter."""
    return _sign_triple(x.a - y.a, x.b, x.k, -y.b, y.k)


def boxes_overlap(x: QuadExt, y: QuadExt) -> bool:
    (xlo, xhi), (ylo, yhi) = x._bounds(), y._bounds()
    return xlo <= yhi and ylo <= xhi


def sqrt_convergents(k: int):
    """Continued-fraction convergents p/q of sqrt(k), k not a square."""
    a0 = isqrt(k)
    m, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    while True:
        yield p1, q1
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0


EQUAL_PAIRS = [
    (QuadExt(0, 1, 8), QuadExt(0, 2, 2)),
    (QuadExt(1, 1, 2) + QuadExt(0, -1, 2), QuadExt(1)),
    (QuadExt(0, 1, 12) * Fraction(1, 2), QuadExt.sqrt(3)),
    (QuadExt(Fraction(-1, 3), -3, 50), -QuadExt(Fraction(1, 3), 15, 2)),
    (QuadExt(5, 0, 7), QuadExt(5)),
    (QuadExt(0, 1, 2).square(), QuadExt(2)),
]


class TestBoxFilter:
    @given(quadexts, quadexts)
    def test_cmp_matches_sign_algorithm(self, x, y):
        assert x._cmp(y) == sign_unfiltered(x, y)
        assert y._cmp(x) == sign_unfiltered(y, x)

    @given(quadexts, rationals)
    def test_cmp_against_rationals(self, x, r):
        assert x._cmp(r) == sign_unfiltered(x, QuadExt(r))
        assert x._cmp(r.numerator) == sign_unfiltered(x, QuadExt(r.numerator))

    @pytest.mark.parametrize("x, y", EQUAL_PAIRS)
    def test_equal_values_built_differently(self, x, y):
        assert boxes_overlap(x, y)
        assert x._cmp(y) == y._cmp(x) == sign_unfiltered(x, y) == 0

    @given(quadexts)
    def test_tie_closer_than_box_width(self, x):
        y = x + Fraction(1, 2**70)
        assert boxes_overlap(x, y)
        assert x._cmp(y) == sign_unfiltered(x, y) == -1
        assert y._cmp(x) == sign_unfiltered(y, x) == 1

    @given(nonsquares, st.integers(min_value=0, max_value=3))
    def test_sqrt_convergents(self, k, skip):
        root = QuadExt.sqrt(k)
        convergents = sqrt_convergents(k)
        for p, q in convergents:
            if q > 2**40:
                break
        for _ in range(skip):
            p, q = next(convergents)
        x = QuadExt(Fraction(p, q))
        assert boxes_overlap(x, root)
        assert x._cmp(root) == sign_unfiltered(x, root) != 0
        assert root._cmp(x) == sign_unfiltered(root, x) == -x._cmp(root)

    @given(quadexts)
    def test_box_contains_value(self, x):
        lo, hi = x._bounds()
        scaled = decimal_value(x) * Decimal(2**64)
        assert lo <= scaled <= hi


class TestCanon:
    @staticmethod
    def assert_same(x: QuadExt, a, b, k):
        ref = QuadExt(a, b, k)
        assert (x.a, x.b, x.k) == (ref.a, ref.b, ref.k)
        assert type(x.a) is type(x.b) is Fraction
        assert hash(x) == hash(ref)

    @given(rationals, rationals, radicands, rationals, rationals)
    def test_arithmetic_matches_constructor(self, a, b, k, c, r):
        x = QuadExt(a, b, k)
        y = QuadExt(c, -x.b, x.k)
        self.assert_same(-x, -x.a, -x.b, x.k)
        self.assert_same(x + r, x.a + r, x.b, x.k)
        self.assert_same(r + x, x.a + r, x.b, x.k)
        self.assert_same(x - r, x.a - r, x.b, x.k)
        self.assert_same(r - x, r - x.a, -x.b, x.k)
        self.assert_same(x * r, x.a * r, x.b * r, x.k)
        self.assert_same(x * 3, x.a * 3, x.b * 3, x.k)
        self.assert_same(x + y, x.a + c, 0, 0)
        self.assert_same(x - y, x.a - c, 2 * x.b, x.k)
        self.assert_same(x + QuadExt(c), x.a + c, x.b, x.k)
        self.assert_same(QuadExt(c) + x, x.a + c, x.b, x.k)
        self.assert_same(x.square(), x.a**2 + x.b**2 * x.k, 2 * x.a * x.b, x.k)

    def test_cancelling_sum_is_rational(self):
        x = QuadExt(1, 1, 2) + QuadExt(0, -1, 2)
        assert x.is_rational and x.k == 0
        assert x.as_fraction() == 1
        assert hash(x) == hash(Fraction(1))
        zero = QuadExt(0, 1, 7) * 0
        assert zero.is_rational and zero.k == 0 and hash(zero) == hash(Fraction(0))
