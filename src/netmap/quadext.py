"""Exact arithmetic for real numbers of the form a + b*sqrt(k).

Values are kept canonical: k is squarefree and nonnegative, square
factors of the radicand are absorbed into b, and b == 0 forces k == 0.

Comparisons are exact and use no floating point.  Each value carries a
lazily computed integer box (lo, hi) with lo <= value * 2^64 <= hi,
built from floor and ceiling division and ``isqrt``.  Two values whose
boxes are disjoint are ordered by their boxes alone; only overlapping
boxes (equal values, or values within about 2^-64 of each other) fall
through to the exact sign algorithm, which also decides comparisons
across different radicands.  ``float()`` is the midpoint of the box.
"""
from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt

_Rat = (int, Fraction)
_ZERO = Fraction(0)


def squarefree_split(k: int) -> tuple[int, int]:
    """k = s^2 * f with f squarefree; returns (s, f).  Requires k >= 0."""
    if k < 0:
        raise ValueError("radicand must be nonnegative")
    s, f = 1, 1
    d = 2
    n = k
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1 if d == 2 else 2
    return s, f * n


def _sign_rat(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_pair(a: Fraction, b: Fraction, k: int) -> int:
    """Sign of a + b*sqrt(k) with k squarefree, k >= 2 when b != 0."""
    if b == 0:
        return _sign_rat(a)
    if a == 0:
        return _sign_rat(b)
    sa, sb = _sign_rat(a), _sign_rat(b)
    if sa == sb:
        return sa
    # Opposite signs: compare a^2 with b^2 k and keep the larger side's sign;
    # they never tie, as a^2 = b^2 k has no rational solution for squarefree k >= 2.
    return sa if a * a > b * b * k else sb


def _sign_triple(s: Fraction, b: Fraction, j: int, d: Fraction, k: int) -> int:
    """Sign of s + b*sqrt(j) + d*sqrt(k), both radicands squarefree."""
    if b == 0 or j == 0:
        return _sign_pair(s, d, k)
    if d == 0 or k == 0:
        return _sign_pair(s, b, j)
    if j == k:
        return _sign_pair(s, b + d, j)
    # s + b sqrt(j) is nonzero, and |s + b sqrt(j)| != |d| sqrt(k): the
    # squared difference below vanishes only if s = 0 and b^2 j = d^2 k,
    # impossible for distinct squarefree j and k.
    s1 = _sign_pair(s, b, j)
    s2 = _sign_rat(d)
    if s1 != s2:
        # Compare |s + b sqrt(j)| with |d| sqrt(k) by squaring.
        dd = _sign_pair(s * s + b * b * j - d * d * k, 2 * s * b, j)
        return s1 if dd > 0 else s2
    return s1


@total_ordering
class QuadExt:
    """Exact value a + b*sqrt(k) with totally ordered comparisons."""

    __slots__ = ("a", "b", "k", "_box")

    def __init__(self, a, b=0, k: int = 0):
        a, b = Fraction(a), Fraction(b)
        s, f = squarefree_split(k)
        b *= s
        if f <= 1:
            a += b * f
            b, f = Fraction(0), 0
        if b == 0:
            f = 0
        self.a, self.b, self.k = a, b, f
        self._box = None

    @classmethod
    def _canon(cls, a: Fraction, b: Fraction, k: int) -> "QuadExt":
        """a + b*sqrt(k) from Fractions a, b and a squarefree k, as is.

        For results that keep an operand's radicand, so the coercion
        and ``squarefree_split`` of the public constructor are skipped.
        """
        x = object.__new__(cls)
        x.a, x.b, x.k, x._box = a, b, k if b else 0, None
        return x

    def _bounds(self) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= value * 2^64 <= hi, cached."""
        box = self._box
        if box is None:
            n, d = self.a.numerator << 64, self.a.denominator
            lo, hi = n // d, -(-n // d)
            if self.b:
                # s <= sqrt(k) * 2^64 < s + 1; a negative b swaps the ends.
                s = isqrt(self.k << 128)
                bn, bd = self.b.numerator, self.b.denominator
                r_lo, r_hi = (s, s + 1) if bn > 0 else (s + 1, s)
                lo += bn * r_lo // bd
                hi -= -bn * r_hi // bd
            box = self._box = (lo, hi)
        return box

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    @staticmethod
    def sqrt(x) -> "QuadExt":
        """Exact square root of a nonnegative rational."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        # sqrt(p/q) = sqrt(p*q) / q
        return QuadExt(0, Fraction(1, x.denominator), x.numerator * x.denominator)

    def sign(self) -> int:
        return _sign_pair(self.a, self.b, self.k)

    def square(self) -> "QuadExt":
        return QuadExt._canon(self.a * self.a + self.b * self.b * self.k,
                              2 * self.a * self.b, self.k)

    def _cmp(self, other) -> int:
        if isinstance(other, _Rat):
            other = QuadExt._canon(Fraction(other), _ZERO, 0)
        if not isinstance(other, QuadExt):
            return NotImplemented
        lo, hi = self._bounds()
        other_lo, other_hi = other._bounds()
        if hi < other_lo:
            return -1
        if lo > other_hi:
            return 1
        return _sign_triple(self.a - other.a, self.b, self.k, -other.b, other.k)

    def __eq__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.k))

    def __neg__(self) -> "QuadExt":
        return QuadExt._canon(-self.a, -self.b, self.k)

    def __add__(self, other) -> "QuadExt":
        if isinstance(other, _Rat):
            return QuadExt._canon(self.a + other, self.b, self.k)
        if isinstance(other, QuadExt):
            if other.b == 0:
                return QuadExt._canon(self.a + other.a, self.b, self.k)
            if self.b == 0:
                return QuadExt._canon(self.a + other.a, other.b, other.k)
            if self.k != other.k:
                raise ValueError("sum leaves the quadratic extension")
            return QuadExt._canon(self.a + other.a, self.b + other.b, self.k)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadExt) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "QuadExt":
        if isinstance(other, _Rat):
            return QuadExt._canon(self.a * other, self.b * other, self.k)
        return NotImplemented

    __rmul__ = __mul__

    def __float__(self) -> float:
        lo, hi = self._bounds()
        return (lo + hi) / (1 << 65)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.k}))"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.k})"
        term = root if self.b == 1 else f"{self.b}*{root}"
        if self.a == 0:
            return term
        return f"{self.a} + {term}" if self.b > 0 else f"{self.a} - {abs(self.b)}*{root}"
