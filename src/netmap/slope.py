"""Slopes of simple closed curves on the four-punctured sphere.

A slope is an element of the extended rationals: p/q in lowest terms
with q >= 0, and infinity represented canonically as 1/0.  The symbol
``INESSENTIAL`` stands for the union of the inessential and peripheral
curve classes, the value taken by the induced slope map when a curve
pulls back with no essential component.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ZeroVectorError


@dataclass(frozen=True)
class Slope:
    """Extended rational p/q in lowest terms, q >= 0, infinity = 1/0."""

    p: int
    q: int

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        """Canonicalize p/q: reduce, force q >= 0, send n/0 to 1/0."""
        if p == 0 and q == 0:
            raise ZeroVectorError("slope of the zero vector is undefined")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        return Slope(p, q)

    @staticmethod
    def of_fractions(p: Fraction, q: Fraction) -> "Slope":
        """Slope of the direction (q, p) with rational entries."""
        num = p.numerator * q.denominator
        den = q.numerator * p.denominator
        return Slope.of(num, den)

    @staticmethod
    def parse(text: str) -> "Slope":
        text = text.strip()
        if text in ("inf", "-inf", "oo"):
            return Slope(1, 0)
        if "/" in text:
            a, b = text.split("/", 1)
            return Slope.of(int(a), int(b))
        return Slope.of(int(text), 1)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def value(self) -> Fraction:
        """Finite value p/q; raises on infinity."""
        if self.q == 0:
            raise ZeroVectorError("infinity has no finite value")
        return Fraction(self.p, self.q)

    def sort_key(self):
        # Every rational is less than infinity.
        if self.q == 0:
            return (1, Fraction(0))
        return (0, Fraction(self.p, self.q))

    def __lt__(self, other: "Slope") -> bool:
        return self.sort_key() < other.sort_key()

    def height(self) -> int:
        return max(abs(self.p), abs(self.q))

    def shift(self, c: int) -> "Slope":
        """x + c acting on slopes: p/q -> (p + c q)/q."""
        return Slope.of(self.p + c * self.q, self.q)

    def __neg__(self) -> "Slope":
        return Slope.of(-self.p, self.q)

    def __str__(self) -> str:
        if self.q == 0:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


def enumerate_slopes(height: int) -> list[Slope]:
    """All reduced slopes with |p|, |q| <= height, plus infinity.

    Deterministic order: infinity first, then by (max(|p|, |q|), value).
    """
    if height < 1:
        raise ValueError("height must be a positive integer")
    rest = [
        Slope(p, q)
        for q in range(1, height + 1)
        for p in range(-height, height + 1)
        if gcd(p, q) == 1
    ]
    rest.sort(key=lambda s: (s.height(), s.value()))
    return [INFINITY, *rest]


class Inessential:
    """Singleton for the inessential/peripheral value of the slope map."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "o"

    def __str__(self) -> str:
        return "o"


INESSENTIAL = Inessential()

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def apply_matrix(m: Matrix2, s: Slope) -> Slope:
    """Projective action of an integer matrix on a slope.

    A curve of slope p/q runs in the direction of the basis combination
    with coefficients (q, p); the matrix acts on that coefficient vector.
    """
    (a, b), (c, d) = m
    qq = a * s.q + b * s.p
    pp = c * s.q + d * s.p
    return Slope.of(pp, qq)
