"""Pullback data for a single slope: degree, coset numbers, components.

For a curve of slope p/q, every component of its preimage maps with the
same degree d (the order of (q, p) in Z^2/L1), and the counts of
essential, peripheral and null-homotopic components are read off from
the sorted coset numbers of the four postcritical classes.  All of it
depends only on the class of (q, p) mod 2N, N = [Z^2 : L1], so it is
computed once per class (see :func:`analyze_slope`).
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lattice import order_in_quotient
from .presentation import NetMapPresentation, degree
from .slope import Slope


class PullbackSummary(NamedTuple):
    """The pullback data of a class mod 2N (see :func:`analyze_slope`).

    One object is shared by every slope of the class, so it names no
    slope: ``d`` is the degree on each component of the preimage,
    ``d_prime`` = N/d, ``coset_numbers`` the sorted coset numbers of the
    four postcritical classes, then the component counts.
    """

    d: int
    d_prime: int
    coset_numbers: tuple[int, int, int, int]
    essential: int
    peripheral: int
    null_homotopic: int

    @property
    def multiplier(self) -> Fraction:
        """delta = essential/d, the number Thurston's criterion tests."""
        return Fraction(self.essential, self.d)


def coset_number(eta, slope: Slope, d_prime: int) -> int:
    """Smallest nonnegative residue of +-(p*r - q*s) mod 2*d_prime.

    ``eta = (r, s)`` in standard coordinates.  The result lies in
    [0, d_prime].
    """
    r, s = eta
    m = 2 * d_prime
    c = (slope.p * r - slope.q * s) % m
    return min(c, m - c)


def analyze_slope(pres: NetMapPresentation, slope: Slope) -> PullbackSummary:
    """Degrees, coset numbers and component counts for one slope.

    The summary is that of the class of p/q, (q mod 2N, p mod 2N) with
    N = [Z^2 : L1] the degree, built from its first slope and memoised:
    every slope of the class gets the same object.  This is exact
    because N*Z^2 lies in L1.  Moving (q, p) by 2N*(x1, x2) keeps its
    image in Z^2/L1, so d and d' = N/d stay.  It moves p*r - q*s by
    2N*(x2*r - x1*s), a multiple of 2d' as d' divides N, so every coset
    number stays, and with them the sorted coset numbers, the component
    counts and the multiplier.
    """
    ctx = pres.context
    m = ctx.table.modulus
    key = (slope.q % m, slope.p % m)
    if (summary := ctx.summaries.get(key)) is not None:
        return summary
    d = order_in_quotient((slope.q, slope.p), pres.lambda1)
    d_prime = degree(pres) // d
    cs = tuple(sorted(coset_number(h, slope, d_prime) for h in pres.postcritical))
    ctx.summaries[key] = summary = PullbackSummary(
        d=d,
        d_prime=d_prime,
        coset_numbers=cs,
        essential=cs[2] - cs[1],
        peripheral=(cs[1] - cs[0]) + (cs[3] - cs[2]),
        null_homotopic=cs[0] - cs[3] + d_prime,
    )
    return summary


def multiplier(pres: NetMapPresentation, slope: Slope) -> Fraction:
    """The 1x1 Thurston matrix entry for the curve of this slope."""
    return analyze_slope(pres, slope).multiplier
