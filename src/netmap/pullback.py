"""Pullback data for a single slope: degree, coset numbers, components.

For a curve of slope p/q, every component of its preimage maps with the
same degree d (the order of (q, p) in Z^2/L1), and the counts of
essential, peripheral and null-homotopic components are read off from
the sorted coset numbers of the four postcritical classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import order_in_quotient
from .presentation import NetMapPresentation, degree
from .slope import Slope


@dataclass(frozen=True)
class PullbackSummary:
    slope: Slope
    d: int
    d_prime: int
    coset_numbers: tuple[int, int, int, int]
    essential: int
    peripheral: int
    null_homotopic: int
    multiplier: Fraction


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
    """Degrees, coset numbers and component counts for one slope."""
    memo = pres.context.summaries
    if slope in memo:
        return memo[slope]
    direction = (slope.q, slope.p)
    d = order_in_quotient(direction, pres.lambda1)
    d_prime = degree(pres) // d
    cs = tuple(sorted(coset_number(h, slope, d_prime) for h in pres.postcritical))
    essential = cs[2] - cs[1]
    peripheral = (cs[1] - cs[0]) + (cs[3] - cs[2])
    null = cs[0] - cs[3] + d_prime
    memo[slope] = summary = PullbackSummary(
        slope=slope,
        d=d,
        d_prime=d_prime,
        coset_numbers=cs,
        essential=essential,
        peripheral=peripheral,
        null_homotopic=null,
        multiplier=Fraction(essential, d),
    )
    return summary


def multiplier(pres: NetMapPresentation, slope: Slope) -> Fraction:
    """The 1x1 Thurston matrix entry for the curve of this slope."""
    return analyze_slope(pres, slope).multiplier
