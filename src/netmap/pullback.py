"""Pullback data for a single slope: degree, coset numbers, components.

For a curve of slope p/q, every component of its preimage maps with the
same degree d (the order of (q, p) in Z^2/L1), and the counts of
essential, peripheral and null-homotopic components are read off from
the sorted coset numbers of the four postcritical classes.  All of it
depends only on the class of (q, p) mod 2N, N = [Z^2 : L1], so it is
computed once per class (see :class:`ClassPlan`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Vec, order_in_quotient
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


@dataclass(eq=False)
class ClassPlan:
    """What a slope p/q shares with every slope of its class.

    The class of p/q is (q mod 2N, p mod 2N), with N = [Z^2 : L1] the
    degree.  The plan is exact because N*Z^2 lies in L1.  Moving (q, p)
    by 2N*(x1, x2) keeps its image in Z^2/L1, so d and d' = N/d stay.
    It moves p*r - q*s by 2N*(x2*r - x1*s), a multiple of 2d' as d'
    divides N, so every coset number stays, and with them the sorted
    coset numbers, the component counts and the multiplier.  It moves
    the point h + t*(q, p) of a walk from h by 2N*t*(x1, x2), which
    lies in 2*L1, so the point keeps its class key mod 2*L1: the walk
    stops at the same t with the same outcome.  The marked segments of
    p/q are therefore (h, h + t*(q, p)) for the same (h, t), with t < 0
    on the minus walk.
    """

    summary: PullbackSummary  # of the first slope of the class seen
    # (h_k, t) best first, set by slopefn.segment_candidates on first use.
    segments: tuple[tuple[Vec, int], ...] | None = None


def class_plan(pres: NetMapPresentation, slope: Slope) -> ClassPlan:
    """The plan of the class of p/q mod 2N, built from its first slope."""
    ctx = pres.context
    m = ctx.table.modulus
    key = (slope.q % m, slope.p % m)
    plan = ctx.plans.get(key)
    if plan is not None:
        return plan
    direction = (slope.q, slope.p)
    d = order_in_quotient(direction, pres.lambda1)
    d_prime = degree(pres) // d
    cs = tuple(sorted(coset_number(h, slope, d_prime) for h in pres.postcritical))
    essential = cs[2] - cs[1]
    ctx.plans[key] = plan = ClassPlan(
        PullbackSummary(
            slope=slope,
            d=d,
            d_prime=d_prime,
            coset_numbers=cs,
            essential=essential,
            peripheral=(cs[1] - cs[0]) + (cs[3] - cs[2]),
            null_homotopic=cs[0] - cs[3] + d_prime,
            multiplier=Fraction(essential, d),
        )
    )
    return plan


def analyze_slope(pres: NetMapPresentation, slope: Slope) -> PullbackSummary:
    """Degrees, coset numbers and component counts for one slope."""
    memo = pres.context.summaries
    if slope in memo:
        return memo[slope]
    s = class_plan(pres, slope).summary
    if s.slope != slope:
        s = PullbackSummary(slope, s.d, s.d_prime, s.coset_numbers, s.essential,
                            s.peripheral, s.null_homotopic, s.multiplier)
    memo[slope] = s
    return s


def multiplier(pres: NetMapPresentation, slope: Slope) -> Fraction:
    """The 1x1 Thurston matrix entry for the curve of this slope."""
    return analyze_slope(pres, slope).multiplier
