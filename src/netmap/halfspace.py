"""Hyperbolic half-space certificates on the boundary of the upper
half-plane.

For a slope p/q with image slope p'/q' and multiplier delta, the locus
of points closer to the horoball at -q/p than to the image horoball at
-q'/p' is an open half-space H bounded by a circle or vertical line
over the real axis.  Its boundary trace on the extended reals excludes
obstruction slopes, so a finite family whose boundary sets cover the
extended reals certifies that no obstruction exists.

Endpoints C +- R live in quadratic extensions; all interval arithmetic
here is exact.  The boundary sets are used as OPEN sets: interval
endpoints, and the point at infinity of a vertical half-space, are not
excluded silently but reported as leftover points for individual
checking.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .presentation import NetMapPresentation
from .pullback import analyze_slope
from .quadext import QuadExt, rational_between
from .slope import INESSENTIAL, Slope
from .slopefn import pullback_slope


def modulus(tau: tuple[Fraction, Fraction], slope: Slope) -> Fraction:
    """Modulus of the curve family of the given slope at tau = x + iy.

    Equals Im(tau) / |p tau + q|^2, an exact rational for rational tau.
    """
    x, y = Fraction(tau[0]), Fraction(tau[1])
    if y <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    p, q = slope.p, slope.q
    re = p * x + q
    im = p * y
    return y / (re * re + im * im)


class Kind(enum.Enum):
    INSIDE_CIRCLE = "inside-circle"
    OUTSIDE_CIRCLE = "outside-circle"
    LEFT_OF_VERTICAL = "left-of-vertical"
    RIGHT_OF_VERTICAL = "right-of-vertical"


@dataclass(frozen=True)
class HalfSpace:
    kind: Kind
    center: Fraction               # C, or the vertical abscissa
    radius: QuadExt | None         # R; None for vertical kinds
    slope: Slope
    image_slope: Slope
    delta: Fraction

    def endpoints(self) -> tuple[QuadExt, QuadExt] | None:
        """(C - R, C + R) for circle kinds, None for vertical kinds."""
        if self.radius is None:
            return None
        center = QuadExt(self.center)
        return center - self.radius, center + self.radius


def halfspace_from_data(slope: Slope, image: Slope, delta: Fraction) -> HalfSpace:
    """Half-space from a (slope, image slope, multiplier) triple.

    Inside the circle when delta < p^2/p'^2, outside when greater, and
    the vertical bisector in the equal-radius case delta = p^2/p'^2
    (with p' = 0 counting as infinite ratio, hence never vertical).
    """
    if slope == image:
        raise ValueError("source and image slopes must differ")
    p, q = slope.p, slope.q
    pp, qq = image.p, image.q
    if pp != 0 and delta * pp * pp == p * p:
        # Equal horoball radii: the bisector is a vertical line over
        # -(q/p + q'/p')/2, on the side of the smaller boundary point,
        # with every rational below infinity.
        x0 = -(Fraction(q, p) + Fraction(qq, pp)) / 2
        kind = Kind.LEFT_OF_VERTICAL if slope < image else Kind.RIGHT_OF_VERTICAL
        return HalfSpace(kind, x0, None, slope, image, delta)
    denom = p * p - delta * pp * pp
    center = Fraction(-p * q + delta * pp * qq, 1) / denom
    radius = abs(Fraction(p * qq - pp * q) / denom) * QuadExt.sqrt(delta)
    kind = Kind.INSIDE_CIRCLE if denom > 0 else Kind.OUTSIDE_CIRCLE
    return HalfSpace(kind, center, radius, slope, image, delta)


def exclusion_halfspace(pres: NetMapPresentation, slope: Slope) -> HalfSpace | None:
    """Half-space excluding obstruction slopes near the given curve.

    None when the slope is fixed or pulls back inessentially (the
    construction needs distinct source and image slopes).
    """
    image = pullback_slope(pres, slope)
    if image is INESSENTIAL or image == slope:
        return None
    delta = analyze_slope(pres, slope).multiplier
    return halfspace_from_data(slope, image, delta)


@dataclass(frozen=True)
class BoundarySet:
    """Boundary trace of a half-space on the extended reals.

    ``lo``/``hi`` are the finite endpoints (equal for vertical kinds);
    ``contains_infinity`` reflects the descriptor of the boundary set,
    which for vertical kinds includes the point at infinity on the
    unbounded side.
    """

    kind: Kind
    lo: QuadExt
    hi: QuadExt
    contains_infinity: bool

    def interior_contains(self, x: QuadExt) -> bool:
        """Whether the finite point x is interior to the set."""
        if self.kind is Kind.INSIDE_CIRCLE:
            return self.lo < x < self.hi
        if self.kind is Kind.OUTSIDE_CIRCLE:
            return x < self.lo or x > self.hi
        if self.kind is Kind.LEFT_OF_VERTICAL:
            return x < self.lo
        return x > self.lo

    @property
    def interior_contains_infinity(self) -> bool:
        # Only the outside of a circle has infinity as an interior
        # point; for vertical kinds infinity is a boundary point of the
        # descriptor and must be checked as a leftover.
        return self.kind is Kind.OUTSIDE_CIRCLE


def boundary_interval(h: HalfSpace) -> BoundarySet:
    """The boundary set descriptor of a half-space.

    Inside-circle: the open interval (C - R, C + R).  Outside-circle:
    the open complement of [C - R, C + R], including infinity.
    Vertical kinds: the open half-line on the half-space side, with
    infinity included in the descriptor.
    """
    if h.radius is None:
        x0 = QuadExt(h.center)
        return BoundarySet(h.kind, x0, x0, contains_infinity=True)
    lo, hi = h.endpoints()
    return BoundarySet(
        h.kind, lo, hi, contains_infinity=(h.kind is Kind.OUTSIDE_CIRCLE)
    )


INFINITY_POINT = "inf"


@dataclass(frozen=True)
class LeftoverPoint:
    """A boundary point not interior to any set in a cover attempt."""

    value: QuadExt | str    # a finite QuadExt or INFINITY_POINT
    rational: bool          # rational points correspond to slopes

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CoverVerdict:
    covered: bool
    leftover_points: tuple[LeftoverPoint, ...]
    uncovered_intervals: tuple[tuple[str, str], ...]

    @property
    def certifiable(self) -> bool:
        """Covered up to finitely many checkable points."""
        return self.covered or not self.uncovered_intervals


def cover_certificate(spaces: list[HalfSpace]) -> CoverVerdict:
    """Decide whether the open boundary sets cover the extended reals.

    Returns ``covered`` when the union covers everything; otherwise
    reports the finite leftover points (endpoints interior to no set,
    tagged rational or irrational) and any uncovered open intervals.
    Uncovered intervals mean the family cannot certify anything.
    """
    if not spaces:
        raise ValueError("cover_certificate needs at least one half-space")
    sets = [boundary_interval(h) for h in spaces]

    endpoints: list[QuadExt] = []
    for bs in sets:
        endpoints.append(bs.lo)
        if not bs.hi == bs.lo:
            endpoints.append(bs.hi)
    uniq: list[QuadExt] = []
    for e in sorted(endpoints):
        if not uniq or not uniq[-1] == e:
            uniq.append(e)

    def point_covered(x: QuadExt) -> bool:
        return any(bs.interior_contains(x) for bs in sets)

    leftovers: list[LeftoverPoint] = []
    uncovered: list[tuple[str, str]] = []

    # Open regions between consecutive endpoints, plus the two rays.
    samples: list[tuple[QuadExt, str, str]] = []
    if uniq:
        first, last = uniq[0], uniq[-1]
        samples.append((first - 1, "-inf", str(first)))
        samples.append((last + 1, str(last), "+inf"))
        for a, b in zip(uniq, uniq[1:]):
            mid = QuadExt(rational_between(a, b))
            samples.append((mid, str(a), str(b)))
    for sample, lo_desc, hi_desc in samples:
        if not point_covered(sample):
            uncovered.append((lo_desc, hi_desc))

    for e in uniq:
        if not point_covered(e):
            leftovers.append(LeftoverPoint(e, e.is_rational))

    infinity_interior = any(bs.interior_contains_infinity for bs in sets)
    if not infinity_interior:
        if any(bs.contains_infinity for bs in sets):
            leftovers.append(LeftoverPoint(INFINITY_POINT, True))
        else:
            uncovered.append(("near-infinity", "near-infinity"))

    covered = not leftovers and not uncovered
    return CoverVerdict(
        covered=covered,
        leftover_points=tuple(leftovers),
        uncovered_intervals=tuple(uncovered),
    )
