"""Hyperbolic half-space certificates on the boundary of the upper
half-plane.

For a slope p/q with image slope p'/q' and multiplier delta, the locus
of points closer to the horoball at -q/p than to the image horoball at
-q'/p' is an open half-space H bounded by a circle or vertical line
over the real axis.  Its boundary trace on the extended reals excludes
obstruction slopes, so a finite family whose boundary sets cover the
extended reals certifies that no obstruction exists.

The extended reals form a circle, and each kind of half-space traces
one open arc on it, run in increasing order from start to end:

    inside-circle       (C - R, C + R)
    outside-circle      (C + R, C - R), through infinity
    left-of-vertical    (infinity, x0)
    right-of-vertical   (x0, infinity)

Ends C +- R live in quadratic extensions; all arithmetic here is
exact and starts from integers.  With delta = e/d in lowest terms,

    D = d p^2 - e p'^2,   N = e p'q' - d p q,   W = |p q' - p' q|,   k = e d,

the half-space is inside the circle when D > 0 and outside when D < 0,
with C = N/D and R = (W/|D|) sqrt(k); D = 0 gives the vertical line
over -(q p' + q' p)/(2 p p').  Writing k = s^2 f with f squarefree,
R = (W s/|D|) sqrt(f) has no rational part, so the ends C -+ R are
(C, -+W s/|D|, f) as they stand: no Fraction is added and no radicand
is factored again.  Only a square k (f <= 1) gives a rational radius,
whose ends are the rationals C -+ R.

The arcs are OPEN: an end that no arc contains, the point at
infinity of a vertical half-space included, is not excluded silently
but reported as a leftover point for individual checking.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .presentation import NetMapPresentation
from .pullback import analyze_slope
from .quadext import _ZERO, QuadExt, squarefree_split
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


class HalfSpace(NamedTuple):
    kind: Kind
    center: Fraction               # C, or the vertical abscissa
    radius: QuadExt | None         # R; None for vertical kinds
    slope: Slope
    image_slope: Slope
    delta: Fraction

    def endpoints(self) -> tuple[QuadExt, QuadExt] | None:
        """(C - R, C + R) for circle kinds, None for vertical kinds."""
        r = self.radius
        if r is None:
            return None
        # An irrational radius is b*sqrt(k) alone, so its ends keep C as is.
        c = self.center
        lo, hi = (c - r.a, c + r.a) if r.a else (c, c)
        return QuadExt._canon(lo, -r.b, r.k), QuadExt._canon(hi, r.b, r.k)


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
    e, d = delta.numerator, delta.denominator
    denom = d * p * p - e * pp * pp  # D of the module docstring
    if denom == 0:
        # Equal horoball radii (D = 0): the bisector is a vertical line over
        # -(q/p + q'/p')/2, on the side of the smaller boundary point,
        # with every rational below infinity.
        x0 = Fraction(-(q * pp + qq * p), 2 * p * pp)
        kind = Kind.LEFT_OF_VERTICAL if slope < image else Kind.RIGHT_OF_VERTICAL
        return HalfSpace(kind, x0, None, slope, image, delta)
    s, f = squarefree_split(e * d)
    b = Fraction(abs(p * qq - pp * q) * s, abs(denom))
    radius = QuadExt._canon(b * f, _ZERO, 0) if f <= 1 else QuadExt._canon(_ZERO, b, f)
    kind = Kind.INSIDE_CIRCLE if denom > 0 else Kind.OUTSIDE_CIRCLE
    center = Fraction(e * pp * qq - d * p * q, denom)
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


class BoundarySet(NamedTuple):
    """Open arc of the extended reals, run from ``start`` to ``end`` in
    increasing order; ``None`` stands for infinity.  ``wraps`` marks an
    arc that passes through infinity, which is then interior to it."""

    start: QuadExt | None
    end: QuadExt | None
    wraps: bool

    def contains(self, x: QuadExt | None) -> bool:
        """Whether x, finite or infinity (``None``), is interior."""
        if x is None:
            return self.wraps
        if self.wraps:
            return self.start < x or x < self.end
        return (self.start is None or self.start < x) and (
            self.end is None or x < self.end
        )


def boundary_interval(h: HalfSpace) -> BoundarySet:
    """The open arc the half-space traces on the extended reals."""
    if h.radius is None:
        x0 = QuadExt._canon(h.center, _ZERO, 0)
        if h.kind is Kind.LEFT_OF_VERTICAL:
            return BoundarySet(None, x0, wraps=False)
        return BoundarySet(x0, None, wraps=False)
    lo, hi = h.endpoints()
    if h.kind is Kind.INSIDE_CIRCLE:
        return BoundarySet(lo, hi, wraps=False)
    return BoundarySet(hi, lo, wraps=True)


def _reach(arc: BoundarySet, x: QuadExt | None) -> tuple[bool, QuadExt | None] | None:
    """How far the arc runs on from x.

    (tangent, end) when the arc contains x (tangent False) or starts at
    x (tangent True); end is where the arc stops, ``None`` when it runs
    on to or through infinity.  None when the arc covers no point just
    after x.
    """
    if arc.contains(x):
        tangent = False
    elif x == arc.start:
        tangent = True
    else:
        return None
    if arc.wraps and x is not None and not x < arc.end:
        return tangent, None
    return tangent, arc.end


class LeftoverPoint(NamedTuple):
    """A boundary point not interior to any set in a cover attempt."""

    value: QuadExt | None   # ``None`` is infinity

    @property
    def rational(self) -> bool:
        """Whether the point is that of a slope: infinity or a rational."""
        return self.value is None or self.value.is_rational

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


class CoverVerdict(NamedTuple):
    leftover_points: tuple[LeftoverPoint, ...]
    uncovered_intervals: tuple[tuple[str, str], ...]

    @property
    def covered(self) -> bool:
        """The union covers everything, leftover points included."""
        return not self.leftover_points and not self.uncovered_intervals

    @property
    def certifiable(self) -> bool:
        """Covered up to finitely many checkable points."""
        return not self.uncovered_intervals


def cover_certificate(spaces: list[HalfSpace]) -> CoverVerdict:
    """Decide whether the open boundary arcs cover the extended reals.

    Reports the finitely many leftover points (arc ends that no arc
    contains) and every uncovered gap as ``(end, next end)``, taken
    cyclically; with neither, the union covers everything.  Uncovered
    gaps mean the family cannot certify anything.
    """
    if not spaces:
        raise ValueError("cover_certificate needs at least one half-space")
    arcs = [boundary_interval(h) for h in spaces]
    ends: list[QuadExt | None] = sorted(
        {e for arc in arcs for e in (arc.start, arc.end) if e is not None}
    )
    if any(arc.start is None or arc.end is None for arc in arcs):
        ends.append(None)

    points = [LeftoverPoint(e) for e in ends]
    leftovers: list[LeftoverPoint] = []
    uncovered: list[tuple[str, str]] = []
    # No arc ends inside the gap after an end, so an arc covering any
    # point just after the end covers the whole gap.
    for point, after in zip(points, points[1:] + points[:1]):
        if not any(arc.contains(point.value) for arc in arcs):
            leftovers.append(point)
        if all(_reach(arc, point.value) is None for arc in arcs):
            uncovered.append((str(point), str(after)))
    return CoverVerdict(tuple(leftovers), tuple(uncovered))
