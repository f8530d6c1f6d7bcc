"""The induced map on slopes, computed by the spin-mirror zigzag.

Given an essential slope p/q, a short lattice segment joining marked
points of the pullback is chosen, its transverse crossings with the
mirror system are collected in order, and the alternating sum of the
crossed mirror midpoints is read off in the correspondence basis of the
sublattice.  The slope of that alternating sum is the image slope; when
the pullback has no essential component the map returns the
inessential symbol instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateIncidenceError,
    NonEssentialError,
    NonTransverseError,
    ZigzagError,
)
from .geometry import (
    affine_preserves_mirrors,
    interior_crossings,
    mirror_midpoint_at,
    point_on_any_mirror,
)
from .lattice import IDENTITY, Vec, _xgcd, cross, vscale
from .presentation import NetMapPresentation
from .pullback import analyze_slope, class_plan, coset_number
from .slope import INESSENTIAL, Inessential, Slope, enumerate_slopes

SlopeOrInessential = Slope | Inessential


@dataclass(frozen=True)
class ZigzagTrace:
    """Record of one zigzag evaluation."""

    slope: Slope
    v: Vec
    w: Vec
    midpoints: tuple[Vec, ...]
    delta: Vec
    result: Slope


def _walk_to_marked(pres: NetMapPresentation, start: Vec, step: Vec, max_t: int):
    """First marked lattice point along start + t*step, t = 1..max_t.

    Returns its t if it lies in a postcritical coset before any other
    marked coset blocks the way; otherwise None.  The class key of the
    point steps linearly with t.
    """
    table, lookup, m = pres.context.table, pres.context.lookup, pres.context.table.modulus
    (k1, k2), (s1, s2) = table.key(start), table.key(step)
    for t in range(1, max_t + 1):
        entry = lookup.get(((k1 + t * s1) % m, (k2 + t * s2) % m))
        if entry is not None:
            return t if entry[0] == "P2" else None
    return None


def segment_candidates(pres: NetMapPresentation, slope: Slope):
    """Candidate (v, w) pairs for the zigzag segment, best first.

    Candidates start at postcritical representatives whose coset number
    equals c2, then c3, walking in the +direction then the -direction.
    The walks are made once per class of the slope mod 2N (see
    ``pullback.ClassPlan``); each yields w = h + t*(q, p).
    """
    plan = class_plan(pres, slope)
    summary = plan.summary
    if summary.essential == 0:
        raise NonEssentialError(f"slope {slope} pulls back with no essential component")
    if plan.segments is None:
        values = [coset_number(h, slope, summary.d_prime) for h in pres.postcritical]
        direction = (slope.q, slope.p)
        c2, c3 = summary.coset_numbers[1], summary.coset_numbers[2]
        segments = []
        for target in [c2] if c2 == c3 else [c2, c3]:
            for k, h in enumerate(pres.postcritical):
                if values[k] != target:
                    continue
                for sign in (1, -1):
                    t = _walk_to_marked(pres, h, vscale(sign, direction), 2 * summary.d)
                    if t is not None:
                        segments.append((h, sign * t))
        plan.segments = tuple(segments)
    q, p = slope.q, slope.p
    for h, t in plan.segments:
        yield h, (h[0] + t * q, h[1] + t * p)


def find_segment(pres: NetMapPresentation, slope: Slope) -> tuple[Vec, Vec]:
    """The first valid zigzag segment for an essential slope."""
    for v, w in segment_candidates(pres, slope):
        return v, w
    raise ZigzagError(f"no marked segment found for slope {slope}")


def mirror_crossings(pres: NetMapPresentation, v: Vec, w: Vec) -> list[Vec]:
    """Mirror midpoints met by the segment from v to w, in order.

    The list starts with the midpoint of the mirror containing v and
    ends with that of the mirror containing w; interior entries are the
    midpoints of the transversely crossed mirror translates.
    """
    first = mirror_midpoint_at(pres, v)
    last = mirror_midpoint_at(pres, w)
    interior = [mid for _, mid in interior_crossings(pres, v, w)]
    return [first, *interior, last]


def _alternating_sum(midpoints: list[Vec]) -> Vec:
    """Sum of (-1)^i * (m[i+1] - m[i]) over n + 1 >= 2 midpoints, which is
    -m[0] + 2*(m[1] - m[2] + m[3] - ...) - (-1)^n * m[n]."""
    n = len(midpoints) - 1
    (fx, fy), (lx, ly) = midpoints[0], midpoints[n]
    odd, even = midpoints[1:n:2], midpoints[2:n:2]
    sign = 1 if n % 2 else -1
    ix = sum(x for x, _ in odd) - sum(x for x, _ in even)
    iy = sum(y for _, y in odd) - sum(y for _, y in even)
    return (2 * ix - fx + sign * lx, 2 * iy - fy + sign * ly)


def zigzag_trace(pres: NetMapPresentation, slope: Slope) -> ZigzagTrace | None:
    """Full zigzag data for an essential slope; None when inessential."""
    if analyze_slope(pres, slope).essential == 0:
        return None
    failure: Exception | None = None
    for v, w in segment_candidates(pres, slope):
        try:
            midpoints = mirror_crossings(pres, v, w)
        except (NonTransverseError, DegenerateIncidenceError) as exc:
            failure = exc
            continue
        delta = _alternating_sum(midpoints)
        if delta == (0, 0):
            raise ZigzagError(
                f"zigzag alternating sum vanished for slope {slope}; "
                "presentation data is inconsistent"
            )
        coords = pres.correspondence.integer_coords(delta)
        if coords is None:
            raise ZigzagError(
                f"zigzag sum {delta} is not in the sublattice for slope {slope}; "
                "presentation data is inconsistent"
            )
        result = Slope.of(coords[1], coords[0])
        return ZigzagTrace(
            slope=slope,
            v=v,
            w=w,
            midpoints=tuple(midpoints),
            delta=delta,
            result=result,
        )
    if failure is not None:
        raise failure
    raise ZigzagError(f"no usable segment for slope {slope}")


def pullback_slope(pres: NetMapPresentation, slope: Slope) -> SlopeOrInessential:
    """Slope of an essential pullback component, or INESSENTIAL."""
    memo = pres.context.images
    if slope in memo:
        return memo[slope]
    trace = zigzag_trace(pres, slope)
    memo[slope] = image = INESSENTIAL if trace is None else trace.result
    return image


def slope_graph_rows(pres: NetMapPresentation, qmax: int) -> list[tuple]:
    """The graph of the slope map over the finite slopes of height <= qmax.

    Rows (slope, value, image, image value) in order of value; the image
    value is None for infinity and the inessential symbol.  Two slopes
    of height <= qmax differ by at least 1/qmax^2, so the integer
    floor(p * qmax^2 / q) orders them as their values do.
    """
    rows = []
    square = qmax * qmax
    for s in sorted(enumerate_slopes(qmax)[1:], key=lambda s: s.p * square // s.q):
        image = pullback_slope(pres, s)
        image_value = None if image is INESSENTIAL or image.is_infinity else image.value()
        rows.append((str(s), s.value(), str(image), image_value))
    return rows


def slope_orbit(
    pres: NetMapPresentation, slope: Slope, max_iter: int = 100
) -> tuple[list[SlopeOrInessential], tuple[int, int] | None]:
    """Iterate the slope map; detect cycles.

    The trajectory starts at the given slope and, when a value repeats,
    includes the repeated occurrence; the cycle is reported as
    (start index, length).  The inessential symbol terminates the
    trajectory with no cycle.
    """
    trajectory: list[SlopeOrInessential] = [slope]
    seen = {slope: 0}
    for _ in range(max_iter):
        current = trajectory[-1]
        if current is INESSENTIAL:
            return trajectory, None
        nxt = pullback_slope(pres, current)
        trajectory.append(nxt)
        if nxt is INESSENTIAL:
            return trajectory, None
        if nxt in seen:
            start = seen[nxt]
            return trajectory, (start, len(trajectory) - 1 - start)
        seen[nxt] = len(trajectory) - 1
    return trajectory, None


# ---------------------------------------------------------------------------
# Closed form for the bundled degree-10 example


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _residue_segment(slope: Slope) -> tuple[int, int]:
    """Base x-coordinate and step count from the residue tables.

    Keyed on (q mod 4, (2p + q) mod 5): base 0 or 2, and the multiple t
    of (q, p) reaching the far endpoint.
    """
    p, q = slope.p, slope.q
    qm = q % 4
    rm = (2 * p + q) % 5
    if qm == 0:
        return (0, 1) if rm == 0 else (0, 5)
    if qm == 2:
        if rm == 0:
            return (2, 2)
        return (0, 3) if rm in (1, 4) else (0, 1)
    if rm == 0:
        return (2, 4)
    return (0, 2) if rm in (1, 4) else (0, 6)


def pullback_slope_via_residues(slope: Slope) -> Slope:
    """Slope image for the bundled degree-10 example, via residue tables.

    Independent of the zigzag path: the segment base point and length
    come from residue tables, and crossings are located by reducing a
    linear form to the range (-5, 5] at each candidate column x = 2
    mod 4.  Never returns the inessential symbol: every residue class
    of this example has an essential pullback component.
    """
    p, q = slope.p, slope.q
    if q == 0:
        # Vertical segment from (0,0) to (0,5); no columns in between.
        return Slope(1, 0)
    base, t = _residue_segment(slope)

    def tens_quotient(x: int) -> int:
        # r = (1 + 2p/q) x - base * 2p/q reduced to 10*Q + R, -5 < R <= 5
        r = Fraction((q + 2 * p) * x - 2 * p * base, q)
        quo = _ceil_frac((r - 5) / 10)
        rem = r - 10 * quo
        assert -5 < rem <= 5
        return quo

    def remainder_small(x: int) -> bool:
        r = Fraction((q + 2 * p) * x - 2 * p * base, q)
        rem = r - 10 * _ceil_frac((r - 5) / 10)
        return abs(rem) < 2

    far = base + t * q
    xs = [base]
    first = base + ((2 - base) % 4 or 4)
    for x in range(first, far, 4):
        if remainder_small(x):
            xs.append(x)
    xs.append(far)

    num = 0
    den2 = 0
    quos = [tens_quotient(x) for x in xs]
    for i in range(len(xs) - 1):
        sign = 1 if i % 2 == 0 else -1
        num += sign * (quos[i + 1] - quos[i])
        den2 += sign * (xs[i + 1] - xs[i])
    return Slope.of(2 * num, den2)


# ---------------------------------------------------------------------------
# Long-segment variant (test oracle)


def pullback_slope_long_segment(
    pres: NetMapPresentation,
    slope: Slope,
    offsets: tuple[Fraction, ...] = (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(3, 7),
    ),
) -> SlopeOrInessential:
    """Slope image via a full-period segment from an off-mirror point.

    Uses a start point v in the interior of an essential line and the
    endpoint w = v + d * (q, p) when translating by d * (q, p)
    preserves the mirror system (the halved form), or w = v + 2d *
    (q, p) otherwise.  Kept as an independent cross-check of the
    zigzag path.
    """
    summary = analyze_slope(pres, slope)
    if summary.essential == 0:
        return INESSENTIAL
    p, q = slope.p, slope.q
    direction = (q, p)
    g, x, y = _xgcd(q, p)
    assert g == 1
    complement = (-y, x)  # det((q, p), complement-direction) = 1
    step = summary.d
    if not affine_preserves_mirrors(
        pres, IDENTITY, (step * direction[0], step * direction[1])
    ):
        step = 2 * summary.d

    c2, c3 = summary.coset_numbers[1], summary.coset_numbers[2]
    d_prime = summary.d_prime

    def canonical_offset(z: tuple[Fraction, Fraction]) -> Fraction:
        off = q * z[1] - p * z[0]
        off = off % (2 * d_prime)
        return min(off, 2 * d_prime - off)

    base = None
    for h in pres.postcritical:
        if coset_number(h, slope, d_prime) == c2:
            base = h
            break
    failure: Exception | None = None
    for eps in offsets:
        for sign in (1, -1):
            v = (
                Fraction(base[0]) + sign * eps * complement[0],
                Fraction(base[1]) + sign * eps * complement[1],
            )
            if not (c2 < canonical_offset(v) < c3):
                continue
            w = (v[0] + step * direction[0], v[1] + step * direction[1])
            if point_on_any_mirror(pres, v) or point_on_any_mirror(pres, w):
                continue
            try:
                crossings = interior_crossings(pres, v, w)
            except (NonTransverseError, DegenerateIncidenceError) as exc:
                failure = exc
                continue
            # w' = (-1)^n w + 2 * sum (-1)^(i+1) midpoint_i
            n = len(crossings)
            acc = (Fraction(0), Fraction(0))
            for i, (_, mid) in enumerate(crossings, start=1):
                s = 1 if i % 2 == 1 else -1
                acc = (acc[0] + 2 * s * mid[0], acc[1] + 2 * s * mid[1])
            wsign = 1 if n % 2 == 0 else -1
            w_prime = (wsign * w[0] + acc[0], wsign * w[1] + acc[1])
            res = (w_prime[0] - v[0], w_prime[1] - v[1])
            cu, cv = pres.correspondence.u, pres.correspondence.v
            det = Fraction(cross(cu, cv))
            a = (res[0] * cv[1] - res[1] * cv[0]) / det
            b = (cu[0] * res[1] - cu[1] * res[0]) / det
            return Slope.of_fractions(b, a)
    if failure is not None:
        raise failure
    raise ZigzagError(f"no transverse long segment found for slope {slope}")
