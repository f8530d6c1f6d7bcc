"""The induced map on slopes, computed by the spin-mirror zigzag.

Given an essential slope p/q, a short lattice segment joining marked
points of the pullback is chosen, its transverse crossings with the
mirror system are collected in order, and the alternating sum of the
crossed mirror midpoints is read off in the correspondence basis of the
sublattice.  The slope of that alternating sum is the image slope; when
the pullback has no essential component the map returns the
inessential symbol instead.

``pullback_slope`` walks the zigzag only where no Dehn twist lowers
the slope.  A twist power about infinity, 0 or a continued-fraction
convergent of p/q that lifts through the map takes p/q to a slope of
smaller height, and the twist equation gives the image of p/q from the
images of the lower slope and of the centre.  One scan finds the step
(``_twist_step``): the first centre, from the penultimate convergent
outward, that lowers p/q, to the least height it reaches.  The step is
taken for one of two reasons:

- the segment of p/q is about as long as its height, and an estimate
  read off its class's first marked segment says it would cross more
  than ``_DESCENT_CROSSINGS`` (1,000) mirrors.  Then p/q descends step
  by step, scanning at most ``_DESCENT_CENTRES`` (5,000) centres in all
  before BudgetExceededError.
- the lower slope and the centre of the step both have memoised
  images.  A batch taken in the order of ``enumerate_slopes`` (the
  graph, the fixed-slope scan) finds such a step for most slopes, at
  the cost of one twist.

The zigzag answers what no twist lowers, and refuses a segment expected
to cross more than ``_ZIGZAG_CROSSINGS`` (10^6) mirrors with
BudgetExceededError before it starts.
"""
from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from itertools import product
from math import ceil, lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    DegenerateIncidenceError,
    NetMapError,
    NonEssentialError,
    NonTransverseError,
    ZeroVectorError,
    ZigzagError,
)
from .geometry import (
    affine_preserves_mirrors,
    interior_crossings,
    marked_points,
    mirror_midpoint_at,
    point_on_any_mirror,
)
from .lattice import IDENTITY, Vec, _xgcd, cross
from .presentation import NetMapPresentation, scaled
from .pullback import analyze_slope, coset_number
from .slope import INESSENTIAL, Inessential, Slope, enumerate_slopes

SlopeOrInessential = Slope | Inessential

# A slope whose zigzag segment would cross more mirrors than this takes a
# twist step first; below it the step's extra zigzags cost more than
# they save.
_DESCENT_CROSSINGS = 1_000
# The centres one pullback_slope call may scan for the steps of long slopes.
_DESCENT_CENTRES = 5_000
# A zigzag segment that would cross more mirrors than this is refused.
_ZIGZAG_CROSSINGS = 10**6


class ZigzagTrace(NamedTuple):
    """Record of one zigzag evaluation."""

    slope: Slope
    v: Vec
    w: Vec
    midpoints: tuple[Vec, ...]
    delta: Vec
    result: Slope


def _walk_to_marked(pres: NetMapPresentation, start: Vec, step: Vec, max_t: int):
    """First marked lattice point along start + t*step, t = 1..max_t.

    Returns its t if its class in the context's ``marks`` names a
    mirror, that is, if it lies in a postcritical coset, and None if the
    first marked point is in another class of L1 or no point up to
    max_t is marked.
    """
    for t, (k, _) in marked_points(pres.context, start, step, max_t):
        return t if k is not None else None
    return None


def _marked_segments(pres: NetMapPresentation, slope: Slope) -> tuple[tuple[Vec, int], ...]:
    """The marked segments (h, t) of the essential slope p/q, best first:
    each runs from h to h + t*(q, p), with t < 0 on the minus walk.

    The walks start at postcritical representatives whose coset number
    equals c2, then c3, in the +direction then the -direction, and are
    made once per class of p/q mod 2N (see ``pullback.analyze_slope``).
    That is exact: moving (q, p) by 2N*(x1, x2) moves the point h +
    t*(q, p) of a walk from h by 2N*t*(x1, x2), which lies in 2*L1, so
    the point keeps its class key mod 2*L1 and the walk stops at the
    same t with the same outcome.  The walk has looked up every lattice
    point strictly between h and h + t*(q, p) and found it unmarked, so
    the kernel's lattice scan of these segments never raises.
    """
    m = pres.context.table.modulus
    key = (slope.q % m, slope.p % m)
    if (segments := pres.context.segments.get(key)) is not None:
        return segments
    summary = analyze_slope(pres, slope)
    values = [coset_number(h, slope, summary.d_prime) for h in pres.postcritical]
    found = []
    for target in dict.fromkeys(summary.coset_numbers[1:3]):  # c2, then c3 if it differs
        for h in [h for h, value in zip(pres.postcritical, values) if value == target]:
            for sign in (1, -1):
                t = _walk_to_marked(pres, h, (sign * slope.q, sign * slope.p), 2 * summary.d)
                if t is not None:
                    found.append((h, sign * t))
    pres.context.segments[key] = segments = tuple(found)
    return segments


def segment_candidates(pres: NetMapPresentation, slope: Slope):
    """Candidate (v, w) pairs for the zigzag segment, best first: the
    marked segments of the slope (``_marked_segments``), each as v = h
    and w = h + t*(q, p)."""
    if analyze_slope(pres, slope).essential == 0:
        raise NonEssentialError(f"slope {slope} pulls back with no essential component")
    q, p = slope.q, slope.p
    for h, t in _marked_segments(pres, slope):
        yield h, (h[0] + t * q, h[1] + t * p)


def find_segment(pres: NetMapPresentation, slope: Slope) -> tuple[Vec, Vec]:
    """The first valid zigzag segment for an essential slope."""
    for v, w in segment_candidates(pres, slope):
        return v, w
    raise ZigzagError(f"no marked segment found for slope {slope}")


def mirror_crossings(pres: NetMapPresentation, v: Vec, w: Vec) -> list[Vec]:
    """Mirror midpoints met by the segment from v to w, in order.

    The list starts with the midpoint of the mirror containing v and
    ends with that of the mirror containing w; the entries between are
    ``interior_crossings``', the midpoints of the transversely crossed
    mirror translates.  The kernel's lattice scan runs on every segment;
    on a marked segment (``_marked_segments``) it never raises.  A
    segment of length zero raises ZeroVectorError before either lookup.
    """
    if v == w:
        raise ZeroVectorError(f"the segment from {v} to {w} has length zero")
    first = mirror_midpoint_at(pres, v)
    last = mirror_midpoint_at(pres, w)
    return [first, *interior_crossings(pres, v, w), last]


_X, _Y = itemgetter(0), itemgetter(1)


def _alternating_sum(midpoints: list[Vec]) -> Vec:
    """Sum of (-1)^i * (m[i+1] - m[i]) over n + 1 >= 2 midpoints, which is
    -m[0] + 2*(m[1] - m[2] + m[3] - ...) - (-1)^n * m[n]."""
    n = len(midpoints) - 1
    (fx, fy), (lx, ly) = midpoints[0], midpoints[n]
    odd, even = midpoints[1:n:2], midpoints[2:n:2]
    sign = 1 if n % 2 else -1
    ix = sum(map(_X, odd)) - sum(map(_X, even))
    iy = sum(map(_Y, odd)) - sum(map(_Y, even))
    return (2 * ix - fx + sign * lx, 2 * iy - fy + sign * ly)


def _crossing_estimate(pres: NetMapPresentation, dx: int, dy: int) -> int:
    """About how many mirror translates a segment (dx, dy) long crosses.

    Against a mirror edge e the segment sweeps an area |cross((dx, dy),
    e)|, and the 2*L1 translates of e fall one per covolume 4N of 2*L1,
    so the swept areas over 4N count the crossings to be expected.
    Edges are stored times scale.
    """
    ctx = pres.context
    swept = 0
    for _, a, b in ctx.edges:
        swept += abs(dx * (b[1] - a[1]) - dy * (b[0] - a[0]))
    return swept // (2 * ctx.table.modulus * ctx.scale)


def zigzag_trace(pres: NetMapPresentation, slope: Slope) -> ZigzagTrace | None:
    """Full zigzag data for an essential slope; None when inessential.

    A segment expected to cross more than ``_ZIGZAG_CROSSINGS`` mirrors
    is refused with BudgetExceededError before any crossing is found.
    A segment that meets a mirror non-transversely gives way to the
    next.  Every segment is a marked one, whose lattice scan finds no
    marked point, so no DegenerateIncidenceError arises here.
    """
    if analyze_slope(pres, slope).essential == 0:
        return None
    failure: Exception | None = None
    for v, w in segment_candidates(pres, slope):
        if (estimate := _crossing_estimate(pres, w[0] - v[0], w[1] - v[1])) > _ZIGZAG_CROSSINGS:
            raise BudgetExceededError(f"slope {slope}: its zigzag segment would cross about "
                                      f"{estimate} mirrors, above the limit of {_ZIGZAG_CROSSINGS}")
        try:
            midpoints = mirror_crossings(pres, v, w)
        except NonTransverseError as exc:
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


def _convergents(x: Slope):
    """The continued-fraction convergents of x as (p, q), x itself last."""
    (p0, q0), (p1, q1), a, b = (0, 1), (1, 0), x.p, x.q
    while b:
        n, (a, b) = a // b, (b, a % b)
        (p0, q0), (p1, q1) = (p1, q1), (n * p1 + p0, n * q1 + q0)
        yield p1, q1


def _segment_is_long(pres: NetMapPresentation, x: Slope) -> bool:
    """Whether the zigzag segment of the essential slope x would cross
    more than ``_DESCENT_CROSSINGS`` mirrors, by ``_crossing_estimate``."""
    # |t| <= 2d <= 2N and |cross((q, p), e)| <= height * (|ex| + |ey|) bound the estimate.
    if x.height() * pres.context.edge_length <= 2 * pres.context.scale * _DESCENT_CROSSINGS:
        return False
    segments = _marked_segments(pres, x)
    t = segments[0][1] if segments else 0
    return _crossing_estimate(pres, t * x.q, t * x.p) > _DESCENT_CROSSINGS


def _twisted(pres: NetMapPresentation, image: Slope, centre: Slope, n: int) -> Slope:
    """T_centre^n image, for the twist action of ``_twist_step``, read in
    the coordinates of the correspondence basis: when that basis reverses
    orientation, a twist there is the inverse twist in these coordinates."""
    n = n if cross(pres.correspondence.u, pres.correspondence.v) > 0 else -n
    k = centre.q * image.p - centre.p * image.q
    return Slope.of(image.p - 2 * n * k * centre.p, image.q - 2 * n * k * centre.q)


def _twist_step(pres: NetMapPresentation, x: Slope, convergents: list[tuple[int, int]]):
    """(y, c, n) with sigma(x) = T_sigma(c)^n sigma(y) and y lower than x,
    or None when no centre lowers x.

    T_c is the twist about c, with the slope action (a, b) -> (a - 2kp,
    b - 2kq) for c = p/q and k = q*a - p*b.  T_c^d lifts to T_sigma(c)^e,
    with d the covering degree of c's pullback and e its number of
    essential components: sigma(T_c^(d*j) y) = T_sigma(c)^(e*j) sigma(y),
    and n = e*j, applied by ``_twisted``.  The centres are the given
    convergents of x other than x (``_convergents``) from the
    penultimate outward, then 0 and infinity, all lower than x; taken
    in the order of ``enumerate_slopes``, the early ones are the
    likeliest to be memoised.  The first centre that lowers x gives the
    step: y = (a + m*p)/(b + m*q) = T_c^(-d*j) x with m = 2*d*k*j.
    Since max(|a + m*p|, |b + m*q|) is convex in m and equals the height
    of x at m = 0, a centre lowers x for some j exactly when it does for
    j = +-1.  Only when j = +-2 lowers x further is the least height
    over j looked for, next to the real minimum of that function: where
    a + m*p = -(b + m*q) for p/q > 0, where a + m*p = b + m*q for p/q <
    0, and where the term that is not constant is 0 for 0 and infinity.
    """
    a, b, h = x.p, x.q, x.height()
    for p, q in (*reversed(convergents), (0, 1), (1, 0)):
        k = q * a - p * b
        summary = analyze_slope(pres, c := Slope(p, q))
        g = 2 * summary.d * abs(k)
        for j in (1, -1):
            if (lower := max(abs(a + g * j * p), abs(b + g * j * q))) < h:
                if max(abs(a + 2 * g * j * p), abs(b + 2 * g * j * q)) < lower:
                    num, den = ((-b, q) if p == 0 else (-a, p) if q == 0
                                else (-a - b, p + q) if p * q > 0 else (b - a, p - q))
                    f = num // (g * den)
                    j = min((f, f + 1), key=lambda i: max(abs(a + g * i * p), abs(b + g * i * q)))
                n = summary.essential * (j if k > 0 else -j)
                return Slope.of(a + g * j * p, b + g * j * q), c, n
    return None


def pullback_slope(pres: NetMapPresentation, slope: Slope) -> SlopeOrInessential:
    """Slope of an essential pullback component, or INESSENTIAL.

    A twist step (``_twist_step``) moves a slope x to a lower slope y
    about a centre c, and sigma(x) is a twist about sigma(c) of sigma(y).
    An inessential class is answered from its summary.  Otherwise x takes
    the step, when one lowers it, in one of two cases:

    - its zigzag would be long (``_segment_is_long``).  Then x descends
      step by step; before each scan the step's centres are charged to a
      budget of ``_DESCENT_CENTRES`` for the whole call, and a scan that
      would pass it is refused with BudgetExceededError.
    - sigma(y) and sigma(c) are both memoised.  Then x is answered by one
      twist.  A batch taken in the order of ``enumerate_slopes`` finds
      such a step for most slopes.

    The zigzag answers the slope where the steps end.  Back up the steps,
    each image is the twist about the image of the step's centre, which
    this function computes, applied to the image below it; INESSENTIAL
    stays INESSENTIAL.  Every image is memoised.
    """
    memo, steps, x, scanned = pres.context.images, [], slope, 0
    while (image := memo.get(x)) is None:
        if analyze_slope(pres, x).essential == 0:
            memo[x] = image = INESSENTIAL
            break
        convergents = [*_convergents(x)][:-1]
        if long := _segment_is_long(pres, x):
            if (scanned := scanned + len(convergents) + 2) > _DESCENT_CENTRES:
                raise BudgetExceededError(f"slope {slope}: its twist descent would scan more "
                                          f"than {_DESCENT_CENTRES} centres")
        # A short slope's step answers only from memoised images.
        step = _twist_step(pres, x, convergents) if long or memo else None
        if step is not None and long:
            steps.append((x, step))
            x = step[0]
            continue
        y, c, n = step or (None, None, 0)
        image, centre = memo.get(y), memo.get(c)
        if image is None or centre is None:
            image = zigzag_trace(pres, x).result
        elif image is not INESSENTIAL and n:
            image = _twisted(pres, image, centre, n)
        memo[x] = image
        break
    for x, (_, c, n) in reversed(steps):
        if image is not INESSENTIAL and n:
            image = _twisted(pres, image, pullback_slope(pres, c), n)
        memo[x] = image
    return image


def slope_graph_rows(pres: NetMapPresentation, qmax: int) -> list[tuple]:
    """The graph of the slope map over the finite slopes of height <= qmax.

    Rows (slope, value, image, image value) in order of value, a value
    p/q as the pair (p, q); the image value is None for infinity and the
    inessential symbol.  The images are computed in the order of
    ``enumerate_slopes``, lower heights first, so that most slopes take
    a twist step from memoised images.  Two slopes of height <= qmax
    differ by at least 1/qmax^2, so the integer floor(p * qmax^2 / q)
    orders them as their values do.
    """
    slopes, rows = enumerate_slopes(qmax), []
    with suppress(NetMapError):  # infinity has no row, but may serve as a centre
        pullback_slope(pres, slopes[0])
    for s in slopes[1:]:
        image = pullback_slope(pres, s)
        image_value = None if image is INESSENTIAL or image.is_infinity else (image.p, image.q)
        rows.append((str(s), (s.p, s.q), str(image), image_value))
    rows.sort(key=lambda row: row[1][0] * qmax * qmax // row[1][1])
    return rows


def slope_orbit(
    pres: NetMapPresentation, slope: Slope, max_iter: int = 100
) -> tuple[list[SlopeOrInessential], tuple[int, int] | None]:
    """Iterate the slope map; detect cycles.

    The trajectory starts at the given slope and, when a value repeats,
    includes the repeated occurrence; the cycle is reported as
    (start index, length).  The inessential symbol terminates the
    trajectory with no cycle.  A ``max_iter`` below 1 is refused with
    ValueError before any work.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
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


def _require_reduced(slope: Slope) -> None:
    if Slope.of(slope.p, slope.q) != slope:
        raise ValueError(f"slope {slope.p}/{slope.q} is not in lowest terms with q >= 0")


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
    _require_reduced(slope)
    p, q = slope.p, slope.q
    if q == 0:
        # Vertical segment from (0,0) to (0,5); no columns in between.
        return Slope(1, 0)
    base, t = _residue_segment(slope)

    def tens(x: int) -> tuple[int, Fraction]:
        # r = (1 + 2p/q) x - base * 2p/q = 10*Q + R; the ceiling puts R in (-5, 5].
        r = Fraction((q + 2 * p) * x - 2 * p * base, q)
        quo = ceil((r - 5) / 10)
        return quo, r - 10 * quo

    far = base + t * q
    xs = [base]
    first = base + ((2 - base) % 4 or 4)
    for x in range(first, far, 4):
        if abs(tens(x)[1]) < 2:
            xs.append(x)
    xs.append(far)

    num = 0
    den2 = 0
    quos = [tens(x)[0] for x in xs]
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
    (q, p) otherwise.  The start points are h + eps * c + tau * (q, p)
    for every postcritical h of coset number c2, eps in ``offsets`` on
    the side of the essential lines, tau in 0, 1/2, 1/3, and c a
    lattice vector with det((q, p), c) = 1.  The kernel takes lattice
    points only, so with k the lcm of v's denominators the segment kv,
    kw is run on the presentation scaled by k, a similarity that keeps
    every crossing and scales each midpoint by k.  Kept as an
    independent cross-check of the zigzag path; when every start point
    fails, the ZigzagError names the check that rejected the last one.
    """
    _require_reduced(slope)
    summary = analyze_slope(pres, slope)
    if summary.essential == 0:
        return INESSENTIAL
    p, q = slope.p, slope.q
    _, x, y = _xgcd(q, p)
    complement = (-y, x)  # det((q, p), complement-direction) = 1
    step = summary.d
    if not affine_preserves_mirrors(pres, IDENTITY, (step * q, step * p)):
        step = 2 * summary.d

    c2, c3 = summary.coset_numbers[1], summary.coset_numbers[2]
    d_prime = summary.d_prime
    bases = [h for h in pres.postcritical if coset_number(h, slope, d_prime) == c2]
    rejected = "no start point lies between the lines of coset numbers c2 and c3"
    shifts = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
    for h, eps, sign, tau in product(bases, offsets, (1, -1), shifts):
        v = (
            h[0] + sign * eps * complement[0] + tau * q,
            h[1] + sign * eps * complement[1] + tau * p,
        )
        if not c2 < coset_number(v, slope, d_prime) < c3:
            continue
        k = lcm(v[0].denominator, v[1].denominator)
        similar = scaled(pres, k)
        kv = (int(k * v[0]), int(k * v[1]))
        kw = (kv[0] + k * step * q, kv[1] + k * step * p)
        if point_on_any_mirror(similar, kv) or point_on_any_mirror(similar, kw):
            rejected = f"start point ({v[0]}, {v[1]}) lies on a mirror"
            continue
        try:
            crossings = interior_crossings(similar, kv, kw)
        except (NonTransverseError, DegenerateIncidenceError) as exc:
            rejected = f"segment from ({v[0]}, {v[1]}): {exc}"
            continue
        # k*(w' - v), w' = (-1)^n w + 2 * sum (-1)^(i+1) midpoint_i; read
        # in the correspondence basis it has the slope of the image.
        res = _alternating_sum([kv, *crossings, kw])
        a, b = pres.correspondence.adjugate_coords(res)
        return Slope.of(b, a)
    raise ZigzagError(f"no transverse long segment found for slope {slope}; {rejected}")
