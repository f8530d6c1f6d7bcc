"""Exact segment/mirror intersection kernel.

All geometry runs on integer-scaled coordinates: mirror polylines are
premultiplied by the least common denominator of their vertices, and
every query point is a lattice point.  A caller with rational points
scales the presentation instead (``presentation.scaled``).

For a query segment pq and a mirror edge ab that is not parallel to it,
the crossing of pq with the translate ab + alpha*u2 + beta*v2 (u2, v2
spanning 2*L1) sits at parameter tn/den along pq and un/den along the
edge, where den is fixed and tn, un are affine in the integers
(alpha, beta).  The translates that meet pq are exactly the integer
points of the parallelogram 0 <= tn, un <= den.  They are enumerated
line by line, with the bounds of each line from integer floor
division.  The lines run along a Gauss-reduced lattice direction in
which the parallelogram is long, so the lines of an edge number about
the square root of the parallelogram's area, not its length.  Along a
line tn and un step by constants, so only its first and last translate
can touch an end of pq or of the edge: those two settle the line once,
and a plain loop emits its crossings with no check per crossing.  A
crossing's sort key is the exact integer tn * (L // den), with L the
lcm of the edge denominators: one integer sort orders every crossing
along pq, and the kernel returns the midpoints in that order.  Edges
parallel to pq never cross it; they are only checked for overlap.

The edge list is built once per presentation.  A mirror's chain is
symmetric about its midpoint m, so the two edges at m are collinear and
form one edge; a straight mirror is a single edge.

The context's ``marks`` is the one table of the marked classes mod
2*L1: each class of +-h_k names mirror k and the offset from the
mirror's end in that class to its midpoint (zero for a degenerate
mirror, which is its own end), and each other class of L1 says whether
a mirror midpoint lies in it.  Every question about a marked point is
one lookup there: a marked point's mirror midpoint is the point plus
its class's offset, and a point is a degenerate mirror point when its
class names a mirror with offset zero.  A mirror midpoint m lies in
L1, so a segment through a translate of m meets a lattice point of
class m mod 2*L1.  Every segment's lattice points are scanned, each
looked up in ``marks``, before any edge is looked at: a degenerate
mirror point raises DegenerateIncidenceError, and otherwise a translate
of a midpoint raises NonTransverseError, so the edge loop never meets a
midpoint.  ``marked_points`` is the one stepper of a class key along a
lattice line; the scan and the slope map's class walk both read it.

Every other question about 2*L1 translates goes through one
enumerator, ``_parallelogram_candidates``: which translates of a
segment may meet another segment (a point being a segment of length
zero).  It serves the parallel edges of ``interior_crossings``,
``point_on_any_mirror`` and ``check_mirror_contact``, the validation
that each mirror is a simple arc (``_polyline_self_intersects``) and
that the translated mirrors are pairwise disjoint, with
``segments_touch`` as the one exact contact test.  This module imports
nothing from ``presentation`` at run time: ``pres.context`` hands
``build_context`` the presentation's ``ClassTable``.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateIncidenceError, NonTransverseError, ValidationError, ZeroVectorError
from .lattice import Mat2, Vec, cross, mat_vec, vadd, vscale, vsub

if TYPE_CHECKING:
    from .presentation import ClassTable, NetMapPresentation, Point

# Validation refuses mirrors whose contact check would compare more pairs
# of segments, or walk more lines of 2*L1 translates, than this in all
# (see check_mirror_contact).
_MAX_TRANSLATE_LINES = 100_000


class PresentationContext(NamedTuple):
    """Data derived from one presentation, and its per-slope memos.

    Built once per presentation instance by ``pres.context``; the memos
    live and die with that instance.  ``build_context`` gives each
    context three fresh memo dicts.
    """

    scale: int
    # Each mirror's full polyline, times scale, in the order of pres.mirrors;
    # a degenerate mirror's is its one point.
    chains: tuple[tuple[Vec, ...], ...]
    u2: Vec                 # 2 * lambda1 basis, times scale
    v2: Vec
    table: ClassTable
    # The marked classes mod 2*L1: the class key of +-h_k -> (k, the
    # midpoint of mirror k minus its end in that class), so (k, (0, 0))
    # for a degenerate mirror; any other class of L1 -> (None, (0, 0))
    # where a mirror midpoint lies and (None, None) elsewhere.
    marks: dict[Vec, tuple[int | None, Vec | None]]
    # (midpoint, a, b) for each mirror edge a->b, a and b times scale and
    # the mirror's midpoint unscaled, with the two collinear middle edges
    # as one.
    edges: tuple[tuple[Vec, Vec, Vec], ...]
    edge_length: int                 # sum of |dx| + |dy| over the edges, times scale
    summaries: dict  # class mod 2N -> pullback.PullbackSummary
    segments: dict   # class mod 2N -> slopefn._marked_segments
    images: dict     # slope -> pullback_slope value


def build_context(pres: NetMapPresentation, table: ClassTable) -> PresentationContext:
    """The context of ``pres``, with ``table`` its classes mod 2*L1."""
    polys = [mirror.full_polyline() for mirror in pres.mirrors]
    scale = lcm(*(c.denominator for poly in polys for p in poly for c in p))
    chains = [tuple((int(p[0] * scale), int(p[1] * scale)) for p in poly) for poly in polys]
    u, v = pres.lambda1.u, pres.lambda1.v
    marks = {table.key(m.midpoint): (None, (0, 0)) for m in pres.mirrors if not m.degenerate}
    for rep in ((0, 0), u, v, vadd(u, v)):
        marks.setdefault(table.key(rep), (None, None))
    # Validation puts the ends of mirror k in the classes of h_k and -h_k
    # (a degenerate mirror, with h_k in L1, is its own end), and keeps the
    # ends of distinct mirrors in distinct classes and off the midpoints,
    # so the ends, written last, name their mirror.  They are written from
    # the last mirror to the first, so where ends of two mirrors share a
    # class the first mirror names it: validate reads these names.
    for k in (3, 2, 1, 0):
        for x, y in (polys[k][0], polys[k][-1]):
            end = (int(x), int(y))
            marks[table.key(end)] = (k, vsub(pres.mirrors[k].midpoint, end))
    # A chain is symmetric about its midpoint, so the edges on either
    # side of it are collinear: they become one edge, and the lattice
    # scan of interior_crossings finds a segment through the midpoint.
    edges = []
    for mirror, full in zip(pres.mirrors, chains):
        half = len(full) // 2
        chain = full[:half] + full[half + 1:]
        edges.extend((mirror.midpoint, a, b) for a, b in zip(chain, chain[1:]))
    return PresentationContext(
        scale=scale,
        chains=tuple(chains),
        u2=vscale(2 * scale, u),
        v2=vscale(2 * scale, v),
        table=table,
        marks=marks,
        edges=tuple(edges),
        edge_length=sum(abs(b[0] - a[0]) + abs(b[1] - a[1]) for _, a, b in edges),
        summaries={},
        segments={},
        images={},
    )


def _parallelogram_candidates(u2: Vec, v2: Vec, ab: tuple[Vec, Vec], cd: tuple[Vec, Vec]):
    """Integer (alpha, beta) whose translate of segment cd may meet ab.

    The translate alpha*u2 + beta*v2 of cd meets ab exactly when it lies
    in the Minkowski difference ab - cd, the parallelogram a-c, b-c,
    b-d, a-d.  A point is a segment of length zero, (p, p).  Candidates
    come in lexicographic order of (alpha, beta); a slight superset may
    be yielded, so callers re-verify every candidate exactly.
    """
    (ux, uy), (vx, vy) = u2, v2
    det = ux * vy - uy * vx
    sgn, d = (1, det) if det > 0 else (-1, -det)
    # The corners a-c, b-c, b-e and a-e, each as sgn * (cross(w, v2),
    # cross(u2, w)): differences of the same for a, b, c and e.
    (pa, qa), (pb, qb), (pc, qc), (pe, qe) = (
        (sgn * (x * vy - y * vx), sgn * (ux * y - uy * x)) for x, y in (*ab, *cd))
    avals = (pa - pc, pb - pc, pb - pe, pa - pe)
    bvals = (qa - qc, qb - qc, qb - qe, qa - qe)
    amin, amax = min(avals), max(avals)
    for alpha in range(-((-amin) // d), amax // d + 1):
        x = alpha * d
        lo_n = lo_d = hi_n = hi_d = None
        for i in range(4):
            j = (i + 1) % 4
            ai, aj = avals[i], avals[j]
            if ai == x:
                num, den = bvals[i], 1
            elif (ai < x < aj) or (aj < x < ai):
                den = aj - ai
                num = bvals[i] * den + (x - ai) * (bvals[j] - bvals[i])
                if den < 0:
                    num, den = -num, -den
            else:
                continue
            if lo_n is None:
                lo_n, lo_d, hi_n, hi_d = num, den, num, den
                continue
            if num * lo_d < lo_n * den:
                lo_n, lo_d = num, den
            if num * hi_d > hi_n * den:
                hi_n, hi_d = num, den
        for beta in range(-((-lo_n) // (lo_d * d)), hi_n // (hi_d * d) + 1):
            yield alpha, beta


def _alpha_lines(d: int, s: tuple, o: tuple) -> int:
    """How many lines of alpha ``_parallelogram_candidates`` walks for two
    segments (a, b, lo, hi) of ``check_mirror_contact``, from their spans
    lo..hi, with d = |det|."""
    return (s[3] - o[2]) // d + (o[3] - s[2]) // d + 1


def mirror_midpoint_at(pres: NetMapPresentation, point: Vec) -> Vec:
    """Midpoint of the unique mirror containing a marked lattice point.

    ``point`` must lie in a postcritical coset.  It is a 2*L1 translate
    of the end of its class, so the midpoint is the same translate of
    the mirror's midpoint; a degenerate mirror is its own midpoint.
    """
    ctx = pres.context
    k, offset = ctx.marks.get(ctx.table.key(point), (None, None))
    if k is None:
        raise ValueError(f"{point} is not in a postcritical coset")
    return (point[0] + offset[0], point[1] + offset[1])


def _line_hit(p: Vec, q: Vec, a: Vec, b: Vec) -> None:
    """Check closed segments pq and ab on parallel lines for contact.

    Returns None when they are disjoint or touch only at p or q, and
    raises NonTransverseError for collinear overlap.  A mirror edge has
    positive length, so a single common point is p or q.  Segments that
    are not parallel are the business of interior_crossings' own kernel.
    """
    dpq = vsub(q, p)
    w = vsub(a, p)
    if cross(w, dpq) != 0:
        return None  # parallel, distinct lines
    # The projections of a and b on pq, in units where p is 0 and q is dd.
    dd = dpq[0] * dpq[0] + dpq[1] * dpq[1]
    wb = vsub(b, p)
    ta = w[0] * dpq[0] + w[1] * dpq[1]
    tb = wb[0] * dpq[0] + wb[1] * dpq[1]
    lo, hi = (ta, tb) if ta <= tb else (tb, ta)
    lo = lo if lo > 0 else 0
    hi = hi if hi < dd else dd
    if lo < hi:
        raise NonTransverseError("segment runs along a mirror edge")
    return None


def interior_crossings(pres: NetMapPresentation, v: Vec, w: Vec) -> list[Vec]:
    """Midpoints of the mirror translates that the open segment (v, w)
    between lattice points v and w crosses transversely, in order along
    the segment and in unscaled coordinates.

    Raises DegenerateIncidenceError when the open segment meets a
    degenerate mirror point, and otherwise NonTransverseError when it
    passes through a mirror midpoint; the lattice scan decides both
    before any edge, on every segment.  Then NonTransverseError for any
    other non-transverse incidence, the first along the edge list
    winning.  A segment of length zero raises ZeroVectorError first.
    """
    if v == w:
        raise ZeroVectorError(f"the segment from {v} to {w} has length zero")
    ctx = pres.context
    s, u2, v2, edges = ctx.scale, ctx.u2, ctx.v2, ctx.edges
    p, q = (v[0] * s, v[1] * s), (w[0] * s, w[1] * s)
    _check_degenerate_incidence(ctx, v, w)

    (px, py), (qx, qy) = p, q
    dx, dy = qx - px, qy - py
    dens = [dx * (b[1] - a[1]) - dy * (b[0] - a[0]) for _, a, b in edges]
    period = lcm(*(den for den in dens if den))

    (u2x, u2y), (v2x, v2y) = u2, v2
    (ux, uy), (vx, vy) = pres.lambda1.u, pres.lambda1.v  # u2 = 2u and v2 = 2v, unscaled
    hits: list[tuple[int, Vec]] = []
    for (mid, a, b), den in zip(edges, dens):
        if den == 0:
            # A parallel edge never crosses pq, but it may overlap pq or
            # touch it at a vertex.
            for alpha, beta in _parallelogram_candidates(u2, v2, (p, q), (a, b)):
                t_vec = vadd(vscale(alpha, u2), vscale(beta, v2))
                _line_hit(p, q, vadd(a, t_vec), vadd(b, t_vec))
            continue
        # For the translate i*u2 + j*v2 of ab: tn = t0 + i*ta + j*tb is
        # cross(a' - p, b - a) and un = u0 + i*ua + j*ub is
        # cross(a' - p, q - p), with signs chosen so that den > 0.
        sg = 1 if den > 0 else -1
        den *= sg
        ex, ey = b[0] - a[0], b[1] - a[1]
        ax, ay = a[0] - px, a[1] - py
        t0 = sg * (ax * ey - ay * ex)
        ta = sg * (u2x * ey - u2y * ex)
        tb = sg * (v2x * ey - v2y * ex)
        u0 = sg * (ax * dy - ay * dx)
        ua = sg * (u2x * dy - u2y * dx)
        ub = sg * (v2x * dy - v2y * dx)
        # Gauss-reduce the images (ta, ua), (tb, ub) of the two lattice
        # directions.  (tb, ub) ends up the shortest, so the lines of constant
        # i, along which j runs, are few and long.  The new directions i and
        # j are (si, sj) and (ri, rj) in (alpha, beta), a unimodular change.
        si, sj, ri, rj = 1, 0, 0, 1
        n1, n2 = ta * ta + ua * ua, tb * tb + ub * ub
        if n1 < n2:
            ta, ua, tb, ub, n1, n2 = tb, ub, ta, ua, n2, n1
            si, sj, ri, rj = ri, rj, si, sj
        while True:
            m = (2 * (ta * tb + ua * ub) + n2) // (2 * n2)
            if m == 0:
                break
            ta -= m * tb
            ua -= m * ub
            si -= m * ri
            sj -= m * rj
            n1 = ta * ta + ua * ua
            if n1 >= n2:
                break
            ta, ua, tb, ub, n1, n2 = tb, ub, ta, ua, n2, n1
            si, sj, ri, rj = ri, rj, si, sj
        iux, iuy = 2 * (si * ux + sj * vx), 2 * (si * uy + sj * vy)
        jux, juy = 2 * (ri * ux + rj * vx), 2 * (ri * uy + rj * vy)
        # Range of i: i = (ub*(tn - t0) - tb*(un - u0)) / det over the
        # corners tn, un in {0, den}.
        det = ta * ub - tb * ua
        n0 = tb * u0 - ub * t0
        lo_n = n0 + den * (min(ub, 0) - max(tb, 0))
        hi_n = n0 + den * (max(ub, 0) - min(tb, 0))
        if det < 0:
            lo_n, hi_n, det = -hi_n, -lo_n, -det
        # Each strip 0 <= c + j*k <= den rewritten with k > 0; a strip with
        # k == 0 holds on the whole range of i, so the other one stands in.
        bt0, bta, btk = (t0, ta, tb) if tb > 0 else (den - t0, -ta, -tb)
        bu0, bua, buk = (u0, ua, ub) if ub > 0 else (den - u0, -ua, -ub)
        if tb == 0:
            bt0, bta, btk = bu0, bua, buk
        elif ub == 0:
            bu0, bua, buk = bt0, bta, btk
        mult = period // den
        mx0, my0 = mid
        for i in range(-(-lo_n // det), hi_n // det + 1):
            ct = bt0 + i * bta
            cu = bu0 + i * bua
            lo, lo_u = -(ct // btk), -(cu // buk)
            if lo_u > lo:
                lo = lo_u
            hi, hi_u = (den - ct) // btk, (den - cu) // buk
            if hi_u < hi:
                hi = hi_u
            if lo > hi:
                continue
            tn = t0 + i * ta + lo * tb
            un = u0 + i * ua + lo * ub
            mx = mx0 + i * iux + lo * jux
            my = my0 + i * iuy + lo * juy
            # tn and un step by tb and ub and stay in [0, den], so only the
            # first and last j can meet 0 or den.  tn there is contact at v
            # or w, and no crossing.  A line with tb == 0 holds one j at
            # most: its translates lie on the line of the edge, and the
            # mirrors' disjointness keeps them apart.
            n = hi - lo + 1
            if not 0 < tn < den:
                n, tn, un, mx, my = n - 1, tn + tb, un + ub, mx + jux, my + juy
            if n and not 0 < tn + (n - 1) * tb < den:
                n -= 1
            if n and not (0 < un < den and 0 < un + (n - 1) * ub < den):
                raise NonTransverseError("segment passes through a mirror endpoint or midpoint")
            key, step = tn * mult, tb * mult
            for _ in range(n):
                hits.append((key, (mx, my)))
                key += step
                mx += jux
                my += juy
    hits.sort(key=itemgetter(0))
    return [mid for _, mid in hits]


def marked_points(ctx: PresentationContext, start: Vec, step: Vec, count: int):
    """(i, entry) for each point start + i*step, i = 1..count, whose class
    mod 2*L1 is marked, in order of i, with entry the class's ``marks``
    entry.  The class key of the point steps linearly with i."""
    m, marks = ctx.table.modulus, ctx.marks
    (k1, k2), (s1, s2) = ctx.table.key(start), ctx.table.key(step)
    for i in range(1, count + 1):
        entry = marks.get(((k1 + i * s1) % m, (k2 + i * s2) % m))
        if entry is not None:
            yield i, entry


def _check_degenerate_incidence(ctx: PresentationContext, v: Vec, w: Vec) -> None:
    """Scan the lattice points of the open segment (v, w) between lattice
    points v and w, from v to w.

    Raises DegenerateIncidenceError at the first degenerate mirror point.
    With none on the segment, raises NonTransverseError if the scan met a
    mirror midpoint.
    """
    met = False
    g = gcd(w[0] - v[0], w[1] - v[1])
    step = ((w[0] - v[0]) // g, (w[1] - v[1]) // g)
    for i, (k, offset) in marked_points(ctx, v, step, g - 1):
        if offset == (0, 0):
            if k is not None:
                pt = (v[0] + i * step[0], v[1] + i * step[1])
                raise DegenerateIncidenceError(
                    f"open segment passes through degenerate mirror point {pt}"
                )
            met = True
    if met:
        raise NonTransverseError("segment passes through a mirror endpoint or midpoint")


def _on_degenerate_mirror(ctx: PresentationContext, point: Vec) -> bool:
    """Whether the lattice point is a point of a degenerate mirror."""
    k, offset = ctx.marks.get(ctx.table.key(point), (None, None))
    return k is not None and offset == (0, 0)


def affine_preserves_mirrors(pres: NetMapPresentation, linear: Mat2, translation: Vec) -> bool:
    """Whether x -> linear x + translation maps the mirror system onto itself.

    Each representative mirror must land on a twice-sublattice translate
    of a representative mirror (in either traversal order), and each
    degenerate class must map to a degenerate class.  The linear part
    must stabilize the sublattice, as that of every affine symmetry does.
    """
    ctx = pres.context
    table = ctx.table
    for mirror, h in zip(pres.mirrors, pres.postcritical):
        image = vadd(mat_vec(linear, h), translation)
        if mirror.degenerate and not _on_degenerate_mirror(ctx, image):
            return False
    s = ctx.scale
    ts = vscale(s, translation)
    zero_key = table.key((0, 0))

    def matches(image: tuple[Vec, ...], other: tuple[Vec, ...]) -> bool:
        shift = vsub(image[0], other[0])
        if shift[0] % s or shift[1] % s:
            return False
        return table.key((shift[0] // s, shift[1] // s)) == zero_key and all(
            vsub(c, o) == shift for c, o in zip(image, other)
        )

    chains = [chain for chain in ctx.chains if len(chain) > 1]
    for chain in chains:
        image = tuple(vadd(mat_vec(linear, c), ts) for c in chain)
        if not any(
            len(other) == len(image) and (matches(image, other) or matches(image[::-1], other))
            for other in chains
        ):
            return False
    return True


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    """c collinear with a-b: is c within the closed segment?"""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def segments_touch(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether closed segments p1p2 and q1q2 share any point.

    Exact on Fraction and on int coordinates alike; a point is the
    segment (p, p).
    """
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, p2, q2):
        return True
    # p2 on a collinear q1q2 puts q1, q2 or p1 on the other segment,
    # which the clauses above have found.
    return o3 == 0 and _on_segment(q1, q2, p1)


def _polyline_self_intersects(poly: tuple[Point, ...]) -> bool:
    segs = list(zip(poly, poly[1:]))
    for i, (a, b) in enumerate(segs):
        for j, (c, d) in enumerate(segs[i + 1:], i + 1):
            if j == i + 1:
                # Edges sharing the joint vertex b == c overlap only if
                # collinear and folding back onto each other.
                if _orient(a, b, d) == 0:
                    dot = (a[0] - b[0]) * (d[0] - b[0]) + (a[1] - b[1]) * (d[1] - b[1])
                    if dot > 0:
                        return True
                continue
            if segments_touch(a, b, c, d):
                return True
    return False

def point_on_any_mirror(pres: NetMapPresentation, point: Vec) -> bool:
    """Whether the lattice point lies on some mirror translate (closed arcs)."""
    ctx = pres.context
    if _on_degenerate_mirror(ctx, point):
        return True
    pt = vscale(ctx.scale, point)
    u2, v2 = ctx.u2, ctx.v2
    for _, a, b in ctx.edges:
        for alpha, beta in _parallelogram_candidates(u2, v2, (pt, pt), (a, b)):
            t_vec = vadd(vscale(alpha, u2), vscale(beta, v2))
            if segments_touch(pt, pt, vadd(a, t_vec), vadd(b, t_vec)):
                return True
    return False


def check_mirror_contact(pres: NetMapPresentation) -> None:
    """Each mirror must be a simple arc with no repeated consecutive
    point, and the full mirrors, translated over 2*L1, pairwise disjoint.

    A degenerate mirror is its midpoint, a segment of length zero, whose
    translates are the lattice points of its class.  For the first
    offending pair of mirrors the least touching (alpha, beta) is
    reported.  The simple-arc test and the disjointness check take every
    pair of segments of one mirror or of two, so mirrors with more than
    ``_MAX_TRANSLATE_LINES`` such pairs, summed over the ten pairs of
    mirrors (a mirror with itself included), are refused before either
    runs.  Then, before any translate is visited, mirrors whose walk would
    take more than ``_MAX_TRANSLATE_LINES`` lines of translates, summed
    the same way, are refused: the walk grows with a mirror's extent.
    """
    ctx = pres.context
    u2, v2 = ctx.u2, ctx.v2
    d = abs(det := cross(u2, v2))
    # Each segment (a, b) of a mirror as (a, b, lo, hi), with lo and hi the
    # least and greatest of sign(det) * cross(p, v2) over p = a, b; a
    # degenerate mirror is the one segment (m, m).
    segments = [[(a, b, *sorted((cross(a, v2) * det // d, cross(b, v2) * det // d)))
                 for a, b in zip(chain, chain[1:] or chain)]
                for chain in ctx.chains]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    compared = sum(len(segments[i]) * len(segments[j]) for i, j in pairs)
    if compared > _MAX_TRANSLATE_LINES:
        raise ValidationError("mirror-extent", f"checking the mirrors for contact would compare "
                              f"{compared} pairs of segments, above the limit of "
                              f"{_MAX_TRANSLATE_LINES}")
    # The chains are the mirrors under a similarity, which keeps both a
    # repeated point and a crossing.
    for k, chain in enumerate(ctx.chains, start=1):
        if any(a == b for a, b in zip(chain, chain[1:])):
            raise ValidationError("mirror-simple", f"mirror {k} has repeated consecutive points")
        if _polyline_self_intersects(chain):
            raise ValidationError("mirror-simple", f"mirror {k} is not a simple arc")
    lines = sum(_alpha_lines(d, s, o) for i, j in pairs for s in segments[i] for o in segments[j])
    if lines > _MAX_TRANSLATE_LINES:
        raise ValidationError("mirror-extent", f"checking the mirrors for contact would walk "
                              f"{lines} lines of 2*lambda1 translates, above the limit of "
                              f"{_MAX_TRANSLATE_LINES}")
    for i, j in pairs:
        least = None
        for s in segments[i]:
            for o in segments[j]:
                if not _alpha_lines(d, s, o):
                    continue
                for cand in _parallelogram_candidates(u2, v2, s[:2], o[:2]):
                    if least is not None and cand >= least:
                        break
                    if i == j and cand == (0, 0):
                        continue
                    t_vec = vadd(vscale(cand[0], u2), vscale(cand[1], v2))
                    if segments_touch(s[0], s[1], vadd(o[0], t_vec), vadd(o[1], t_vec)):
                        least = cand
                        break
        if least is not None:
            alpha, beta = least
            t = vadd(vscale(2 * alpha, pres.lambda1.u), vscale(2 * beta, pres.lambda1.v))
            raise ValidationError(
                "mirror-disjoint",
                f"mirror {i + 1} meets the 2*lambda1 translate {t} of mirror {j + 1}",
            )
