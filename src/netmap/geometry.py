"""Exact segment/mirror intersection kernel.

All geometry runs on integer-scaled coordinates: mirror polylines are
premultiplied by the least common denominator of their vertices, and a
per-query factor absorbs denominators of the query segment.

For a query segment pq and a mirror edge ab that is not parallel to it,
the crossing of pq with the translate ab + alpha*u2 + beta*v2 (u2, v2
spanning 2*L1) sits at parameter tn/den along pq and un/den along the
edge, where den is fixed and tn, un are affine in the integers
(alpha, beta).  The translates that meet pq are exactly the integer
points of the parallelogram 0 <= tn, un <= den.  They are enumerated
line by line, with the bounds of each line from integer floor
division.  The lines run along a Gauss-reduced lattice direction in
which the parallelogram is long, so the lines of an edge number about
the square root of the parallelogram's area, not its length.  A
crossing's sort key is the exact integer tn * (L // den), with L the
lcm of the edge denominators: one integer sort orders every crossing
along pq.  Edges parallel to pq never cross it; they are only checked
for overlap and vertex contact.

Every other question about 2*L1 translates goes through one
enumerator, ``_parallelogram_candidates``: which translates of a
segment may meet another segment (a point being a segment of length
zero).  It serves the parallel edges of ``interior_crossings``,
``point_on_any_mirror`` and ``check_mirror_disjointness``, the
validation that the translated mirrors are pairwise disjoint, with
``presentation.segments_touch`` as the one exact contact test.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import itemgetter

from .errors import DegenerateIncidenceError, NonTransverseError, ValidationError
from .lattice import Mat2, Vec, cross, mat_vec, vadd, vneg, vscale, vsub
from .presentation import ClassTable, NetMapPresentation, segments_touch

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ScaledMirror:
    degenerate: bool
    midpoint: Vec           # unscaled
    chain: tuple[Vec, ...]  # full polyline, times scale
    ends: tuple[Vec, Vec]   # first and last polyline points, unscaled


@dataclass(frozen=True, eq=False)
class PresentationContext:
    """Data derived from one presentation, and its per-slope memos.

    Built once per presentation instance by ``pres.context``; the memos
    live and die with that instance.
    """

    scale: int
    mirrors: tuple[ScaledMirror, ...]  # in the order of pres.mirrors
    u2: Vec                 # 2 * lambda1 basis, times scale
    v2: Vec
    table: ClassTable
    # Class key -> ("P2", k, sign) for +-h_k, ("P1", i) for the other
    # L1/2L1 classes.
    lookup: dict[Vec, tuple]
    degenerate_keys: frozenset[Vec]  # class keys of +-h for degenerate mirrors
    mirror_of: dict[Vec, int]        # postcritical class key -> mirror index
    summaries: dict = field(default_factory=dict)  # slope -> PullbackSummary
    images: dict = field(default_factory=dict)     # slope -> pullback_slope value


def build_context(pres: NetMapPresentation) -> PresentationContext:
    denoms = [1]
    for mirror in pres.mirrors:
        for p in mirror.full_polyline():
            denoms.append(p[0].denominator)
            denoms.append(p[1].denominator)
    scale = lcm(*denoms)
    mirrors = []
    for mirror in pres.mirrors:
        poly = mirror.full_polyline()
        mirrors.append(
            ScaledMirror(
                degenerate=mirror.degenerate,
                midpoint=mirror.midpoint,
                chain=tuple((int(p[0] * scale), int(p[1] * scale)) for p in poly),
                ends=tuple((int(p[0]), int(p[1])) for p in (poly[0], poly[-1])),
            )
        )
    table = ClassTable(basis=pres.lambda1, modulus=2 * pres.lambda1.index)
    lookup: dict[Vec, tuple] = {}
    for k, h in enumerate(pres.postcritical):
        lookup[table.key(h)] = ("P2", k, +1)
        lookup.setdefault(table.key(vneg(h)), ("P2", k, -1))
    u, v = pres.lambda1.u, pres.lambda1.v
    for i, rep in enumerate(((0, 0), u, v, vadd(u, v))):
        lookup.setdefault(table.key(rep), ("P1", i))
    degenerate_keys = frozenset(
        table.key(x)
        for mirror, h in zip(pres.mirrors, pres.postcritical)
        if mirror.degenerate
        for x in (h, vneg(h))
    )
    return PresentationContext(
        scale=scale,
        mirrors=tuple(mirrors),
        u2=vscale(2 * scale, u),
        v2=vscale(2 * scale, v),
        table=table,
        lookup=lookup,
        degenerate_keys=degenerate_keys,
        mirror_of={k: e[1] for k, e in lookup.items() if e[0] == "P2"},
    )


def _parallelogram_candidates(u2: Vec, v2: Vec, ab: tuple[Vec, Vec], cd: tuple[Vec, Vec]):
    """Integer (alpha, beta) whose translate of segment cd may meet ab.

    The translate alpha*u2 + beta*v2 of cd meets ab exactly when it lies
    in the Minkowski difference ab - cd, the parallelogram a-c, b-c,
    b-d, a-d.  A point is a segment of length zero, (p, p).  Candidates
    come in lexicographic order of (alpha, beta); a slight superset may
    be yielded, so callers re-verify every candidate exactly.
    """
    (a, b), (c, e) = ab, cd
    quad = (vsub(a, c), vsub(b, c), vsub(b, e), vsub(a, e))
    det = cross(u2, v2)
    sgn = 1 if det > 0 else -1
    d = abs(det)
    avals = [sgn * cross(w, v2) for w in quad]
    bvals = [sgn * cross(u2, w) for w in quad]
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
        if lo_n is None:
            continue
        for beta in range(-((-lo_n) // (lo_d * d)), hi_n // (hi_d * d) + 1):
            yield alpha, beta


def mirror_midpoint_at(pres: NetMapPresentation, point: Vec) -> Vec:
    """Midpoint of the unique mirror containing a marked lattice point.

    ``point`` must lie in a postcritical coset; for a degenerate mirror
    the point is its own midpoint.
    """
    ctx = pres.context
    index = ctx.mirror_of.get(ctx.table.key(point))
    if index is None:
        raise ValueError(f"{point} is not in a postcritical coset")
    mirror = ctx.mirrors[index]
    if mirror.degenerate:
        return point
    zero_key = ctx.table.key((0, 0))
    for end in mirror.ends:
        t = vsub(point, end)
        if ctx.table.key(t) == zero_key:
            return vadd(mirror.midpoint, t)
    raise ValueError(f"{point} is not an endpoint of its class mirror")


def _line_hit(p: Vec, q: Vec, a: Vec, b: Vec) -> None:
    """Check closed segments pq and ab on parallel lines for contact.

    Returns None when they are disjoint or touch only at p or q, and
    raises NonTransverseError for collinear overlap or for contact with
    a vertex of ab inside the open segment.  Segments that are not
    parallel are the business of interior_crossings' own kernel.
    """
    dpq = vsub(q, p)
    w = vsub(a, p)
    if cross(w, dpq) != 0:
        return None  # parallel, distinct lines
    dd = dpq[0] * dpq[0] + dpq[1] * dpq[1]
    ta = Fraction(w[0] * dpq[0] + w[1] * dpq[1], dd)
    wb = vsub(b, p)
    tb = Fraction(wb[0] * dpq[0] + wb[1] * dpq[1], dd)
    lo, hi = (ta, tb) if ta <= tb else (tb, ta)
    lo = lo if lo > 0 else Fraction(0)
    hi = hi if hi < 1 else Fraction(1)
    if lo < hi:
        raise NonTransverseError("segment runs along a mirror edge")
    if lo == hi and 0 < lo < 1:
        raise NonTransverseError("segment touches a mirror vertex")
    return None


def _scaled(point: Point | Vec, factor: int) -> Vec:
    return (int(point[0] * factor), int(point[1] * factor))


def interior_crossings(
    pres: NetMapPresentation, v: Point | Vec, w: Point | Vec
) -> list[tuple[int, Vec]]:
    """Transverse crossings of the open segment (v, w) with the mirrors.

    Returns (key, midpoint) pairs in order along the segment, with
    midpoints in unscaled coordinates.  A key is an exact integer, the
    crossing's segment parameter t in (0, 1) times a factor shared by
    the whole list, so keys compare only within one call.  Raises
    NonTransverseError for non-transverse incidence and
    DegenerateIncidenceError when the open segment meets a degenerate
    mirror point.
    """
    ctx = pres.context
    extra = lcm(v[0].denominator, v[1].denominator, w[0].denominator, w[1].denominator)
    s = ctx.scale * extra
    p = _scaled(v, s)
    q = _scaled(w, s)
    u2 = vscale(extra, ctx.u2)
    v2 = vscale(extra, ctx.v2)

    _check_degenerate_incidence(ctx, v, w)

    d = vsub(q, p)
    edges = []
    for mirror in ctx.mirrors:
        if mirror.degenerate:
            continue
        chain = [vscale(extra, c) for c in mirror.chain]
        for a, b in zip(chain, chain[1:]):
            edges.append((mirror.midpoint, a, b, cross(d, vsub(b, a))))
    period = lcm(*(den for *_, den in edges if den))

    (px, py), (dx, dy) = p, d
    (u2x, u2y), (v2x, v2y) = u2, v2
    step_u = vscale(2, pres.lambda1.u)  # the translate u2, unscaled
    step_v = vscale(2, pres.lambda1.v)
    hits: list[tuple[int, Vec]] = []
    for mid, a, b, den in edges:
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
        iux, iuy = si * step_u[0] + sj * step_v[0], si * step_u[1] + sj * step_v[1]
        jux, juy = ri * step_u[0] + rj * step_v[0], ri * step_u[1] + rj * step_v[1]
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
            for _ in range(hi - lo + 1):
                if 0 < tn < den:  # tn in {0, den}: contact at v or w
                    if not 0 < un < den:
                        raise NonTransverseError(
                            "segment passes through a mirror endpoint or midpoint"
                        )
                    hits.append((tn * mult, (mx, my)))
                tn += tb
                un += ub
                mx += jux
                my += juy
    hits.sort(key=itemgetter(0))
    return hits


def _check_degenerate_incidence(ctx: PresentationContext, v, w) -> None:
    if not ctx.degenerate_keys:
        return
    for pt in _lattice_points_on_open_segment(v, w):
        if ctx.table.key(pt) in ctx.degenerate_keys:
            raise DegenerateIncidenceError(
                f"open segment passes through degenerate mirror point {pt}"
            )


def _lattice_points_on_open_segment(v, w):
    if all(isinstance(c, int) for c in (*v, *w)):
        # Between lattice endpoints the lattice points sit at the gcd steps.
        dx, dy = w[0] - v[0], w[1] - v[1]
        g = gcd(dx, dy)
        sx, sy = dx // g, dy // g
        for i in range(1, g):
            yield (v[0] + i * sx, v[1] + i * sy)
        return
    vx, vy = Fraction(v[0]), Fraction(v[1])
    wx, wy = Fraction(w[0]), Fraction(w[1])
    dx, dy = wx - vx, wy - vy
    if dx == 0:
        if vx.denominator != 1:
            return
        x = int(vx)
        lo, hi = (vy, wy) if vy <= wy else (wy, vy)
        for y in range(floor(lo) + 1, ceil(hi)):
            yield (x, y)
        return
    lo, hi = (vx, wx) if vx <= wx else (wx, vx)
    for x in range(floor(lo) + 1, ceil(hi)):
        fx = Fraction(x)
        if fx == lo or fx == hi:
            continue
        y = vy + (fx - vx) * dy / dx
        if y.denominator == 1:
            yield (x, int(y))


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
        if mirror.degenerate and table.key(image) not in ctx.degenerate_keys:
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

    chains = [mirror.chain for mirror in ctx.mirrors if not mirror.degenerate]
    for chain in chains:
        image = tuple(vadd(mat_vec(linear, c), ts) for c in chain)
        if not any(
            len(other) == len(image) and (matches(image, other) or matches(image[::-1], other))
            for other in chains
        ):
            return False
    return True


def point_on_any_mirror(pres: NetMapPresentation, point: Point | Vec) -> bool:
    """Whether the point lies on some mirror translate (closed arcs)."""
    ctx = pres.context
    px, py = Fraction(point[0]), Fraction(point[1])
    if px.denominator == 1 and py.denominator == 1:
        if ctx.table.key((int(px), int(py))) in ctx.degenerate_keys:
            return True
    extra = lcm(px.denominator, py.denominator)
    s = ctx.scale * extra
    pt = (int(px * s), int(py * s))
    u2 = vscale(extra, ctx.u2)
    v2 = vscale(extra, ctx.v2)
    for mirror in ctx.mirrors:
        if mirror.degenerate:
            continue
        chain = [vscale(extra, c) for c in mirror.chain]
        for a, b in zip(chain, chain[1:]):
            for alpha, beta in _parallelogram_candidates(u2, v2, (pt, pt), (a, b)):
                t_vec = vadd(vscale(alpha, u2), vscale(beta, v2))
                if segments_touch(pt, pt, vadd(a, t_vec), vadd(b, t_vec)):
                    return True
    return False


def check_mirror_disjointness(pres: NetMapPresentation) -> None:
    """Full mirrors, translated over 2*L1, must be pairwise disjoint.

    A degenerate mirror is its midpoint, a segment of length zero, whose
    translates are the lattice points of its class.  For the first
    offending pair of mirrors the least touching (alpha, beta) is
    reported.
    """
    ctx = pres.context
    u2, v2 = ctx.u2, ctx.v2
    segments = [
        list(zip(m.chain, m.chain[1:])) or [(m.chain[0], m.chain[0])] for m in ctx.mirrors
    ]
    for i in range(4):
        for j in range(i, 4):
            least = None
            for a, b in segments[i]:
                for c, d in segments[j]:
                    for cand in _parallelogram_candidates(u2, v2, (a, b), (c, d)):
                        if least is not None and cand >= least:
                            break
                        if i == j and cand == (0, 0):
                            continue
                        t_vec = vadd(vscale(cand[0], u2), vscale(cand[1], v2))
                        if segments_touch(a, b, vadd(c, t_vec), vadd(d, t_vec)):
                            least = cand
                            break
            if least is not None:
                alpha, beta = least
                t = vadd(vscale(2 * alpha, pres.lambda1.u), vscale(2 * beta, pres.lambda1.v))
                raise ValidationError(
                    "mirror-disjoint",
                    f"mirror {i + 1} meets the 2*lambda1 translate {t} of mirror {j + 1}",
                )
