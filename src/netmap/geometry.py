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
the square root of the parallelogram's area, not its length.  Along a
line tn and un step by constants, so only its first and last crossing
can touch an end of pq or of the edge; on a line of more than
``_SHORT_LINE`` crossings the others are built as arithmetic
progressions, with no Python step per crossing.  A
crossing's sort key is the exact integer tn * (L // den), with L the
lcm of the edge denominators: one integer sort orders every crossing
along pq.  Edges parallel to pq never cross it; they are only checked
for overlap and vertex contact.

The edge list is built once per presentation.  A mirror's chain is
symmetric about its midpoint m, so the two edges at m are collinear and
form one edge; a straight mirror is a single edge.  m lies in L1, so a
segment through a translate of m meets a lattice point of class m mod
2*L1.  One scan of the segment's lattice points, stepping the class key
linearly, finds those points and the degenerate mirror points.  A
marked segment of a class plan skips the scan (``walked=True``, passed
by ``slopefn.mirror_crossings`` for exactly those segments): the class
walk that found it has looked up every lattice point of its open
segment in the context's table of marked classes, which holds every
+-h class and all four classes of L1 mod 2*L1, and found none marked.
Every other segment is scanned.  A marked point's mirror midpoint is the point
plus an offset looked up by its class.

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
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter

from .errors import DegenerateIncidenceError, NonTransverseError, ValidationError
from .lattice import Mat2, Vec, _xgcd, cross, mat_vec, vadd, vneg, vscale, vsub
from .presentation import ClassTable, NetMapPresentation, segments_touch

Point = tuple[Fraction, Fraction]

# Lines of translates with more crossings than this build them as
# arithmetic progressions; on shorter ones a loop of Python steps is
# faster (the two break even at about 8 crossings a line).
_SHORT_LINE = 8


@dataclass(frozen=True)
class ScaledMirror:
    degenerate: bool
    midpoint: Vec           # unscaled
    chain: tuple[Vec, ...]  # full polyline, times scale


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
    # Class key of a mirror end -> midpoint minus that end.
    midpoint_offsets: dict[Vec, Vec]
    # (midpoint, a, b, midpoint key or None) for each mirror edge a->b,
    # times scale, with the two collinear middle edges as one.
    edges: tuple[tuple[Vec, Vec, Vec, Vec | None], ...]
    midpoint_keys: frozenset[Vec]    # class keys of the non-degenerate midpoints
    summaries: dict = field(default_factory=dict)  # slope -> PullbackSummary
    plans: dict = field(default_factory=dict)      # class mod 2N -> pullback.ClassPlan
    images: dict = field(default_factory=dict)     # slope -> pullback_slope value


def build_context(pres: NetMapPresentation) -> PresentationContext:
    denoms = [1]
    for mirror in pres.mirrors:
        for p in mirror.full_polyline():
            denoms.append(p[0].denominator)
            denoms.append(p[1].denominator)
    scale = lcm(*denoms)
    table = ClassTable(basis=pres.lambda1, modulus=2 * pres.lambda1.index)
    mirrors = []
    # Validation puts the ends of mirror k in the classes of h_k and -h_k
    # (a degenerate mirror, with h_k in L1, is its own end), and keeps the
    # ends of distinct mirrors in distinct classes.
    midpoint_offsets = {}
    for mirror in pres.mirrors:
        poly = mirror.full_polyline()
        mirrors.append(
            ScaledMirror(
                degenerate=mirror.degenerate,
                midpoint=mirror.midpoint,
                chain=tuple((int(p[0] * scale), int(p[1] * scale)) for p in poly),
            )
        )
        for x, y in (poly[0], poly[-1]):
            end = (int(x), int(y))
            midpoint_offsets[table.key(end)] = vsub(mirror.midpoint, end)
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
    # A chain is symmetric about its midpoint, so the edges on either
    # side of it are collinear: they become one edge, and the lattice
    # scan of interior_crossings finds a segment through the midpoint.
    edges = []
    for m in mirrors:
        half = len(m.chain) // 2
        chain = m.chain[:half] + m.chain[half + 1:]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append((m.midpoint, a, b, table.key(m.midpoint) if i == half - 1 else None))
    return PresentationContext(
        scale=scale,
        mirrors=tuple(mirrors),
        u2=vscale(2 * scale, u),
        v2=vscale(2 * scale, v),
        table=table,
        lookup=lookup,
        degenerate_keys=degenerate_keys,
        midpoint_offsets=midpoint_offsets,
        edges=tuple(edges),
        midpoint_keys=frozenset(e[3] for e in edges if e[3] is not None),
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

    ``point`` must lie in a postcritical coset.  It is a 2*L1 translate
    of the end of its class, so the midpoint is the same translate of
    the mirror's midpoint; a degenerate mirror is its own midpoint.
    """
    ctx = pres.context
    offset = ctx.midpoint_offsets.get(ctx.table.key(point))
    if offset is None:
        raise ValueError(f"{point} is not in a postcritical coset")
    return (point[0] + offset[0], point[1] + offset[1])


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
    pres: NetMapPresentation, v: Point | Vec, w: Point | Vec, *, walked: bool = False
) -> list[tuple[int, Vec]]:
    """Transverse crossings of the open segment (v, w) with the mirrors.

    Returns (key, midpoint) pairs in order along the segment, with
    midpoints in unscaled coordinates.  A key is an exact integer, the
    crossing's segment parameter t in (0, 1) times a factor shared by
    the whole list, so keys compare only within one call.  Raises
    NonTransverseError for non-transverse incidence and
    DegenerateIncidenceError when the open segment meets a degenerate
    mirror point; the first error along the edge list wins, and a
    degenerate point comes before every edge.

    ``walked`` says that v and w are lattice points and that every
    lattice point of the open segment lies outside the marked classes
    (those of +-h and of L1 mod 2*L1), as for the segments of a class
    walk.  Such a segment meets no degenerate point and no midpoint, so
    the lattice scan is skipped.
    """
    ctx = pres.context
    s, u2, v2, edges = ctx.scale, ctx.u2, ctx.v2, ctx.edges
    if type(v[0]) is type(v[1]) is type(w[0]) is type(w[1]) is int:
        p, q = (v[0] * s, v[1] * s), (w[0] * s, w[1] * s)
    else:
        extra = lcm(v[0].denominator, v[1].denominator, w[0].denominator, w[1].denominator)
        p, q = _scaled(v, s * extra), _scaled(w, s * extra)
        if extra != 1:
            u2, v2 = vscale(extra, u2), vscale(extra, v2)
            edges = [(mid, vscale(extra, a), vscale(extra, b), key) for mid, a, b, key in edges]

    met = () if walked else _check_degenerate_incidence(ctx, v, w)

    (px, py), (qx, qy) = p, q
    dx, dy = qx - px, qy - py
    dens = [dx * (b[1] - a[1]) - dy * (b[0] - a[0]) for _, a, b, _ in edges]
    period = lcm(*(den for den in dens if den))

    (u2x, u2y), (v2x, v2y) = u2, v2
    (ux, uy), (vx, vy) = pres.lambda1.u, pres.lambda1.v  # u2 = 2u and v2 = 2v, unscaled
    hits: list[tuple[int, Vec]] = []
    for (mid, a, b, key), den in zip(edges, dens):
        if den == 0:
            # A parallel edge never crosses pq, but it may overlap pq or
            # touch it at a vertex.
            for alpha, beta in _parallelogram_candidates(u2, v2, (p, q), (a, b)):
                t_vec = vadd(vscale(alpha, u2), vscale(beta, v2))
                _line_hit(p, q, vadd(a, t_vec), vadd(b, t_vec))
            continue
        if key in met:
            raise NonTransverseError("segment passes through a mirror endpoint or midpoint")
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
            if hi - lo < _SHORT_LINE:
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
                continue
            # tn and un step by tb and ub and stay in [0, den], so only the
            # first and last j can meet 0 or den (every j when the step is 0).
            if not 0 < tn < den:
                if tb == 0:
                    continue
                lo, tn, un, mx, my = lo + 1, tn + tb, un + ub, mx + jux, my + juy
            n = hi - lo + 1
            if not 0 < tn + (n - 1) * tb < den:
                n -= 1
            if not (0 < un < den and 0 < un + (n - 1) * ub < den):
                raise NonTransverseError("segment passes through a mirror endpoint or midpoint")
            # The other crossings as arithmetic progressions.
            keys = range(tn * mult, (tn + n * tb) * mult, tb * mult) if tb else repeat(tn * mult, n)
            xs = range(mx, mx + n * jux, jux) if jux else repeat(mx, n)
            ys = range(my, my + n * juy, juy) if juy else repeat(my, n)
            hits.extend(zip(keys, zip(xs, ys)))
    hits.sort(key=itemgetter(0))
    return hits


def _check_degenerate_incidence(ctx: PresentationContext, v, w) -> set[Vec]:
    """Scan the lattice points of the open segment (v, w).

    Raises DegenerateIncidenceError at the first degenerate mirror point
    and otherwise returns the class keys of the mirror midpoints met.
    The class key steps linearly from point to point.
    """
    met: set[Vec] = set()
    if not (ctx.degenerate_keys or ctx.midpoint_keys):
        return met
    first, step, count = _lattice_points_on_open_segment(v, w)
    if count <= 0:
        return met
    m = ctx.table.modulus
    (k1, k2), (s1, s2) = ctx.table.key(first), ctx.table.key(step)
    for i in range(count):
        key = ((k1 + i * s1) % m, (k2 + i * s2) % m)
        if key in ctx.degenerate_keys:
            pt = (first[0] + i * step[0], first[1] + i * step[1])
            raise DegenerateIncidenceError(
                f"open segment passes through degenerate mirror point {pt}"
            )
        if key in ctx.midpoint_keys:
            met.add(key)
    return met


def _lattice_points_on_open_segment(v, w) -> tuple[Vec, Vec, int]:
    """(first, step, count): the points first + i*step, 0 <= i < count.

    They run from v to w when all four coordinates are ints, and by
    increasing (x, y) otherwise.
    """
    den = lcm(v[0].denominator, v[1].denominator, w[0].denominator, w[1].denominator)
    a, b = _scaled(v, den), _scaled(w, den)
    if not all(isinstance(c, int) for c in (*v, *w)) and b < a:
        a, b = b, a
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = gcd(dx, dy)
    sx, sy = dx // g, dy // g
    if den == 1:
        return (a[0] + sx, a[1] + sy), (sx, sy), g - 1
    # Lattice points x of the line have den * cross(x, s) = cross(a, s).
    c, r = divmod(a[0] * sy - a[1] * sx, den)
    if r:
        return (0, 0), (sx, sy), 0
    _, i, j = _xgcd(sy, -sx)  # i*sy - j*sx = 1
    x0 = (c * i, c * j)
    # den*x0 - a = lam * s; the open segment is 0 < lam + den*k < g.
    lam = (den * x0[0] - a[0]) // sx if sx else (den * x0[1] - a[1]) // sy
    lo = -lam // den + 1
    hi = (g - lam - 1) // den
    return (x0[0] + lo * sx, x0[1] + lo * sy), (sx, sy), hi - lo + 1


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
    for _, a, b, _ in ctx.edges:
        a, b = vscale(extra, a), vscale(extra, b)
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
