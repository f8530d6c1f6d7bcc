"""Differential tests of the crossing kernel against a brute-force reference.

The reference checks every 2*L1 translate of every mirror edge in a
bounding box around the segment, one exact Fraction segment intersection
per translate, and applies the kernel's documented rules: contact at an
endpoint of the segment is ignored, a crossing at a mirror vertex or a
collinear overlap is non-transverse, and a degenerate mirror point on
the open segment is a degenerate incidence.
"""
from fractions import Fraction
from math import ceil, floor, gcd

from hypothesis import example, given
from hypothesis import strategies as st

from netmap import bundled_presentation
from netmap.errors import DegenerateIncidenceError, NonEssentialError, NonTransverseError
from netmap.geometry import interior_crossings, mirror_midpoint_at
from netmap.slope import Slope
from netmap.slopefn import segment_candidates

PRESENTATIONS = {name: bundled_presentation(name) for name in ("main", "double", "euclidean")}


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _double_l1_coords(pres, x):
    """Real (alpha, beta) with x = alpha * 2u + beta * 2v."""
    u, v = pres.lambda1.u, pres.lambda1.v
    det = Fraction(4 * _cross(u, v))
    return _cross(x, (2 * v[0], 2 * v[1])) / det, _cross((2 * u[0], 2 * u[1]), x) / det


def _lattice_points_on_closed_segment(v, w):
    d = _sub(w, v)
    if d[0] == 0:
        if v[0].denominator == 1:
            lo, hi = sorted((v[1], w[1]))
            yield from ((int(v[0]), y) for y in range(ceil(lo), floor(hi) + 1))
        return
    lo, hi = sorted((v[0], w[0]))
    for x in range(ceil(lo), floor(hi) + 1):
        y = v[1] + (x - v[0]) * d[1] / d[0]
        if y.denominator == 1:
            yield (x, int(y))


def _meets_degenerate_point(pres, v, w):
    for pt in _lattice_points_on_closed_segment(v, w):
        if pt in (v, w):
            continue
        for mirror in pres.mirrors:
            if not mirror.degenerate:
                continue
            for h in (mirror.midpoint, (-mirror.midpoint[0], -mirror.midpoint[1])):
                a, b = _double_l1_coords(pres, _sub(pt, h))
                if a.denominator == 1 and b.denominator == 1:
                    return True
    return False


def _translate_box(pres, p, q, a, b):
    corners = [_sub(s, e) for s in (p, q) for e in (a, b)]
    coords = [_double_l1_coords(pres, c) for c in corners]
    alphas = [c[0] for c in coords]
    betas = [c[1] for c in coords]
    return (
        range(floor(min(alphas)) - 1, ceil(max(alphas)) + 2),
        range(floor(min(betas)) - 1, ceil(max(betas)) + 2),
    )


def reference_crossings(pres, v, w):
    """Midpoints of the mirrors crossed by the open segment (v, w), in order."""
    p = (Fraction(v[0]), Fraction(v[1]))
    q = (Fraction(w[0]), Fraction(w[1]))
    if _meets_degenerate_point(pres, p, q):
        raise DegenerateIncidenceError("reference")
    u, lv = pres.lambda1.u, pres.lambda1.v
    d = _sub(q, p)
    hits = []
    for mirror in pres.mirrors:
        if mirror.degenerate:
            continue
        poly = mirror.full_polyline()
        for a0, b0 in zip(poly, poly[1:]):
            alphas, betas = _translate_box(pres, p, q, a0, b0)
            for alpha in alphas:
                for beta in betas:
                    t_vec = (2 * (alpha * u[0] + beta * lv[0]), 2 * (alpha * u[1] + beta * lv[1]))
                    a = (a0[0] + t_vec[0], a0[1] + t_vec[1])
                    b = (b0[0] + t_vec[0], b0[1] + t_vec[1])
                    e = _sub(b, a)
                    den = _cross(d, e)
                    if den == 0:
                        if _cross(_sub(a, p), d) != 0:
                            continue
                        dd = d[0] * d[0] + d[1] * d[1]
                        ta = (_sub(a, p)[0] * d[0] + _sub(a, p)[1] * d[1]) / dd
                        tb = (_sub(b, p)[0] * d[0] + _sub(b, p)[1] * d[1]) / dd
                        lo, hi = max(min(ta, tb), 0), min(max(ta, tb), 1)
                        if lo < hi or (lo == hi and 0 < lo < 1):
                            raise NonTransverseError("reference")
                        continue
                    t = _cross(_sub(a, p), e) / den
                    s = _cross(_sub(a, p), d) / den
                    if not (0 <= t <= 1 and 0 <= s <= 1) or t in (0, 1):
                        continue
                    if s in (0, 1):
                        raise NonTransverseError("reference")
                    mid = (mirror.midpoint[0] + t_vec[0], mirror.midpoint[1] + t_vec[1])
                    hits.append((t, mid))
    hits.sort(key=lambda hit: hit[0])
    return [mid for _, mid in hits]


def _outcome(fn, pres, v, w):
    try:
        return fn(pres, v, w)
    except (NonTransverseError, DegenerateIncidenceError) as exc:
        return type(exc)


def _kernel_midpoints(pres, v, w):
    return [mid for _, mid in interior_crossings(pres, v, w)]


def _agree(name, v, w):
    pres = PRESENTATIONS[name]
    expected = _outcome(reference_crossings, pres, v, w)
    assert _outcome(_kernel_midpoints, pres, v, w) == expected
    return expected


integer_points = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
fractional_coords = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6])
)
fractional_points = st.tuples(fractional_coords, fractional_coords)
presentation_names = st.sampled_from(sorted(PRESENTATIONS))


@given(presentation_names, integer_points, integer_points)
@example("main", (0, 0), (20, 5))     # two transverse crossings
@example("main", (0, 0), (4, -2))     # through a mirror midpoint
@example("main", (2, -2), (2, 0))     # along a mirror edge
@example("main", (-4, 2), (4, -2))    # through a degenerate point
@example("main", (0, -3), (4, -1))    # through the first vertex of a mirror
@example("double", (0, 0), (3, 7))
def test_integer_segments_match_reference(name, v, w):
    if v != w:
        _agree(name, v, w)


@given(presentation_names, fractional_points, fractional_points)
@example("main", (Fraction(1, 2), Fraction(0)), (Fraction(41, 2), Fraction(5)))
def test_fractional_segments_match_reference(name, v, w):
    if v != w:
        _agree(name, v, w)


def _zigzag_segments(name, bound):
    """Every candidate zigzag segment of the slopes of height <= bound."""
    pres = PRESENTATIONS[name]
    segments = []
    for q in range(bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(p, q) != 1 or (q == 0 and p != 1):
                continue
            try:
                segments.extend(segment_candidates(pres, Slope(p, q)))
            except NonEssentialError:
                continue
    return segments


def test_zigzag_segments_match_reference():
    # Every zigzag candidate segment of height <= 6 on main (280 of them).
    outcomes = [_agree("main", v, w) for v, w in _zigzag_segments("main", 6)]
    assert sum(len(o) for o in outcomes if isinstance(o, list)) > 200


def test_reference_sees_failures():
    assert _agree("main", (0, 0), (4, -2)) is NonTransverseError
    assert _agree("main", (2, -2), (2, 0)) is NonTransverseError
    assert _agree("main", (0, -3), (4, -1)) is NonTransverseError
    assert _agree("main", (-4, 2), (4, -2)) is DegenerateIncidenceError


def reference_midpoint(pres, point):
    """The mirror midpoint at a marked point, from the Fraction polyline."""
    table = pres.context.table
    entry = pres.context.lookup.get(table.key(point))
    if entry is None or entry[0] != "P2":
        return f"{point} is not in a postcritical coset"
    mirror = pres.mirrors[entry[1]]
    if mirror.degenerate:
        return point
    poly = mirror.full_polyline()
    for end in (poly[0], poly[-1]):
        t = _sub(point, (int(end[0]), int(end[1])))
        if table.key(t) == table.key((0, 0)):
            return (mirror.midpoint[0] + t[0], mirror.midpoint[1] + t[1])
    return f"{point} is not an endpoint of its class mirror"


@given(presentation_names, integer_points)
@example("main", (0, 0))
def test_mirror_midpoint_matches_reference(name, point):
    pres = PRESENTATIONS[name]
    try:
        got = mirror_midpoint_at(pres, point)
    except ValueError as exc:
        got = str(exc)
    assert got == reference_midpoint(pres, point)


def test_mirror_midpoint_at_every_marked_translate():
    for pres in PRESENTATIONS.values():
        u, v = pres.lambda1.u, pres.lambda1.v
        for h in pres.postcritical:
            for a in range(-2, 3):
                for b in range(-2, 3):
                    pt = (h[0] + 2 * (a * u[0] + b * v[0]), h[1] + 2 * (a * u[1] + b * v[1]))
                    assert mirror_midpoint_at(pres, pt) == reference_midpoint(pres, pt)
