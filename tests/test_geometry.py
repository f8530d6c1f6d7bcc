"""Differential tests of the crossing kernel against a brute-force reference.

The reference checks every 2*L1 translate of every mirror edge in a
bounding box around the segment, one exact Fraction segment intersection
per translate, and applies the kernel's documented rules: contact at an
endpoint of the segment is ignored, a crossing at a mirror vertex or a
collinear overlap is non-transverse, and a degenerate mirror point on
the open segment is a degenerate incidence.  The reference takes
rational ends; the kernel takes lattice points, so a rational segment
(v, w) reaches it as (k*v, k*w) on the presentation scaled by k.
"""
from fractions import Fraction
from functools import cache
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from netmap import bundled_presentation
from netmap.errors import (
    DegenerateIncidenceError,
    NonEssentialError,
    NonTransverseError,
    ZeroVectorError,
)
from netmap.geometry import (
    _check_degenerate_incidence,
    interior_crossings,
    marked_points,
    mirror_midpoint_at,
)
from netmap.lattice import Basis2
from netmap.presentation import parse, scaled, serialize, validate
from netmap.slope import Slope, enumerate_slopes
from netmap.slopefn import mirror_crossings, segment_candidates
from test_pullback import _in_double_l1, random_presentation

PRESENTATIONS = {name: bundled_presentation(name) for name in ("main", "double", "euclidean")}
# main with mirror 3 bent: (2, -2) (3/2, -3/2) (2, -1) (5/2, -1/2) (2, 0).
PRESENTATIONS["bent"] = parse(
    serialize(PRESENTATIONS["main"]).replace(
        "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (5/2,-1/2) (2,0)"
    )
)
# Four straight mirrors and no degenerate one, on a non-rectangular L1.
PRESENTATIONS["straight"] = parse(
    """
name = straight
lambda1 = (3,0) (2,1)
postcritical = (3,2) (1,1) (2,0) (4,1)
correspondence = (3,0) (2,1)
mirror 1 = (3,3) : (3,2)
mirror 2 = (1,2) : (1,1)
mirror 3 = (2,1) : (2,0)
mirror 4 = (4,2) : (4,1)
"""
)


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


def _lattice_form(name, v, w):
    """(pres, k, kv, kw): the named presentation scaled by the lcm k of
    the denominators of v and w, and the segment's ends times k."""
    k = lcm(*(Fraction(c).denominator for c in (*v, *w)))
    pres = PRESENTATIONS[name] if k == 1 else scaled(PRESENTATIONS[name], k)
    kv, kw = ((int(k * c[0]), int(k * c[1])) for c in (v, w))
    return pres, k, kv, kw


def _outcome(fn, pres, v, w):
    try:
        return fn(pres, v, w)
    except (NonTransverseError, DegenerateIncidenceError) as exc:
        return type(exc)


def _scaled_outcome(name, v, w):
    """The kernel's outcome on the lattice form of (v, w), with its
    midpoints scaled back by 1/k."""
    pres, k, kv, kw = _lattice_form(name, v, w)
    got = _outcome(interior_crossings, pres, kv, kw)
    if isinstance(got, list):
        assert all(x % k == 0 and y % k == 0 for x, y in got)
        got = [(x // k, y // k) for x, y in got]
    return got


def _agree(name, v, w):
    expected = _outcome(reference_crossings, PRESENTATIONS[name], v, w)
    assert _scaled_outcome(name, v, w) == expected
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


def _zigzag_segments(pres, bound):
    """Every candidate zigzag segment of the slopes of height <= bound."""
    segments = []
    for s in enumerate_slopes(bound):
        try:
            segments.extend(segment_candidates(pres, s))
        except NonEssentialError:
            continue
    return segments


def test_zigzag_segments_match_reference():
    # Every zigzag candidate segment of height <= 6 on main (280 of them).
    outcomes = [_agree("main", v, w) for v, w in _zigzag_segments(PRESENTATIONS["main"], 6)]
    assert sum(len(o) for o in outcomes if isinstance(o, list)) > 200


def test_reference_sees_failures():
    assert _agree("main", (0, 0), (4, -2)) is NonTransverseError
    assert _agree("main", (2, -2), (2, 0)) is NonTransverseError
    assert _agree("main", (0, -3), (4, -1)) is NonTransverseError
    assert _agree("main", (-4, 2), (4, -2)) is DegenerateIncidenceError


def _mirror_end_segments(directions):
    """Segments (name, v, w) whose only lattice point is a mirror end: the
    end +- 9/10 of each direction, both ways."""
    segments = []
    for name, pres in PRESENTATIONS.items():
        for mirror in pres.mirrors:
            poly = mirror.full_polyline()
            for end in (poly[0], poly[-1]):
                for d in directions:
                    v = (end[0] - Fraction(9, 10) * d[0], end[1] - Fraction(9, 10) * d[1])
                    w = (end[0] + Fraction(9, 10) * d[0], end[1] + Fraction(9, 10) * d[1])
                    segments += [(name, v, w), (name, w, v)]
    return segments


def test_long_segments_through_a_mirror_end_match_reference():
    # The line of translates through the end holds several crossings, and
    # the end can be the first or the last crossing on it.
    segments = _mirror_end_segments(((3, 11), (11, -3), (7, 5), (-5, 9)))
    outcomes = [_agree(name, v, w) for name, v, w in segments]
    assert outcomes.count(NonTransverseError) > 50


def _segments_at_the_mirrors(pres):
    """Segments (v, w) with one end at the middle of a mirror edge, and
    segments through a mirror vertex.

    The translate of an edge through v or w is the first or the last
    translate of its line, and so is a translate of a vertex on the
    segment.  The directions include 2*L1 vectors and their triples,
    along which a line of translates keeps un fixed (a zero step); the
    short segments cross edges along which a line keeps tn fixed.
    """
    u, v = pres.lambda1.u, pres.lambda1.v
    directions = [(3, 11), (-5, 9), (1, 0), (0, 1)]
    directions += [(2 * m * a[0], 2 * m * a[1]) for a in (u, v) for m in (1, 3)]
    segments = []
    for mirror in pres.mirrors:
        poly = mirror.full_polyline()
        for a, b in zip(poly, poly[1:]):
            x = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
            for d in directions:
                y = (x[0] + d[0], x[1] + d[1])
                segments += [(x, y), (y, x)]
        for a in poly:
            for d in directions:
                tip = (Fraction(9, 10) * d[0], Fraction(9, 10) * d[1])
                segments.append(((a[0] - tip[0], a[1] - tip[1]), (a[0] + tip[0], a[1] + tip[1])))
    return segments


def test_end_rule_matches_reference_beyond_the_bundled_presentations():
    # Only the first and last translate of a line can meet v or w, or a
    # mirror end; every line is settled by that rule.
    from test_pullback import random_presentation

    outcomes = []
    for pres in [PRESENTATIONS["bent"], *(random_presentation(seed) for seed in range(5))]:
        lattice_forms = {}
        for v, w in _segments_at_the_mirrors(pres):
            k = lcm(*(c.denominator for c in (*v, *w)))
            big = lattice_forms.setdefault(k, scaled(pres, k))
            kv, kw = ((int(k * c[0]), int(k * c[1])) for c in (v, w))
            expected = _outcome(reference_crossings, pres, v, w)
            got = _outcome(interior_crossings, big, kv, kw)
            if isinstance(got, list):
                assert all(x % k == 0 and y % k == 0 for x, y in got)
                got = [(x // k, y // k) for x, y in got]
            assert got == expected, (pres, v, w)
            outcomes.append(expected)
    assert sum(len(o) for o in outcomes if isinstance(o, list)) > 500
    assert outcomes.count(NonTransverseError) > 20


MAIN_MIDPOINT_SEGMENTS = [
    ((1, -1), (3, -1)),    # through mirror 3's midpoint (2, -1)
    ((5, -3), (7, -3)),    # through its translate (6, -3)
    ((1, 3), (3, 5)),      # through mirror 4's midpoint (2, 4)
    ((Fraction(11, 2), Fraction(-3)), (Fraction(13, 2), Fraction(-3))),
]


@pytest.mark.parametrize(
    "name, v, w",
    [("main", v, w) for v, w in MAIN_MIDPOINT_SEGMENTS]
    + [("bent", v, w) for v, w in MAIN_MIDPOINT_SEGMENTS]
    + [
        ("straight", (Fraction(3, 2), Fraction(1)), (Fraction(5, 2), Fraction(1))),
        ("straight", (0, 3), (8, 1)),  # through (4, 2), mirror 4's midpoint
        ("main", (2, -3), (2, 1)),     # along mirror 3, through its midpoint
    ],
)
def test_segment_through_a_mirror_midpoint_is_not_transverse(name, v, w):
    # The two middle edges of a mirror are one edge of the kernel, so
    # only its lattice scan sees the midpoint; the scan runs before any
    # edge, so it names the midpoint even on a segment along the mirror.
    pres, _, kv, kw = _lattice_form(name, v, w)
    with pytest.raises(NonTransverseError) as err:
        interior_crossings(pres, kv, kw)
    assert str(err.value) == "segment passes through a mirror endpoint or midpoint"
    assert _agree(name, v, w) is NonTransverseError


@pytest.mark.parametrize(
    "v, w, point",
    [
        # Every segment is scanned from v to w.
        ((-2, 1), (6, -3), (0, 0)),
        ((6, -3), (-2, 1), (4, -2)),
        ((Fraction(-1, 2), Fraction(1, 4)), (Fraction(9, 2), Fraction(-9, 4)), (0, 0)),
        ((Fraction(9, 2), Fraction(-9, 4)), (Fraction(-1, 2), Fraction(1, 4)), (4, -2)),
        ((Fraction(0), Fraction(-1, 2)), (Fraction(0), Fraction(21, 2)), (0, 0)),
        ((Fraction(0), Fraction(21, 2)), (Fraction(0), Fraction(-1, 2)), (0, 10)),
    ],
)
def test_degenerate_incidence_names_the_first_point(v, w, point):
    # Each segment meets two or three degenerate points of main; a
    # rational one meets them at k times their points once scaled by k.
    pres, k, kv, kw = _lattice_form("main", v, w)
    with pytest.raises(DegenerateIncidenceError) as err:
        interior_crossings(pres, kv, kw)
    kpoint = (k * point[0], k * point[1])
    assert str(err.value) == f"open segment passes through degenerate mirror point {kpoint}"


def test_bent_mirror_keeps_its_crossings():
    # x = 9/4 meets both bent edges on the right of mirror 3's midpoint.
    v, w = (Fraction(9, 4), Fraction(-2)), (Fraction(9, 4), Fraction(1))
    assert _agree("bent", v, w) == [(2, -1), (2, -1)]
    assert _agree("main", v, w) == []
    outcomes = [_agree("bent", v, w) for v, w in _zigzag_segments(PRESENTATIONS["bent"], 5)]
    assert sum(len(o) for o in outcomes if isinstance(o, list)) > 100


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_scaled_presentation_is_similar(name):
    # Scaling by k keeps validation and the text format, and the kernel's
    # midpoints on an integer segment scale by k.
    pres = PRESENTATIONS[name]
    segments = [((0, 1), (11, -6)), ((3, 2), (-8, 13)), ((1, 1), (24, 7)), ((3, 1), (17, -10))]
    for k in (1, 2, 3, 6, 42):
        big = scaled(pres, k)
        validate(big)
        assert parse(serialize(big)) == big
        for v, w in segments:
            kv, kw = (k * v[0], k * v[1]), (k * w[0], k * w[1])
            expected = _outcome(interior_crossings, pres, v, w)
            if isinstance(expected, list):
                expected = [(k * x, k * y) for x, y in expected]
            assert _outcome(interior_crossings, big, kv, kw) == expected


def _in_class(pres, point, x):
    """Whether the lattice points ``point`` and ``x`` agree mod 2*L1."""
    return _in_double_l1(pres, _sub(point, (int(x[0]), int(x[1]))))


def reference_midpoint(pres, point):
    """The mirror midpoint at a marked point, from the definitions: a
    point in the class of h_k or -h_k is a 2*L1 translate of an end of
    mirror k, and its midpoint is the same translate of the mirror's
    midpoint.  A degenerate mirror is its one point, its own end."""
    for h, mirror in zip(pres.postcritical, pres.mirrors):
        if _in_class(pres, point, h) or _in_class(pres, point, (-h[0], -h[1])):
            poly = mirror.full_polyline()
            for end in (poly[0], poly[-1]):
                if _in_class(pres, point, end):
                    t = _sub(point, (int(end[0]), int(end[1])))
                    return (mirror.midpoint[0] + t[0], mirror.midpoint[1] + t[1])
            return f"{point} is not an endpoint of its class mirror"
    return f"{point} is not in a postcritical coset"


def reference_mark(pres, point):
    """The entry of the context's ``marks`` for the class of a lattice
    point, from the definitions; None for an unmarked class."""
    for k, h in enumerate(pres.postcritical):
        if _in_class(pres, point, h) or _in_class(pres, point, (-h[0], -h[1])):
            return k, _sub(reference_midpoint(pres, point), point)
    if not pres.lambda1.contains(point):
        return None
    if any(not m.degenerate and _in_class(pres, point, m.midpoint) for m in pres.mirrors):
        return None, (0, 0)
    return None, None


def _one_point_per_class(pres):
    """The lattice points (x, y) with 0 <= x < n1 and 0 <= y < 4N / n1,
    where n1 > 0 is least with (n1, 0) in 2*L1: one in each class of
    Z^2 mod 2*L1, a group of order 4N."""
    order = 4 * pres.lambda1.index
    n1 = next(x for x in range(1, order + 1) if _in_double_l1(pres, (x, 0)))
    return [(x, y) for x in range(n1) for y in range(order // n1)]


def test_marks_match_the_definitions():
    from test_pullback import random_presentation

    presentations = [*PRESENTATIONS.values(), *(random_presentation(seed) for seed in range(40))]
    for pres in presentations:
        table = pres.context.table
        points = _one_point_per_class(pres)
        assert len({table.key(x) for x in points}) == len(points) == 4 * pres.lambda1.index
        expected = {}
        for x in points:
            if (mark := reference_mark(pres, x)) is not None:
                expected[table.key(x)] = mark
        assert pres.context.marks == expected, pres


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
    # The table of midpoint - end offsets against the Fraction polylines,
    # on every 2*L1 translate of +-h near the origin.
    for _, pres in _presentations_with_random_draws():
        u, v = pres.lambda1.u, pres.lambda1.v
        for h in pres.postcritical:
            for s in (1, -1):
                for a in range(-2, 3):
                    for b in range(-2, 3):
                        pt = (
                            s * h[0] + 2 * (a * u[0] + b * v[0]),
                            s * h[1] + 2 * (a * u[1] + b * v[1]),
                        )
                        assert mirror_midpoint_at(pres, pt) == reference_midpoint(pres, pt)


def _marked(pres, pt):
    """Whether a lattice point lies in L1 or in some +-h + 2*L1."""
    if pres.lambda1.contains(pt):
        return True
    u, v = pres.lambda1.u, pres.lambda1.v
    double = Basis2((2 * u[0], 2 * u[1]), (2 * v[0], 2 * v[1]))
    return any(
        double.contains(_sub(pt, (s * h[0], s * h[1])))
        for h in pres.postcritical
        for s in (1, -1)
    )


def _presentations_with_random_draws():
    from test_pullback import random_presentation

    randoms = [(f"random {seed}", random_presentation(seed)) for seed in range(12)]
    return [*PRESENTATIONS.items(), *randoms]


def test_plan_segments_meet_no_marked_lattice_point():
    # The walk that makes a plan segment has already checked every lattice
    # point of its open segment, so the kernel's lattice scan finds
    # nothing there.
    checked = 0
    for name, pres in _presentations_with_random_draws():
        for v, w in _zigzag_segments(pres, 8):
            g = gcd(w[0] - v[0], w[1] - v[1])
            step = ((w[0] - v[0]) // g, (w[1] - v[1]) // g)
            for i in range(1, g):
                assert not _marked(pres, (v[0] + i * step[0], v[1] + i * step[1])), (name, v, w)
            assert _check_degenerate_incidence(pres.context, v, w) is None
            checked += 1
    assert checked > 3000


_random_draw = cache(random_presentation)


@given(
    st.sampled_from([*sorted(PRESENTATIONS), *range(40)]),
    integer_points,
    integer_points.filter(lambda p: p != (0, 0)),
    st.integers(min_value=0, max_value=60),
)
def test_marked_points_match_brute_force(which, start, step, count):
    # Every point start + i*step, i = 1..count, in a marked class (L1 or
    # some +-h + 2*L1), in order, each with its class's marks entry.
    pres = PRESENTATIONS[which] if isinstance(which, str) else _random_draw(which)
    ctx = pres.context
    points = [(i, (start[0] + i * step[0], start[1] + i * step[1])) for i in range(1, count + 1)]
    expected = [(i, ctx.marks[ctx.table.key(pt)]) for i, pt in points if _marked(pres, pt)]
    assert list(marked_points(ctx, start, step, count)) == expected


@pytest.mark.parametrize(
    "v, w, error",
    [
        ((-4, 2), (4, -2), DegenerateIncidenceError),  # through (0, 0)
        ((0, 0), (4, -2), NonTransverseError),         # through mirror 3's midpoint
        ((0, 5), (4, 3), NonTransverseError),          # through mirror 4's midpoint
        # Through mirror 3's midpoint (2, -1) first, then (0, 0): a
        # degenerate point anywhere on the segment wins.
        ((4, -2), (-4, 2), DegenerateIncidenceError),
    ],
)
def test_segments_that_are_not_walked_keep_the_scan(v, w, error):
    # Segments of slope -1/2 between marked points of main that pass
    # through a marked point: only the lattice scan sees it, also once
    # the plan of their class holds its marked segments.
    pres = PRESENTATIONS["main"]
    assert list(segment_candidates(pres, Slope(-1, 2)))
    with pytest.raises(error):
        interior_crossings(pres, v, w)
    with pytest.raises(error):
        mirror_crossings(pres, v, w)


def test_every_zigzag_segment_is_scanned(monkeypatch):
    # The zigzag's segments take the kernel's lattice scan like any
    # other, once each, and the scan raises nothing on them.
    import netmap.geometry

    scanned, raised = [], []
    scan = netmap.geometry._check_degenerate_incidence

    def record(ctx, v, w):
        scanned.append((v, w))
        try:
            return scan(ctx, v, w)
        except (NonTransverseError, DegenerateIncidenceError) as exc:
            raised.append((v, w, exc))
            raise

    monkeypatch.setattr(netmap.geometry, "_check_degenerate_incidence", record)
    total = 0
    for name, pres in PRESENTATIONS.items():
        segments = _zigzag_segments(pres, 6)
        for v, w in segments:
            try:
                mirror_crossings(pres, v, w)
            except NonTransverseError:
                pass
        assert scanned == segments, name
        assert raised == [], name
        total += len(segments)
        scanned.clear()
    assert total > 1000


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_zero_length_segment_is_refused_before_any_work(name, monkeypatch):
    # A marked point, a mirror midpoint and an unmarked point, each as a
    # segment from itself to itself: a typed error, before the lattice
    # scan or either end lookup runs.
    import netmap.geometry
    import netmap.slopefn

    def called(*args):
        pytest.fail("work ran on a segment of length zero")

    for module, attr in ((netmap.geometry, "_check_degenerate_incidence"),
                         (netmap.slopefn, "mirror_midpoint_at"),
                         (netmap.slopefn, "interior_crossings")):
        monkeypatch.setattr(module, attr, called)
    pres = PRESENTATIONS[name]
    for v in (pres.postcritical[2], pres.mirrors[2].midpoint, (1, 1)):
        with pytest.raises(ZeroVectorError, match="has length zero$"):
            interior_crossings(pres, v, v)
        with pytest.raises(ZeroVectorError, match="has length zero$"):
            mirror_crossings(pres, v, v)
