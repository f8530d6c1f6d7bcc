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

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from netmap import bundled_presentation, geometry
from netmap.errors import DegenerateIncidenceError, NonEssentialError, NonTransverseError
from netmap.geometry import _check_degenerate_incidence, interior_crossings, mirror_midpoint_at
from netmap.lattice import Basis2
from netmap.presentation import parse, serialize
from netmap.slope import Slope, enumerate_slopes
from netmap.slopefn import mirror_crossings, segment_candidates

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


def test_progressions_match_the_per_step_loop(monkeypatch):
    # Lines of more than _SHORT_LINE crossings are built as arithmetic
    # progressions.  With the threshold at 2 every line of 3 or more takes
    # that path, and must give what the per-step loop gives.
    cases = _mirror_end_segments(((3, 11), (11, -3), (7, 31), (-23, 13)))
    for name, pres in PRESENTATIONS.items():
        for p, q in ((301, 1000), (-777, 1024), (1000, 1999), (-4001, 3000)):
            try:
                cases += [(name, v, w) for v, w in segment_candidates(pres, Slope.of(p, q))]
            except NonEssentialError:
                continue

    def outcomes():
        return [_outcome(_kernel_midpoints, PRESENTATIONS[name], v, w) for name, v, w in cases]

    monkeypatch.setattr(geometry, "_SHORT_LINE", 10**9)
    expected = outcomes()
    monkeypatch.setattr(geometry, "_SHORT_LINE", 2)
    assert outcomes() == expected
    assert expected.count(NonTransverseError) > 50
    assert sum(len(o) for o in expected if isinstance(o, list)) > 10_000


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
    ],
)
def test_segment_through_a_mirror_midpoint_is_not_transverse(name, v, w):
    # The two middle edges of a mirror are one edge of the kernel, so
    # only its lattice scan sees the midpoint.
    with pytest.raises(NonTransverseError) as err:
        interior_crossings(PRESENTATIONS[name], v, w)
    assert str(err.value) == "segment passes through a mirror endpoint or midpoint"
    assert _agree(name, v, w) is NonTransverseError


@pytest.mark.parametrize(
    "v, w, point",
    [
        # Int ends are scanned from v to w, others by increasing (x, y).
        ((-2, 1), (6, -3), (0, 0)),
        ((6, -3), (-2, 1), (4, -2)),
        ((Fraction(-1, 2), Fraction(1, 4)), (Fraction(9, 2), Fraction(-9, 4)), (0, 0)),
        ((Fraction(9, 2), Fraction(-9, 4)), (Fraction(-1, 2), Fraction(1, 4)), (0, 0)),
        ((Fraction(0), Fraction(-1, 2)), (Fraction(0), Fraction(21, 2)), (0, 0)),
        ((Fraction(0), Fraction(21, 2)), (Fraction(0), Fraction(-1, 2)), (0, 0)),
    ],
)
def test_degenerate_incidence_names_the_first_point(v, w, point):
    # Each segment meets two or three degenerate points of main.
    with pytest.raises(DegenerateIncidenceError) as err:
        interior_crossings(PRESENTATIONS["main"], v, w)
    assert str(err.value) == f"open segment passes through degenerate mirror point {point}"


def test_bent_mirror_keeps_its_crossings():
    # x = 9/4 meets both bent edges on the right of mirror 3's midpoint.
    v, w = (Fraction(9, 4), Fraction(-2)), (Fraction(9, 4), Fraction(1))
    assert _agree("bent", v, w) == [(2, -1), (2, -1)]
    assert _agree("main", v, w) == []
    outcomes = [_agree("bent", v, w) for v, w in _zigzag_segments(PRESENTATIONS["bent"], 5)]
    assert sum(len(o) for o in outcomes if isinstance(o, list)) > 100


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
    # point of its open segment, so the kernel's lattice scan is skipped
    # for it; the scan must indeed find nothing there, and the kernel
    # must give the same answer with and without it.
    checked = 0
    for name, pres in _presentations_with_random_draws():
        for v, w in _zigzag_segments(pres, 8):
            g = gcd(w[0] - v[0], w[1] - v[1])
            step = ((w[0] - v[0]) // g, (w[1] - v[1]) // g)
            for i in range(1, g):
                assert not _marked(pres, (v[0] + i * step[0], v[1] + i * step[1])), (name, v, w)
            assert _check_degenerate_incidence(pres.context, v, w) == set()
            assert _outcome(_kernel_midpoints, pres, v, w) == _outcome(
                _walked_midpoints, pres, v, w
            )
            checked += 1
    assert checked > 3000


def _walked_midpoints(pres, v, w):
    return [mid for _, mid in interior_crossings(pres, v, w, walked=True)]


@pytest.mark.parametrize(
    "v, w, error",
    [
        ((-4, 2), (4, -2), DegenerateIncidenceError),  # through (0, 0)
        ((0, 0), (4, -2), NonTransverseError),         # through mirror 3's midpoint
        ((0, 5), (4, 3), NonTransverseError),          # through mirror 4's midpoint
    ],
)
def test_segments_that_are_not_walked_keep_the_scan(v, w, error):
    # Segments of slope -1/2 between marked points of main that pass
    # through a marked point: only the lattice scan sees it.  They are
    # not plan segments, so they keep the scan even once the plan of
    # their class holds its marked segments.
    pres = PRESENTATIONS["main"]
    assert list(segment_candidates(pres, Slope(-1, 2)))
    with pytest.raises(error):
        interior_crossings(pres, v, w)
    with pytest.raises(error):
        mirror_crossings(pres, v, w)


def test_only_plan_segments_skip_the_scan(monkeypatch):
    # The zigzag's segments come from plans and are never scanned; the
    # same segments moved off their plan's start point are.
    import netmap.geometry

    scanned = []
    scan = netmap.geometry._check_degenerate_incidence
    monkeypatch.setattr(
        netmap.geometry, "_check_degenerate_incidence",
        lambda ctx, v, w: scanned.append((v, w)) or scan(ctx, v, w),
    )
    moved_checks = 0
    for name, pres in PRESENTATIONS.items():
        segments = _zigzag_segments(pres, 6)
        for v, w in segments:
            try:
                mirror_crossings(pres, v, w)
            except (NonTransverseError, DegenerateIncidenceError):
                pass
        assert scanned == [], name
        if not segments:  # double: no slope of height <= 6 is essential
            continue
        (ux, uy), (v, w) = pres.lambda1.u, segments[0]
        moved = ((v[0] + 2 * ux, v[1] + 2 * uy), (w[0] + 2 * ux, w[1] + 2 * uy))
        try:
            mirror_crossings(pres, *moved)
        except (NonTransverseError, DegenerateIncidenceError):
            pass
        assert scanned == [moved], name
        scanned.clear()
        moved_checks += 1
    assert moved_checks == 4
