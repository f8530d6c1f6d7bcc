import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from netmap.halfspace import (
    INFINITY_POINT,
    HalfSpace,
    Kind,
    boundary_interval,
    cover_certificate,
    exclusion_halfspace,
    halfspace_from_data,
    modulus,
)
from netmap.quadext import QuadExt
from netmap.slope import Slope

F = Fraction

# Half-space data of the bundled example: slope, image, delta, C, R, bounded.
TABLE = [
    ("-1/2", "0", F(6), F(2), QuadExt.sqrt(6), True),
    ("-1/4", "1/6", F(2, 5), F(32, 3), F(10, 3) * QuadExt.sqrt(10), True),
    ("1/8", "1/4", F(2), F(0), 4 * QuadExt.sqrt(2), False),
    ("1/4", "1/2", F(2, 5), F(-16, 3), F(2, 3) * QuadExt.sqrt(10), True),
    ("1/3", "0", F(1, 2), F(-3), F(1, 2) * QuadExt.sqrt(2), True),
    ("7/16", "1/4", F(6), F(-88, 43), F(12, 43) * QuadExt.sqrt(6), True),
    ("1/2", "1/3", F(2, 5), F(-4, 3), F(1, 3) * QuadExt.sqrt(10), True),
    ("3/4", "1/2", F(6), F(0), F(2, 3) * QuadExt.sqrt(6), True),
]


def table_spaces(pres):
    return [exclusion_halfspace(pres, Slope.parse(row[0])) for row in TABLE]


class TestModulus:
    def test_at_i(self):
        assert modulus((F(0), F(1)), Slope(0, 1)) == 1
        assert modulus((F(0), F(1)), Slope(1, 0)) == 1

    def test_at_2i(self):
        assert modulus((F(0), F(2)), Slope(0, 1)) == 2

    def test_generic_point(self):
        # Im(tau)/|p tau + q|^2 at tau = 1/2 + 3i/4, slope 2/3.
        tau = (F(1, 2), F(3, 4))
        expected = F(3, 4) / ((F(1) + 3) ** 2 + (F(3, 2)) ** 2)
        assert modulus(tau, Slope(2, 3)) == expected


class TestHoroballEquivariance:
    # Generators of the isometry group action on boundary slopes:
    # z -> -conj(z), z -> z + 1, z -> -1/z.
    GENERATORS = [
        ("-conj", ((-1, 0), (0, 1)), True),
        ("shift", ((1, 1), (0, 1)), False),
        ("invert", ((0, -1), (1, 0)), False),
    ]

    def _apply(self, matrix, conjugating, tau):
        (a, b), (c, d) = matrix
        x, y = tau
        if conjugating:
            y = -y
        # (a z + b)/(c z + d) on z = x + iy, exact rational arithmetic.
        nre, nim = a * x + b, a * y
        dre, dim = c * x + d, c * y
        den = dre * dre + dim * dim
        return ((nre * dre + nim * dim) / den, (nim * dre - nre * dim) / den)

    def test_exact_equivariance_on_random_points(self):
        rng = random.Random(20260810)
        for _ in range(100):
            x = F(rng.randint(-40, 40), rng.randint(1, 12))
            y = F(rng.randint(1, 40), rng.randint(1, 12))
            p = rng.randint(-9, 9)
            q = rng.randint(-9, 9)
            if p == 0 and q == 0:
                q = 1
            s = Slope.of(p, q)
            for _name, matrix, conjugating in self.GENERATORS:
                (a, b), (c, d) = matrix
                # The map sends the boundary point p/q to p'/q'.
                pp, qq = a * s.p + b * s.q, c * s.p + d * s.q
                x2, y2 = self._apply(matrix, conjugating, (x, y))
                lhs = y2 / ((qq * x2 - pp) ** 2 + (qq * y2) ** 2)
                rhs = y / ((s.q * x - s.p) ** 2 + (s.q * y) ** 2)
                assert lhs == rhs


class TestExclusionHalfspace:
    @pytest.mark.parametrize("text,image,delta,center,radius,bounded", TABLE)
    def test_published_rows(self, main_pres, text, image, delta, center, radius, bounded):
        h = exclusion_halfspace(main_pres, Slope.parse(text))
        assert str(h.image_slope) == image
        assert h.delta == delta
        assert h.center == center
        assert h.radius == radius
        assert (h.kind is Kind.INSIDE_CIRCLE) == bounded

    def test_none_for_fixed_slopes(self, main_pres):
        assert exclusion_halfspace(main_pres, Slope(1, 0)) is None
        assert exclusion_halfspace(main_pres, Slope(0, 1)) is None

    def test_none_for_inessential(self, double_pres):
        assert exclusion_halfspace(double_pres, Slope(0, 1)) is None

    @pytest.mark.parametrize("text,image,delta,center,radius,bounded", TABLE)
    def test_inversion_identity(
        self, main_pres, text, image, delta, center, radius, bounded
    ):
        h = exclusion_halfspace(main_pres, Slope.parse(text))
        if h.slope.p == 0 or h.image_slope.p == 0:
            return
        lhs = h.radius.square().as_fraction()
        rhs = (h.center + F(h.slope.q, h.slope.p)) * (
            h.center + F(h.image_slope.q, h.image_slope.p)
        )
        assert lhs == rhs

    def test_vertical_case_orientation(self):
        # Equal radii: delta = p^2/p'^2.  Slope 1 below image infinity
        # puts the half-space left of the bisector; swapped, right.
        h = halfspace_from_data(Slope(1, 1), Slope(1, 0), F(1))
        assert h.kind is Kind.LEFT_OF_VERTICAL
        assert h.center == F(-1, 2)
        h2 = halfspace_from_data(Slope(1, 0), Slope(1, 1), F(1))
        assert h2.kind is Kind.RIGHT_OF_VERTICAL
        assert h2.center == F(-1, 2)


class TestBoundaryInterval:
    def test_inside_circle_interval(self, main_pres):
        h = exclusion_halfspace(main_pres, Slope(1, 3))
        arc = boundary_interval(h)
        assert arc.start == QuadExt(-3) - F(1, 2) * QuadExt.sqrt(2)
        assert arc.end == QuadExt(-3) + F(1, 2) * QuadExt.sqrt(2)
        # Infinity is neither interior nor an end.
        assert not arc.wraps and not arc.contains(None)
        assert arc.contains(QuadExt(-3))
        assert not arc.contains(arc.start)

    def test_outside_circle_interval(self, main_pres):
        h = exclusion_halfspace(main_pres, Slope(1, 8))
        arc = boundary_interval(h)
        assert arc.start == 4 * QuadExt.sqrt(2)
        assert arc.end == -(4 * QuadExt.sqrt(2))
        assert arc.wraps and arc.contains(None)
        assert arc.contains(QuadExt(-6)) and arc.contains(QuadExt(6))
        assert not arc.contains(QuadExt(0))

    def test_vertical_interval(self):
        x0 = QuadExt(F(-1, 2))
        left = boundary_interval(halfspace_from_data(Slope(1, 1), Slope(1, 0), F(1)))
        right = boundary_interval(halfspace_from_data(Slope(1, 0), Slope(1, 1), F(1)))
        # Infinity is an end of both arcs, interior to neither.
        assert (left.start, left.end, left.wraps) == (None, x0, False)
        assert (right.start, right.end, right.wraps) == (x0, None, False)
        assert left.contains(QuadExt(-1)) and not left.contains(QuadExt(0))
        assert right.contains(QuadExt(0)) and not right.contains(QuadExt(-1))
        assert not left.contains(x0) and not right.contains(x0)
        assert not left.contains(None) and not right.contains(None)


class TestCoverCertificate:
    def test_single_inside_circle_cannot_cover(self, main_pres):
        h = exclusion_halfspace(main_pres, Slope(1, 3))
        verdict = cover_certificate([h])
        assert not verdict.covered
        assert verdict.uncovered_intervals

    def test_two_disjoint_outside_circles_cover(self):
        h1 = halfspace_from_data(Slope(0, 1), Slope(1, 2), F(8))
        h2 = halfspace_from_data(Slope(0, 1), Slope(-1, 2), F(8))
        assert h1.kind is Kind.OUTSIDE_CIRCLE and h2.kind is Kind.OUTSIDE_CIRCLE
        # The excluded intervals [end, start] are disjoint.
        b1, b2 = boundary_interval(h1), boundary_interval(h2)
        assert b1.start < b2.end or b2.start < b1.end
        verdict = cover_certificate([h1, h2])
        assert verdict.covered

    def test_full_table_covers(self, main_pres):
        verdict = cover_certificate(table_spaces(main_pres))
        assert verdict.covered

    def test_six_space_subfamily_covers(self, main_pres):
        six = [
            h
            for h in table_spaces(main_pres)
            if str(h.slope) not in ("-1/2", "7/16")
        ]
        assert cover_certificate(six).covered

    def test_tangency_gives_rational_leftover(self):
        # Two inside circles tangent at 0 plus an outside circle whose
        # excluded interval they cover except for the tangency point.
        left = halfspace_from_data(Slope(1, 2), Slope(1, 1), F(25, 16))
        # Engineered data: radius 2 circles centred at -2 and 2, and an
        # outside exclusion inside (-4, 4).
        import netmap.halfspace as hs

        a = hs.HalfSpace(Kind.INSIDE_CIRCLE, F(-2), QuadExt(2), Slope(1, 2), Slope(1, 1), F(1, 2))
        b = hs.HalfSpace(Kind.INSIDE_CIRCLE, F(2), QuadExt(2), Slope(1, 3), Slope(1, 1), F(1, 2))
        out = hs.HalfSpace(Kind.OUTSIDE_CIRCLE, F(0), QuadExt(3), Slope(1, 4), Slope(1, 1), F(2))
        verdict = cover_certificate([a, b, out])
        assert not verdict.covered
        assert not verdict.uncovered_intervals
        assert [str(p) for p in verdict.leftover_points] == ["0"]
        assert verdict.leftover_points[0].rational

    def test_vertical_infinity_is_leftover_not_interior(self):
        lv = halfspace_from_data(Slope(1, 1), Slope(1, 0), F(1))
        rv = halfspace_from_data(Slope(1, 0), Slope(1, 1), F(1))
        verdict = cover_certificate([lv, rv])
        assert not verdict.covered
        points = {str(p) for p in verdict.leftover_points}
        # The shared abscissa and the point at infinity both need checks.
        assert points == {"-1/2", INFINITY_POINT}
        assert not verdict.uncovered_intervals


def _rational_between(x: QuadExt, y: QuadExt) -> Fraction:
    bits = 8
    while True:
        _, x_hi = x.enclosure(bits)
        y_lo, _ = y.enclosure(bits)
        if x_hi < y_lo:
            return (x_hi + y_lo) / 2
        bits *= 2


def _interior(h: HalfSpace, x: QuadExt | None) -> bool:
    """Whether x (None for infinity) is interior to the boundary set of
    h, straight from the definition of each kind."""
    if x is None:
        return h.kind is Kind.OUTSIDE_CIRCLE
    c = QuadExt(h.center)
    if h.kind is Kind.LEFT_OF_VERTICAL:
        return x < c
    if h.kind is Kind.RIGHT_OF_VERTICAL:
        return x > c
    lo, hi = h.endpoints()
    if h.kind is Kind.INSIDE_CIRCLE:
        return lo < x < hi
    return x < lo or x > hi


def reference_cover(spaces: list[HalfSpace]):
    """(leftovers, some gap uncovered) by testing every end and one
    rational point strictly inside every gap between ends."""
    finite = sorted(
        {e for h in spaces for e in (h.endpoints() or (QuadExt(h.center),))}
    )
    infinity_is_end = any(h.radius is None for h in spaces)
    ends = finite + [None] * infinity_is_end
    samples = [finite[0] - 1, finite[-1] + 1]
    samples += [QuadExt(_rational_between(a, b)) for a, b in zip(finite, finite[1:])]
    if not infinity_is_end:
        samples.append(None)

    def covered(x):
        return any(_interior(h, x) for h in spaces)

    leftovers = [
        (INFINITY_POINT if e is None else str(e), e is None or e.is_rational)
        for e in ends
        if not covered(e)
    ]
    return leftovers, not all(covered(x) for x in samples)


_DUMMY = (Slope(1, 1), Slope(1, 0), F(1))
_abscissas = st.integers(-8, 8).map(lambda n: F(n, 2))
_radii = st.one_of(
    st.integers(1, 6).map(lambda n: QuadExt(F(n, 2))),
    st.builds(
        lambda n, k: F(n, 2) * QuadExt.sqrt(k), st.integers(1, 4), st.sampled_from([2, 3])
    ),
)
# Small pools of centres and radii make shared ends and tangencies common.
_families = st.lists(
    st.one_of(
        st.builds(
            lambda kind, c, r: HalfSpace(kind, c, r, *_DUMMY),
            st.sampled_from([Kind.INSIDE_CIRCLE, Kind.OUTSIDE_CIRCLE]),
            _abscissas,
            _radii,
        ),
        st.builds(
            lambda kind, x0: HalfSpace(kind, x0, None, *_DUMMY),
            st.sampled_from([Kind.LEFT_OF_VERTICAL, Kind.RIGHT_OF_VERTICAL]),
            _abscissas,
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, derandomize=True)
@given(_families)
def test_cover_certificate_matches_per_kind_reference(spaces):
    verdict = cover_certificate(spaces)
    leftovers, gap_uncovered = reference_cover(spaces)
    assert [(str(p), p.rational) for p in verdict.leftover_points] == leftovers
    assert bool(verdict.uncovered_intervals) == gap_uncovered
    assert verdict.covered == (not leftovers and not gap_uncovered)
    assert verdict.certifiable == (not gap_uncovered)
