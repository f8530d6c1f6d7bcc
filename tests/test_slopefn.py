import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import netmap.slopefn as slopefn
from netmap.errors import (
    DegenerateIncidenceError,
    NonEssentialError,
    NonTransverseError,
    ZigzagError,
)
from netmap.geometry import interior_crossings, point_on_any_mirror
from netmap.pullback import analyze_slope
from netmap.slope import INESSENTIAL, Slope, enumerate_slopes
from netmap.slopefn import (
    find_segment,
    mirror_crossings,
    pullback_slope,
    pullback_slope_long_segment,
    pullback_slope_via_residues,
    _alternating_sum,
    slope_orbit,
    zigzag_trace,
)

coprime_pairs = st.tuples(
    st.integers(min_value=-25, max_value=25), st.integers(min_value=0, max_value=25)
).filter(lambda pq: (pq[0], pq[1]) != (0, 0) and gcd(pq[0], pq[1]) == 1)


def reduced_slopes(bound):
    out = [Slope(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(p, q) == 1:
                out.append(Slope(p, q))
    return out


class TestFindSegment:
    # Segment table of the bundled example: (v, w) with w = v + t (q, p).
    CASES = [
        ("3/4", (0, 0), (4, 3)),     # q = 0 mod 4, 2p+q = 0 mod 5
        ("1/4", (0, 0), (20, 5)),    # q = 0 mod 4, 2p+q != 0
        ("-1/2", (2, 0), (6, -2)),   # q = 2 mod 4, 2p+q = 0
        ("1/2", (0, 0), (6, 3)),     # q = 2 mod 4, 2p+q = +-1
        ("3/2", (0, 0), (2, 3)),     # q = 2 mod 4, 2p+q = +-2
        ("1/3", (2, 0), (14, 4)),    # q odd, 2p+q = 0
        ("0/1", (0, 0), (2, 0)),     # q odd, 2p+q = +-1
        ("1/1", (0, 0), (6, 6)),     # q odd, 2p+q = +-2
    ]

    @pytest.mark.parametrize("text,v,w", CASES)
    def test_published_segments(self, main_pres, text, v, w):
        assert find_segment(main_pres, Slope.parse(text)) == (v, w)

    def test_infinity_segment(self, main_pres):
        assert find_segment(main_pres, Slope(1, 0)) == ((0, 0), (0, 5))

    def test_requires_essential_component(self, double_pres):
        with pytest.raises(NonEssentialError):
            find_segment(double_pres, Slope(0, 1))

    @given(coprime_pairs)
    def test_segment_is_short_multiple_of_direction(self, main_pres, pq):
        s = Slope.of(*pq)
        v, w = find_segment(main_pres, s)
        d = analyze_slope(main_pres, s).d
        diff = (w[0] - v[0], w[1] - v[1])
        t = diff[0] // s.q if s.q else diff[1] // s.p
        assert diff == (t * s.q, t * s.p)
        assert 1 <= abs(t) <= 2 * d


class TestMirrorCrossings:
    def test_no_interior_crossing(self, main_pres):
        # Slope 3/2 joins (0,0) to (2,3) and meets no mirror interior;
        # the endpoint mirrors are centred at (0,0) and (2,4).
        assert mirror_crossings(main_pres, (0, 0), (2, 3)) == [(0, 0), (2, 4)]

    def test_interior_count_for_quarter_slope(self, main_pres):
        mids = mirror_crossings(main_pres, (0, 0), (20, 5))
        assert mids[0] == (0, 0) and mids[-1] == (20, 5)
        assert mids[1:-1] == [(6, 2), (14, 3)]

    def test_long_segment_variant_crosses_two_mirrors(self, main_pres):
        # The off-lattice segment from (1/2, 0) to (41/2, 5) meets two
        # spin mirrors, centred at (6,2) and (14,3).
        hits = interior_crossings(
            main_pres, (Fraction(1, 2), Fraction(0)), (Fraction(41, 2), Fraction(5))
        )
        assert [mid for _, mid in hits] == [(6, 2), (14, 3)]

    def test_translation_equivariance(self, main_pres):
        base = mirror_crossings(main_pres, (0, 0), (2, 3))
        for a in (-2, 1, 3):
            for b in (-1, 2):
                shift = (4 * a + 0 * b, -2 * a + 10 * b)
                moved = mirror_crossings(
                    main_pres,
                    (0 + shift[0], 0 + shift[1]),
                    (2 + shift[0], 3 + shift[1]),
                )
                assert moved == [(m[0] + shift[0], m[1] + shift[1]) for m in base]

    def test_segment_through_midpoint_is_nontransverse(self, main_pres):
        with pytest.raises(NonTransverseError):
            interior_crossings(main_pres, (0, 0), (4, -2))

    def test_segment_along_mirror_is_nontransverse(self, main_pres):
        with pytest.raises(NonTransverseError):
            interior_crossings(main_pres, (2, -2), (2, 0))

    def test_degenerate_point_incidence(self, main_pres):
        with pytest.raises(DegenerateIncidenceError):
            interior_crossings(main_pres, (-4, 2), (4, -2))


class TestPullbackSlope:
    WORKED = [
        ("1/4", "1/2"),
        ("3/2", "1"),
        ("inf", "inf"),
        ("1/3", "0"),
        ("0", "0"),
        # Remaining image column of the half-space table.
        ("-1/2", "0"),
        ("-1/4", "1/6"),
        ("1/8", "1/4"),
        ("7/16", "1/4"),
        ("1/2", "1/3"),
        ("3/4", "1/2"),
    ]

    @pytest.mark.parametrize("text,expected", WORKED)
    def test_worked_values(self, main_pres, text, expected):
        assert str(pullback_slope(main_pres, Slope.parse(text))) == expected

    def test_closed_form_worked_values(self):
        assert pullback_slope_via_residues(Slope.of(3, 2)) == Slope(1, 1)
        assert pullback_slope_via_residues(Slope.of(1, 4)) == Slope(1, 2)
        assert pullback_slope_via_residues(Slope.of(-1, 2)) == Slope(0, 1)

    def test_oracle_equivalence_sample(self, main_pres):
        for s in reduced_slopes(20):
            assert pullback_slope(main_pres, s) == pullback_slope_via_residues(s)

    def test_inessential_exactly_when_no_essential_component(self, double_pres):
        for s in reduced_slopes(8):
            expected = analyze_slope(double_pres, s).essential == 0
            assert (pullback_slope(double_pres, s) is INESSENTIAL) == expected

    def test_zigzag_delta_in_sublattice(self, main_pres):
        trace = zigzag_trace(main_pres, Slope.of(1, 4))
        assert trace.delta == (4, 3)
        assert trace.midpoints == ((0, 0), (6, 2), (14, 3), (20, 5))
        assert trace.result == Slope(1, 2)

    @given(
        st.lists(
            st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
            min_size=2,
            max_size=40,
        )
    )
    def test_alternating_sum_matches_step_loop(self, midpoints):
        total = (0, 0)
        for i in range(len(midpoints) - 1):
            sign = 1 if i % 2 == 0 else -1
            total = (
                total[0] + sign * (midpoints[i + 1][0] - midpoints[i][0]),
                total[1] + sign * (midpoints[i + 1][1] - midpoints[i][1]),
            )
        assert _alternating_sum(midpoints) == total

    def test_correspondence_sign_flip_invariance(self, main_pres):
        from netmap.lattice import Basis2

        flipped = dataclasses.replace(
            main_pres, correspondence=Basis2((-2, 1), (0, -5))
        )
        for s in reduced_slopes(6):
            assert pullback_slope(main_pres, s) == pullback_slope(flipped, s)

    def test_long_segment_variant_agrees(self, main_pres):
        for s in reduced_slopes(7):
            assert pullback_slope_long_segment(main_pres, s) == pullback_slope(
                main_pres, s
            )

    def test_bent_mirror_isotopy_invariance(self):
        # Replacing a straight mirror by an isotopic polyline with
        # fractional vertices must not change the slope map; this also
        # exercises the scaled-coordinate geometry kernel end to end.
        from netmap.presentation import parse

        bent = parse(
            """
name = main-bent
lambda1 = (2,-1) (0,5)
postcritical = (0,0) (0,5) (2,0) (2,3)
correspondence = (2,-1) (0,5)
mirror 1 = (0,0) : degenerate
mirror 2 = (0,5) : degenerate
mirror 3 = (2,-1) : (9/4,-1/2) (2,0)
mirror 4 = (2,4) : (7/4,9/2) (2,5)
"""
        )
        for s in reduced_slopes(10):
            assert pullback_slope(bent, s) == pullback_slope_via_residues(s)


class TestFunctionalIdentities:
    def test_shift_and_reflect_sample(self, main_pres):
        for s in reduced_slopes(15):
            img = pullback_slope(main_pres, s)
            assert pullback_slope(main_pres, s.shift(5)) == img.shift(2)
            reflected = Slope.of(-(s.p + s.q), s.q) if s.q else Slope(1, 0)
            assert pullback_slope(main_pres, reflected) == -img


class TestSlopeOrbit:
    def test_fixed_point_orbit(self, main_pres):
        traj, cycle = slope_orbit(main_pres, Slope(1, 0))
        assert traj == [Slope(1, 0), Slope(1, 0)]
        assert cycle == (0, 1)

    def test_immediate_inessential(self, double_pres):
        traj, cycle = slope_orbit(double_pres, Slope(0, 1))
        assert traj == [Slope(0, 1), INESSENTIAL]
        assert cycle is None

    def test_quarter_orbit(self, main_pres):
        traj, cycle = slope_orbit(main_pres, Slope(1, 4))
        assert [str(t) for t in traj] == ["1/4", "1/2", "1/3", "0", "0"]
        assert cycle == (3, 1)

    def test_max_iter_respected(self, main_pres):
        traj, cycle = slope_orbit(main_pres, Slope(1, 4), max_iter=1)
        assert len(traj) == 2 and cycle is None


class TestPointOnMirror:
    def test_marked_points_sit_on_mirrors(self, main_pres):
        for pt in [(0, 0), (0, 5), (2, 0), (2, 3), (2, -2), (2, 5)]:
            assert point_on_any_mirror(main_pres, pt)

    def test_generic_point_off_mirrors(self, main_pres):
        assert not point_on_any_mirror(main_pres, (1, 1))
        assert not point_on_any_mirror(main_pres, (Fraction(1, 2), Fraction(0)))

    def test_fractional_points_on_and_beside_mirrors(self, main_pres, double_pres):
        # (2, -1/2) lies on main's mirror 3, from (2,-1) to (2,0); (1/2, 3)
        # lies on double's mirror 2, from (0,2) to (1,4).
        eps = Fraction(1, 100)
        for pres, (x, y) in (
            (main_pres, (Fraction(2), Fraction(-1, 2))),
            (double_pres, (Fraction(1, 2), Fraction(3))),
        ):
            assert point_on_any_mirror(pres, (x, y))
            assert not point_on_any_mirror(pres, (x + eps, y))
            assert not point_on_any_mirror(pres, (x - eps, y))


def test_graph_rows_follow_value_order(main_pres, monkeypatch):
    # The rows are ordered by an integer key, floor(p * Q^2 / q).
    monkeypatch.setattr(slopefn, "pullback_slope", lambda pres, s: INESSENTIAL)
    for qmax in range(1, 81):
        rows = slopefn.slope_graph_rows(main_pres, qmax)
        by_value = sorted(enumerate_slopes(qmax)[1:], key=Slope.value)
        assert [row[0] for row in rows] == [str(s) for s in by_value]


class TestLongSegmentOracle:
    def test_agrees_with_zigzag_on_random_presentations(self):
        # Seeds 10, 19, 21, 35, 42 and 57 gave the oracle no start point
        # when it tried one h and offsets across the line only.
        from test_pullback import random_presentation

        for seed in range(60):
            pres = random_presentation(seed)
            for s in enumerate_slopes(8):
                assert pullback_slope_long_segment(pres, s) == pullback_slope(pres, s), (seed, s)

    @pytest.mark.parametrize(
        "name, slope, eps, reason",
        [
            ("bent", "0", Fraction(1, 2),
             "segment from (7/3, -1/2): segment passes through a mirror endpoint or midpoint"),
            ("bent", "-2/5", Fraction(1, 2), "start point (13/6, -1/6) lies on a mirror"),
            ("main", "-1", Fraction(1),
             "no start point lies between the lines of coset numbers c2 and c3"),
        ],
    )
    def test_give_up_names_the_last_check(self, name, slope, eps, reason):
        from test_geometry import PRESENTATIONS

        with pytest.raises(ZigzagError) as err:
            pullback_slope_long_segment(PRESENTATIONS[name], Slope.parse(slope), offsets=(eps,))
        assert str(err.value) == (
            f"no transverse long segment found for slope {slope}; {reason}"
        )


@pytest.mark.parametrize("p, q", [(2, 4), (-3, 6), (1, -2), (2, 0), (0, 2)])
def test_unreduced_slope_is_refused_by_the_oracles(main_pres, p, q):
    message = f"slope {p}/{q} is not in lowest terms with q >= 0"
    with pytest.raises(ValueError, match=f"^{message}$"):
        pullback_slope_long_segment(main_pres, Slope(p, q))
    with pytest.raises(ValueError, match=f"^{message}$"):
        pullback_slope_via_residues(Slope(p, q))
