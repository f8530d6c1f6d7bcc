from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import netmap.slopefn as slopefn
from netmap import bundled_presentation
from netmap.errors import (
    BudgetExceededError,
    DegenerateIncidenceError,
    NonEssentialError,
    NonTransverseError,
    ZigzagError,
)
from netmap.geometry import interior_crossings, point_on_any_mirror
from netmap.presentation import scaled
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
        # spin mirrors, centred at (6,2) and (14,3): scaled by 2, the
        # segment from (1, 0) to (41, 10) meets them at twice the midpoints.
        hits = interior_crossings(scaled(main_pres, 2), (1, 0), (41, 10))
        assert hits == [(12, 4), (28, 6)]

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

    def test_zigzag_raises_the_last_segment_failure(self, main_pres, monkeypatch):
        failures = []

        def refuse(pres, v, w):
            failures.append(NonTransverseError(f"segment {v} to {w}"))
            raise failures[-1]

        monkeypatch.setattr(slopefn, "mirror_crossings", refuse)
        with pytest.raises(NonTransverseError) as info:
            zigzag_trace(main_pres, Slope(1, 4))
        assert len(failures) > 1 and info.value is failures[-1]

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

        flipped = main_pres._replace(correspondence=Basis2((-2, 1), (0, -5)))
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

    def test_inessential_start(self, main_pres):
        assert slope_orbit(main_pres, INESSENTIAL) == ([INESSENTIAL], None)

    def test_max_iter_respected(self, main_pres):
        traj, cycle = slope_orbit(main_pres, Slope(1, 4), max_iter=1)
        assert len(traj) == 2 and cycle is None

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_is_refused_before_any_work(self, main_pres, max_iter, monkeypatch):
        monkeypatch.setattr(slopefn, "pullback_slope", None)
        with pytest.raises(ValueError, match="^max_iter must be a positive integer$"):
            slope_orbit(main_pres, Slope(1, 4), max_iter=max_iter)


def _on_mirror(pres, point):
    """point_on_any_mirror at a rational point: k times it on the
    presentation scaled by the lcm k of its denominators."""
    k = lcm(Fraction(point[0]).denominator, Fraction(point[1]).denominator)
    return point_on_any_mirror(scaled(pres, k), (int(k * point[0]), int(k * point[1])))


class TestPointOnMirror:
    def test_marked_points_sit_on_mirrors(self, main_pres):
        for pt in [(0, 0), (0, 5), (2, 0), (2, 3), (2, -2), (2, 5)]:
            assert point_on_any_mirror(main_pres, pt)

    def test_generic_point_off_mirrors(self, main_pres):
        assert not point_on_any_mirror(main_pres, (1, 1))
        assert not _on_mirror(main_pres, (Fraction(1, 2), Fraction(0)))

    def test_fractional_points_on_and_beside_mirrors(self, main_pres, double_pres):
        # (2, -1/2) lies on main's mirror 3, from (2,-1) to (2,0); (1/2, 3)
        # lies on double's mirror 2, from (0,2) to (1,4).
        eps = Fraction(1, 100)
        for pres, (x, y) in (
            (main_pres, (Fraction(2), Fraction(-1, 2))),
            (double_pres, (Fraction(1, 2), Fraction(3))),
        ):
            assert _on_mirror(pres, (x, y))
            assert not _on_mirror(pres, (x + eps, y))
            assert not _on_mirror(pres, (x - eps, y))


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


def _zigzag_image(pres, s):
    try:
        trace = zigzag_trace(pres, s)
    except (NonTransverseError, DegenerateIncidenceError, ZigzagError) as exc:
        return type(exc)
    return INESSENTIAL if trace is None else trace.result


def _descent_image(pres, s):
    try:
        return pullback_slope(pres, s)
    except (NonTransverseError, DegenerateIncidenceError, ZigzagError) as exc:
        return type(exc)


class TestTwistDescent:
    @pytest.fixture
    def steps(self, monkeypatch):
        """Descend wherever a segment crosses a mirror; count the steps taken."""
        taken = []
        step = slopefn._twist_step

        def counting(pres, x, convergents):
            result = step(pres, x, convergents)
            taken.append(result is not None)
            return result

        monkeypatch.setattr(slopefn, "_DESCENT_CROSSINGS", 0)
        monkeypatch.setattr(slopefn, "_twist_step", counting)
        return taken

    def test_equals_zigzag_on_the_geometry_presentations(self, steps):
        from test_geometry import PRESENTATIONS

        for name, pres in PRESENTATIONS.items():
            zigzag, descent = pres._replace(), pres._replace()
            for s in enumerate_slopes(40):
                assert _descent_image(descent, s) == _zigzag_image(zigzag, s), (name, s)
        assert sum(steps) > 1000

    def test_equals_zigzag_on_random_presentations(self, steps):
        from test_pullback import random_presentation

        for seed in range(20):
            pres = random_presentation(seed)
            zigzag, descent = pres._replace(), pres._replace()
            for s in enumerate_slopes(12):
                assert _descent_image(descent, s) == _zigzag_image(zigzag, s), (seed, s)
        assert sum(steps) > 100

    def test_deep_pool_slopes_give_their_pinned_images(self):
        from pathlib import Path

        pool = Path(__file__).resolve().parent.parent / "bench" / "expected" / "deep_pool.txt"
        pres = bundled_presentation("main")._replace()
        for line in pool.read_text(encoding="utf-8").splitlines():
            _, _, slope, image = line.split()
            assert str(pullback_slope(pres, Slope.parse(slope))) == image, slope

    def test_target_slope_takes_two_zigzags_of_height_one(self, monkeypatch):
        zigzags = []
        trace = slopefn.zigzag_trace

        def counting(pres, s):
            zigzags.append(s)
            return trace(pres, s)

        monkeypatch.setattr(slopefn, "zigzag_trace", counting)
        pres = bundled_presentation("main")._replace()
        assert pullback_slope(pres, Slope(99999999, 100000000)) == Slope(59999999, 90000000)
        assert len(zigzags) <= 2 and all(s.height() <= 1 for s in zigzags)

    def test_below_the_gate_only_the_zigzag_runs(self, main_pres, monkeypatch):
        monkeypatch.setattr(slopefn, "_DESCENT_CENTRES", 0)  # a descent would be refused
        pres = main_pres._replace()
        for s in enumerate_slopes(20):
            assert pullback_slope(pres, s) == pullback_slope(main_pres, s)

    def test_a_fresh_context_zigzags_only_the_slope_itself(self, monkeypatch):
        # Below the gate a step needs memoised images, and a fresh context has none.
        zigzags = []
        trace = slopefn.zigzag_trace

        def counting(pres, s):
            zigzags.append(s)
            return trace(pres, s)

        monkeypatch.setattr(slopefn, "zigzag_trace", counting)
        main = bundled_presentation("main")
        for s in enumerate_slopes(20):
            zigzags.clear()
            pullback_slope(main._replace(), s)
            assert zigzags == [s]

    def test_crossing_estimate_tracks_the_crossings(self, main_pres):
        # On long segments the swept area over the covolume of 2*L1 is
        # within a few percent of the true count.
        for s in (Slope(3, 892), Slope(-4001, 4000), Slope(2999, 7919), Slope(1, 10007)):
            trace = zigzag_trace(main_pres, s)
            crossings = len(trace.midpoints) - 2
            estimate = slopefn._crossing_estimate(
                main_pres, trace.w[0] - trace.v[0], trace.w[1] - trace.v[1]
            )
            assert crossings > 200 and 0.8 * crossings <= estimate <= 1.2 * crossings, s


STALLED = "-8099826797693086328/80841919002507010799"


class TestZigzagCap:
    def test_stalled_slope_is_refused_before_any_crossing(self, monkeypatch):
        def no_crossings(*args):
            raise AssertionError("crossings enumerated")

        monkeypatch.setattr(slopefn, "mirror_crossings", no_crossings)
        pres = bundled_presentation("main")._replace()
        with pytest.raises(BudgetExceededError) as err:
            pullback_slope(pres, Slope.parse(STALLED))
        assert str(err.value).startswith(
            "slope -361933068/3300554533: its zigzag segment would cross about "
        )
        assert str(err.value).endswith(" mirrors, above the limit of 1000000")

    def test_cap_counts_each_segment(self, main_pres, monkeypatch):
        s = Slope(3, 892)
        estimate = slopefn._crossing_estimate(main_pres, 892 * 5, 3 * 5)  # t = 5
        monkeypatch.setattr(slopefn, "_ZIGZAG_CROSSINGS", estimate)
        assert find_segment(main_pres, s) == ((0, 0), (892 * 5, 3 * 5))
        assert zigzag_trace(main_pres, s).result == Slope(1, 42)
        monkeypatch.setattr(slopefn, "_ZIGZAG_CROSSINGS", estimate - 1)
        with pytest.raises(BudgetExceededError, match=f"about {estimate} mirrors"):
            zigzag_trace(main_pres, s)

    def test_long_segment_oracle_is_not_capped(self, main_pres, monkeypatch):
        monkeypatch.setattr(slopefn, "_ZIGZAG_CROSSINGS", 0)
        assert pullback_slope_long_segment(main_pres, Slope(3, 892)) == Slope(1, 42)


def test_descent_budget_counts_the_centres_scanned(monkeypatch):
    scanned = []
    step = slopefn._twist_step

    def counting(pres, x, convergents):
        scanned.append(len(convergents) + 2)  # and 0 and infinity
        return step(pres, x, convergents)

    def stalled():
        pres = bundled_presentation("main")._replace()
        with pytest.raises(BudgetExceededError) as err:
            pullback_slope(pres, Slope.parse(STALLED))
        return str(err.value)

    monkeypatch.setattr(slopefn, "_twist_step", counting)
    assert "its zigzag segment would cross" in stalled()
    total = sum(scanned)
    monkeypatch.setattr(slopefn, "_DESCENT_CENTRES", total)
    assert "its zigzag segment would cross" in stalled()
    monkeypatch.setattr(slopefn, "_DESCENT_CENTRES", total - 1)
    assert stalled() == (
        f"slope {STALLED}: its twist descent would scan more than {total - 1} centres"
    )


class TestMemoisedTwist:
    def test_batches_zigzag_only_what_no_twist_lowers(self, monkeypatch):
        from netmap.obstruction import obstruction_report

        zigzags = []
        trace = slopefn.zigzag_trace

        def counting(pres, s):
            zigzags.append(s)
            return trace(pres, s)

        monkeypatch.setattr(slopefn, "zigzag_trace", counting)
        main = bundled_presentation("main")
        assert len(slopefn.slope_graph_rows(main._replace(), 60)) == 4407
        assert len(zigzags) <= 1300
        zigzags.clear()
        obstruction_report(main._replace(), 40)
        assert len(zigzags) <= 750
        zigzags.clear()
        slopefn.slope_graph_rows(bundled_presentation("double")._replace(), 20)
        assert zigzags == []  # every class of double is inessential

    @pytest.fixture
    def answered(self, monkeypatch):
        """Count the slopes that one twist of memoised images answers."""
        found = []
        step = slopefn._twist_step

        def counting(pres, x, convergents):
            result = step(pres, x, convergents)
            memo = pres.context.images
            found.append(result is not None and result[0] in memo and result[1] in memo)
            return result

        monkeypatch.setattr(slopefn, "_twist_step", counting)
        return found

    def test_equals_zigzag_on_the_geometry_presentations(self, answered):
        from test_geometry import PRESENTATIONS

        for name, pres in PRESENTATIONS.items():
            zigzag, batch = pres._replace(), pres._replace()
            for s in enumerate_slopes(40):
                assert _descent_image(batch, s) == _zigzag_image(zigzag, s), (name, s)
        assert sum(answered) > 2000

    def test_equals_zigzag_on_random_presentations(self, answered):
        from test_pullback import random_presentation

        for seed in range(20):
            pres = random_presentation(seed)
            zigzag, batch = pres._replace(), pres._replace()
            for s in enumerate_slopes(12):
                assert _descent_image(batch, s) == _zigzag_image(zigzag, s), (seed, s)
        assert sum(answered) > 300

    def test_a_short_slope_scans_no_centre_on_an_empty_memo(self, monkeypatch):
        # With no image memoised, no step's lower slope and centre can both
        # be, so the zigzag answers without a scan.
        scanned = []
        step = slopefn._twist_step

        def counting(pres, x, convergents):
            scanned.append(x)
            return step(pres, x, convergents)

        monkeypatch.setattr(slopefn, "_twist_step", counting)
        pres = bundled_presentation("main")._replace()
        assert pullback_slope(pres, Slope(1, 4)) == Slope(1, 2)
        assert scanned == []
        assert pullback_slope(pres, Slope(3, 4)) == Slope(1, 2)
        assert scanned == [Slope(3, 4)]

    @pytest.mark.parametrize("gate", [0, 1000])
    def test_orientation_reversing_correspondence(self, main_pres, monkeypatch, gate):
        # In a basis of the other orientation a twist reads as its inverse.
        from netmap.lattice import Basis2

        monkeypatch.setattr(slopefn, "_DESCENT_CROSSINGS", gate)
        u, v = main_pres.correspondence.u, main_pres.correspondence.v
        swapped = main_pres._replace(correspondence=Basis2(v, u))
        zigzag, batch = swapped._replace(), swapped._replace()
        for s in enumerate_slopes(20):
            assert pullback_slope(batch, s) == _zigzag_image(zigzag, s), s


ORBIT_SURVEY_40 = """\
1960 slopes up to height 40
inessential terminations: 0, unresolved: 0
cycles reached (cycle: orbit count):
  {0}: 1542
  {2/3, 4/15, 4/9}: 397
  {inf}: 21
transient length distribution:
  0: 5
  1: 307
  2: 543
  3: 507
  4: 397
  5: 164
  6: 27
  7: 7
  8: 3
"""


def test_orbit_survey_of_main_is_pinned():
    # Orbits visit slopes in an order that mixes memoised twists, descents and zigzags.
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "orbit_survey.py"
    done = subprocess.run([sys.executable, str(script), "--height", "40"],
                          capture_output=True, text=True, check=True)
    assert done.stdout == ORBIT_SURVEY_40


@pytest.mark.parametrize("script, args, first_line", [
    ("orbit_survey.py", ["--height", "3"], "16 slopes up to height 3"),
    ("slope_graph.py", ["--qmax", "3", "--out", "graph.csv"], "wrote 15 rows to graph.csv"),
])
def test_scripts_read_presentation_files_as_utf8(tmp_path, script, args, first_line):
    # Under the C locale with UTF-8 mode and locale coercion off, the
    # locale's encoding is ASCII; a presentation file is UTF-8 whatever
    # the locale, as netmap's own commands read it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    text = (root / "src" / "netmap" / "data" / "main.net").read_text(encoding="utf-8")
    path = tmp_path / "main.net"
    path.write_text("# Teichmüller\n" + text, encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--presentation", str(path), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == first_line


_MISSING = "error: [Errno 2] No such file or directory: "
_MALFORMED = "error: missing fields: lambda1, postcritical, correspondence, mirror 1..4"


@pytest.mark.parametrize("script, args, line", [
    ("orbit_survey.py", ["--presentation", "missing.net"], _MISSING + "'missing.net'"),
    ("slope_graph.py", ["--presentation", "missing.net"], _MISSING + "'missing.net'"),
    ("orbit_survey.py", ["--presentation", "name.net"], _MALFORMED),
    ("slope_graph.py", ["--presentation", "name.net"], _MALFORMED),
    ("orbit_survey.py", ["--height", "0"], "error: height must be a positive integer"),
    ("slope_graph.py", ["--qmax", "0"], "error: height must be a positive integer"),
    ("slope_graph.py", ["--qmax", "3", "--out", "no/graph.csv"], _MISSING + "'no/graph.csv'"),
    ("orbit_survey.py", ["--height", "3", "--max-iter", "0"],
     "error: max_iter must be a positive integer"),
    ("nonsep_census.py", ["--max-order", "0"], "error: max-order must be a positive integer"),
    ("nonsep_census.py", ["--max-order", "-4"], "error: max-order must be a positive integer"),
    ("nonsep_census.py", ["--budget", "0"], "error: budget must be a positive integer"),
    ("nonsep_census.py", ["--max-order", "12", "--budget", "-1"],
     "error: budget must be a positive integer"),
])
def test_scripts_refuse_like_netmap(tmp_path, script, args, line):
    # One stderr line and exit 2, as netmap itself refuses, not a traceback.
    import subprocess
    import sys
    from pathlib import Path

    (tmp_path / "name.net").write_text("name = x\n", encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                          capture_output=True, text=True, cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", line + "\n")


def test_enumeration_is_refused_before_it_builds(monkeypatch):
    import netmap.slope

    with pytest.raises(BudgetExceededError, match="^height 501: up to 1004004 slopes, "
                                                  "above the limit of 1000000$"):
        enumerate_slopes(501)
    monkeypatch.setattr(netmap.slope, "_ENUMERATION_LIMIT", 4 * 20 * 20)
    assert len(enumerate_slopes(20)) == 512  # 511 graph rows and infinity
    with pytest.raises(BudgetExceededError, match="^height 21: up to 1764 slopes"):
        enumerate_slopes(21)


def test_graph_csv_values_are_the_floats_of_the_fractions(main_pres):
    from netmap.render import slope_graph_csv

    rows = slopefn.slope_graph_rows(main_pres, 30)
    lines = slope_graph_csv(rows).splitlines()[1:]
    for line, (slope, value, image, image_value) in zip(lines, rows):
        exact = Slope.parse(slope).value()
        assert value == (exact.numerator, exact.denominator)
        fields = line.split(",")
        assert fields[1] == repr(float(exact))
        if image_value is not None:
            assert fields[3] == repr(float(Fraction(*image_value)))
