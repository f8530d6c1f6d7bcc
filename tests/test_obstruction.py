from fractions import Fraction
from math import gcd, inf
from pathlib import Path

import pytest

from netmap import bundled_presentation
from netmap.cli import _render_halfspace
from netmap.halfspace import CoverVerdict, HalfSpace, Kind, LeftoverPoint, halfspace_from_data
from netmap.obstruction import (
    Certificate,
    Disposition,
    ObstructionReport,
    Status,
    _dispose_leftovers,
    _greedy_cover,
    certificate_for_slopes,
    certify_slopes,
    check_certificate,
    enumerate_slopes,
    find_fixed_slopes,
    obstruction_report,
)
from netmap.presentation import parse
from netmap.pullback import analyze_slope
from netmap.quadext import QuadExt, _sign_triple
from netmap.slope import Slope
from netmap.slopefn import pullback_slope

TABLE_SLOPES = ["-1/2", "-1/4", "1/8", "1/4", "1/3", "7/16", "1/2", "3/4"]
SIX_SLOPES = ["-1/4", "1/8", "1/4", "1/3", "1/2", "3/4"]


class TestEnumerateSlopes:
    def test_height_one(self):
        assert set(map(str, enumerate_slopes(1))) == {"0", "1", "-1", "inf"}

    def test_height_two(self):
        expected = {"0", "1", "-1", "2", "-2", "1/2", "-1/2", "inf"}
        assert set(map(str, enumerate_slopes(2))) == expected

    def test_count_matches_brute_force(self):
        slopes = enumerate_slopes(10)
        brute = {(1, 0)}
        for p in range(-10, 11):
            for q in range(-10, 11):
                if (p, q) == (0, 0):
                    continue
                g = gcd(p, q)
                pp, qq = p // g, q // g
                if qq < 0:
                    pp, qq = -pp, -qq
                if qq == 0:
                    pp = 1
                brute.add((pp, qq))
        assert len(slopes) == len(set(slopes)) == len(brute)

    def test_deterministic_order(self):
        assert enumerate_slopes(6) == enumerate_slopes(6)
        assert str(enumerate_slopes(3)[0]) == "inf"

    def test_matches_sorted_reference(self):
        for height in range(1, 41):
            rest = [
                Slope(p, q)
                for q in range(1, height + 1)
                for p in range(-height, height + 1)
                if gcd(p, q) == 1
            ]
            rest.sort(key=lambda s: (s.height(), Fraction(s.p, s.q)))
            assert enumerate_slopes(height) == [Slope(1, 0), *rest]


class TestFixedSlopes:
    def test_main_fixed_slopes(self, main_pres):
        fixed = dict(find_fixed_slopes(main_pres, 20))
        assert fixed[Slope(1, 0)] == Fraction(2, 5)
        assert fixed[Slope(0, 1)] == Fraction(1, 10)
        assert all(mult < 1 for mult in fixed.values())

    def test_multipliers_match_pullback_data(self, euclidean_pres):
        for s, mult in find_fixed_slopes(euclidean_pres, 8):
            assert pullback_slope(euclidean_pres, s) == s
            assert analyze_slope(euclidean_pres, s).multiplier == mult


class TestCertificates:
    def test_published_eight_slopes(self, main_pres):
        cert, obstruction = certificate_for_slopes(
            main_pres, [Slope.parse(t) for t in TABLE_SLOPES]
        )
        assert obstruction is None
        assert cert is not None and len(cert.halfspaces) == 8
        assert cert.verdict.covered
        assert check_certificate(main_pres, cert)

    def test_six_slope_subfamily(self, main_pres):
        cert, obstruction = certificate_for_slopes(
            main_pres, [Slope.parse(t) for t in SIX_SLOPES]
        )
        assert obstruction is None
        assert cert is not None and cert.verdict.covered
        assert check_certificate(main_pres, cert)

    def test_insufficient_family(self, main_pres):
        cert, obstruction = certificate_for_slopes(
            main_pres, [Slope.parse("1/3"), Slope.parse("1/2")]
        )
        assert cert is None and obstruction is None

    def test_tampered_certificate_rejected(self, main_pres):
        cert, _ = certificate_for_slopes(
            main_pres, [Slope.parse(t) for t in TABLE_SLOPES]
        )
        bad_halfspaces = (
            cert.halfspaces[0]._replace(center=Fraction(99)),
            *cert.halfspaces[1:],
        )
        tampered = cert._replace(halfspaces=bad_halfspaces)
        assert not check_certificate(main_pres, tampered)

    def test_certificate_with_a_gap_rejected(self):
        # The certificate of random_presentation(11) of test_pullback less
        # its last half-space leaves the gap from 3/7 to sqrt(3)/3.
        pres = parse((Path(__file__).parent / "data" / "seed11.net").read_text())
        cert = obstruction_report(pres, height=20, budget=12).certificate
        assert check_certificate(pres, cert)
        assert not check_certificate(
            pres, cert._replace(halfspaces=cert.halfspaces[:-1]))

    def test_certificate_with_a_relabelled_disposition_rejected(self):
        # The leftover point 0 of the same certificate is not fixed; called
        # irrational, it still names the same point, but not the same reason.
        pres = parse((Path(__file__).parent / "data" / "seed11.net").read_text())
        cert = obstruction_report(pres, height=20, budget=12).certificate
        first, *rest = cert.dispositions
        assert (first.point, first.reason) == ("0", "not-fixed")
        relabelled = (first._replace(reason="irrational"), *rest)
        assert not check_certificate(pres, cert._replace(dispositions=relabelled))

    def test_certificate_without_halfspaces_rejected(self, main_pres):
        verdict = CoverVerdict((), (("inf", "inf"),))
        assert not check_certificate(main_pres, Certificate((), verdict, ()))


class TestLeftoverDispositions:
    @staticmethod
    def dispose(pres, value):
        return _dispose_leftovers(pres, CoverVerdict((LeftoverPoint(value),), ()))

    def test_fixed_slope_with_small_multiplier(self, main_pres):
        # The boundary point 0 is that of infinity, fixed with multiplier 2/5.
        assert self.dispose(main_pres, QuadExt(0)) == (
            (Disposition("0", "multiplier-below-one", Slope(1, 0), Fraction(2, 5)),), None)

    def test_irrational_point(self, main_pres):
        assert self.dispose(main_pres, QuadExt.sqrt(2)) == (
            (Disposition("sqrt(2)", "irrational"),), None)

    def test_fixed_slope_with_multiplier_two_is_an_obstruction(self, euclidean_pres):
        # Infinity is the boundary point of slope 0.
        assert self.dispose(euclidean_pres, None) == ((), (Slope(0, 1), Fraction(2)))


class TestCertifySlopes:
    @pytest.mark.parametrize("height", [8, 20, 40])
    def test_search_certifies_through_certify_slopes(self, height):
        # The search ends in certify_slopes of its own certificate's slopes,
        # so a fresh context asked for those slopes gives the same report.
        report = obstruction_report(bundled_presentation("main"), height=height)
        assert report.status is Status.UNOBSTRUCTED
        assert (report.obstruction, report.diagnostics) == (None, "")
        slopes = [h.slope for h in report.certificate.halfspaces]
        assert certify_slopes(bundled_presentation("main"), slopes) == report

    def test_no_cover_is_inconclusive(self, main_pres):
        report = certify_slopes(main_pres, [Slope(1, 2), Slope(1, 3)])
        assert report == ObstructionReport(diagnostics="given half-spaces do not cover")
        assert report.status is Status.INCONCLUSIVE

    def test_failed_reverification_is_inconclusive(self, main_pres, monkeypatch):
        import netmap.obstruction as ob

        monkeypatch.setattr(ob, "check_certificate", lambda pres, cert: False)
        report = certify_slopes(main_pres, [Slope.parse(s) for s in SIX_SLOPES])
        assert report == ObstructionReport(diagnostics="certificate failed re-verification")
        assert report.status is Status.INCONCLUSIVE

    def test_obstruction_at_a_leftover_point(self, euclidean_pres, monkeypatch):
        # Two vertical half-spaces leave -1/2 and infinity, the boundary
        # point of slope 0, which the map fixes with multiplier 2.
        import netmap.obstruction as ob

        spaces = {
            Slope(1, 1): halfspace_from_data(Slope(1, 1), Slope(1, 0), Fraction(1)),
            Slope(1, 0): halfspace_from_data(Slope(1, 0), Slope(1, 1), Fraction(1)),
        }
        monkeypatch.setattr(ob, "exclusion_halfspace", lambda pres, s: spaces[s])
        report = certify_slopes(euclidean_pres, list(spaces))
        assert report == ObstructionReport((Slope(0, 1), Fraction(2)))
        assert report.status is Status.OBSTRUCTED

    def test_slope_without_halfspace_is_refused(self, main_pres):
        with pytest.raises(ValueError, match="slope 0 yields no half-space"):
            certify_slopes(main_pres, [Slope(0, 1)])


class TestObstructionReport:
    def test_main_unobstructed(self, main_pres):
        report = obstruction_report(main_pres, height=20, budget=8)
        assert report.status is Status.UNOBSTRUCTED
        assert check_certificate(main_pres, report.certificate)
        assert len(report.certificate.halfspaces) <= 8

    def test_small_budget_inconclusive(self, main_pres):
        report = obstruction_report(main_pres, height=20, budget=2)
        assert report.status is Status.INCONCLUSIVE

    def test_monotone_in_height(self, main_pres):
        low = obstruction_report(main_pres, height=20, budget=8)
        high = obstruction_report(main_pres, height=22, budget=8)
        assert low.status is Status.UNOBSTRUCTED
        assert high.status is Status.UNOBSTRUCTED

    def test_engineered_obstruction(self, euclidean_pres):
        # Slope 0 is fixed with multiplier 2 on the Euclidean example;
        # oracle: the pullback data directly.
        summary = analyze_slope(euclidean_pres, Slope(0, 1))
        assert pullback_slope(euclidean_pres, Slope(0, 1)) == Slope(0, 1)
        assert summary.multiplier == 2
        report = obstruction_report(euclidean_pres, height=10, budget=8)
        assert report.status is Status.OBSTRUCTED
        assert report.obstruction == (Slope(0, 1), Fraction(2))

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_refused_before_any_work(self, budget):
        pres = bundled_presentation("main")
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            obstruction_report(pres, height=20, budget=budget)
        assert not pres.context.images

    def test_constant_map_is_inconclusive(self, double_pres):
        report = obstruction_report(double_pres, height=8, budget=8)
        assert report.status is Status.INCONCLUSIVE

    def test_reverification_shares_no_memo_with_search(self):
        # A wrong image planted in the search's memo yields a half-space
        # that covers with the correct ones; only a check on a fresh
        # context, which recomputes -1/2 -> 0, can refuse it.
        pres = bundled_presentation("main")
        planted, wrong = Slope.parse("-1/2"), Slope(1, 0)
        pres.context.images[planted] = wrong
        report = obstruction_report(pres, height=20, budget=8)
        assert not (
            report.status is Status.UNOBSTRUCTED
            and any(
                h.slope == planted and h.image_slope == wrong
                for h in report.certificate.halfspaces
            )
        )


def test_greedy_prefers_strict_then_first_among_equal_reaches():
    dummy = (Slope(1, 1), Slope(1, 0), Fraction(1))

    def disc(kind, center, radius):
        return HalfSpace(kind, Fraction(center), QuadExt(Fraction(radius)), *dummy)

    base = disc(Kind.OUTSIDE_CIRCLE, 0, 3)                 # arc (3, -3)
    tangent = disc(Kind.INSIDE_CIRCLE, -1, 2)              # (-3, 1): starts at -3
    strict = disc(Kind.INSIDE_CIRCLE, Fraction(-3, 2), Fraction(5, 2))  # (-4, 1)
    twin = disc(Kind.INSIDE_CIRCLE, Fraction(-3, 2), Fraction(5, 2))
    last = disc(Kind.INSIDE_CIRCLE, Fraction(5, 2), Fraction(3, 2))     # (1, 4)
    selected = _greedy_cover([base, tangent, strict, twin, last], 12)
    assert [id(h) for h in selected] == [id(base), id(strict), id(last)]
    # Reaching the base's start only touches it: the open arcs leave it out.
    assert _greedy_cover([base, strict, disc(Kind.INSIDE_CIRCLE, 2, 1)], 12) is None
    # With no outside-circle arc there is no base to start from.
    assert _greedy_cover([tangent, strict, last], 12) is None


def rendered(report) -> list[str]:
    """The certificate lines ``netmap obstructions`` prints."""
    if report.certificate is None:
        return []
    cert = report.certificate
    return [_render_halfspace(h) for h in cert.halfspaces] + [
        f"leftover {d.point}: {d.reason}" for d in cert.dispositions
    ]


def cmp_unfiltered(x: QuadExt, y) -> int:
    """``QuadExt._cmp`` decided by the sign algorithm alone."""
    if not isinstance(y, QuadExt):
        y = QuadExt(y)
    return _sign_triple(x.a - y.a, x.b, x.k, -y.b, y.k)


@pytest.mark.parametrize("name", ["main", "double", "euclidean"])
def test_cover_unchanged_without_box_filter(name, monkeypatch):
    pres = bundled_presentation(name)
    cases = [(h, b) for h in (8, 20, 40) for b in (1, 3, 6, 12)]
    shipped = [obstruction_report(pres, height=h, budget=b) for h, b in cases]
    # Boxes that contain every value leave each decision, the greedy's
    # box prefilter included, to the sign algorithm.
    monkeypatch.setattr(QuadExt, "_bounds", lambda self: (-inf, inf))
    monkeypatch.setattr(QuadExt, "_cmp", cmp_unfiltered)
    unfiltered = [obstruction_report(pres, height=h, budget=b) for h, b in cases]
    monkeypatch.undo()
    assert shipped == unfiltered
    assert [rendered(r) for r in shipped] == [rendered(r) for r in unfiltered]
