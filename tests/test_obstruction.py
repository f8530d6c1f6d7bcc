import dataclasses
from fractions import Fraction
from math import gcd

import pytest

from netmap import bundled_presentation
from netmap.cli import _render_halfspace
from netmap.obstruction import (
    Status,
    certificate_for_slopes,
    check_certificate,
    enumerate_slopes,
    find_fixed_slopes,
    obstruction_report,
)
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
            dataclasses.replace(cert.halfspaces[0], center=Fraction(99)),
            *cert.halfspaces[1:],
        )
        tampered = dataclasses.replace(cert, halfspaces=bad_halfspaces)
        assert not check_certificate(main_pres, tampered)


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
    monkeypatch.setattr(QuadExt, "_cmp", cmp_unfiltered)
    unfiltered = [obstruction_report(pres, height=h, budget=b) for h, b in cases]
    monkeypatch.undo()
    assert shipped == unfiltered
    assert [rendered(r) for r in shipped] == [rendered(r) for r in unfiltered]
