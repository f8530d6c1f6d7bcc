from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmap import bundled_presentation
from netmap.errors import PresentationSyntaxError, ValidationError
from netmap.slope import Slope
from netmap.slopefn import pullback_slope
from netmap.presentation import (
    MirrorArc,
    NetMapPresentation,
    _polyline_self_intersects,
    degree,
    is_euclidean,
    parse,
    preimage_coset_table,
    segments_touch,
    serialize,
)

MAIN_TEXT = """
name = main
lambda1 = (2,-1) (0,5)
postcritical = (0,0) (0,5) (2,0) (2,3)
correspondence = (2,-1) (0,5)
mirror 1 = (0,0) : degenerate
mirror 2 = (0,5) : degenerate
mirror 3 = (2,-1) : (2,0)
mirror 4 = (2,4) : (2,3)
"""


def test_parse_main_example(main_pres):
    assert degree(main_pres) == 10
    assert not is_euclidean(main_pres)
    assert main_pres.postcritical == ((0, 0), (0, 5), (2, 0), (2, 3))


def test_degree_examples(main_pres, double_pres, euclidean_pres):
    assert degree(main_pres) == 10
    assert degree(double_pres) == 4
    assert degree(euclidean_pres) == 2


def test_round_trip(main_pres, double_pres, euclidean_pres):
    for pres in (main_pres, double_pres, euclidean_pres):
        assert parse(serialize(pres)) == pres


def test_parse_accepts_comments_and_blank_lines():
    assert parse(MAIN_TEXT + "\n# trailing comment\n\n").name == "main"


class TestValidationErrors:
    def test_degree_one_rejected(self):
        text = MAIN_TEXT.replace("lambda1 = (2,-1) (0,5)", "lambda1 = (1,0) (0,1)")
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant in ("degree", "correspondence", "mirror-midpoint")

    def test_colliding_postcritical_classes(self):
        # (2,-2) = -(2,0) mod 2*lambda1, so classes 3 and 4 collide.
        text = MAIN_TEXT.replace(
            "postcritical = (0,0) (0,5) (2,0) (2,3)",
            "postcritical = (0,0) (0,5) (2,0) (2,-2)",
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == "inverse-pairs"

    def test_correspondence_not_a_basis(self):
        text = MAIN_TEXT.replace(
            "correspondence = (2,-1) (0,5)", "correspondence = (2,-1) (4,-2)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant in ("correspondence", "basis")

    def test_correspondence_outside_sublattice(self):
        text = MAIN_TEXT.replace(
            "correspondence = (2,-1) (0,5)", "correspondence = (1,0) (0,5)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == "correspondence"

    def test_mirror_midpoint_off_sublattice(self):
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (1,-1) : (2,0)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == "mirror-midpoint"

    def test_mirror_terminal_wrong_class(self):
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (2,1)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == "mirror-terminal"

    def test_degenerate_mirror_needs_sublattice_point(self):
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : degenerate"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == "mirror-degenerate"

    def test_overlapping_mirrors_rejected(self):
        # Stretch mirror 3 to half-length 9: its full arc then runs
        # into mirror 4 and into its own sublattice translates.
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (2,8)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == "mirror-disjoint"

    def test_syntax_errors(self):
        with pytest.raises(PresentationSyntaxError):
            parse("name main\n")
        with pytest.raises(PresentationSyntaxError):
            parse(MAIN_TEXT.replace("(2,-1) (0,5)", "(2,-1) (0,5) junk", 1))
        with pytest.raises(PresentationSyntaxError):
            parse("name = x\nlambda1 = (2,-1) (0,5)\n")  # missing fields


def test_separate_parses_share_no_memo():
    first, second = parse(MAIN_TEXT), parse(MAIN_TEXT)
    assert pullback_slope(first, Slope(1, 4)) == Slope(1, 2)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert first.context is not second.context
    assert Slope(1, 4) in first.context.images
    assert not second.context.images and not second.context.summaries


class TestPreimageCosetTable:
    def test_main_example_classes(self, main_pres):
        table = main_pres.context.table
        rows = preimage_coset_table(main_pres)
        assert len(rows) == 8
        by_tag = {}
        for rep, tag in rows:
            by_tag.setdefault(tag, []).append(table.key(rep))
        # Known representatives of the eight classes, compared as classes.
        expect = {
            "P1&P2": [(0, 0), (0, 5)],
            "P1-P2": [(2, -1), (2, 4)],
            "P2-P1": [(2, 0), (2, -2), (2, 3), (2, 5)],
        }
        for tag, reps in expect.items():
            assert sorted(by_tag[tag]) == sorted(table.key(r) for r in reps)

    def test_euclidean_all_shared(self, euclidean_pres):
        rows = preimage_coset_table(euclidean_pres)
        assert len(rows) == 4
        assert all(tag == "P1&P2" for _, tag in rows)

    def test_double_presentation_counts(self, double_pres):
        rows = preimage_coset_table(double_pres)
        m = sum(1 for _, tag in rows if tag == "P1&P2")
        n = sum(1 for _, tag in rows if tag == "P2-P1") // 2
        assert (m, n) == (2, 2)
        # The marked-point preimage consists of m + 2n cosets.
        assert m + 2 * n == 6
        # The table also carries the remaining branch classes.
        assert len(rows) == m + 2 * n + (4 - m)

    def test_size_formula(self, main_pres, double_pres, euclidean_pres):
        for pres in (main_pres, double_pres, euclidean_pres):
            rows = preimage_coset_table(pres)
            m = sum(1 for _, tag in rows if tag == "P1&P2")
            n = 4 - m
            assert len(rows) == m + 2 * n + (4 - m)

    def test_main_inverse_pair_structure(self, main_pres):
        # The six marked-preimage classes form two self-inverse classes
        # plus two inverse pairs.
        table = main_pres.context.table
        rows = [r for r, tag in preimage_coset_table(main_pres) if tag != "P1-P2"]
        self_inverse = [r for r in rows if table.key(r) == table.key((-r[0], -r[1]))]
        assert len(self_inverse) == 2
        assert len(rows) - len(self_inverse) == 4


class TestIsEuclidean:
    def test_euclidean_presentation(self, euclidean_pres):
        assert is_euclidean(euclidean_pres)

    def test_main_not_euclidean(self, main_pres):
        assert not is_euclidean(main_pres)

    def test_off_lattice_point_breaks_euclidean(self, double_pres):
        # (1,0) is not in 2*Z^2.
        assert not is_euclidean(double_pres)

    def test_half_lattice_classes(self):
        text = """
name = half
lambda1 = (2,0) (0,2)
postcritical = (0,0) (2,0) (0,2) (2,2)
correspondence = (2,0) (0,2)
mirror 1 = (0,0) : degenerate
mirror 2 = (2,0) : degenerate
mirror 3 = (0,2) : degenerate
mirror 4 = (2,2) : degenerate
"""
        assert is_euclidean(parse(text))


class TestMirrorDisjointness:
    def test_degenerate_point_on_translate_rejected(self):
        # Mirror 3 bends through (-2, 1); its translate by (-4, 2) then
        # carries the edge from (6, -3) to (2, -1) onto one through the
        # degenerate class point (0, 0) of mirror 1, inside the edge.
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (-2,1) (2,0)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == (
            "mirror-disjoint: mirror 1 meets the 2*lambda1 translate (-4, 2) of mirror 3"
        )

    def test_self_translate_touching_at_vertices_rejected(self):
        # Full mirror 3 runs (2,-2) (-2,0) (2,-1) (6,-2) (2,0).  Its translate
        # by (-4, 2) meets it only at the vertices (-2, 0) and (2, 0), where
        # two collinear edges meet end to end.
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (6,-2) (2,0)"
        )
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == (
            "mirror-disjoint: mirror 3 meets the 2*lambda1 translate (-4, 2) of mirror 3"
        )

    def test_bent_fractional_mirror_accepted_and_round_trips(self):
        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (5/2,-1/2) (2,0)"
        )
        pres = parse(text)
        assert pres.mirrors[2].half_path[0] == (Fraction(5, 2), Fraction(-1, 2))
        assert "(5/2,-1/2) (2,0)" in serialize(pres)
        assert parse(serialize(pres)) == pres


BUNDLED = {name: bundled_presentation(name) for name in ("main", "double", "euclidean")}


def _lattice(pres: NetMapPresentation, a: int, b: int, scale: int = 1):
    u, v = pres.lambda1.u, pres.lambda1.v
    return (scale * (a * u[0] + b * v[0]), scale * (a * u[1] + b * v[1]))


@st.composite
def mirror_variants(draw):
    """A bundled presentation with some mirrors redrawn.

    Degenerate mirrors sit in the class of h; other mirrors get an L1
    midpoint, a terminal in +-h + 2*L1 and up to two fractional vertices
    in a box around both, so only mirror-simple and mirror-disjoint can
    fail.
    """
    pres = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]
    small = st.integers(-1, 1)
    mirrors = list(pres.mirrors)
    for k in draw(st.sets(st.integers(0, 3), min_size=1)):
        h = pres.postcritical[k]
        if pres.lambda1.contains(h) and draw(st.booleans()):
            shift = _lattice(pres, draw(small), draw(small), 2)
            mirrors[k] = MirrorArc((h[0] + shift[0], h[1] + shift[1]))
            continue
        mid = _lattice(pres, draw(small), draw(small))
        sign = draw(st.sampled_from((1, -1)))
        shift = _lattice(pres, draw(small), draw(small), 2)
        term = (sign * h[0] + shift[0], sign * h[1] + shift[1])
        den = draw(st.sampled_from((1, 2, 3)))

        def coord(axis):
            lo, hi = sorted((mid[axis], term[axis]))
            return st.integers((lo - 1) * den, (hi + 1) * den).map(lambda n: Fraction(n, den))

        inner = draw(st.lists(st.tuples(coord(0), coord(1)), max_size=2))
        mirrors[k] = MirrorArc(mid, tuple(inner) + ((Fraction(term[0]), Fraction(term[1])),))
    return replace(pres, mirrors=tuple(mirrors))


def reference_mirror_verdict(pres: NetMapPresentation):
    """(invariant, message) of the mirror checks of validation, or None.

    Disjointness is brute force: every translate alpha*u2 + beta*v2 with
    |alpha|, |beta| <= R, in lexicographic order, with Fraction contact
    tests; R comes from the bounding boxes of the two mirrors.
    """
    polys = [m.full_polyline() for m in pres.mirrors]
    for poly in polys:
        if any(a == b for a, b in zip(poly, poly[1:])) or _polyline_self_intersects(poly):
            return "mirror-simple", None
    segs = [list(zip(p, p[1:])) or [(p[0], p[0])] for p in polys]
    u2, v2 = _lattice(pres, 1, 0, 2), _lattice(pres, 0, 1, 2)
    det = abs(u2[0] * v2[1] - u2[1] * v2[0])
    for i in range(4):
        for j in range(i, 4):
            # A touching translate moves a point of box j onto one of box i.
            tx = max(abs(p[0] - q[0]) for p in polys[i] for q in polys[j])
            ty = max(abs(p[1] - q[1]) for p in polys[i] for q in polys[j])
            span = max(tx * abs(v2[1]) + ty * abs(v2[0]), tx * abs(u2[1]) + ty * abs(u2[0]))
            r = ceil(span / det)
            for alpha in range(-r, r + 1):
                for beta in range(-r, r + 1):
                    if i == j and alpha == beta == 0:
                        continue
                    t = _lattice(pres, alpha, beta, 2)
                    shifted = [
                        ((c[0] + t[0], c[1] + t[1]), (d[0] + t[0], d[1] + t[1]))
                        for c, d in segs[j]
                    ]
                    if any(segments_touch(a, b, c, d) for a, b in segs[i] for c, d in shifted):
                        return "mirror-disjoint", (
                            f"mirror-disjoint: mirror {i + 1} meets the 2*lambda1 "
                            f"translate {t} of mirror {j + 1}"
                        )
    return None


def test_mirror_validation_matches_brute_force():
    seen = set()

    @settings(max_examples=100, derandomize=True)
    @given(mirror_variants())
    def check(pres):
        expected = reference_mirror_verdict(pres)
        try:
            parse(serialize(pres))
            got = None
        except ValidationError as exc:
            got = (exc.invariant, str(exc) if exc.invariant == "mirror-disjoint" else None)
        assert got == expected
        seen.add(got[0] if got else "accepted")

    check()
    assert {"accepted", "mirror-disjoint"} <= seen
