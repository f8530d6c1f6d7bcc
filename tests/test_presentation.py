import pytest

from netmap.errors import PresentationSyntaxError, ValidationError
from netmap.slope import Slope
from netmap.slopefn import pullback_slope
from netmap.presentation import (
    degree,
    is_euclidean,
    parse,
    preimage_coset_table,
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
