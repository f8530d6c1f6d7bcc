from fractions import Fraction
from importlib import resources
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmap import bundled_presentation, presentation
from netmap.errors import PresentationSyntaxError, ValidationError
from netmap.geometry import _polyline_self_intersects, segments_touch
from netmap.halfspace import exclusion_halfspace
from netmap.nonsep import FinAbGroup
from netmap.obstruction import obstruction_report
from netmap.pullback import analyze_slope
from netmap.slope import Slope
from netmap.slopefn import pullback_slope
from netmap.presentation import (
    MirrorArc,
    NetMapPresentation,
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


def _zigzag_main(k):
    """main with mirror 3 bent into a zigzag of k rational vertices
    between (2,-1) and (2,0): 2k + 2 segments once rotated about (2,-1)."""
    path = " ".join(
        f"({2 + Fraction((-1) ** i, 4)},{Fraction(i, k + 1) - 1})" for i in range(1, k + 1)
    )
    return MAIN_TEXT.replace("mirror 3 = (2,-1) : (2,0)", f"mirror 3 = (2,-1) : {path} (2,0)")


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

    @pytest.mark.parametrize("k, invariant", [
        (10, "mirror-disjoint"), (1000, "mirror-disjoint"),
        (10**4, "mirror-extent"), (10**6, "mirror-extent"),
    ])
    def test_mirror_extent_is_refused_before_the_translate_walk(self, k, invariant, monkeypatch):
        # Mirror 3 bent out to (2 + 4k, 68k + 10) meets its own
        # translates; from k = 10^4 on, counting the lines of translates
        # to walk refuses it before any is walked.
        from netmap import geometry

        text = MAIN_TEXT.replace(
            "mirror 3 = (2,-1) : (2,0)", f"mirror 3 = (2,-1) : (3,1) ({2 + 4 * k},{68 * k + 10})"
        )
        if invariant == "mirror-extent":
            monkeypatch.setattr(geometry, "_parallelogram_candidates", None)
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert err.value.invariant == invariant

    @staticmethod
    def _forbid_contact_checks(monkeypatch):
        from netmap import geometry

        def called(*args):
            pytest.fail("a contact check ran before the refusal")

        for name in ("_polyline_self_intersects", "segments_touch", "_alpha_lines",
                     "_parallelogram_candidates"):
            monkeypatch.setattr(geometry, name, called)

    def test_zigzag_mirror_within_the_segment_limit_parses(self):
        # 202 segments, 40,804 pairs with themselves.
        assert parse(_zigzag_main(100)).mirrors[2].half_path[-1] == (2, 0)

    @pytest.mark.parametrize("k, pairs", [(157, 101131), (200, 163223), (400, 646423)])
    def test_zigzag_mirror_is_refused_before_any_contact_check(self, k, pairs, monkeypatch):
        # 2k + 2 segments pair with themselves (2k + 2)^2 times and with the
        # other mirrors' 4 segments 4 * (2k + 2) times, and those 4 pair
        # among themselves 11 times: above the limit, so counting them
        # refuses the mirror before the simple-arc test or the
        # disjointness check takes a single pair.
        assert pairs == (2 * k + 2) ** 2 + 4 * (2 * k + 2) + 11
        text = _zigzag_main(k)
        self._forbid_contact_checks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == (
            f"mirror-extent: checking the mirrors for contact would compare "
            f"{pairs} pairs of segments, above the limit of 100000"
        )

    @pytest.mark.parametrize("k, pairs", [(100, 123223), (157, 300835)])
    def test_two_zigzag_mirrors_are_refused_by_their_sum(self, k, pairs, monkeypatch):
        # Mirrors 3 and 4 are each within the limit on their own pairs,
        # but the pairs over all mirrors sum above it: refused before
        # any contact check, where a limit on each pair of mirrors let
        # them through to a second or more of contact checks.
        text = _zigzag_main(k).replace(
            "mirror 4 = (2,4) : (2,3)",
            "mirror 4 = (2,4) : "
            + " ".join(
                f"({2 + Fraction((-1) ** i, 4)},{4 - Fraction(i, k + 1)})" for i in range(1, k + 1)
            )
            + " (2,3)",
        )
        self._forbid_contact_checks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == (
            f"mirror-extent: checking the mirrors for contact would compare "
            f"{pairs} pairs of segments, above the limit of 100000"
        )

    def test_syntax_errors(self):
        with pytest.raises(PresentationSyntaxError):
            parse("name main\n")
        with pytest.raises(PresentationSyntaxError):
            parse(MAIN_TEXT.replace("(2,-1) (0,5)", "(2,-1) (0,5) junk", 1))
        with pytest.raises(PresentationSyntaxError):
            parse("name = x\nlambda1 = (2,-1) (0,5)\n")  # missing fields


class TestLineMessages:
    @pytest.mark.parametrize("old, new, message", [
        ("mirror 3 = (2,-1)", "mirror 3 = (2,x)",
         "line 8: expected an integer vector, got '(2,x)'"),
        ("(2,-1) : (2,0)", "(2,-1) : (2,0) (3,y)", "line 8: trailing junk in point list: '(3,y)'"),
        ("(2,-1) : (2,0)", "(2,-1) : (2/0,0)", "line 8: trailing junk in point list: '(2/0,0)'"),
        ("(2,-1) : (2,0)", "(2,-1) (2,0)", "line 8: mirror line needs ':'"),
        ("(2,-1) : (2,0)", "(2,-1) :", "line 8: empty mirror path"),
        ("name = main", "colour = red", "line 2: unknown key 'colour'"),
        ("mirror 4 =", "mirror  3 =", "line 9: duplicate key 'mirror  3'"),
    ])
    def test_syntax_message(self, old, new, message):
        with pytest.raises(PresentationSyntaxError) as err:
            parse(MAIN_TEXT.replace(old, new))
        assert str(err.value) == message

    @pytest.mark.parametrize("line", [
        "name = other",
        "lambda1 = (2,-1) (0,5)",
        "postcritical = (0,0) (0,5) (2,0) (2,3)",
        "correspondence = (2,-1) (0,5)",
        "mirror 1 = (0,0) : degenerate",
        "mirror 2 = (0,5) : degenerate",
        "mirror 3 = (2,-1) : (2,0)",
        "mirror 4 = (2,4) : (2,3)",
    ])
    def test_repeated_key(self, line):
        # MAIN_TEXT sets every key once on lines 2-9; a second line for
        # any of them is refused, whatever its value.
        key = line.split("=")[0].strip()
        with pytest.raises(PresentationSyntaxError) as err:
            parse(MAIN_TEXT + line + "\n")
        assert str(err.value) == f"line 10: duplicate key {key!r}"

    @pytest.mark.parametrize("old, new, invariant, message", [
        ("correspondence = (2,-1) (0,5)", "correspondence = (2,-1) (0,10)", "correspondence",
         "correspondence vectors do not form a basis of lambda1"),
        ("mirror 1 = (0,0) : degenerate", "mirror 1 = (0,5) : degenerate", "mirror-degenerate",
         "mirror 1 midpoint is not in the class of h1"),
        ("(2,-1) : (2,0)", "(2,-1) : (2,1/2)", "mirror-terminal", "mirror 3 terminal "
         "(2, 1/2) is not a lattice point"),
    ])
    def test_validation_message(self, old, new, invariant, message):
        with pytest.raises(ValidationError) as err:
            parse(MAIN_TEXT.replace(old, new))
        assert (err.value.invariant, str(err.value)) == (invariant, f"{invariant}: {message}")


class TestVectorFieldMessages:
    FIELDS = [("lambda1", 3, "two"), ("postcritical", 4, "four"), ("correspondence", 5, "two")]

    @pytest.mark.parametrize("field, lineno, count", FIELDS)
    def test_missing_field(self, field, lineno, count):
        text = MAIN_TEXT.replace(MAIN_TEXT.splitlines()[lineno - 1] + "\n", "")
        with pytest.raises(PresentationSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"missing fields: {field}"

    @pytest.mark.parametrize("field, lineno, count", FIELDS)
    @pytest.mark.parametrize("change", ["one more", "one fewer"])
    def test_wrong_vector_count(self, field, lineno, count, change):
        line = MAIN_TEXT.splitlines()[lineno - 1]
        wrong = line + " (1,1)" if change == "one more" else line.rsplit(" ", 1)[0]
        with pytest.raises(PresentationSyntaxError) as err:
            parse(MAIN_TEXT.replace(line, wrong))
        assert str(err.value) == f"line {lineno}: {field} needs {count} vectors"

    def test_every_field_missing(self):
        with pytest.raises(PresentationSyntaxError) as err:
            parse("# nothing here\n")
        assert str(err.value) == (
            "missing fields: name, lambda1, postcritical, correspondence, mirror 1..4"
        )


def test_separate_parses_share_no_memo():
    first, second = parse(MAIN_TEXT), parse(MAIN_TEXT)
    assert pullback_slope(first, Slope(1, 4)) == Slope(1, 2)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert first.context is not second.context
    assert Slope(1, 4) in first.context.images
    assert not second.context.images and not second.context.summaries


# Each builds one kind of record from a fresh parse of main.
RECORDS = {
    # Memoised: every slope of the class of 1/4 mod 2N gets this object.
    "PullbackSummary": lambda pres: analyze_slope(pres, Slope(1, 4)),
    "NetMapPresentation": lambda pres: pres,
    "PresentationContext": lambda pres: pres.context,
    "Basis2": lambda pres: pres.lambda1,
    "FinAbGroup": lambda pres: FinAbGroup(4, 2),
    "HalfSpace": lambda pres: exclusion_halfspace(pres, Slope(1, 4)),
    "Certificate": lambda pres: obstruction_report(pres, 8).certificate,
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable_and_copies_are_fresh(build):
    pres = parse(MAIN_TEXT)
    record = build(pres)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert analyze_slope(pres, Slope(1, 4)) is analyze_slope(pres, Slope(21, 4))
    fresh = pres._replace()
    assert fresh == pres and hash(fresh) == hash(pres)
    assert type(fresh) is NetMapPresentation and not vars(fresh)
    assert fresh.context is not pres.context
    assert not (fresh.context.summaries or fresh.context.segments or fresh.context.images)


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


def _euclidean_by_classes(pres):
    """is_euclidean as it once worked the classes out: every h in L1, and
    four distinct classes."""
    if not all(pres.lambda1.contains(h) for h in pres.postcritical):
        return False
    return len({pres.context.table.key(h) for h in pres.postcritical}) == 4


def _coset_table_by_classes(pres):
    """preimage_coset_table as it once worked the classes out."""
    table = pres.context.table
    rows = []
    hit_p1_keys = set()
    for h in pres.postcritical:
        if pres.lambda1.contains(h):
            rows.append((h, "P1&P2"))
            hit_p1_keys.add(table.key(h))
    u, v = pres.lambda1.u, pres.lambda1.v
    for rep in ((0, 0), u, v, (u[0] + v[0], u[1] + v[1])):
        if table.key(rep) not in hit_p1_keys:
            rows.append((rep, "P1-P2"))
    for h in pres.postcritical:
        if not pres.lambda1.contains(h):
            rows.append((h, "P2-P1"))
            rows.append(((-h[0], -h[1]), "P2-P1"))
    return rows


def test_marked_class_readers_match_the_class_formulas(main_pres, double_pres, euclidean_pres):
    from test_pullback import random_presentation

    presentations = [main_pres, double_pres, euclidean_pres]
    presentations += [random_presentation(seed) for seed in range(40)]
    verdicts = set()
    for pres in presentations:
        assert preimage_coset_table(pres) == _coset_table_by_classes(pres)
        verdicts.add(is_euclidean(pres))
        assert is_euclidean(pres) == _euclidean_by_classes(pres)
    assert verdicts == {True, False}


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


BENT_MAIN_TEXT = MAIN_TEXT.replace(
    "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (5/2,-1/2) (2,0)"
)


def _coordinates(pres):
    return [c for m in pres.mirrors for p in m.full_polyline() for c in p]


def test_integer_files_build_no_fraction(monkeypatch):
    texts = [resources.files("netmap.data").joinpath(f"{name}.net").read_text("utf-8")
             for name in ("main", "double", "euclidean")]
    texts.append((Path(__file__).parent / "data" / "seed11.net").read_text("utf-8"))

    def no_fraction(*args):
        raise AssertionError("Fraction built for an integer vertex")

    with monkeypatch.context() as patch:
        patch.setattr(presentation, "Fraction", no_fraction)
        parsed = [parse(text) for text in texts]
    for pres in parsed:
        assert all(type(c) is int for c in _coordinates(pres)), pres.name
    bent = parse(BENT_MAIN_TEXT)
    assert bent.mirrors[2].half_path == ((Fraction(5, 2), Fraction(-1, 2)), (2, 0))
    assert type(bent.mirrors[2].half_path[0][0]) is Fraction
    for pres in [*parsed, bent]:
        assert parse(serialize(pres)) == pres


def test_fraction_vertices_equal_their_parsed_twin():
    # random_presentation writes every vertex as a Fraction; parsed, the
    # same vertices are ints.
    from test_pullback import random_presentation

    built = random_presentation(11)
    twin = parse(serialize(built))
    assert any(type(c) is Fraction for c in _coordinates(built))
    assert all(type(c) is int for c in _coordinates(twin))
    assert twin == built and hash(twin) == hash(built)


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
    return pres._replace(mirrors=tuple(mirrors))


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


def _touch_four_clauses(p1, p2, q1, q2) -> bool:
    """Closed segments p1p2 and q1q2 meet: a proper crossing, or an
    endpoint of either on the other (four collinearity clauses)."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def within(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    o1, o2, o3, o4 = orient(p1, p2, q1), orient(p1, p2, q2), orient(q1, q2, p1), orient(q1, q2, p2)
    return (o1 != o2 and o3 != o4) or any(
        o == 0 and within(a, b, c)
        for o, (a, b, c) in zip((o1, o2, o3, o4), ((p1, p2, q1), (p1, p2, q2),
                                                  (q1, q2, p1), (q1, q2, p2))))


def test_segments_touch_matches_four_clause_reference():
    # Every pair of segments, points included, with ends in {-2..2}^2.
    points = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    segments = [(a, b) for a in points for b in points]
    for p1, p2 in segments:
        for q1, q2 in segments:
            assert segments_touch(p1, p2, q1, q2) == _touch_four_clauses(p1, p2, q1, q2), (
                p1, p2, q1, q2)
