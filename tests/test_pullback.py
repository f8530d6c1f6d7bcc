import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmap import bundled_presentation
from netmap.errors import NonEssentialError, ValidationError
from netmap.lattice import Basis2, order_in_quotient
from netmap.presentation import MirrorArc, NetMapPresentation, serialize, validate
from netmap.pullback import PullbackSummary, analyze_slope, coset_number, multiplier
from netmap.slope import Slope, enumerate_slopes
import netmap.slopefn as slopefn
from netmap.slopefn import segment_candidates

# One representative slope per residue class (q mod 20, 2p+q mod 5) of
# the bundled degree-10 example, with the published table row.
TABLE_ROWS = [
    ("1/1", 10, (0, 0, 1, 1), 1, 0, 0),
    ("2/1", 2, (0, 1, 4, 5), 3, 2, 0),
    ("1/3", 2, (0, 2, 3, 5), 1, 4, 0),
    ("1/4", 5, (0, 0, 2, 2), 2, 0, 0),
    ("-1/2", 1, (0, 2, 8, 10), 6, 4, 0),
    ("3/4", 1, (0, 0, 6, 6), 6, 0, 4),
    ("7/6", 1, (0, 4, 6, 10), 2, 8, 0),
    ("1/8", 1, (0, 0, 2, 2), 2, 0, 8),
]

coprime_pairs = st.tuples(
    st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=40)
).filter(lambda pq: (pq[0], pq[1]) != (0, 0) and gcd(pq[0], pq[1]) == 1)


class TestCosetNumber:
    def test_published_value(self):
        assert coset_number((2, 3), Slope(1, 4), 2) == 2

    def test_zero_vector(self):
        assert coset_number((0, 0), Slope(1, 4), 2) == 0
        assert coset_number((0, 0), Slope(3, 7), 5) == 0

    def test_direct_reduction(self):
        # p*r - q*s = 1*0 - 4*5 = -20 = 0 mod 4.
        assert coset_number((0, 5), Slope(1, 4), 2) == 0

    @given(coprime_pairs, st.integers(-30, 30), st.integers(-30, 30),
           st.integers(1, 12))
    def test_intersection_number_congruence(self, pq, r, s, d_prime):
        # For any eta the value is congruent to +-(p r - q s) mod 2 d'.
        slope = Slope.of(*pq)
        c = coset_number((r, s), slope, d_prime)
        m = 2 * d_prime
        assert 0 <= c <= d_prime
        assert (c - (slope.p * r - slope.q * s)) % m == 0 or (
            c + (slope.p * r - slope.q * s)
        ) % m == 0

    @given(coprime_pairs, st.integers(-30, 30), st.integers(-30, 30),
           st.integers(1, 12))
    def test_representative_sign_irrelevant(self, pq, r, s, d_prime):
        slope = Slope.of(*pq)
        assert coset_number((r, s), slope, d_prime) == coset_number(
            (-r, -s), slope, d_prime
        )


class TestAnalyzeSlope:
    @pytest.mark.parametrize("text,d,cs,ess,per,null", TABLE_ROWS)
    def test_published_table(self, main_pres, text, d, cs, ess, per, null):
        s = Slope.parse(text)
        m = analyze_slope(main_pres, s)
        assert (m.d, m.coset_numbers) == (d, cs)
        assert (m.essential, m.peripheral, m.null_homotopic) == (ess, per, null)
        assert m.d * m.d_prime == 10
        assert m.multiplier == Fraction(ess, d)

    @given(coprime_pairs)
    def test_counts_sum_to_component_count(self, main_pres, pq):
        m = analyze_slope(main_pres, Slope.of(*pq))
        assert m.essential + m.peripheral + m.null_homotopic == m.d_prime
        assert 0 <= m.coset_numbers[0] <= m.coset_numbers[3] <= m.d_prime

    def test_residue_classes_cover_table(self, main_pres):
        # Sweeping all small slopes only ever produces the eight rows.
        rows = {
            (r[1], r[2], r[3], r[4], r[5]) for r in TABLE_ROWS
        }
        for q in range(0, 25):
            for p in range(-25, 26):
                if (p, q) == (0, 0) or gcd(p, q) != 1:
                    continue
                m = analyze_slope(main_pres, Slope.of(p, q))
                row = (m.d, m.coset_numbers, m.essential, m.peripheral,
                       m.null_homotopic)
                assert row in rows


class TestMultiplier:
    def test_published_values(self, main_pres):
        assert multiplier(main_pres, Slope(1, 0)) == Fraction(2, 5)
        assert multiplier(main_pres, Slope(1, 8)) == 2
        assert multiplier(main_pres, Slope(-1, 2)) == 6


class TestUnitRescaling:
    def test_table_rows_related_by_units(self, main_pres):
        # The two d = 2 rows are related by the unit 3 mod 10, and the
        # d = 1 rows pair up under the unit 3 mod 20.
        def unit_image(cs, u, m):
            out = []
            for c in cs:
                v = (u * c) % m
                out.append(min(v, m - v))
            return tuple(sorted(out))

        assert unit_image((0, 1, 4, 5), 3, 10) == (0, 2, 3, 5)
        assert unit_image((0, 2, 8, 10), 3, 20) == (0, 4, 6, 10)
        assert unit_image((0, 0, 6, 6), 3, 20) == (0, 0, 2, 2)

    @given(coprime_pairs, st.integers(min_value=0, max_value=25))
    def test_rescaled_slopes_match(self, main_pres, pq, shift):
        # (p', q') = (p + 2d'a, q + 2d'b) keeps the residue class, so
        # equal coset numbers whenever the degree d agrees.
        s = Slope.of(*pq)
        m = analyze_slope(main_pres, s)
        step = 2 * m.d_prime
        p2, q2 = s.p + step * shift, s.q + step * shift
        if (p2, q2) == (0, 0) or gcd(p2, q2) != 1:
            return
        s2 = Slope.of(p2, q2)
        m2 = analyze_slope(main_pres, s2)
        if m2.d == m.d:
            assert m2.coset_numbers == m.coset_numbers


# ---------------------------------------------------------------------------
# Class plans against a direct, per-slope computation


def reference_summary(pres, slope):
    d = order_in_quotient((slope.q, slope.p), pres.lambda1)
    d_prime = pres.lambda1.index // d
    cs = tuple(sorted(coset_number(h, slope, d_prime) for h in pres.postcritical))
    return PullbackSummary(
        d, d_prime, cs, cs[2] - cs[1], cs[1] - cs[0] + cs[3] - cs[2],
        cs[0] - cs[3] + d_prime,
    )


def _in_double_l1(pres, x):
    coords = pres.lambda1.integer_coords(x)
    return coords is not None and coords[0] % 2 == 0 and coords[1] % 2 == 0


def reference_segments(pres, slope):
    """Marked segments by walking from each h, with membership in 2*L1
    tested directly; a class that is both postcritical and in L1 counts
    as postcritical."""
    summary = reference_summary(pres, slope)
    if summary.essential == 0:
        return NonEssentialError
    u, v = pres.lambda1.u, pres.lambda1.v
    l1_reps = [(0, 0), u, v, (u[0] + v[0], u[1] + v[1])]

    def marked(pt):
        for h in pres.postcritical:
            for x in (h, (-h[0], -h[1])):
                if _in_double_l1(pres, (pt[0] - x[0], pt[1] - x[1])):
                    return "P2"
        for rep in l1_reps:
            if _in_double_l1(pres, (pt[0] - rep[0], pt[1] - rep[1])):
                return "P1"
        return None

    c2, c3 = summary.coset_numbers[1], summary.coset_numbers[2]
    out = []
    for target in ([c2] if c2 == c3 else [c2, c3]):
        for h in pres.postcritical:
            if coset_number(h, slope, summary.d_prime) != target:
                continue
            for sign in (1, -1):
                for t in range(1, 2 * summary.d + 1):
                    pt = (h[0] + sign * t * slope.q, h[1] + sign * t * slope.p)
                    kind = marked(pt)
                    if kind == "P2":
                        out.append((h, pt))
                    if kind is not None:
                        break
    return out


def _plan_outcome(pres, slope):
    try:
        return list(segment_candidates(pres, slope))
    except NonEssentialError:
        return NonEssentialError


def _check_plans(pres, slopes):
    for s in slopes:
        assert analyze_slope(pres, s) == reference_summary(pres, s)
        assert _plan_outcome(pres, s) == reference_segments(pres, s)
    m = 2 * pres.lambda1.index
    assert len(pres.context.summaries) == len({(s.q % m, s.p % m) for s in slopes})


@pytest.mark.parametrize("name", ["main", "double", "euclidean"])
def test_class_plans_match_direct_computation(name):
    pres = bundled_presentation(name)
    _check_plans(pres, enumerate_slopes(40))


def _count_walks(monkeypatch):
    walks = []
    walk = slopefn._walk_to_marked
    monkeypatch.setattr(
        slopefn, "_walk_to_marked", lambda *args: walks.append(args) or walk(*args)
    )
    return walks


def test_a_class_walks_its_marked_segments_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    pres = bundled_presentation("main")
    first = list(segment_candidates(pres, Slope(1, 4)))
    assert first and walks
    # 21/4 is 1/4 moved by 2N = 20 in p: the same class, so no walk.
    walks.clear()
    shifted = list(segment_candidates(pres, Slope(21, 4)))
    assert walks == []
    assert [v for v, _ in shifted] == [v for v, _ in first]


def test_the_long_segment_check_walks_for_the_zigzag(monkeypatch):
    # The long-segment check walks the class of a slope past its height
    # pre-check; the slope's segment candidates then walk nothing.
    walks = _count_walks(monkeypatch)
    pres, x = bundled_presentation("main"), Slope(99999999, 100000000)
    assert analyze_slope(pres, x).essential > 0
    slopefn._segment_is_long(pres, x)
    assert walks
    walks.clear()
    assert list(segment_candidates(pres, x))
    assert walks == []


def random_presentation(seed):
    """A valid presentation with L1 = <(a, 0), (b, c)> of index 2..36.

    A postcritical point on L1 gets a degenerate mirror, any other a
    straight one to the nearest point of L1.  Draws repeat until one
    passes validation.
    """
    rng = random.Random(seed)
    while True:
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        if a * c < 2:
            continue
        basis = Basis2((a, 0), (rng.randint(0, a - 1), c))
        hs = tuple((rng.randint(0, 2 * a), rng.randint(0, 2 * c)) for _ in range(4))
        mirrors = []
        for h in hs:
            if basis.contains(h):
                mirrors.append(MirrorArc(h))
                continue
            near = [
                (i * basis.u[0] + j * basis.v[0], i * basis.u[1] + j * basis.v[1])
                for i in range(-4, 5)
                for j in range(-4, 5)
            ]
            mid = min(near, key=lambda m: ((m[0] - h[0]) ** 2 + (m[1] - h[1]) ** 2, m))
            mirrors.append(MirrorArc(mid, ((Fraction(h[0]), Fraction(h[1])),)))
        pres = NetMapPresentation("random", basis, hs, tuple(mirrors), basis)
        try:
            validate(pres)
        except ValidationError:
            continue
        return pres


def test_seed_11_data_file():
    # tests/data/seed11.net is random_presentation(11), written out.
    path = Path(__file__).parent / "data" / "seed11.net"
    assert path.read_text() == serialize(random_presentation(11))


@settings(max_examples=25)
@given(st.integers(0, 2**32))
def test_class_plans_on_other_lattices(seed):
    pres = random_presentation(seed)
    step = 2 * pres.lambda1.index
    slopes = enumerate_slopes(10)
    # Shifts by 2N keep the class, so later slopes reuse the plans.
    slopes += [
        Slope(s.p + step * x, s.q + step * y)
        for s in enumerate_slopes(4)
        for x, y in ((1, 0), (0, 1), (-2, 3))
        if gcd(s.p + step * x, s.q + step * y) == 1
    ]
    _check_plans(pres, slopes)
