import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netmap import bundled_presentation
from netmap.errors import HypothesisFailedError, MirrorsNotStabilizedError
from netmap.geometry import affine_preserves_mirrors
from netmap.lattice import IDENTITY, Basis2, mat_det, mat_inverse_unimodular, mat_mul
from netmap.presentation import parse
from netmap.slope import Slope, apply_matrix
from netmap.symmetry import (
    IDENTITY_MOBIUS,
    ConsistencyViolation,
    Mobius,
    aff_membership,
    consistency_suite,
    induced_map_domain,
    induced_map_range,
    reflection_equation,
    sublattice_matrix,
    twist_equation,
    twist_matrix,
)

SHEAR = ((1, 0), (5, 1))
FLIP = ((-1, 0), (1, 1))

coprime = st.tuples(
    st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40)
).filter(lambda pq: pq != (0, 0))


def _xgcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class TestTwistMatrix:
    def test_slope_zero(self):
        assert twist_matrix(Slope(0, 1)).matrix() == ((1, 2), (0, 1))

    def test_slope_infinity(self):
        assert twist_matrix(Slope(1, 0)).matrix() == ((1, 0), (-2, 1))

    def test_slope_one(self):
        assert twist_matrix(Slope(1, 1)).matrix() == ((3, 2), (-2, -1))

    @given(coprime)
    def test_parabolic_fixing_boundary_point(self, pq):
        s = Slope.of(*pq)
        m = twist_matrix(s)
        assert m.det == 1
        assert m.a + m.d == 2
        fixed = Slope.of(-s.q, s.p)
        assert m.apply_to_boundary(fixed) == fixed

    @given(coprime)
    def test_conjugation_identity(self, pq):
        # [[-q,-s],[p,r]] [[1,2],[0,1]] [[-q,-s],[p,r]]^-1 equals the
        # twist matrix, for any completion with p s - q r = 1.
        s = Slope.of(*pq)
        p, q = s.p, s.q
        g, a, b = _xgcd(p, -q)
        assert g == 1
        sc, rc = a, b  # p*sc - q*rc = 1
        m = ((-q, -sc), (p, rc))
        conj = mat_mul(mat_mul(m, ((1, 2), (0, 1))), mat_inverse_unimodular(m))
        assert conj == twist_matrix(s).matrix()


class TestTwistEquation:
    def test_infinity_equation(self, main_pres):
        eq = twist_equation(main_pres, Slope(1, 0))
        assert eq.inner_power == 5 and eq.outer_power == 2
        assert eq.inner.matrix() == eq.outer.matrix() == ((1, 0), (-2, 1))
        assert eq.render() == "Sigma_f . [[1,0],[-2,1]]^5 = [[1,0],[-2,1]]^2 . Sigma_f"

    def test_trivial_outer_when_inessential(self, double_pres):
        eq = twist_equation(double_pres, Slope(0, 1))
        assert eq.outer_power == 0
        assert eq.outer == IDENTITY_MOBIUS
        assert eq.render().endswith("= Sigma_f")


class TestMobius:
    def test_power_and_compose(self):
        m = twist_matrix(Slope(1, 0))
        assert m.power(5).matrix() == ((1, 0), (-10, 1))
        assert m.compose(m.power(4)) == m.power(5)

    def test_identity(self):
        assert IDENTITY_MOBIUS.is_identity()
        assert IDENTITY_MOBIUS.power(3) == IDENTITY_MOBIUS

    @pytest.mark.parametrize("slope", [Slope(1, 0), Slope(0, 1), Slope(-3, 4)])
    def test_negative_power_is_power_of_inverse(self, slope):
        m = twist_matrix(slope)
        assert m.power(-1) == m.inverse()
        assert m.power(-2).compose(m.power(2)).is_identity()
        assert m.power(2).compose(m.power(-2)).is_identity()
        assert not m.power(-2).is_identity()

    @pytest.mark.parametrize("slope", [Slope(0, 1), Slope(1, 0)])
    def test_power_by_squaring(self, slope):
        # The twist is I + 2*T with T = [[pq, q^2], [-p^2, -pq]] and
        # T^2 = 0, so its n-th power is I + 2n*T.
        n, p, q = 10**12, slope.p, slope.q
        closed = Mobius(1 + 2 * n * p * q, 2 * n * q * q, -2 * n * p * p, 1 - 2 * n * p * q)
        assert twist_matrix(slope).power(n) == closed
        for m in (twist_matrix(slope), Mobius(2, 1, 1, 1)):
            for a, b in product(range(-4, 5), repeat=2):
                assert m.power(a + b) == m.power(a).compose(m.power(b))

    def test_conjugating_powers(self):
        # z -> -conj(z) is an involution, and the flag is the parity.
        m = Mobius(1, 0, 0, -1, conjugating=True)
        assert m.power(0) == IDENTITY_MOBIUS
        assert m.power(1) == m.power(-1) == m.inverse() == m
        assert m.power(2) == IDENTITY_MOBIUS
        assert m.power(3) == m

    def test_conjugating_maps_compose_pointwise(self):
        # Exact Gaussian rationals x + iy as pairs: compose and inverse
        # agree with applying the maps one after the other.
        def apply(m, z):
            x, y = z[0], -z[1] if m.conjugating else z[1]
            num = (m.a * x + m.b, m.a * y)
            den = (m.c * x + m.d, m.c * y)
            norm = den[0] ** 2 + den[1] ** 2
            return ((num[0] * den[0] + num[1] * den[1]) / norm,
                    (num[1] * den[0] - num[0] * den[1]) / norm)

        rng = random.Random(5)
        z = (Fraction(1, 3), Fraction(2, 7))
        for _ in range(200):
            m, n = (Mobius(*(rng.randint(-5, 5) for _ in range(4)), rng.random() < 0.5)
                    for _ in range(2))
            if m.det == 0 or n.det == 0:
                continue
            assert apply(m.compose(n), z) == apply(m, apply(n, z))
            assert apply(m.inverse(), apply(m, z)) == z
            assert m.compose(n).conjugating == (m.conjugating != n.conjugating)

    def test_group_structure(self, main_pres):
        for linear in (SHEAR, ((2, 1), (1, 1))):
            m = induced_map_range(linear)
            assert m.compose(m.inverse()).is_identity()
            assert m.inverse().compose(m).is_identity()


class TestReflectionEquation:
    def test_valid_pair(self, main_pres):
        pair = reflection_equation(main_pres, Slope(2, 1), Slope(1, 0))
        assert tuple(map(str, pair.domain_endpoints)) == ("-1/2", "0")
        assert tuple(map(str, pair.image_endpoints)) == ("-1", "0")

    def test_orders_fail_basis_condition(self, main_pres):
        with pytest.raises(HypothesisFailedError) as err:
            reflection_equation(main_pres, Slope(0, 1), Slope(1, 0))
        assert err.value.reason == "NotBasisLambda1"

    def test_inessential_images_rejected(self, double_pres):
        with pytest.raises(HypothesisFailedError) as err:
            reflection_equation(double_pres, Slope(0, 1), Slope(1, 0))
        assert err.value.reason == "SigmaCollision"

    def test_non_basis_directions_rejected(self, main_pres):
        with pytest.raises(HypothesisFailedError) as err:
            reflection_equation(main_pres, Slope(2, 1), Slope(0, 1))
        assert err.value.reason == "NotBasisLambda2"


class TestAffMembership:
    def test_shear_is_special(self, main_pres):
        assert aff_membership(main_pres, SHEAR, (0, 0))

    def test_flip_is_general(self, main_pres):
        assert aff_membership(main_pres, FLIP, (0, 0))

    def test_translation_off_sublattice(self, main_pres):
        assert not aff_membership(main_pres, ((1, 0), (0, 1)), (1, 0))

    @pytest.mark.parametrize("linear", [((2, 0), (0, 1)), ((-1, 0), (0, 1))])
    def test_lattice_not_stabilized(self, main_pres, linear):
        # det 2; and u = (2, -1) sent to (-2, -1), outside lambda1.
        assert not aff_membership(main_pres, linear, (0, 0))

    def test_second_basis_vector_moved_off_sublattice(self):
        # lambda1 of tests/data/seed11.net is <(6, 0), (1, 1)>; the shear
        # keeps (6, 0) and sends (1, 1) to (2, 1).  On main no unimodular
        # map moves the second basis vector alone.
        pres = parse((Path(__file__).parent / "data" / "seed11.net").read_text())
        assert not aff_membership(pres, ((1, 1), (0, 1)), (0, 0))

    def test_sublattice_translation_is_member(self, main_pres):
        assert aff_membership(main_pres, ((1, 0), (0, 1)), (0, 5))


class TestInducedMaps:
    def test_range_action_shear(self):
        m = induced_map_range(SHEAR)
        assert m == Mobius(1, 0, 5, 1)  # z/(5z+1)

    def test_range_action_flip(self):
        m = induced_map_range(FLIP)
        assert m == Mobius(1, 0, 1, -1, conjugating=True)  # conj z / (conj z - 1)

    def test_range_action_identity(self):
        assert induced_map_range(((1, 0), (0, 1))).is_identity()

    def test_domain_action_shear(self, main_pres):
        assert sublattice_matrix(main_pres, SHEAR) == ((1, 0), (2, 1))
        m = induced_map_domain(main_pres, SHEAR, (0, 0))
        assert m == Mobius(1, 0, 2, 1)  # z/(2z+1)

    def test_domain_action_flip(self, main_pres):
        assert sublattice_matrix(main_pres, FLIP) == ((-1, 0), (0, 1))
        m = induced_map_domain(main_pres, FLIP, (0, 0))
        # (1 zbar + 0)/(0 zbar - 1) = -conj(z)
        assert m == Mobius(1, 0, 0, -1, conjugating=True)

    def test_mirror_moving_symmetry_unsupported(self, double_pres):
        assert aff_membership(double_pres, ((1, 0), (0, 1)), (2, 0))
        with pytest.raises(MirrorsNotStabilizedError):
            induced_map_domain(double_pres, ((1, 0), (0, 1)), (2, 0))


def _reference_preserves(pres, t):
    """Translation by t on the Fraction polylines: every mirror, a
    degenerate one as its midpoint, lands on a 2*L1 translate of a mirror
    of the same length, in either traversal order."""
    double = Basis2((2 * pres.lambda1.u[0], 2 * pres.lambda1.u[1]),
                    (2 * pres.lambda1.v[0], 2 * pres.lambda1.v[1]))
    polys = [m.full_polyline() for m in pres.mirrors]

    def lands_on(image, other):
        shift = (image[0][0] - other[0][0], image[0][1] - other[0][1])
        return (
            shift[0].denominator == shift[1].denominator == 1
            and double.contains((int(shift[0]), int(shift[1])))
            and all((a[0] - b[0], a[1] - b[1]) == shift for a, b in zip(image, other))
        )

    for poly in polys:
        image = tuple((x + t[0], y + t[1]) for x, y in poly)
        if not any(
            len(other) == len(image) and (lands_on(image, other) or lands_on(image[::-1], other))
            for other in polys
        ):
            return False
    return True


UNIMODULAR = [
    ((a, b), (c, d))
    for a, b, c, d in product(range(-2, 3), repeat=4)
    if mat_det(((a, b), (c, d))) in (1, -1)
]
CORNERS = [(x, y) for x in (-4, 0, 4) for y in (-4, 0, 4)]
SIDES = [(x, y) for x in (-2, 2) for y in (-4, 0, 4)]
# The answers of the former symmetry.stabilizes_mirrors over the affine
# symmetries with a linear part in UNIMODULAR and a translation in
# [-4, 4]^2: (number of symmetries, those that preserve the mirrors,
# None meaning all of them).
PINNED = {
    "main": (20, None),
    "double": (540, {
        ((-1, 0), (-2, 1)): SIDES,
        ((-1, 0), (0, -1)): CORNERS,
        ((-1, 1), (-2, 1)): CORNERS,
        ((-1, 1), (0, 1)): SIDES,
        ((1, -1), (0, -1)): SIDES,
        ((1, -1), (2, -1)): CORNERS,
        ((1, 0), (0, 1)): CORNERS,
        ((1, 0), (2, -1)): SIDES,
    }),
    "euclidean": (1620, None),
}


class TestAffinePreservesMirrors:
    @pytest.mark.parametrize("name, count", [("main", 35), ("double", 49), ("euclidean", 325)])
    def test_translations_match_polyline_reference(self, name, count):
        pres = bundled_presentation(name)
        box = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]
        preserving = [t for t in box if affine_preserves_mirrors(pres, IDENTITY, t)]
        assert preserving == [t for t in box if _reference_preserves(pres, t)]
        assert len(preserving) == count

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_affine_symmetries_match_pinned_answers(self, name):
        pres = bundled_presentation(name)
        symmetries = [
            (m, (x, y))
            for m in UNIMODULAR
            for x in range(-4, 5)
            for y in range(-4, 5)
            if aff_membership(pres, m, (x, y))
        ]
        count, pinned = PINNED[name]
        expected = set(symmetries) if pinned is None else {
            (m, t) for m, ts in pinned.items() for t in ts
        }
        assert len(symmetries) == count
        assert {c for c in symmetries if affine_preserves_mirrors(pres, *c)} == expected


class TestTwistEquationShadows:
    # Every twist functional equation has a slope-level shadow:
    # conjugating the boundary actions of inner^d and outer^c by the
    # slope <-> boundary-point correspondence must intertwine the slope
    # map.  This ties the zigzag, the pullback counts and the twist
    # matrices together through an independent relation.

    @staticmethod
    def check_shadows(pres):
        from math import gcd

        from netmap.slope import INESSENTIAL, boundary_point
        from netmap.slopefn import pullback_slope

        def act(m, s):
            return boundary_point(m.apply_to_boundary(boundary_point(s)))

        sources = [Slope(1, 0), Slope(0, 1), Slope(1, 2), Slope(-1, 2), Slope(3, 4)]
        xs = [Slope(1, 0)] + [
            Slope(p, q)
            for q in range(1, 7)
            for p in range(-6, 7)
            if gcd(p, q) == 1
        ]
        for s in sources:
            eq = twist_equation(pres, s)
            inner = eq.inner.power(eq.inner_power)
            outer = eq.outer.power(eq.outer_power)
            assert act(eq.inner, s) == s  # the twist fixes its own slope
            for x in xs:
                lhs = pullback_slope(pres, act(inner, x))
                rhs = pullback_slope(pres, x)
                if rhs is not INESSENTIAL:
                    rhs = act(outer, rhs)
                assert lhs == rhs

    def test_boundary_shadows_hold(self, main_pres):
        self.check_shadows(main_pres)

    def test_boundary_shadows_hold_when_the_correspondence_reverses_orientation(
        self, main_pres
    ):
        # The swapped basis has cross(u, v) < 0, so the outer factor is
        # the inverse twist about the image slope: infinity maps to 0
        # here, and the twist about 0 is [[1,2],[0,1]].
        swapped = main_pres._replace(correspondence=Basis2((0, 5), (2, -1)))
        eq = twist_equation(swapped, Slope(1, 0))
        assert eq.render() == "Sigma_f . [[1,0],[-2,1]]^5 = [[1,-2],[0,1]]^2 . Sigma_f"
        self.check_shadows(swapped)


class TestConsistencySuite:
    AFFINES = [(SHEAR, (0, 0)), (FLIP, (0, 0))]

    def test_passes_on_bundled_example(self, main_pres):
        report = consistency_suite(main_pres, self.AFFINES, 12)
        assert report.passed and report.checked > 0

    def test_shadow_identities_match_actions(self, main_pres):
        # The two affine symmetries act on slopes by x -> x + 5 and
        # x -> -x - 1; their domain actions by x -> x + 2 and x -> -x.
        m1 = sublattice_matrix(main_pres, SHEAR)
        for s in [Slope(0, 1), Slope(3, 2), Slope(1, 0), Slope(-4, 7)]:
            assert apply_matrix(SHEAR, s) == s.shift(5)
            assert apply_matrix(m1, s) == s.shift(2)
        m1f = sublattice_matrix(main_pres, FLIP)
        for s in [Slope(0, 1), Slope(3, 2), Slope(-4, 7)]:
            assert apply_matrix(FLIP, s) == Slope.of(-(s.p + s.q), s.q)
            assert apply_matrix(m1f, s) == -s

    def test_wrong_image_is_a_violation(self, main_pres, monkeypatch):
        import netmap.symmetry as symmetry

        real = symmetry.pullback_slope
        monkeypatch.setattr(symmetry, "pullback_slope", lambda pres, s: (
            Slope(7, 1) if s == Slope(1, 4) else real(pres, s)))
        report = consistency_suite(main_pres, [(SHEAR, (0, 0))], 12)
        # SHEAR takes -19/4, above height 12, to 1/4, so only s = 1/4 meets
        # the wrong image.
        assert report.violations == (ConsistencyViolation(Slope(1, 4), Slope(5, 2), Slope(9, 1)),)

    def test_identity_element_trivially_consistent(self, main_pres):
        report = consistency_suite(main_pres, [(((1, 0), (0, 1)), (0, 0))], 6)
        assert report.passed

    def test_non_symmetry_refused(self, main_pres):
        with pytest.raises(ValueError, match="is not an affine symmetry"):
            consistency_suite(main_pres, [(((2, 0), (0, 1)), (0, 0))], 6)

    def test_mirror_moving_symmetry_refused(self, double_pres):
        # A member of the group that moves the mirrors, as in
        # test_mirror_moving_symmetry_unsupported.
        with pytest.raises(MirrorsNotStabilizedError):
            consistency_suite(double_pres, [(((1, 0), (0, 1)), (2, 0))], 6)

    def test_corrupted_correspondence_detected(self, main_pres):
        # A basis change transforms the slope map and the domain action
        # covariantly, so the suite itself still passes on a swapped
        # correspondence; the literal identities of this example, with
        # their fixed right-hand sides, are what pin the basis down (up
        # to the harmless global sign).
        from netmap.slopefn import pullback_slope

        swapped = main_pres._replace(correspondence=Basis2((0, 5), (2, -1)))
        assert consistency_suite(swapped, self.AFFINES, 6).passed
        broken = 0
        for s in [Slope(1, 4), Slope(3, 2), Slope(1, 3), Slope(2, 7)]:
            if pullback_slope(swapped, s.shift(5)) != pullback_slope(
                swapped, s
            ).shift(2):
                broken += 1
        assert broken > 0

    def test_invariant_line_of_the_shadow_identities(self):
        # A line y = m x + b fixed by (x, y) -> (x + 5, y + 2) and by
        # (x, y) -> (-x - 1, -y): solve exactly.
        # m (x + 5) + b = m x + b + 2  =>  m = 2/5
        m = Fraction(2, 5)
        # -(m x + b) = m (-x - 1) + b  =>  b = m / 2
        b = m / 2
        assert (m, b) == (Fraction(2, 5), Fraction(1, 5))
        for x in (Fraction(0), Fraction(7, 3), Fraction(-11, 2)):
            y = m * x + b
            assert m * (x + 5) + b == y + 2
            assert m * (-x - 1) + b == -y
