import copy
import hashlib
import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netmap.errors import ValidationError, ZeroVectorError
from netmap.lattice import (
    Basis2,
    mat_det,
    mat_mul,
    order_in_quotient,
    quotient_presentation,
    smith_normal_form,
)
from netmap.nonsep import FinAbGroup
from netmap.slope import Slope, enumerate_slopes

MAIN_SUBLATTICE = Basis2((2, -1), (0, 5))

ints = st.integers(min_value=-60, max_value=60)
vecs = st.tuples(ints, ints)


def nonsingular_bases():
    return (
        st.tuples(vecs, vecs)
        .filter(lambda uv: uv[0][0] * uv[1][1] - uv[0][1] * uv[1][0] != 0)
        .map(lambda uv: Basis2(uv[0], uv[1]))
    )


@pytest.mark.parametrize(
    "record, bad, error",
    [(Basis2((1, 0), (0, 1)), {"v": (2, 0)}, ValidationError),
     (FinAbGroup(2, 2), {"m": 0}, ValueError)],
    ids=["Basis2", "FinAbGroup"],
)
def test_checked_records_check_every_copy(record, bad, error):
    assert record._replace() == record and type(record._replace()) is type(record)
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(error):
        record._replace(**bad)


class TestSlopeNormalization:
    def test_gcd_reduction(self):
        assert Slope.of(2, 4) == Slope(1, 2)

    def test_canonical_infinity(self):
        assert Slope.of(3, 0) == Slope(1, 0)
        assert Slope.of(-7, 0) == Slope(1, 0)

    def test_sign_normalization(self):
        assert Slope.of(1, -2) == Slope(-1, 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            Slope.of(0, 0)

    @given(ints, ints)
    def test_parse_round_trip(self, p, q):
        if p == 0 and q == 0:
            return
        s = Slope.of(p, q)
        assert Slope.parse(str(s)) == s

    def test_ordering_infinity_greatest(self):
        assert Slope.of(10, 1) < Slope(1, 0)
        assert Slope.of(-1, 2) < Slope.of(0, 1)

    def test_comparisons_are_by_value_never_by_tuple(self):
        # Infinity is above every rational; <= and >= follow the same
        # value order, where tuple order would put 2/1 above 1/0.
        slopes = enumerate_slopes(8)

        def key(s):
            return (1, 0) if s.q == 0 else (0, Fraction(s.p, s.q))

        for a in slopes:
            for b in slopes:
                assert (a < b, a > b) == (key(a) < key(b), key(a) > key(b)), (a, b)
                assert (a <= b, a >= b) == (key(a) <= key(b), key(a) >= key(b)), (a, b)
        assert not Slope(2, 1) > Slope(1, 0)

    def test_an_immutable_pair(self):
        s = Slope.of(-6, 4)
        assert repr(s) == "Slope(p=-3, q=2)"
        assert s == (-3, 2) and hash(s) == hash((-3, 2))
        assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s
        assert type(pickle.loads(pickle.dumps(s))) is Slope
        with pytest.raises(AttributeError):
            s.p = 3


class TestOrderInQuotient:
    @pytest.mark.parametrize(
        "v,expected", [((1, 0), 10), ((0, 1), 5), ((1, 2), 2)]
    )
    def test_main_sublattice_orders(self, v, expected):
        assert order_in_quotient(v, MAIN_SUBLATTICE) == expected

    @given(vecs, nonsingular_bases())
    def test_order_divides_index_and_is_minimal(self, v, basis):
        d = order_in_quotient(v, basis)
        assert basis.index % d == 0
        assert basis.contains((d * v[0], d * v[1]))
        assert not any(basis.contains((e * v[0], e * v[1])) for e in range(1, d))


class TestSmithNormalForm:
    def test_equal_entry_matrix_terminates(self):
        # Regression: gcd transforms alone ping-pong forever on matrices
        # whose pivot already divides the off-diagonal entries.
        u, d, v = smith_normal_form(((-6, -6), (0, -6)))
        assert d == ((6, 0), (0, 6))
        assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1

    def test_pinned_on_small_matrices(self):
        # Every nonsingular matrix with entries in [-4, 4], and the repr
        # of its (U, D, V), hashed: this pins U and V, which the
        # property test below leaves free, and on which the coordinates
        # of quotient_presentation depend.
        entries = product(range(-4, 5), repeat=4)
        mats = [((a, b), (c, d)) for a, b, c, d in entries if a * d != b * c]
        text = "\n".join(repr(smith_normal_form(m)) for m in mats)
        assert len(mats) == 6016
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f3f7dc6bc25de7e1a7a0fc267cf5da7722bf3e5da8628e3ae289c5df581c45fb"
        )

    @given(nonsingular_bases())
    def test_decomposition(self, basis):
        m = ((basis.u[0], basis.v[0]), (basis.u[1], basis.v[1]))
        u, d, v = smith_normal_form(m)
        assert abs(mat_det(u)) == 1
        assert abs(mat_det(v)) == 1
        assert mat_mul(mat_mul(u, m), v) == d
        assert d[0][1] == d[1][0] == 0
        assert d[0][0] > 0 and d[1][1] > 0
        assert d[1][1] % d[0][0] == 0


class TestQuotientPresentation:
    def test_main_example_invariant_factors(self):
        # Oracle: gcd of the scaled entries and the determinant.
        from math import gcd

        entries = (4, 0, -2, 10)
        d1 = gcd(*entries)
        d2 = abs(4 * 10 - 0 * (-2)) // d1
        q = quotient_presentation(MAIN_SUBLATTICE, scale=2)
        assert (q.m, q.n) == (d1, d2) == (2, 20)

    def test_identity_sublattice(self):
        q = quotient_presentation(Basis2((1, 0), (0, 1)), scale=2)
        assert (q.m, q.n) == (2, 2)

    def test_doubled_lattice(self):
        q = quotient_presentation(Basis2((2, 0), (0, 2)), scale=2)
        assert (q.m, q.n) == (4, 4)

    @given(nonsingular_bases(), st.sampled_from([1, 2]))
    def test_factors_multiply_to_scaled_index(self, basis, scale):
        q = quotient_presentation(basis, scale)
        assert q.m * q.n == scale * scale * basis.index
        assert q.n % q.m == 0


class TestReduceMod:
    def test_zero_maps_to_zero(self):
        q = quotient_presentation(MAIN_SUBLATTICE, scale=2)
        assert q.reduce((0, 0)) == (0, 0)

    @given(vecs, vecs)
    def test_homomorphism(self, a, b):
        q = quotient_presentation(MAIN_SUBLATTICE, scale=2)
        lhs = q.reduce((a[0] + b[0], a[1] + b[1]))
        assert lhs == q.add(q.reduce(a), q.reduce(b))

    def test_kernel_is_scaled_sublattice(self):
        q = quotient_presentation(MAIN_SUBLATTICE, scale=2)
        doubled = Basis2((4, -2), (0, 10))
        for x in range(-10, 11):
            for y in range(-10, 11):
                in_kernel = q.reduce((x, y)) == (0, 0)
                assert in_kernel == doubled.contains((x, y))

    def test_round_trip(self):
        q = quotient_presentation(MAIN_SUBLATTICE, scale=2)
        for a in range(q.m):
            for b in range(q.n):
                assert q.reduce(q.lift((a, b))) == (a, b)

    def test_scaled_basis_vectors_vanish(self):
        q = quotient_presentation(MAIN_SUBLATTICE, scale=2)
        assert q.reduce((4, -2)) == (0, 0)
        assert q.reduce((0, 10)) == (0, 0)
