"""Exact integer-lattice and finite-abelian-quotient arithmetic.

Everything here is plain integer arithmetic: vectors in Z^2, rank-2
sublattices given by a basis, orders of vectors in the quotient, and
Smith normal form for presenting quotients Z^2 / (scale * sublattice)
as Z/m + Z/n with stored coordinate transforms.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import ValidationError

Vec = tuple[int, int]
Mat2 = tuple[tuple[int, int], tuple[int, int]]


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vneg(a: Vec) -> Vec:
    return (-a[0], -a[1])


def vscale(k: int, a: Vec) -> Vec:
    return (k * a[0], k * a[1])


def cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def mat_vec(m: Mat2, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inverse_unimodular(m: Mat2) -> Mat2:
    """Inverse of an integer matrix with determinant +-1."""
    det = mat_det(m)
    if det not in (1, -1):
        raise ValueError(f"matrix {m} is not unimodular")
    return (
        (m[1][1] * det, -m[0][1] * det),
        (-m[1][0] * det, m[0][0] * det),
    )


IDENTITY: Mat2 = ((1, 0), (0, 1))


class _Basis2(NamedTuple):
    u: Vec
    v: Vec


class Basis2(_Basis2):
    """Ordered pair of lattice vectors spanning a finite-index sublattice.

    The fields are a NamedTuple; this subclass checks them on
    construction, which a NamedTuple body may not.
    """

    __slots__ = ()

    def __new__(cls, u: Vec, v: Vec):
        if cross(u, v) == 0:
            raise ValidationError("basis", f"vectors {u}, {v} are parallel")
        return super().__new__(cls, u, v)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy through _make, so copies are checked too.
        return cls(*iterable)

    @property
    def det(self) -> int:
        return cross(self.u, self.v)

    @property
    def index(self) -> int:
        """Index of the spanned sublattice in Z^2."""
        return abs(self.det)

    def adjugate_coords(self, w: Vec) -> Vec:
        """det * (coordinates of w in this basis); always integral."""
        return (cross(w, self.v), cross(self.u, w))

    def contains(self, w: Vec) -> bool:
        (ux, uy), (vx, vy) = self  # det and the adjugate coordinates of w
        d = ux * vy - uy * vx
        return (w[0] * vy - w[1] * vx) % d == 0 and (ux * w[1] - uy * w[0]) % d == 0

    def integer_coords(self, w: Vec) -> Vec | None:
        """Coordinates of w in this basis if integral, else None."""
        d = self.det
        n1, n2 = self.adjugate_coords(w)
        if n1 % d or n2 % d:
            return None
        return (n1 // d, n2 // d)


def order_in_quotient(w: Vec, sublattice: Basis2) -> int:
    """Order of the image of w in Z^2 / sublattice.

    This is the smallest d >= 1 with d*w in the sublattice.  With
    (n1, n2) = det * (coordinates of w), d*w lies in the sublattice
    exactly when det divides d*n1 and d*n2, that is when
    det / gcd(det, n1, n2) divides d; so the order divides the index.
    """
    return sublattice.index // gcd(sublattice.det, *sublattice.adjugate_coords(w))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _clear(x: int, y: int) -> Mat2:
    """Unimodular W with W*(x, y) = (g, 0).

    When x divides y an elementary step suffices and keeps g = x;
    otherwise the gcd transform gives g = gcd(x, y), strictly smaller
    than |x|, which is what guarantees termination in
    ``smith_normal_form``.
    """
    if x != 0 and y % x == 0:
        return ((1, 0), (-(y // x), 1))
    g, s, t = _xgcd(x, y)
    return ((s, t), (-(y // g), x // g))


def smith_normal_form(m: Mat2) -> tuple[Mat2, Mat2, Mat2]:
    """(U, D, V) with U*m*V = D = diag(d1, d2), d1 | d2, d1, d2 > 0.

    U and V are unimodular.  Requires det(m) != 0.  Every step is one
    unimodular matrix, applied with ``mat_mul`` on the left of A and U
    (a row step) or on the right of A and V (a column step): ``_clear``
    for the off-diagonal entries, its transpose for the column, the
    fold ((1, 0), (1, 1)) of column 1 into column 0, and the sign fixes
    diag(-1, 1) and diag(1, -1).
    """
    if mat_det(m) == 0:
        raise ValueError("singular matrix has no Smith normal form here")
    u, a, v = IDENTITY, m, IDENTITY

    def row(w: Mat2) -> None:
        nonlocal u, a
        u, a = mat_mul(w, u), mat_mul(w, a)

    def col(w: Mat2) -> None:
        nonlocal a, v
        a, v = mat_mul(a, w), mat_mul(v, w)

    if a[0][0] == 0:
        row(((0, 1), (1, 0)))
    while True:
        while a[1][0] != 0 or a[0][1] != 0:
            if a[1][0] != 0:
                row(_clear(a[0][0], a[1][0]))
            if a[0][1] != 0:
                col(tuple(zip(*_clear(a[0][0], a[0][1]))))
        if a[1][1] % a[0][0] == 0:
            break
        # The next pass replaces the leading entry by gcd(d1, d2), so
        # |d1| strictly decreases.
        col(((1, 0), (1, 1)))
    if a[0][0] < 0:
        row(((-1, 0), (0, 1)))
    if a[1][1] < 0:
        col(((1, 0), (0, -1)))
    return u, a, v


class AbelianQuotient(NamedTuple):
    """Z^2 modulo a scaled sublattice, presented as Z/m + Z/n with m | n.

    ``to_mat`` maps a vector to coordinates whose reductions mod (m, n)
    give the group element; ``from_mat`` is its unimodular inverse, so
    elements round-trip deterministically.
    """

    m: int
    n: int
    to_mat: Mat2
    from_mat: Mat2

    def reduce(self, w: Vec) -> Vec:
        t = mat_vec(self.to_mat, w)
        return (t[0] % self.m, t[1] % self.n)

    def lift(self, el: Vec) -> Vec:
        return mat_vec(self.from_mat, el)

    def add(self, a: Vec, b: Vec) -> Vec:
        return ((a[0] + b[0]) % self.m, (a[1] + b[1]) % self.n)


def quotient_presentation(sublattice: Basis2, scale: int = 1) -> AbelianQuotient:
    """Present Z^2 / (scale * sublattice) by its invariant factors.

    The scaled basis matrix is put in Smith normal form; the invariant
    factors multiply to scale^2 * |det(sublattice)|.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    m: Mat2 = (
        (scale * sublattice.u[0], scale * sublattice.v[0]),
        (scale * sublattice.u[1], scale * sublattice.v[1]),
    )
    u, d, _v = smith_normal_form(m)
    return AbelianQuotient(
        m=d[0][0], n=d[1][1], to_mat=u, from_mat=mat_inverse_unimodular(u)
    )
