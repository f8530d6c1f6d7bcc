"""Exact integer-lattice and finite-abelian-quotient arithmetic.

Everything here is plain integer arithmetic: vectors in Z^2, rank-2
sublattices given by a basis, orders of vectors in the quotient, and
Smith normal form for presenting quotients Z^2 / (scale * sublattice)
as Z/m + Z/n with stored coordinate transforms.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Basis2:
    """Ordered pair of lattice vectors spanning a finite-index sublattice."""

    u: Vec
    v: Vec

    def __post_init__(self):
        if cross(self.u, self.v) == 0:
            raise ValidationError("basis", f"vectors {self.u}, {self.v} are parallel")

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
        d = self.det
        n1, n2 = self.adjugate_coords(w)
        return n1 % d == 0 and n2 % d == 0

    def integer_coords(self, w: Vec) -> Vec | None:
        """Coordinates of w in this basis if integral, else None."""
        d = self.det
        n1, n2 = self.adjugate_coords(w)
        if n1 % d or n2 % d:
            return None
        return (n1 // d, n2 // d)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def order_in_quotient(w: Vec, sublattice: Basis2) -> int:
    """Order of the image of w in Z^2 / sublattice.

    This is the smallest d >= 1 with d*w in the sublattice; it always
    divides the index of the sublattice.
    """
    for d in _divisors(sublattice.index):
        if sublattice.contains(vscale(d, w)):
            return d
    raise AssertionError("order must divide the sublattice index")


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


def smith_normal_form(m: Mat2) -> tuple[Mat2, Mat2, Mat2]:
    """(U, D, V) with U*m*V = D = diag(d1, d2), d1 | d2, d1, d2 > 0.

    U and V are unimodular.  Requires det(m) != 0.
    """
    a = [list(m[0]), list(m[1])]
    u = [[1, 0], [0, 1]]
    v = [[1, 0], [0, 1]]

    def row_reduce():
        # Clear a[1][0].  When the pivot divides the entry an elementary
        # step suffices and leaves the pivot row untouched; otherwise a
        # unimodular gcd transform strictly shrinks the pivot, which is
        # what guarantees termination of the reduction loop.
        if a[0][0] != 0 and a[1][0] % a[0][0] == 0:
            k = a[1][0] // a[0][0]
            a[1] = [a[1][0] - k * a[0][0], a[1][1] - k * a[0][1]]
            u[1] = [u[1][0] - k * u[0][0], u[1][1] - k * u[0][1]]
            return
        g, x, y = _xgcd(a[0][0], a[1][0])
        p, q = a[0][0] // g, a[1][0] // g
        r0 = [x * a[0][0] + y * a[1][0], x * a[0][1] + y * a[1][1]]
        r1 = [-q * a[0][0] + p * a[1][0], -q * a[0][1] + p * a[1][1]]
        a[0], a[1] = r0, r1
        u0 = [x * u[0][0] + y * u[1][0], x * u[0][1] + y * u[1][1]]
        u1 = [-q * u[0][0] + p * u[1][0], -q * u[0][1] + p * u[1][1]]
        u[0], u[1] = u0, u1

    def col_reduce():
        # Clear a[0][1]; same structure as row_reduce.
        if a[0][0] != 0 and a[0][1] % a[0][0] == 0:
            k = a[0][1] // a[0][0]
            a[0][1] -= k * a[0][0]
            a[1][1] -= k * a[1][0]
            v[0][1] -= k * v[0][0]
            v[1][1] -= k * v[1][0]
            return
        g, x, y = _xgcd(a[0][0], a[0][1])
        p, q = a[0][0] // g, a[0][1] // g
        c0 = [x * a[0][0] + y * a[0][1], x * a[1][0] + y * a[1][1]]
        c1 = [-q * a[0][0] + p * a[0][1], -q * a[1][0] + p * a[1][1]]
        a[0][0], a[1][0] = c0
        a[0][1], a[1][1] = c1
        v0 = [x * v[0][0] + y * v[0][1], x * v[1][0] + y * v[1][1]]
        v1 = [-q * v[0][0] + p * v[0][1], -q * v[1][0] + p * v[1][1]]
        v[0][0], v[1][0] = v0
        v[0][1], v[1][1] = v1

    if mat_det(m) == 0:
        raise ValueError("singular matrix has no Smith normal form here")
    if a[0][0] == 0:
        a[0], a[1] = a[1], a[0]
        u[0], u[1] = u[1], u[0]

    while True:
        while a[1][0] != 0 or a[0][1] != 0:
            if a[1][0] != 0:
                row_reduce()
            if a[0][1] != 0:
                col_reduce()
        if a[1][1] % a[0][0] == 0:
            break
        # Fold column 1 into column 0 so the next pass replaces the
        # leading entry by gcd(d1, d2); |d1| strictly decreases.
        a[0][0] += a[0][1]
        a[1][0] += a[1][1]
        v[0][0] += v[0][1]
        v[1][0] += v[1][1]

    # Positive diagonal.
    if a[0][0] < 0:
        a[0] = [-a[0][0], -a[0][1]]
        u[0] = [-u[0][0], -u[0][1]]
    if a[1][1] < 0:
        a[1][1] = -a[1][1]
        v[0][1] = -v[0][1]
        v[1][1] = -v[1][1]

    to_mat = lambda x: ((x[0][0], x[0][1]), (x[1][0], x[1][1]))
    return to_mat(u), to_mat(a), to_mat(v)


@dataclass(frozen=True)
class AbelianQuotient:
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
