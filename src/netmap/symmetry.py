"""Functional equations for the induced map on Teichmueller space.

Everything here is symbolic: Dehn-twist equations, reflection
equations, and the equations induced by affine symmetries of the
presentation.  Each Teichmueller-level statement has an executable
shadow on slopes, used by the consistency suite to cross-check the
correspondence basis and mirror data.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import HypothesisFailedError, MirrorsNotStabilizedError
from .geometry import affine_preserves_mirrors
from .lattice import (
    Basis2,
    Mat2,
    Vec,
    cross,
    mat_det,
    mat_mul,
    mat_vec,
    order_in_quotient,
    vadd,
    vscale,
    vsub,
)
from .presentation import NetMapPresentation
from .pullback import analyze_slope
from .slope import INESSENTIAL, Slope, apply_matrix, boundary_point, enumerate_slopes
from .slopefn import pullback_slope


class Mobius(NamedTuple):
    """The map z -> (a z + b)/(c z + d), on the conjugate when asked."""

    a: int
    b: int
    c: int
    d: int
    conjugating: bool = False

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def matrix(self) -> Mat2:
        return ((self.a, self.b), (self.c, self.d))

    def is_identity(self) -> bool:
        return not self.conjugating and self.b == 0 and self.c == 0 and self.a == self.d

    def compose(self, other: "Mobius") -> "Mobius":
        """``self`` after ``other``.  The matrices are real, so a map
        commutes with conjugation: the product conjugates exactly when
        one factor does."""
        m = mat_mul(self.matrix(), other.matrix())
        return Mobius(m[0][0], m[0][1], m[1][0], m[1][1], self.conjugating != other.conjugating)

    def power(self, n: int) -> "Mobius":
        """The n-th power by repeated squaring, O(log n) compositions; a
        negative n is a power of the inverse."""
        if n < 0:
            return self.inverse().power(-n)
        result, square = Mobius(1, 0, 0, 1), self
        while n:
            if n & 1:
                result = result.compose(square)
            square, n = square.compose(square), n >> 1
        return result

    def inverse(self) -> "Mobius":
        det = self.det
        return Mobius(self.d * det, -self.b * det, -self.c * det, self.a * det, self.conjugating)

    def apply_to_boundary(self, x: Slope) -> Slope:
        """Action on the boundary of the upper half-plane.

        Boundary points are extended rationals; complex conjugation
        fixes them, so conjugating maps act by the same matrix.
        """
        num = self.a * x.p + self.b * x.q
        den = self.c * x.p + self.d * x.q
        return Slope.of(num, den)

    def render(self) -> str:
        text = f"[[{self.a},{self.b}],[{self.c},{self.d}]]"
        return text + ".conj" if self.conjugating else text


IDENTITY_MOBIUS = Mobius(1, 0, 0, 1)


def twist_matrix(slope: Slope) -> Mobius:
    """Teichmueller action of a right-handed Dehn twist about the slope.

    The parabolic [[1 + 2pq, 2q^2], [-2p^2, 1 - 2pq]]; it has trace 2,
    determinant 1 and fixes the boundary point -q/p.
    """
    p, q = slope.p, slope.q
    return Mobius(1 + 2 * p * q, 2 * q * q, -2 * p * p, 1 - 2 * p * q)


class FunctionalEquation(NamedTuple):
    """Sigma_f . inner^inner_power = outer^outer_power . Sigma_f."""

    inner: Mobius
    inner_power: int
    outer: Mobius
    outer_power: int

    def render(self) -> str:
        lhs = f"Sigma_f . {self.inner.render()}^{self.inner_power}"
        if self.outer_power == 0:
            return f"{lhs} = Sigma_f"
        return f"{lhs} = {self.outer.render()}^{self.outer_power} . Sigma_f"


def twist_equation(pres: NetMapPresentation, slope: Slope) -> FunctionalEquation:
    """Functional equation from twisting about a curve of this slope.

    The inner power is the covering degree on each component, the outer
    power the count of essential components; with no essential
    component the outer factor is trivial.  The outer twist is about
    the image slope, read in the coordinates of the correspondence
    basis: when that basis reverses orientation it is the inverse
    twist, as in ``slopefn._twisted``.
    """
    summary = analyze_slope(pres, slope)
    inner = twist_matrix(slope)
    if summary.essential == 0:
        return FunctionalEquation(inner, summary.d, IDENTITY_MOBIUS, 0)
    outer = twist_matrix(pullback_slope(pres, slope))
    if cross(pres.correspondence.u, pres.correspondence.v) < 0:
        outer = outer.inverse()
    return FunctionalEquation(inner, summary.d, outer, summary.essential)


class ReflectionPair(NamedTuple):
    """Axes of the conjugating reflections in a reflection equation.

    Endpoints are boundary points of the upper half-plane (extended
    rationals, encoded as slopes).
    """

    domain_endpoints: tuple[Slope, Slope]
    image_endpoints: tuple[Slope, Slope]


def _marked_pair(pres: NetMapPresentation, w: Vec) -> int | None:
    """The k with w in the class of h_k or -h_k mod 2*lambda1, or None.

    Read off the context's marked classes; validation keeps the four
    pairs of classes disjoint.
    """
    return pres.context.marks.get(pres.context.table.key(w), (None,))[0]


def reflection_equation(
    pres: NetMapPresentation, s1: Slope, s2: Slope
) -> ReflectionPair:
    """Reflection functional equation for a pair of slopes.

    Requires: the direction vectors of s1 and s2 form a basis of Z^2;
    scaling by their quotient orders gives a basis of the sublattice;
    the marked classes are invariant under the induced reflection; and
    both slopes have essential, distinct images.
    """
    img1 = pullback_slope(pres, s1)
    img2 = pullback_slope(pres, s2)
    if img1 is INESSENTIAL or img2 is INESSENTIAL or img1 == img2:
        raise HypothesisFailedError(
            "SigmaCollision", f"images of {s1} and {s2} must be essential and distinct"
        )
    lam: Vec = (s1.q, s1.p)
    mu: Vec = (s2.q, s2.p)
    if abs(cross(lam, mu)) != 1:
        raise HypothesisFailedError(
            "NotBasisLambda2", f"directions of {s1} and {s2} do not span Z^2"
        )
    d = order_in_quotient(lam, pres.lambda1)
    d_prime = order_in_quotient(mu, pres.lambda1)
    dl = vscale(d, lam)
    dm = vscale(d_prime, mu)
    if abs(cross(dl, dm)) != pres.lambda1.index:
        raise HypothesisFailedError(
            "NotBasisLambda1",
            f"({d}*{lam}, {d_prime}*{mu}) does not span the sublattice",
        )
    # The reflection x*lam + y*mu -> (2d - x)*lam + y*mu reduces to
    # -x*lam + y*mu mod 2*lambda1 because 2d*lam lies in 2*lambda1.
    for h in pres.postcritical:
        x, y = Basis2(lam, mu).integer_coords(h)
        if _marked_pair(pres, vsub(vscale(y, mu), vscale(x, lam))) is None:
            raise HypothesisFailedError(
                "ClassSetNotInvariant",
                f"reflection moves the class of {h} off the marked set",
            )
    return ReflectionPair(
        domain_endpoints=(boundary_point(s1), boundary_point(s2)),
        image_endpoints=(boundary_point(img1), boundary_point(img2)),
    )


def aff_membership(pres: NetMapPresentation, linear: Mat2, translation: Vec) -> bool:
    """Whether x -> linear x + translation is a symmetry of the data.

    Needs: both lattices stabilized (so det = +-1, translation in the
    sublattice) and the four marked inverse-pair classes permuted.
    """
    if mat_det(linear) not in (1, -1):
        return False
    if not pres.lambda1.contains(mat_vec(linear, pres.lambda1.u)):
        return False
    if not pres.lambda1.contains(mat_vec(linear, pres.lambda1.v)):
        return False
    if not pres.lambda1.contains(translation):
        return False
    images = (vadd(mat_vec(linear, h), translation) for h in pres.postcritical)
    return {_marked_pair(pres, w) for w in images} == {0, 1, 2, 3}


def _mobius_from_basis_matrix(m: Mat2) -> Mobius:
    """Teichmueller boundary action of a linear map given in a marking
    basis: [[a,b],[c,d]] acts as z -> (d z + b)/(c z + a), conjugated
    when the determinant is -1."""
    (a, b), (c, d) = m
    return Mobius(d, b, c, a, conjugating=(mat_det(m) == -1))


def induced_map_range(linear: Mat2) -> Mobius:
    """Teichmueller action of an affine symmetry via the range marking.

    The matrix is that of the linear part in the standard basis.
    """
    if mat_det(linear) not in (1, -1):
        raise ValueError("linear part must have determinant +-1")
    return _mobius_from_basis_matrix(linear)


def sublattice_matrix(pres: NetMapPresentation, linear: Mat2) -> Mat2:
    """Matrix of the linear part in the correspondence basis."""
    cu, cv = pres.correspondence.u, pres.correspondence.v
    iu = pres.correspondence.integer_coords(mat_vec(linear, cu))
    iv = pres.correspondence.integer_coords(mat_vec(linear, cv))
    if iu is None or iv is None:
        raise ValueError("linear part does not stabilize the sublattice")
    return ((iu[0], iv[0]), (iu[1], iv[1]))


def _stabilizing_matrix(pres: NetMapPresentation, linear: Mat2, translation: Vec) -> Mat2:
    """``sublattice_matrix`` of an affine symmetry that stabilizes the
    mirror system; any other map is refused."""
    if not aff_membership(pres, linear, translation):
        raise ValueError("map is not an affine symmetry of the presentation")
    if not affine_preserves_mirrors(pres, linear, translation):
        raise MirrorsNotStabilizedError(
            "affine symmetry moves the mirror system; its domain action "
            "needs the full covering identification"
        )
    return sublattice_matrix(pres, linear)


def induced_map_domain(
    pres: NetMapPresentation, linear: Mat2, translation: Vec
) -> Mobius:
    """Teichmueller action of an affine symmetry via the domain marking.

    Supported only for symmetries that stabilize the mirror system,
    where the boundary action is read off from the matrix of the linear
    part in the correspondence basis.
    """
    return _mobius_from_basis_matrix(_stabilizing_matrix(pres, linear, translation))


class ConsistencyViolation(NamedTuple):
    slope: Slope
    lhs: object
    rhs: object


class ConsistencyReport(NamedTuple):
    checked: int
    violations: tuple[ConsistencyViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def consistency_suite(
    pres: NetMapPresentation,
    affines: list[tuple[Mat2, Vec]],
    height: int,
) -> ConsistencyReport:
    """Slope-level shadow of the affine functional equations.

    For each affine symmetry and every slope up to the height, checks
    slope_map(action_range(s)) == action_domain(slope_map(s)), with the
    inessential value absorbing.  Violations indicate an inconsistent
    correspondence basis or mirror data.
    """
    violations = []
    checked = 0
    for linear, translation in affines:
        m1 = _stabilizing_matrix(pres, linear, translation)
        for s in enumerate_slopes(height):
            checked += 1
            lhs = pullback_slope(pres, apply_matrix(linear, s))
            rhs_in = pullback_slope(pres, s)
            rhs = rhs_in if rhs_in is INESSENTIAL else apply_matrix(m1, rhs_in)
            if (lhs is INESSENTIAL) != (rhs is INESSENTIAL) or (
                lhs is not INESSENTIAL and lhs != rhs
            ):
                violations.append(ConsistencyViolation(s, lhs, rhs))
    return ConsistencyReport(checked=checked, violations=tuple(violations))
