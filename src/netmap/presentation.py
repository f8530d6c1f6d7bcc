"""NET map presentations: lattice pair, postcritical cosets, spin mirrors.

A presentation consists of a finite-index sublattice L1 of Z^2 (the
ambient lattice L2 is always Z^2 with the standard basis), four lattice
vectors h1..h4 representing the postcritical coset pairs +-h_k + 2*L1,
four mirror arcs aligned with those vectors, and the ordered basis of
L1 that corresponds to the standard basis of Z^2 under the covering
identification.

The text format is line oriented, UTF-8, with ``#`` comments:

    name = <string>
    lambda1 = (a,b) (c,d)
    postcritical = (x1,y1) (x2,y2) (x3,y3) (x4,y4)
    correspondence = (a,b) (c,d)
    mirror <k> = (mx,my) : (p1x,p1y) ... (pnx,pny)
    mirror <k> = (mx,my) : degenerate

Mirror half-paths start at the midpoint; the full mirror is the
half-path together with its 180 degree rotation about the midpoint.

Validation checks the structural invariants here and leaves every
contact test to ``geometry``: whether a mirror is a simple arc and
whether the translated mirrors are disjoint.  ``geometry`` also builds
each presentation's context, from the ``ClassTable`` defined here.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import PresentationSyntaxError, ValidationError
from .geometry import build_context, check_mirror_contact
from .lattice import Basis2, Vec, vadd, vneg, vscale

Point = tuple[int | Fraction, int | Fraction]

# A pair of coordinates, each an integer or r/s, or else one non-blank
# character, which is junk.  A denominator of zero does not match, so it
# is left over as junk.
_PAIR_RE = re.compile(r"\(\s*(-?\d+(?:/0*[1-9]\d*)?)\s*,\s*(-?\d+(?:/0*[1-9]\d*)?)\s*\)|\S")
# "mirror", blanks and a digit 1 to 4, with the blanks as one space.
_MIRROR_KEYS = {f"mirror {k}": k for k in range(1, 5)}
# The vector-list fields of the format, each with its vector count.
_VECTOR_FIELDS = {"lambda1": 2, "postcritical": 4, "correspondence": 2}


class MirrorArc(NamedTuple):
    """One spin mirror: a midpoint in L1 and half of its polyline.

    An empty half-path is a degenerate mirror (the arc downstairs is a
    point); then the mirror's points are just the lattice points of its
    postcritical class.
    """

    midpoint: Vec
    half_path: tuple[Point, ...] = ()

    @property
    def degenerate(self) -> bool:
        return not self.half_path

    def full_polyline(self) -> tuple[Point, ...]:
        """The whole mirror: half-path, midpoint, rotated half-path."""
        mid = self.midpoint
        if self.degenerate:
            return (mid,)
        rotated = tuple(
            (2 * mid[0] - p[0], 2 * mid[1] - p[1]) for p in reversed(self.half_path)
        )
        return rotated + (mid,) + self.half_path


class _Presentation(NamedTuple):
    name: str
    lambda1: Basis2
    postcritical: tuple[Vec, Vec, Vec, Vec]
    mirrors: tuple[MirrorArc, MirrorArc, MirrorArc, MirrorArc]
    correspondence: Basis2


class NetMapPresentation(_Presentation):
    """The fields are a NamedTuple; this subclass has an instance
    ``__dict__`` to hold the cached :attr:`context`."""

    # The benchmark's tracer counts hash calls through the class's own
    # __hash__, so it is bound here and not only inherited.
    __hash__ = _Presentation.__hash__

    @cached_property
    def context(self):
        """The :class:`geometry.PresentationContext` of this presentation.

        Built on first use and kept in the instance ``__dict__``, so it
        lives and dies with the presentation; equality, hash and repr
        see only the fields, and ``pres._replace()`` is an equal
        presentation with no context yet.
        """
        return build_context(self, ClassTable(self.lambda1, 2 * self.lambda1.index))


def scaled(pres: NetMapPresentation, k: int) -> NetMapPresentation:
    """The presentation under the similarity x -> k*x, for an integer k >= 1.

    L1, h1..h4, the mirrors and the correspondence basis are each times
    k.  A similarity keeps every invariant that :func:`validate` checks,
    so the result is not validated again; it gets its own context.  A
    point with denominators dividing k is a lattice point once scaled.
    """
    return NetMapPresentation(
        name=pres.name,
        lambda1=Basis2(vscale(k, pres.lambda1.u), vscale(k, pres.lambda1.v)),
        postcritical=tuple(vscale(k, h) for h in pres.postcritical),
        mirrors=tuple(
            MirrorArc(vscale(k, m.midpoint), tuple(vscale(k, p) for p in m.half_path))
            for m in pres.mirrors
        ),
        correspondence=Basis2(vscale(k, pres.correspondence.u), vscale(k, pres.correspondence.v)),
    )


def degree(pres: NetMapPresentation) -> int:
    """Topological degree: the index of L1 in Z^2."""
    return pres.lambda1.index


class ClassTable(NamedTuple):
    """Coset bookkeeping mod 2*L1, keyed by adjugate coordinates.

    ``key(w)`` is constant exactly on cosets of 2*L1.
    """

    basis: Basis2
    modulus: int

    def key(self, w: Vec) -> Vec:
        (ux, uy), (vx, vy) = self.basis  # the adjugate coordinates of w
        return ((w[0] * vy - w[1] * vx) % self.modulus, (ux * w[1] - uy * w[0]) % self.modulus)


def is_euclidean(pres: NetMapPresentation) -> bool:
    """True when the postcritical classes are exactly the L1/2L1 classes,
    that is, when every class of L1 in the context's ``marks`` names a
    mirror."""
    return all(k is not None for k, _ in pres.context.marks.values())


def preimage_coset_table(pres: NetMapPresentation) -> list[tuple[Vec, str]]:
    """Representatives of the cosets of 2*L1 meeting the marked sets.

    Tags are ``P1&P2`` (postcritical classes inside L1), ``P1-P2``
    (branch classes of the domain cover that are not postcritical, read
    off the context's ``marks``) and ``P2-P1`` (postcritical classes off
    L1, listed as h then -h).
    """
    marks, key = pres.context.marks, pres.context.table.key
    inside = [h for h in pres.postcritical if pres.lambda1.contains(h)]
    off = [h for h in pres.postcritical if not pres.lambda1.contains(h)]
    u, v = pres.lambda1.u, pres.lambda1.v
    branch = [rep for rep in ((0, 0), u, v, vadd(u, v)) if marks[key(rep)][0] is None]
    return (
        [(h, "P1&P2") for h in inside]
        + [(rep, "P1-P2") for rep in branch]
        + [(x, "P2-P1") for h in off for x in (h, vneg(h))]
    )


# ---------------------------------------------------------------------------
# Parsing


def _coord(tok: str) -> int | Fraction:
    """An integer token as an int, an r/s token as a Fraction."""
    return Fraction(tok) if "/" in tok else int(tok)


def _parse_list(text: str, kind: str) -> list:
    """Every pair in text as a pair of ``_coord`` values: integer vectors
    for the ``kind`` "vector", points for "point".  Anything else in text
    is a syntax error naming the kind of list."""
    pairs = []
    for a, b in _PAIR_RE.findall(text):
        if not a or kind == "vector" and "/" in a + b:
            # The text less every pair the list accepts, for the message.
            junk = _PAIR_RE.sub(
                lambda m: "" if m[1] and (kind == "point" or "/" not in m[0]) else m[0], text)
            raise PresentationSyntaxError(f"trailing junk in {kind} list: {junk.strip()!r}")
        pairs.append((_coord(a), _coord(b)))
    return pairs


def parse(text: str) -> NetMapPresentation:
    """Parse and validate a presentation file."""
    fields: dict[str, object] = {}
    mirrors: dict[int, MirrorArc] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PresentationSyntaxError(f"line {lineno}: missing '='")
        key, value = map(str.strip, line.split("=", 1))
        k = _MIRROR_KEYS.get(" ".join(key.split()))
        try:
            if k in mirrors if k else key in fields:
                raise PresentationSyntaxError(f"duplicate key {key!r}")
            if key == "name":
                fields[key] = value
            elif key in _VECTOR_FIELDS:
                vecs = _parse_list(value, "vector")
                if len(vecs) != _VECTOR_FIELDS[key]:
                    count = {2: "two", 4: "four"}[_VECTOR_FIELDS[key]]
                    raise PresentationSyntaxError(f"{key} needs {count} vectors")
                fields[key] = vecs
            elif k:
                if ":" not in value:
                    raise PresentationSyntaxError("mirror line needs ':'")
                mid_text, path_text = map(str.strip, value.split(":", 1))
                try:
                    midpoint, = _parse_list(mid_text, "vector")
                except (PresentationSyntaxError, ValueError):
                    raise PresentationSyntaxError(
                        f"expected an integer vector, got {mid_text!r}") from None
                if path_text == "degenerate":
                    mirrors[k] = MirrorArc(midpoint)
                else:
                    pts = _parse_list(path_text, "point")
                    if not pts:
                        raise PresentationSyntaxError("empty mirror path")
                    mirrors[k] = MirrorArc(midpoint, tuple(pts))
            else:
                raise PresentationSyntaxError(f"unknown key {key!r}")
        except PresentationSyntaxError as exc:
            raise PresentationSyntaxError(f"line {lineno}: {exc}") from None

    missing = [label for label in ("name", *_VECTOR_FIELDS) if label not in fields]
    if sorted(mirrors) != [1, 2, 3, 4]:
        missing.append("mirror 1..4")
    if missing:
        raise PresentationSyntaxError(f"missing fields: {', '.join(missing)}")

    try:
        basis = Basis2(*fields["lambda1"])
        corr = Basis2(*fields["correspondence"])
    except ValidationError as exc:
        raise ValidationError("basis", str(exc)) from None

    pres = NetMapPresentation(
        name=fields["name"],
        lambda1=basis,
        postcritical=tuple(fields["postcritical"]),
        mirrors=tuple(mirrors[k] for k in (1, 2, 3, 4)),
        correspondence=corr,
    )
    validate(pres)
    return pres


def serialize(pres: NetMapPresentation) -> str:
    """Inverse of :func:`parse` up to comments and whitespace."""

    def vec(v: Point) -> str:
        # str of an int, or of a Fraction: "r/s", or "r" when s is 1.
        return f"({v[0]},{v[1]})"

    lines = [
        f"name = {pres.name}",
        f"lambda1 = {vec(pres.lambda1.u)} {vec(pres.lambda1.v)}",
        "postcritical = " + " ".join(vec(h) for h in pres.postcritical),
        f"correspondence = {vec(pres.correspondence.u)} {vec(pres.correspondence.v)}",
    ]
    for k, mirror in enumerate(pres.mirrors, start=1):
        if mirror.degenerate:
            lines.append(f"mirror {k} = {vec(mirror.midpoint)} : degenerate")
        else:
            path = " ".join(vec(p) for p in mirror.half_path)
            lines.append(f"mirror {k} = {vec(mirror.midpoint)} : {path}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


def validate(pres: NetMapPresentation) -> None:
    if pres.lambda1.index < 2:
        raise ValidationError("degree", f"|det lambda1| = {pres.lambda1.index} < 2")

    key, marks = pres.context.table.key, pres.context.marks
    pair_keys = [{key(h), key(vneg(h))} for h in pres.postcritical]
    for i in range(4):
        for j in range(i + 1, 4):
            if pair_keys[i] & pair_keys[j]:
                raise ValidationError(
                    "inverse-pairs",
                    f"postcritical classes {i + 1} and {j + 1} collide mod 2*lambda1",
                )

    for label, w in (("first", pres.correspondence.u), ("second", pres.correspondence.v)):
        if not pres.lambda1.contains(w):
            raise ValidationError(
                "correspondence", f"{label} correspondence vector {w} is not in lambda1"
            )
    # Two vectors of lambda1 span it exactly when they span a lattice of its index.
    if pres.correspondence.index != pres.lambda1.index:
        raise ValidationError(
            "correspondence", "correspondence vectors do not form a basis of lambda1"
        )

    # The context's marks name, in each class of a mirror end, the first
    # mirror with an end there.  With the pairs disjoint, a class of +-h_k
    # names mirror k exactly when mirror k's ends lie in those classes, as
    # long as every mirror before k passed: so the first failure is found.
    for k, (mirror, h) in enumerate(zip(pres.mirrors, pres.postcritical), start=1):
        if not pres.lambda1.contains(mirror.midpoint):
            raise ValidationError(
                "mirror-midpoint", f"mirror {k} midpoint {mirror.midpoint} not in lambda1"
            )
        ends_in_class = any(marks.get(c, (None,))[0] == k - 1 for c in pair_keys[k - 1])
        if mirror.degenerate:
            if not pres.lambda1.contains(h):
                raise ValidationError(
                    "mirror-degenerate",
                    f"mirror {k} is degenerate but h{k} = {h} is not in lambda1",
                )
            if not ends_in_class:
                raise ValidationError(
                    "mirror-degenerate",
                    f"mirror {k} midpoint is not in the class of h{k}",
                )
            continue
        terminal = mirror.half_path[-1]
        if terminal[0].denominator != 1 or terminal[1].denominator != 1:
            raise ValidationError(
                "mirror-terminal",
                f"mirror {k} terminal ({terminal[0]}, {terminal[1]}) is not a lattice point",
            )
        if not ends_in_class:
            raise ValidationError(
                "mirror-terminal",
                f"mirror {k} terminal {tuple(map(int, terminal))} is not in the class of +-h{k}",
            )

    check_mirror_contact(pres)

