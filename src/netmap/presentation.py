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
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PresentationSyntaxError, ValidationError
from .lattice import Basis2, Vec, vadd, vneg, vscale

Point = tuple[int | Fraction, int | Fraction]

_VEC_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
# A denominator of zero does not match, so it is left over as junk.
_POINT_RE = re.compile(r"\(\s*(-?\d+(?:/0*[1-9]\d*)?)\s*,\s*(-?\d+(?:/0*[1-9]\d*)?)\s*\)")
_MIRROR_RE = re.compile(r"^mirror\s+([1-4])$")
# The vector-list fields of the format, each with its vector count.
_VECTOR_FIELDS = {"lambda1": 2, "postcritical": 4, "correspondence": 2}


@dataclass(frozen=True)
class MirrorArc:
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


@dataclass(frozen=True)
class NetMapPresentation:
    name: str
    lambda1: Basis2
    postcritical: tuple[Vec, Vec, Vec, Vec]
    mirrors: tuple[MirrorArc, MirrorArc, MirrorArc, MirrorArc]
    correspondence: Basis2

    @cached_property
    def context(self):
        """The :class:`geometry.PresentationContext` of this presentation.

        Built on first use and kept in the instance ``__dict__``, so it
        lives and dies with the presentation; equality, hash and repr
        see only the fields.
        """
        from .geometry import build_context

        return build_context(self)


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


@dataclass(frozen=True)
class ClassTable:
    """Coset bookkeeping mod 2*L1, keyed by adjugate coordinates.

    ``key(w)`` is constant exactly on cosets of 2*L1.
    """

    basis: Basis2
    modulus: int

    def key(self, w: Vec) -> Vec:
        n1, n2 = self.basis.adjugate_coords(w)
        return (n1 % self.modulus, n2 % self.modulus)


def is_euclidean(pres: NetMapPresentation) -> bool:
    """True when the postcritical classes are exactly the L1/2L1 classes."""
    if not all(pres.lambda1.contains(h) for h in pres.postcritical):
        return False
    table = pres.context.table
    keys = {table.key(h) for h in pres.postcritical}
    return len(keys) == 4


def preimage_coset_table(pres: NetMapPresentation) -> list[tuple[Vec, str]]:
    """Representatives of the cosets of 2*L1 meeting the marked sets.

    Tags are ``P1&P2`` (postcritical classes inside L1), ``P1-P2``
    (branch classes of the domain cover that are not postcritical) and
    ``P2-P1`` (postcritical classes off L1, listed as h then -h).
    """
    table = pres.context.table
    rows: list[tuple[Vec, str]] = []
    hit_p1_keys = set()
    for h in pres.postcritical:
        if pres.lambda1.contains(h):
            rows.append((h, "P1&P2"))
            hit_p1_keys.add(table.key(h))
    u, v = pres.lambda1.u, pres.lambda1.v
    for rep in ((0, 0), u, v, vadd(u, v)):
        if table.key(rep) not in hit_p1_keys:
            rows.append((rep, "P1-P2"))
    for h in pres.postcritical:
        if not pres.lambda1.contains(h):
            rows.append((h, "P2-P1"))
            rows.append((vneg(h), "P2-P1"))
    return rows


# ---------------------------------------------------------------------------
# Parsing


def _parse_vec(tok: str) -> Vec:
    m = _VEC_RE.fullmatch(tok.strip())
    if not m:
        raise PresentationSyntaxError(f"expected an integer vector, got {tok!r}")
    return (int(m.group(1)), int(m.group(2)))


def _coord(tok: str) -> int | Fraction:
    """An integer token as an int, an r/s token as a Fraction."""
    return Fraction(tok) if "/" in tok else int(tok)


def _parse_list(text: str, pattern: re.Pattern, kind: str, coord) -> list:
    """Every ``pattern`` match in text as a pair of ``coord`` values;
    anything else in text is a syntax error naming the ``kind`` of list."""
    stripped = pattern.sub("", text).strip()
    if stripped:
        raise PresentationSyntaxError(f"trailing junk in {kind} list: {stripped!r}")
    return [(coord(a), coord(b)) for a, b in pattern.findall(text)]


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
        key, value = (part.strip() for part in line.split("=", 1))
        m = _MIRROR_RE.fullmatch(key)
        try:
            if int(m.group(1)) in mirrors if m else key in fields:
                raise PresentationSyntaxError(f"duplicate key {key!r}")
            if key == "name":
                fields[key] = value
            elif key in _VECTOR_FIELDS:
                vecs = _parse_list(value, _VEC_RE, "vector", int)
                if len(vecs) != _VECTOR_FIELDS[key]:
                    count = {2: "two", 4: "four"}[_VECTOR_FIELDS[key]]
                    raise PresentationSyntaxError(f"{key} needs {count} vectors")
                fields[key] = vecs
            elif m:
                k = int(m.group(1))
                if ":" not in value:
                    raise PresentationSyntaxError("mirror line needs ':'")
                mid_text, path_text = (part.strip() for part in value.split(":", 1))
                midpoint = _parse_vec(mid_text)
                if path_text == "degenerate":
                    mirrors[k] = MirrorArc(midpoint)
                else:
                    pts = _parse_list(path_text, _POINT_RE, "point", _coord)
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

    def vec(v: Vec) -> str:
        return f"({v[0]},{v[1]})"

    def point(p: Point) -> str:
        def coord(c: int | Fraction) -> str:
            return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

        return f"({coord(p[0])},{coord(p[1])})"

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
            path = " ".join(point(p) for p in mirror.half_path)
            lines.append(f"mirror {k} = {vec(mirror.midpoint)} : {path}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation


def validate(pres: NetMapPresentation) -> None:
    if pres.lambda1.index < 2:
        raise ValidationError("degree", f"|det lambda1| = {pres.lambda1.index} < 2")

    table = pres.context.table
    pair_keys = []
    for h in pres.postcritical:
        pair_keys.append(frozenset({table.key(h), table.key(vneg(h))}))
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

    for k, (mirror, h) in enumerate(zip(pres.mirrors, pres.postcritical), start=1):
        if not pres.lambda1.contains(mirror.midpoint):
            raise ValidationError(
                "mirror-midpoint", f"mirror {k} midpoint {mirror.midpoint} not in lambda1"
            )
        if mirror.degenerate:
            if not pres.lambda1.contains(h):
                raise ValidationError(
                    "mirror-degenerate",
                    f"mirror {k} is degenerate but h{k} = {h} is not in lambda1",
                )
            if table.key(mirror.midpoint) not in (table.key(h), table.key(vneg(h))):
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
        term = (int(terminal[0]), int(terminal[1]))
        if table.key(term) not in (table.key(h), table.key(vneg(h))):
            raise ValidationError(
                "mirror-terminal", f"mirror {k} terminal {term} is not in the class of +-h{k}"
            )
        # The context's chains are the mirrors under a similarity, which
        # keeps both a repeated point and a crossing.
        chain = pres.context.chains[k - 1]
        for a, b in zip(chain, chain[1:]):
            if a == b:
                raise ValidationError(
                    "mirror-simple", f"mirror {k} has repeated consecutive points"
                )
        if _polyline_self_intersects(chain):
            raise ValidationError("mirror-simple", f"mirror {k} is not a simple arc")

    from .geometry import check_mirror_disjointness

    check_mirror_disjointness(pres)


def _orient(a: Point, b: Point, c: Point) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    """c collinear with a-b: is c within the closed segment?"""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def segments_touch(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether closed segments p1p2 and q1q2 share any point.

    Exact on Fraction and on int coordinates alike; a point is the
    segment (p, p).
    """
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, p2, q2):
        return True
    # p2 on a collinear q1q2 puts q1, q2 or p1 on the other segment,
    # which the clauses above have found.
    return o3 == 0 and _on_segment(q1, q2, p1)


def _polyline_self_intersects(poly: tuple[Point, ...]) -> bool:
    segs = list(zip(poly, poly[1:]))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            a, b = segs[i]
            c, d = segs[j]
            if j == i + 1:
                # Edges sharing the joint vertex b == c overlap only if
                # collinear and folding back onto each other.
                if _orient(a, b, d) == 0:
                    dot = (a[0] - b[0]) * (d[0] - b[0]) + (a[1] - b[1]) * (d[1] - b[1])
                    if dot > 0:
                        return True
                continue
            if segments_touch(a, b, c, d):
                return True
    return False
