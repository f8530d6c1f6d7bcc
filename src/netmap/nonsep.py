"""Nonseparating subsets of finite abelian groups.

A union of four inverse pairs H = {+-h1, ..., +-h4} in a finite
abelian group A is nonseparating when its sorted coset numbers satisfy
c2 == c3 for every cyclic subgroup B with cyclic quotient and every
generator of A/B.  A presentation induces a map on Teichmueller space
that is constant exactly when the postcritical classes form a
nonseparating subset of the quotient by twice the sublattice.

Groups here have at most two invariant factors, which is all the
quotient lattices can produce; searches are exhaustive over inversion
classes with a configurable budget.

``is_nonseparating`` walks cosets as element sets (``cyclic_pairs``,
``coset_numbers``, ``separating_pair``), independently of
``search_nonseparating`` and ``constant_teich_check``, which read
coset numbers off characters; so the set walk checks both.
A cyclic subgroup with cyclic quotient Z/k and a quotient generator are
one onto character phi(x, y) = (s*x + t*y) mod k with cyclic kernel,
where k | lcm(m, n), k/gcd(k, m) | s and k/gcd(k, n) | t; the coset
number of h is min(phi(h), k - phi(h)), as in ``pullback.coset_number``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm

from .errors import BudgetExceededError
from .lattice import quotient_presentation
from .presentation import NetMapPresentation

El = tuple[int, int]

# separating_pair refuses a set walk over more elements than this.
_WALK_LIMIT = 1024


@dataclass(frozen=True)
class FinAbGroup:
    """Z/m + Z/n with coordinatewise arithmetic."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("group orders must be positive")

    @property
    def order(self) -> int:
        return self.m * self.n

    def elements(self) -> list[El]:
        return [(x, y) for x in range(self.m) for y in range(self.n)]

    def add(self, a: El, b: El) -> El:
        return ((a[0] + b[0]) % self.m, (a[1] + b[1]) % self.n)

    def neg(self, a: El) -> El:
        return ((-a[0]) % self.m, (-a[1]) % self.n)

    def zero(self) -> El:
        return (0, 0)

    def order_of(self, a: El) -> int:
        return lcm(self.m // gcd(self.m, a[0]), self.n // gcd(self.n, a[1]))


@dataclass(frozen=True)
class SymmetricFour:
    """Four inverse-pair representatives with pairwise disjoint classes."""

    reps: tuple[El, El, El, El]

    def canonical(self, group: FinAbGroup) -> tuple[El, ...]:
        out = []
        for h in self.reps:
            out.append(min(h, group.neg(h)))
        return tuple(sorted(out))

    def elements(self, group: FinAbGroup) -> frozenset[El]:
        full = set()
        for h in self.reps:
            full.add(h)
            full.add(group.neg(h))
        return frozenset(full)


def _check_symmetric_four(group: FinAbGroup, subset: SymmetricFour) -> None:
    for h in subset.reps:
        if not (0 <= h[0] < group.m and 0 <= h[1] < group.n):
            raise ValueError(f"{h} is not an element of Z/{group.m} + Z/{group.n}")
    classes = [frozenset({h, group.neg(h)}) for h in subset.reps]
    for i in range(4):
        for j in range(i + 1, 4):
            if classes[i] & classes[j]:
                raise ValueError(
                    f"inverse pairs of {subset.reps[i]} and {subset.reps[j]} overlap"
                )


@dataclass(frozen=True)
class CyclicPair:
    """A cyclic subgroup with cyclic quotient and a quotient generator."""

    subgroup: frozenset[El]
    subgroup_generator: El
    generator: El
    quotient_order: int


def _span(group: FinAbGroup, g: El) -> frozenset[El]:
    out = {group.zero()}
    x = g
    while x not in out:
        out.add(x)
        x = group.add(x, g)
    return frozenset(out)


def _image_order(group: FinAbGroup, a: El, subgroup: frozenset[El], bound: int) -> int:
    x = a
    for k in range(1, bound + 1):
        if x in subgroup:
            return k
        x = group.add(x, a)
    raise AssertionError("image order must divide the quotient order")


def cyclic_pairs(group: FinAbGroup, elements: list[El] | None = None) -> list[CyclicPair]:
    """Every cyclic subgroup with cyclic quotient, with every generator.

    Subgroups are deduplicated by element set; for each, all elements
    whose image generates the quotient are listed.  ``elements``, when
    given, lists a subgroup to work inside instead of the whole group.
    """
    els = group.elements() if elements is None else elements
    seen: dict[frozenset[El], El] = {}
    for g in els:
        span = _span(group, g)
        if span not in seen:
            seen[span] = g
    pairs = []
    for span, g in sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        quotient_order = len(els) // len(span)
        pairs.extend(
            CyclicPair(span, g, a, quotient_order)
            for a in els
            if _image_order(group, a, span, quotient_order) == quotient_order
        )
    return pairs


def coset_numbers(
    group: FinAbGroup, subset: SymmetricFour, pair: CyclicPair
) -> tuple[int, int, int, int]:
    """Sorted coset numbers of the four inverse pairs along the quotient.

    For each representative h the number is the unique c in
    [0, quotient_order/2] with h (or -h) in c*a + B.
    """
    n = pair.quotient_order
    values = []
    for h in subset.reps:
        c = None
        x = h
        for j in range(n):
            if x in pair.subgroup:
                c = min(j, n - j)
                break
            x = group.add(x, group.neg(pair.generator))
        if c is None:
            raise AssertionError("element missed every coset of the subgroup")
        values.append(c)
    return tuple(sorted(values))


def separating_pair(
    group: FinAbGroup, subset: SymmetricFour, elements: list[El] | None = None
) -> CyclicPair | None:
    """The first cyclic pair whose sorted coset numbers have c2 != c3.

    Returns None when there is none.  ``elements`` is passed on to
    ``cyclic_pairs``.  The set walk costs about |A|^2 for the walked
    set A (the whole group, or the given elements), so a walk over more
    than ``_WALK_LIMIT`` elements is refused with BudgetExceededError
    before any element is listed.
    """
    _check_symmetric_four(group, subset)
    size = group.order if elements is None else len(elements)
    if size > _WALK_LIMIT:
        raise BudgetExceededError(
            f"a set walk over {size} elements is above the limit of {_WALK_LIMIT}"
        )
    for pair in cyclic_pairs(group, elements):
        cs = coset_numbers(group, subset, pair)
        if cs[1] != cs[2]:
            return pair
    return None


def is_nonseparating(group: FinAbGroup, subset: SymmetricFour) -> bool:
    """Whether c2 == c3 for every cyclic pair."""
    return separating_pair(group, subset) is None


def inversion_classes(group: FinAbGroup) -> list[El]:
    """Canonical representatives of the {h, -h} classes."""
    reps = []
    seen = set()
    for el in group.elements():
        if el in seen:
            continue
        seen.add(el)
        seen.add(group.neg(el))
        reps.append(el)
    return reps


def _value_maps(group: FinAbGroup, classes: list[El]) -> list[tuple[int, ...]]:
    """The distinct coset-number tuples on the classes, one per character."""
    m, n = group.m, group.n
    common = gcd(m, n)
    exponent = m * n // common
    maps: dict[tuple[int, ...], None] = {}
    for k in range(1, exponent + 1):
        if exponent % k:
            continue
        half = k // 2
        for s in range(0, k, k // gcd(k, m)):
            for t in range(0, k, k // gcd(k, n)):
                # Onto Z/k, with a kernel that holds no Z/d + Z/d (d > 1),
                # so a cyclic one.
                if gcd(s, t, k) != 1 or any(
                    s * (m // d) % k == 0 and t * (n // d) % k == 0
                    for d in range(2, common + 1) if common % d == 0
                ):
                    continue
                # |(v + half) mod k - half| is min(v, k - v).
                values = [abs((s * x + t * y + half) % k - half) for x, y in classes]
                maps[tuple(values)] = None
    return list(maps)


def search_nonseparating(
    group: FinAbGroup, budget: int = 100_000
) -> list[SymmetricFour]:
    """All nonseparating subsets, by exhaustive search over classes.

    The budget bounds the number of 4-subsets of inversion classes
    examined; exceeding it raises BudgetExceededError before any class
    is listed.  Under one value map, with a <= b <= c the values of
    three classes, a fourth value d keeps c2 == c3 exactly when
    (d >= b or a == b) and (d <= b or b == c).  These are bitmasks over
    class indices: the fourth classes of a triple are the bits left
    after intersecting them over every map, and subsets come out in
    ``itertools.combinations`` order.
    """
    # A class is {h, -h}: a pair, or one element of order at most 2.
    m, n = group.m, group.n
    total = comb((m * n + gcd(2, m) * gcd(2, n)) // 2, 4)
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate subsets exceed the budget of {budget}"
        )
    classes = inversion_classes(group)
    # Maps with many distinct values pin d down most often; trying them
    # first empties the masks soonest.
    maps = sorted(_value_maps(group, classes), key=lambda v: len(set(v)), reverse=True)
    tables = []  # per map: values, and the classes with value >= v and <= v
    for values in maps:
        ge = [0] * (max(values) + 1)
        for i, v in enumerate(values):
            ge[v] |= 1 << i
        le = ge[:]
        for v in range(1, len(ge)):
            le[v] |= le[v - 1]
            ge[-1 - v] |= ge[-v]
        tables.append((values, ge, le))
    size = len(classes)
    found = []
    for i in range(size):
        for j in range(i + 1, size):
            for k in range(j + 1, size - 1):
                mask = (1 << size) - (2 << k)  # the indices above k
                for values, ge, le in tables:
                    a, b, c = values[i], values[j], values[k]
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                    if a > b:
                        a, b = b, a
                    if a != b:
                        mask &= ge[b]
                    if b != c:
                        mask &= le[b]
                    if not mask:
                        break
                while mask:
                    low = mask & -mask
                    mask ^= low
                    four = (classes[i], classes[j], classes[k], classes[low.bit_length() - 1])
                    found.append(SymmetricFour(four))
    return found


def translate_by_involution(
    group: FinAbGroup, subset: SymmetricFour, shift: El
) -> SymmetricFour:
    """Translate every pair by an element of order at most 2."""
    if group.add(shift, shift) != group.zero():
        raise ValueError(f"{shift} does not have order <= 2")
    return SymmetricFour(tuple(group.add(h, shift) for h in subset.reps))


def verify_nonexistence(group: FinAbGroup, budget: int = 100_000) -> bool:
    """True when the exhaustive search finds no nonseparating subset."""
    return not search_nonseparating(group, budget)


@dataclass(frozen=True)
class RefutationEntry:
    subset: SymmetricFour
    contains_order_four: bool
    exactly_one_doubled: bool


@dataclass(frozen=True)
class RefutationReport:
    """Degree-2 analysis: every nonseparating subset of Z/4 + Z/2 fails a
    realizability constraint, so no degree-2 map has constant induced
    Teichmueller map."""

    entries: tuple[RefutationEntry, ...]

    @property
    def realizable(self) -> tuple[RefutationEntry, ...]:
        return tuple(
            e for e in self.entries if e.contains_order_four and e.exactly_one_doubled
        )


def degree2_refutation() -> RefutationReport:
    """Enumerate nonseparating subsets of Z/4 + Z/2 and test the two
    constraints a degree-2 presentation would force: containing both
    order-4 classes, and containing exactly one element of 2A."""
    group = FinAbGroup(4, 2)
    doubled = {(0, 0), (2, 0)}
    order_four = {h for h in group.elements() if group.order_of(h) == 4}
    entries = []
    for subset in search_nonseparating(group):
        els = subset.elements(group)
        entries.append(
            RefutationEntry(
                subset=subset,
                contains_order_four=order_four <= els,
                exactly_one_doubled=len(els & doubled) == 1,
            )
        )
    return RefutationReport(tuple(entries))


def constant_teich_check(pres: NetMapPresentation) -> bool:
    """Whether the induced map on Teichmueller space is constant.

    Reduces the four postcritical representatives into the quotient by
    twice the sublattice and tests the nonseparating property there on
    the characters ``search_nonseparating`` uses: c2 == c3 under every
    coset-number map.  Validation keeps the four inverse pairs disjoint.
    """
    quotient = quotient_presentation(pres.lambda1, scale=2)
    group = FinAbGroup(quotient.m, quotient.n)
    reps = [quotient.reduce(h) for h in pres.postcritical]
    return all(cs[1] == cs[2] for cs in map(sorted, _value_maps(group, reps)))


# ---------------------------------------------------------------------------
# Subgroup view (for embedding arguments)


def is_nonseparating_in_subgroup(
    group: FinAbGroup, ambient_subgroup: frozenset[El], subset: SymmetricFour
) -> bool:
    """The nonseparating test inside a subgroup of an ambient group.

    The subgroup is given by its element set; cyclic subgroups with
    cyclic quotient are enumerated within it.
    """
    if any(h not in ambient_subgroup for h in subset.reps):
        raise ValueError("subset does not lie in the subgroup")
    return separating_pair(group, subset, sorted(ambient_subgroup)) is None
