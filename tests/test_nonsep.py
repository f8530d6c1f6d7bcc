import hashlib
import random
import re
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmap import nonsep
from netmap.errors import BudgetExceededError
from netmap.lattice import Basis2, quotient_presentation
from netmap.nonsep import (
    FinAbGroup,
    SymmetricFour,
    constant_teich_check,
    coset_numbers,
    cyclic_pairs,
    degree2_refutation,
    inversion_classes,
    is_nonseparating,
    is_nonseparating_in_subgroup,
    search_nonseparating,
    separating_pair,
    translate_by_involution,
    verify_nonexistence,
)
from netmap.presentation import MirrorArc, NetMapPresentation, validate
from netmap.pullback import analyze_slope
from netmap.slope import Slope

G42 = FinAbGroup(4, 2)
H42 = SymmetricFour(((0, 0), (1, 0), (2, 0), (1, 1)))
G66 = FinAbGroup(6, 6)
H66 = SymmetricFour(((0, 2), (2, 0), (2, 2), (2, 4)))  # the order-3 classes


class TestCyclicPairs:
    def test_degree_two_group_subgroups(self):
        spans = {}
        for pair in cyclic_pairs(G42):
            spans.setdefault(frozenset(pair.subgroup), pair.quotient_order)
        described = sorted((len(k), q) for k, q in spans.items())
        # Two order-4 subgroups with quotient Z/2 and two order-2
        # subgroups with quotient Z/4.
        assert described == [(2, 4), (2, 4), (4, 2), (4, 2)]
        gens = {
            frozenset(p.subgroup)
            for p in cyclic_pairs(G42)
        }
        assert frozenset({(0, 0), (1, 0), (2, 0), (3, 0)}) in gens
        assert frozenset({(0, 0), (1, 1), (2, 0), (3, 1)}) in gens
        assert frozenset({(0, 0), (0, 1)}) in gens
        assert frozenset({(0, 0), (2, 1)}) in gens

    def test_klein_group(self):
        pairs = cyclic_pairs(FinAbGroup(2, 2))
        spans = {frozenset(p.subgroup) for p in pairs}
        assert len(spans) == 3
        assert all(p.quotient_order == 2 for p in pairs)

    def test_six_six_admissible_subgroups_are_order_six(self):
        for pair in cyclic_pairs(G66):
            assert len(pair.subgroup) == 6 and pair.quotient_order == 6

    def test_generators_generate(self):
        for pair in cyclic_pairs(G42):
            x = pair.generator
            seen = set()
            cur = x
            for _ in range(pair.quotient_order):
                seen.add(tuple(sorted({G42.add(cur, b) for b in pair.subgroup})))
                cur = G42.add(cur, x)
            assert len(seen) == pair.quotient_order


class TestCosetNumbers:
    def test_degree_two_example_values(self):
        order4 = [p for p in cyclic_pairs(G42) if len(p.subgroup) == 4]
        order2 = [p for p in cyclic_pairs(G42) if len(p.subgroup) == 2]
        assert {coset_numbers(G42, H42, p) for p in order4} == {(0, 0, 0, 1)}
        assert {coset_numbers(G42, H42, p) for p in order2} == {(0, 1, 1, 2)}

    def test_degree_nine_example_values(self):
        assert {coset_numbers(G66, H66, p) for p in cyclic_pairs(G66)} == {
            (0, 2, 2, 2)
        }

    def test_values_bounded_by_half_quotient(self):
        for pair in cyclic_pairs(G66):
            for c in coset_numbers(G66, H66, pair):
                assert 0 <= 2 * c <= pair.quotient_order

    def test_generator_change_acts_by_unit(self):
        # Coset numbers for generator u*a are the folded unit multiples
        # of those for a.
        from dataclasses import replace
        from math import gcd

        for group, subset in ((G42, H42), (G66, H66)):
            pairs = cyclic_pairs(group)
            by_subgroup = {}
            for pair in pairs:
                by_subgroup.setdefault(frozenset(pair.subgroup), []).append(pair)
            for span, members in by_subgroup.items():
                base = members[0]
                n = base.quotient_order
                base_cs = coset_numbers(group, subset, base)
                for u in range(1, n):
                    if gcd(u, n) != 1:
                        continue
                    other = replace(
                        base,
                        generator=tuple(
                            (u * x) % m
                            for x, m in zip(base.generator, (group.m, group.n))
                        ),
                    )
                    # Scaling the generator by u divides coset indices
                    # by u, so the numbers transform by the inverse unit.
                    uinv = pow(u, -1, n)
                    expected = tuple(
                        sorted(
                            min((uinv * c) % n, n - (uinv * c) % n) for c in base_cs
                        )
                    )
                    assert coset_numbers(group, subset, other) == expected


class TestIsNonseparating:
    def test_published_examples(self):
        assert is_nonseparating(G42, H42)
        assert is_nonseparating(G66, H66)

    def test_split_pairs_separate(self):
        # Two inverse pairs inside <(1,0)> and two outside.
        subset = SymmetricFour(((0, 0), (2, 0), (0, 1), (2, 1)))
        assert not is_nonseparating(G42, subset)

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            is_nonseparating(G42, SymmetricFour(((1, 0), (3, 0), (0, 0), (2, 0))))

    @pytest.mark.parametrize("element", [(7, 0), (4, 0), (5, 0), (0, 2), (-1, 0)])
    def test_element_outside_group_rejected(self, element):
        subset = SymmetricFour((element, (0, 0), (2, 1), (3, 1)))
        message = re.escape(f"{element} is not an element of Z/4 + Z/2")
        for check in (is_nonseparating, separating_pair):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(G42, subset)

    def test_set_walk_is_capped(self, monkeypatch):
        # Z/32 + Z/32 is the largest square group under the cap; Z/33 +
        # Z/33, Z/100000 + Z/100000 and the subgroup 2*(Z/66 + Z/66) of
        # 1,089 elements are refused before any element is listed or
        # any cyclic pair is built.
        subset = SymmetricFour(((0, 0), (16, 0), (0, 16), (16, 16)))
        pair = separating_pair(FinAbGroup(32, 32), subset)
        assert (pair.subgroup_generator, pair.generator) == ((0, 1), (1, 0))

        def listed(*_):
            raise AssertionError("the set walk started before its cap was checked")

        monkeypatch.setattr(nonsep, "cyclic_pairs", listed)
        monkeypatch.setattr(FinAbGroup, "elements", listed)
        doubles = frozenset((2 * x, 2 * y) for x in range(33) for y in range(33))
        for check in (
            lambda: separating_pair(FinAbGroup(33, 33), subset),
            lambda: is_nonseparating(FinAbGroup(100_000, 100_000), subset),
            lambda: is_nonseparating_in_subgroup(FinAbGroup(66, 66), doubles, subset),
        ):
            with pytest.raises(BudgetExceededError, match="above the limit of 1024$"):
                check()

    def test_separating_pair(self):
        assert separating_pair(G42, H42) is None
        subset = SymmetricFour(((0, 0), (2, 0), (0, 1), (2, 1)))
        pair = separating_pair(G42, subset)
        assert (pair.subgroup_generator, pair.generator) == ((0, 1), (1, 0))
        assert coset_numbers(G42, subset, pair) == (0, 0, 2, 2)
        numbers = [(p, coset_numbers(G42, subset, p)) for p in cyclic_pairs(G42)]
        assert pair == next(p for p, cs in numbers if cs[1] != cs[2])


class TestSearch:
    def test_degree_two_search(self):
        found = {f.canonical(G42) for f in search_nonseparating(G42)}
        assert H42.canonical(G42) in found
        assert len(found) == 2

    def test_klein_group_has_none(self):
        # Regression snapshot: the single candidate subset separates.
        g = FinAbGroup(2, 2)
        assert len(inversion_classes(g)) == 4
        assert search_nonseparating(g) == []

    def test_double_cover_group(self):
        g = FinAbGroup(4, 4)
        embedded = SymmetricFour(((0, 0), (1, 0), (2, 0), (1, 2)))
        found = {f.canonical(g) for f in search_nonseparating(g)}
        assert embedded.canonical(g) in found

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            search_nonseparating(FinAbGroup(6, 6), budget=10)

    def test_huge_group_is_refused_before_any_element_is_listed(self, monkeypatch):
        def listed(*_):
            raise AssertionError("the search listed the group before its budget check")

        monkeypatch.setattr(nonsep, "inversion_classes", listed)
        monkeypatch.setattr(FinAbGroup, "elements", listed)
        with pytest.raises(BudgetExceededError, match="exceed the budget of 100000"):
            search_nonseparating(FinAbGroup(100_000, 100_000))


class TestGroupFormulas:
    def test_order_of_equals_repeated_addition(self):
        for m in range(1, 13):
            for n in range(1, 13):
                group = FinAbGroup(m, n)
                for a in group.elements():
                    k, x = 1, a
                    while x != (0, 0):
                        x, k = group.add(x, a), k + 1
                    assert group.order_of(a) == k, (m, n, a)

    def test_class_count_equals_listed_classes(self):
        # The budget check counts the classes as (|A| + |A[2]|) / 2 before
        # listing them; A[2], the elements of order <= 2, has
        # gcd(2, m) * gcd(2, n) of them.
        for m in range(1, 41):
            for n in range(1, 41):
                group = FinAbGroup(m, n)
                count = (m * n + gcd(2, m) * gcd(2, n)) // 2
                assert count == len(inversion_classes(group)), (m, n)


def _groups(max_order):
    return [(m, n) for m in range(1, max_order + 1) for n in range(1, max_order // m + 1)]


def _reference_maps(group):
    """Coset numbers of every element, one map per cyclic pair, by set walks.

    Generators in a + B or -a + B give the map of a, so each subgroup
    walks only one generator per such pair of cosets.
    """
    by_subgroup = {}
    for pair in cyclic_pairs(group):
        by_subgroup.setdefault(pair.subgroup, []).append(pair)
    maps = []
    for span, pairs in by_subgroup.items():
        covered = set()
        for pair in pairs:
            if pair.generator in covered:
                continue
            k = pair.quotient_order
            values, coset = {}, set(span)
            for j in range(k):
                values.update(dict.fromkeys(coset, min(j, k - j)))
                coset = {group.add(el, pair.generator) for el in coset}
            covered |= {el for el, c in values.items() if c == min(1, k - 1)}
            maps.append(values)
    return maps


class TestSearchAgainstSetWalks:
    def test_search_equals_brute_force(self, monkeypatch):
        # Every Z/m + Z/n of order <= 24, m | n or not.  The memo only
        # spares is_nonseparating from walking the same pairs per subset.
        monkeypatch.setattr(nonsep, "cyclic_pairs", lru_cache(maxsize=None)(cyclic_pairs))
        for m, n in _groups(24):
            group = FinAbGroup(m, n)
            subsets = [SymmetricFour(c) for c in combinations(inversion_classes(group), 4)]
            expected = [s for s in subsets if is_nonseparating(group, s)]
            assert search_nonseparating(group) == expected, (m, n)

    def test_found_subsets_and_sampled_others(self):
        rng = random.Random(20121004)
        for m in range(1, 13):
            for n in range(1, 13):
                group = FinAbGroup(m, n)
                maps = _reference_maps(group)

                def nonseparating(reps):
                    return all(
                        (cs := sorted(v[h] for h in reps))[1] == cs[2] for v in maps
                    )

                found = search_nonseparating(group, budget=10**7)
                assert all(nonseparating(f.reps) for f in found), (m, n)
                classes = inversion_classes(group)
                if len(classes) < 4:
                    continue
                reps_found = {f.reps for f in found}
                for _ in range(20):
                    idx = sorted(rng.sample(range(len(classes)), 4))
                    reps = tuple(classes[i] for i in idx)
                    if reps not in reps_found:
                        assert not nonseparating(reps), (m, n, reps)

    def test_census_script_matches_pinned_table(self):
        root = Path(__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "nonsep_census.py"), "--max-order", "24"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        pinned = (root / "bench" / "expected" / "census.txt").read_text().splitlines()
        rows = [r for r in pinned if not r.startswith("Z/") or int(r.split()[3]) <= 24]
        assert len(out) > 20
        assert out == rows


class TestTranslateLemma:
    @pytest.mark.parametrize("group", [FinAbGroup(4, 2), FinAbGroup(4, 4), FinAbGroup(2, 8)])
    def test_involution_translates_preserve_nonseparating(self, group):
        involutions = [h for h in group.elements() if group.add(h, h) == group.zero()]
        for subset in search_nonseparating(group):
            for shift in involutions:
                assert is_nonseparating(group, translate_by_involution(group, subset, shift))

    def test_identity_translate(self):
        assert translate_by_involution(G42, H42, (0, 0)) == H42

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError):
            translate_by_involution(G42, H42, (1, 0))


class TestSubgroupLemma:
    def test_embedded_subsets_stay_nonseparating(self):
        # Z/4 + Z/2 embedded in Z/4 + Z/4 as <(1,0), (0,2)>.
        g = FinAbGroup(4, 4)
        sub = frozenset(
            (x, y) for x in range(4) for y in range(4) if y % 2 == 0
        )
        embedded = SymmetricFour(((0, 0), (1, 0), (2, 0), (1, 2)))
        assert is_nonseparating_in_subgroup(g, sub, embedded)
        assert is_nonseparating(g, embedded)

    def test_order_three_classes_in_ambient_group(self):
        # The 3-torsion subgroup of Z/6 + Z/6.
        sub = frozenset((x, y) for x in (0, 2, 4) for y in (0, 2, 4))
        assert is_nonseparating_in_subgroup(G66, sub, H66)
        assert is_nonseparating(G66, H66)

    @settings(max_examples=20)
    @given(st.sampled_from([(2, 8), (4, 4), (2, 12)]))
    def test_every_subgroup_witness_lifts(self, shape):
        group = FinAbGroup(*shape)
        # Subgroup generated by (1,0) and (0,2).
        sub = frozenset(
            (x, y) for x in range(group.m) for y in range(0, group.n, 2)
        )
        for subset in search_nonseparating(group):
            if all(h in sub for h in subset.reps):
                if is_nonseparating_in_subgroup(group, sub, subset):
                    assert is_nonseparating(group, subset)

    def test_whole_group_agrees_with_is_nonseparating(self):
        rng = random.Random(7)
        for m, n in ((4, 2), (2, 6), (4, 4), (3, 6), (6, 6)):
            group = FinAbGroup(m, n)
            whole = frozenset(group.elements())
            classes = inversion_classes(group)
            for _ in range(15):
                reps = tuple(
                    h if rng.random() < 0.5 else group.neg(h)
                    for h in rng.sample(classes, 4)
                )
                subset = SymmetricFour(reps)
                assert is_nonseparating_in_subgroup(group, whole, subset) == (
                    is_nonseparating(group, subset)
                )


class TestNonexistence:
    @pytest.mark.parametrize("d", [3, 5, 7, 15])
    def test_two_cross_odd_cyclic(self, d):
        assert verify_nonexistence(FinAbGroup(2, 2 * d))

    def test_degree_two_group_has_subsets(self):
        assert not verify_nonexistence(G42)


class TestExistenceByEmbedding:
    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_even_degrees(self, d):
        # Z/2d + Z/2 contains a copy of Z/4 + Z/2 generated by
        # (d/2, 0) and (0, 1).
        group = FinAbGroup(2 * d, 2)
        step = d // 2
        embedded = SymmetricFour(
            ((0, 0), (step, 0), (2 * step, 0), (step, 1))
        )
        assert is_nonseparating(group, embedded)

    @pytest.mark.parametrize("d", [9, 18])
    def test_degrees_divisible_by_nine(self, d):
        # Z/(2d/3) + Z/6 contains the order-3 classes of a Z/6 + Z/6
        # copy generated by ((d/9)*2, 0)-steps.
        group = FinAbGroup(2 * d // 3, 6)
        a = group.m // 3
        embedded = SymmetricFour(((0, 2), (2 * a, 0), (2 * a, 2), (2 * a, 4)))
        assert is_nonseparating(group, embedded)


class TestDegree2Refutation:
    def test_no_realizable_subset(self):
        report = degree2_refutation()
        assert len(report.entries) == 2
        assert report.realizable == ()
        for entry in report.entries:
            assert entry.contains_order_four
            assert not entry.exactly_one_doubled

    def test_published_subset_contains_both_doubled_elements(self):
        els = H42.elements(G42)
        assert {(0, 0), (2, 0)} <= els

    def test_missing_order_four_class_separates(self):
        # Any four classes avoiding an order-4 class are separating.
        for subset in (
            SymmetricFour(((0, 0), (2, 0), (0, 1), (2, 1))),
            SymmetricFour(((0, 0), (1, 0), (2, 0), (0, 1))),
        ):
            assert not is_nonseparating(G42, subset)


class TestConstantTeichmueller:
    def test_double_presentation_constant(self, double_pres):
        assert constant_teich_check(double_pres)

    def test_main_presentation_not_constant(self, main_pres):
        assert not constant_teich_check(main_pres)

    def test_euclidean_presentation_not_constant(self, euclidean_pres):
        assert not constant_teich_check(euclidean_pres)

    @staticmethod
    def set_walk(pres):
        q = quotient_presentation(pres.lambda1, 2)
        reps = tuple(q.reduce(h) for h in pres.postcritical)
        return is_nonseparating(FinAbGroup(q.m, q.n), SymmetricFour(reps))

    @staticmethod
    def lattice_classes(u, v):
        """The presentation whose four marked points are the L1/2L1
        classes 0, u, v and u + v, each a degenerate mirror."""
        basis = Basis2(u, v)
        hs = ((0, 0), u, v, (u[0] + v[0], u[1] + v[1]))
        pres = NetMapPresentation("classes", basis, hs, tuple(map(MirrorArc, hs)), basis)
        validate(pres)
        return pres

    def test_agrees_with_set_walk_on_random_presentations(self):
        from test_pullback import random_presentation

        for seed in range(300):
            pres = random_presentation(seed)
            assert constant_teich_check(pres) == self.set_walk(pres), seed

    @pytest.mark.parametrize("k", range(2, 17))
    def test_agrees_with_set_walk_on_lattice_classes(self, k):
        for u, v in (((k, 0), (0, k)), ((k, 0), (1, k)), ((2 * k, 0), (k, 1))):
            pres = self.lattice_classes(u, v)
            assert constant_teich_check(pres) == self.set_walk(pres)

    def test_index_289_is_answered(self):
        # Z^2/2L1 has 1,156 elements, more than a set walk may take.
        pres = self.lattice_classes((17, 0), (0, 17))
        with pytest.raises(BudgetExceededError):
            self.set_walk(pres)
        assert constant_teich_check(pres) is False

    def test_pinned_on_random_presentations(self):
        # The invariant factors, both coordinate transforms and the
        # verdict on 300 seeded presentations, hashed; a different
        # Smith form U would move the transforms.
        from test_pullback import random_presentation

        lines = []
        for seed in range(300):
            pres = random_presentation(seed)
            q = quotient_presentation(pres.lambda1, 2)
            lines.append(repr((q.m, q.n, q.to_mat, q.from_mat, constant_teich_check(pres))))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "b128eb745982d131197e4213f608a7f28245aabebd56ef65759346e460ddc4de"

    @pytest.mark.parametrize("height", [12])
    def test_cross_module_equivalence(self, main_pres, double_pres, height):
        # Constant map <=> every slope pulls back inessentially.
        from math import gcd

        def all_inessential(pres):
            for q in range(0, height + 1):
                for p in range(-height, height + 1):
                    if (p, q) == (0, 0) or gcd(p, q) != 1:
                        continue
                    if analyze_slope(pres, Slope.of(p, q)).essential:
                        return False
            return True

        assert constant_teich_check(double_pres) == all_inessential(double_pres)
        assert constant_teich_check(main_pres) == all_inessential(main_pres)
