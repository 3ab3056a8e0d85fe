import itertools

import pytest

from colorpart.core import parse_pattern_set
from colorpart.enumeration import canonical_pair_patterns, count_avoiders
from colorpart.formulas import (
    REGISTRY,
    FormulaRangeError,
    bell,
    closed_form,
    kcolor_count,
    lookup_formula,
    pair4_sequence,
    stirling2,
)


class TestBasics:
    def test_bell_values(self):
        assert [bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_stirling_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0

    def test_stirling_sums_to_bell(self):
        for n in range(11):
            assert sum(stirling2(n, j) for j in range(n + 1)) == bell(n)

    def test_kcolor_one_color_is_bell(self):
        for n in range(9):
            assert kcolor_count(n, 1) == bell(n)

    def test_kcolor_examples(self):
        assert kcolor_count(3, 2) == 14
        assert kcolor_count(4, 3) == 93

    def test_kcolor_two_colors_is_bell_convolution(self):
        for n in range(11):
            assert kcolor_count(n, 2) == \
                sum(bell(i) * bell(n - i) for i in range(n + 1))


class TestRegistryShape:
    def test_counts_by_size(self):
        by_size = {}
        seen = set()
        for entry in REGISTRY:
            for patterns in entry.pattern_sets:
                key = frozenset(p.key() for p in patterns)
                assert key not in seen
                seen.add(key)
                by_size[len(patterns)] = by_size.get(len(patterns), 0) + 1
        assert by_size[2] == 15
        assert by_size[3] == 20
        assert by_size[4] == 15
        assert by_size[5] == 2
        assert by_size[6] == 1
        assert by_size[1] == 1

    def test_all_sets_drawn_from_canonical_patterns(self):
        canon = set(canonical_pair_patterns())
        for entry in REGISTRY:
            for patterns in entry.pattern_sets:
                assert set(patterns) <= canon

    def test_every_pair_and_triple_and_quad_covered(self):
        for size in (2, 3, 4):
            for S in itertools.combinations(canonical_pair_patterns(), size):
                assert lookup_formula(S) is not None


class TestClosedForms:
    def test_fixture_values(self):
        by_label = {e.label: e for e in REGISTRY}
        assert by_label["pair class 3"](5) == 46
        assert by_label["pair class 4"](6) == 499
        assert by_label["pair class 6"](6) == 695
        assert by_label["triple class 5"](4) == 17
        assert by_label["quad class 2"](5) == 2 * bell(5)
        assert by_label["single {1^12^1}"](3) == 14

    def test_pair4_recurrence(self):
        seq = pair4_sequence(12)
        assert seq[:6] == (2, 5, 14, 43, 142, 499)
        for n in range(3, 13):
            assert seq[n - 1] == 2 * seq[n - 2] + (n - 1) * seq[n - 3]

    def test_range_guard(self):
        entry = next(e for e in REGISTRY if e.label == "pair class 6")
        with pytest.raises(FormulaRangeError):
            closed_form(entry, 1)
        assert closed_form(entry, 2) == 6

    def test_published_terms_match_closed_forms(self):
        for entry in REGISTRY:
            for n in range(entry.min_n, len(entry.terms) + 1):
                assert entry.terms[n - 1] == closed_form(entry, n), (entry.label, n)

    def test_all_entries_match_brute_force(self):
        for entry in REGISTRY:
            for patterns in entry.pattern_sets:
                for n in range(max(1, entry.min_n), 5):
                    assert closed_form(entry, n) == \
                        count_avoiders(n, 2, patterns), entry.label


class TestLookup:
    def test_hit(self):
        entry = lookup_formula(parse_pattern_set("1^12^2,1^22^1"))
        assert entry is not None and entry.label == "pair class 5"

    def test_unreduced_colors_resolve(self):
        # 1^21^1 and 1^12^1 color-reduce onto registry members
        entry = lookup_formula(parse_pattern_set("1^21^1,1^12^1"))
        assert entry is not None and entry.label == "pair class 2"

    def test_single_pattern_without_formula(self):
        assert lookup_formula(parse_pattern_set("1^11^2")) is None

    def test_order_irrelevant(self):
        a = lookup_formula(parse_pattern_set("1^11^2,1^21^1"))
        b = lookup_formula(parse_pattern_set("1^21^1,1^11^2"))
        assert a is b is not None and a.label == "pair class 8"
