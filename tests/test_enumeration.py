import functools
import itertools
import math
import random
import tracemalloc

import pytest

from colorpart import enumeration
from colorpart.avoidance import Sense, avoids_all, contains_colored, copy_ends_at
from colorpart.core import (
    ColoredPartition,
    ColoredPattern,
    canonize_sub,
    color_complement,
    parse_pattern,
    parse_pattern_set,
    print_pattern_set,
    reduce_word,
)
from colorpart.enumeration import (
    avoidance_sequence,
    avoider_set,
    canonical_pair_patterns,
    containment_profiles,
    count_avoiders,
    count_from_profiles,
    iter_avoiders,
    iter_colored,
    iter_rgs,
    verify_eq_pattern_identities,
    verify_color_symmetries,
    wilf_classify,
)
from colorpart.formulas import REGISTRY, bell, closed_form


class TestGenerators:
    def test_rgs_n3(self):
        assert list(iter_rgs(3)) == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]

    def test_rgs_n0(self):
        assert list(iter_rgs(0)) == [()]

    def test_rgs_counts_match_bell(self):
        for n in range(0, 9):
            assert sum(1 for _ in iter_rgs(n)) == bell(n)

    def test_rgs_lexicographic_and_distinct(self):
        for n in range(1, 8):
            words = list(iter_rgs(n))
            assert words == sorted(set(words))

    def test_rgs_prefix_filters_all_words(self):
        for n in range(0, 8):
            words = list(iter_rgs(n))
            for length in range(0, min(n, 4) + 1):
                for prefix in iter_rgs(length):
                    assert list(iter_rgs(n, prefix)) == \
                        [w for w in words if w[:length] == prefix]

    def test_rgs_bad_prefix(self):
        with pytest.raises(ValueError):
            list(iter_rgs(2, (1, 2, 1)))
        with pytest.raises(ValueError):
            list(iter_rgs(3, (1, 3)))

    def test_colored_counts(self):
        assert sum(1 for _ in iter_colored(2, 2)) == 8
        assert [s.word_text() for s in iter_colored(1, 2)] == ["1^1", "1^2"]
        assert sum(1 for _ in iter_colored(6, 2)) == 203 * 64

    def test_colored_order_deterministic(self):
        first = [s.word_text() for s in itertools.islice(iter_colored(3, 2), 6)]
        assert first == ["1^11^11^1", "1^11^11^2", "1^11^21^1", "1^11^21^2",
                         "1^21^11^1", "1^21^11^2"]


class TestCountAvoiders:
    def test_table_values(self):
        assert count_avoiders(4, 2, parse_pattern_set("1^11^2,1^21^1")) == 94
        assert count_avoiders(3, 2, parse_pattern_set("1^11^1,1^12^1")) == 0
        assert count_avoiders(5, 2, ()) == bell(5) * 2 ** 5

    def test_empty_set_identity(self):
        for n in range(0, 9):
            for k in (1, 2, 3):
                assert count_avoiders(n, k, ()) == bell(n) * k ** n

    @pytest.mark.parametrize("text", [
        "1^11^2,1^21^1", "1^12^2,1^22^1", "1^11^1,1^12^2",
        "1^11^2,1^12^1,1^12^2", "1^11^1,1^11^2,1^21^1,1^12^2"])
    def test_pruned_matches_naive(self, text):
        S = parse_pattern_set(text)
        for n in range(1, 6):
            assert count_avoiders(n, 2, S) == count_avoiders(n, 2, S, naive=True)

    @pytest.mark.parametrize("sense", [Sense.EQ, Sense.LT])
    def test_pruned_matches_naive_other_senses(self, sense):
        for text in ("1^11^2,1^21^2", "1^12^1", "1^21^1,1^22^2"):
            S = parse_pattern_set(text)
            for n in range(1, 6):
                assert count_avoiders(n, 2, S, sense) == \
                    count_avoiders(n, 2, S, sense, naive=True)

    def test_parallel_matches_sequential(self):
        # only the oracle (naive=True) fans out, for sets of any length
        for text in ("1^12^11^2", "1^11^2,1^22^1"):
            S = parse_pattern_set(text)
            for n in (5, 6):
                assert count_avoiders(n, 2, S, naive=True, jobs=2) == \
                    count_avoiders(n, 2, S, naive=True)

    @staticmethod
    def recording_pool(monkeypatch):
        """Replace the process pool by an in-process one; returns the
        list of the worker counts it was started with."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        return started

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        started = self.recording_pool(monkeypatch)
        S = parse_pattern_set("1^12^11^2")
        assert count_avoiders(5, 2, S, naive=True, jobs=64) == count_avoiders(5, 2, S)
        assert started == [2]
        # a length-2 set is counted in-process whatever jobs is
        count_avoiders(7, 2, parse_pattern_set("1^11^2"), jobs=2)
        assert started == [2]

    def test_counts_without_naive_start_no_pool(self, monkeypatch):
        started = self.recording_pool(monkeypatch)
        S = parse_pattern_set("1^12^11^2")
        assert count_avoiders(7, 2, S, jobs=2) == count_avoiders(7, 2, S)
        assert avoidance_sequence(S, n_max=7, jobs=2).counts[-1] == \
            count_avoiders(7, 2, S)
        assert started == []

    def test_iter_avoiders_consistent(self):
        S = parse_pattern_set("1^12^1,1^22^1")
        for n in range(1, 7):
            listed = list(iter_avoiders(n, 2, S))
            assert len(listed) == len(set(listed)) == count_avoiders(n, 2, S)

    def test_eq_count_at_least_pattern_count(self):
        for pi in canonical_pair_patterns():
            for n in range(1, 7):
                eq = count_avoiders(n, 2, (pi,), Sense.EQ)
                pat = count_avoiders(n, 2, (pi,), Sense.PATTERN)
                assert eq >= pat

    def test_complement_relabeling_invariance(self):
        # summing the avoidance indicator over all colorings of a fixed word
        # is unchanged by complementing every color
        S = parse_pattern_set("1^11^2,1^22^1")
        Sc = tuple(color_complement(p) for p in S)
        for n in range(1, 7):
            assert count_avoiders(n, 2, S) == count_avoiders(n, 2, Sc)


class TestDPAgainstOracles:
    """The DP count against the pruned DFS, full enumeration and closed forms."""

    @pytest.mark.parametrize("sense", list(Sense))
    def test_all_subsets_of_canonical_six(self, sense):
        six = canonical_pair_patterns()
        for n in range(1, 7):
            # one full sweep gives every subset's brute-force count: an
            # element avoids S iff its containment mask misses S's mask
            hist = {}
            for sigma in iter_colored(n, 2):
                mask = sum(1 << i for i, pi in enumerate(six)
                           if contains_colored(sigma, pi, sense))
                hist[mask] = hist.get(mask, 0) + 1
            for smask in range(64):
                S = [pi for i, pi in enumerate(six) if smask >> i & 1]
                brute = sum(v for mask, v in hist.items() if not mask & smask)
                dp = count_avoiders(n, 2, S, sense)
                assert dp == len(list(iter_avoiders(n, 2, S, sense))) == brute
                if n <= 4:
                    assert dp == count_avoiders(n, 2, S, sense, naive=True)

    @pytest.mark.parametrize("sense", [Sense.EQ, Sense.LT])
    def test_sampled_three_color_sets(self, sense):
        pats = [ColoredPattern(w, c, 3) for w in ((1, 1), (1, 2))
                for c in itertools.product((1, 2, 3), repeat=2)]
        rng = random.Random(3)
        for _ in range(12):
            S = rng.sample(pats, rng.randint(1, 4))
            for n in range(1, 5):
                dp = count_avoiders(n, 3, S, sense)
                assert dp == len(list(iter_avoiders(n, 3, S, sense)))
                assert dp == count_avoiders(n, 3, S, sense, naive=True)

    def test_registry_closed_forms_to_40(self):
        for entry in REGISTRY:
            for S in entry.pattern_sets:
                counts = avoidance_sequence(S, n_max=40).counts
                for n in range(entry.min_n, 41):
                    assert counts[n - 1] == closed_form(entry, n), \
                        (entry.label, print_pattern_set(S), n)


def exponential_formula(w, n):
    """[a(0), ..., a(n)] for sets whose blocks do not interact: the block of
    element 1 has s elements, picked in C(m-1, s-1) ways, and w(s) color
    words (Stanley, EC2 5.1)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m - 1, s - 1) * w(s) * a[m - s] for s in range(1, m + 1)))
    return a


def block_words(n, k, patterns, sense):
    """w[s]: the color words of one block of s <= n elements that avoid
    `patterns`, by a walk that drops a word once a copy ends at its end."""
    w = [0] * (n + 1)

    def grow(colors):
        t = len(colors)
        w[t] += 1
        if t < n:
            for c in range(1, k + 1):
                longer = colors + (c,)
                if not any(copy_ends_at((1,) * (t + 1), longer, t, pi, sense)
                           for pi in patterns):
                    grow(longer)

    grow(())
    return w


class TestExponentialFormula:
    """Word-11 patterns relate elements of one block only, so the DP's
    counts for sets of them follow from one block's color words."""

    WORD11 = ("1^11^1", "1^11^2", "1^21^1")

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("k", [2, 3])
    def test_every_word11_set(self, k, sense):
        for size in (1, 2, 3):
            for texts in itertools.combinations(self.WORD11, size):
                S = parse_pattern_set(",".join(texts), k)
                w = block_words(9, k, S, sense)
                assert enumeration._count_residual(9, k, S, sense) == \
                    exponential_formula(w.__getitem__, 9), (texts, k, sense)

    @pytest.mark.parametrize("k, n", [(2, 25), (3, 18), (4, 11)])
    @pytest.mark.parametrize("text", ["1^11^1", "1^11^2"])
    def test_closed_block_counts(self, text, k, n):
        # distinct colors, or a weakly decreasing color word
        w = {"1^11^1": functools.partial(math.perm, k),
             "1^11^2": lambda s: math.comb(s + k - 1, k - 1)}[text]
        S = parse_pattern_set(text, k)
        assert enumeration._count_residual(n, k, S, Sense.PATTERN) == \
            exponential_formula(w, n)


@functools.lru_cache(maxsize=None)
def hosts_with_copies(n, k):
    """Every sigma of size n with its subpartitions of 1..3 elements.

    Found by brute force over index sets: copies[m][word] holds the
    color words of the m-element subpartitions with canonical word `word`.
    """
    hosts = []
    for sigma in iter_colored(n, k):
        copies = {m: {} for m in (1, 2, 3)}
        for m in copies:
            for idx in itertools.combinations(range(1, n + 1), m):
                sub = canonize_sub(sigma, idx)
                copies[m].setdefault(sub.word, set()).add(sub.colors)
        hosts.append((sigma, copies))
    return hosts


def copy_oracle(copies, pi, sense):
    # containment straight from the definitions, over precomputed copies
    for colors in copies[pi.n].get(pi.word, ()):
        if sense is Sense.PATTERN:
            ok = reduce_word(colors) == reduce_word(pi.colors)
        elif sense is Sense.EQ:
            ok = colors == pi.colors
        else:
            ok = all(c <= p for c, p in zip(colors, pi.colors))
        if ok:
            return True
    return False


def brute_avoiders(n, k, patterns, sense):
    return {sigma for sigma, copies in hosts_with_copies(n, k)
            if not any(copy_oracle(copies, pi, sense) for pi in patterns)}


class TestWalkAgainstOracles:
    """The pruned walk (the avoiders) and the residual DP (their count)
    against `naive=True` and a brute-force copy scan."""

    THREE_ELEMENT = tuple(ColoredPattern(w, c, 2) for w in iter_rgs(3)
                          for c in itertools.product((1, 2), repeat=3))

    @pytest.mark.parametrize("sense", list(Sense))
    def test_all_three_element_patterns(self, sense):
        assert len(self.THREE_ELEMENT) == 40
        for n in range(1, 6):
            for pi in self.THREE_ELEMENT:
                brute = brute_avoiders(n, 2, (pi,), sense)
                assert avoider_set(n, 2, (pi,), sense) == brute, (pi, n)
                assert count_avoiders(n, 2, (pi,), sense) == len(brute) == \
                    count_avoiders(n, 2, (pi,), sense, naive=True), (pi, n)

    def test_mixed_length_three_color_sets(self):
        by_length = {m: [ColoredPattern(w, c, 3) for w in iter_rgs(m)
                         for c in itertools.product((1, 2, 3), repeat=m)]
                     for m in (1, 2, 3)}
        rng = random.Random(6)
        sets = []
        for _ in range(100):
            lengths = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 3))]
            sets.append(([rng.choice(by_length[m]) for m in lengths],
                         rng.choice(list(Sense))))
        # every length occurs, alone and beside the others
        assert {pi.n for S, _ in sets for pi in S} == {1, 2, 3}
        assert sum(len({pi.n for pi in S}) > 1 for S, _ in sets) >= 40
        for n in range(1, 5):
            for S, sense in sets:
                brute = brute_avoiders(n, 3, S, sense)
                assert avoider_set(n, 3, S, sense) == brute, (S, sense, n)
                assert count_avoiders(n, 3, S, sense) == len(brute) == \
                    count_avoiders(n, 3, S, sense, naive=True), (S, sense, n)

    def test_empty_pattern_is_contained_everywhere(self):
        empty = ColoredPattern((), (), 2)
        for S in ((empty,), (empty, ColoredPattern((1, 2, 1), (1, 2, 1), 2))):
            for sense in Sense:
                for n in range(0, 5):
                    walk = count_avoiders(n, 2, S, sense)
                    assert walk == count_avoiders(n, 2, S, sense, naive=True)
                    assert avoider_set(n, 2, S, sense) == set()
                    assert walk == 0

    def test_size_zero_every_engine(self):
        # both DPs, the walk and the oracle all answer n = 0 themselves
        empty = ColoredPattern((), (), 2)
        for S in ((), (empty,), (empty, parse_pattern("1^12^11^2")),
                  parse_pattern_set("1^11^2,1^21^1")):
            for sense in Sense:
                count = count_avoiders(0, 2, S, sense)
                assert count == len(avoider_set(0, 2, S, sense)) == \
                    count_avoiders(0, 2, S, sense, naive=True), S
                assert count == (0 if empty in S else 1)

    def test_pooled_walk(self):
        S = parse_pattern_set("1^12^11^2")
        assert count_avoiders(6, 2, S, naive=True, jobs=2) == \
            sum(1 for _ in enumeration._walk(6, 2, S, Sense.PATTERN))


class TestResidualDP:
    """The residual DP against the walk's count of the avoiders it visits."""

    @staticmethod
    def walk_count(n, k, patterns, sense):
        return sum(1 for _ in enumeration._walk(n, k, tuple(patterns), sense))

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("n", [6, 7])
    def test_all_three_element_patterns(self, sense, n):
        for pi in TestWalkAgainstOracles.THREE_ELEMENT:
            assert enumeration._count_residual(n, 2, (pi,), sense)[n] == \
                self.walk_count(n, 2, (pi,), sense), (pi, n)

    def test_mixed_length_three_color_sets(self):
        by_length = {m: [ColoredPattern(w, c, 3) for w in iter_rgs(m)
                         for c in itertools.product((1, 2, 3), repeat=m)]
                     for m in (1, 2, 3, 4)}
        rng = random.Random(12)
        sets = []
        for _ in range(60):
            lengths = [rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(1, 3))]
            sets.append(([rng.choice(by_length[m]) for m in lengths],
                         rng.choice(list(Sense))))
        assert {pi.n for S, _ in sets for pi in S} == {1, 2, 3, 4}
        for S, sense in sets:
            counts = enumeration._count_residual(5, 3, S, sense)
            assert counts == [self.walk_count(n, 3, S, sense) for n in range(6)], \
                (S, sense)

    @pytest.mark.parametrize("text", ["1^11^2,1^22^1", "1^12^11^2,1^11^2"])
    def test_one_pass_sequence(self, text):
        S = parse_pattern_set(text)
        counts = avoidance_sequence(S, n_max=6).counts
        assert counts == tuple(count_avoiders(n, 2, S) for n in range(1, 7))
        assert counts == tuple(count_avoiders(n, 2, S, naive=True) for n in range(1, 7))


class TestSequencesAndClasses:
    def test_class5_sequence(self):
        seq = avoidance_sequence(parse_pattern_set("1^12^2,1^22^1"), n_max=6)
        assert seq.counts == (2, 6, 16, 44, 134, 468)

    def test_triple_class7_sequence(self):
        seq = avoidance_sequence(parse_pattern_set("1^11^2,1^12^2,1^21^1"),
                                 n_max=5)
        assert seq.counts == (2, 5, 14, 44, 154)

    def test_all_six_patterns(self):
        pats = canonical_pair_patterns()
        seq = avoidance_sequence(pats, n_max=3)
        assert seq.counts == (2, 0, 0)

    def test_pairs_classify_into_8(self):
        family = list(itertools.combinations(canonical_pair_patterns(), 2))
        cls = wilf_classify(family, n_max=6)
        assert len(cls) == 8

    def test_triples_classify_into_7(self):
        family = list(itertools.combinations(canonical_pair_patterns(), 3))
        cls = wilf_classify(family, n_max=6)
        assert len(cls) == 7

    @pytest.mark.parametrize("size, classes", [(2, 8), (3, 7), (4, 4), (6, 1)])
    def test_classes_are_the_registry_entries(self, size, classes):
        def members(pattern_sets):
            return frozenset(frozenset(p.key() for p in S) for S in pattern_sets)

        family = list(itertools.combinations(canonical_pair_patterns(), size))
        found = {members(c) for c in wilf_classify(family, n_max=6).classes}
        registered = {members(entry.pattern_sets) for entry in REGISTRY
                      if len(entry.pattern_sets[0]) == size}
        assert len(registered) == classes
        assert found == registered

    def test_single_set_single_class(self):
        cls = wilf_classify([parse_pattern_set("1^11^2")], n_max=4)
        assert len(cls) == 1

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            avoidance_sequence(parse_pattern_set("1^11^2"), n_max=0)


def enumerated_count(n, k, patterns, sense, prefix=()):
    """The oracle's definition: test every ColoredPartition of iter_colored."""
    return sum(1 for s in iter_colored(n, k, prefix) if avoids_all(s, patterns, sense))


class TestNaiveOracle:
    """`_count_naive` over raw words against its definition over partitions."""

    @pytest.mark.parametrize("sense", list(Sense))
    def test_all_subsets_of_canonical_six(self, sense):
        six = canonical_pair_patterns()
        for smask in range(64):
            S = tuple(pi for i, pi in enumerate(six) if smask >> i & 1)
            for n in range(0, 6):
                assert enumeration._count_naive(n, 2, S, sense) == \
                    enumerated_count(n, 2, S, sense), (S, n)

    def test_mixed_length_three_color_sets(self):
        by_length = {m: [ColoredPattern(w, c, 3) for w in iter_rgs(m)
                         for c in itertools.product((1, 2, 3), repeat=m)]
                     for m in (1, 2, 3)}
        rng = random.Random(14)
        sets = []
        for _ in range(60):
            lengths = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 3))]
            sets.append((tuple(rng.choice(by_length[m]) for m in lengths),
                         rng.choice(list(Sense))))
        assert {pi.n for S, _ in sets for pi in S} == {1, 2, 3}
        assert sum(len({pi.n for pi in S}) > 1 for S, _ in sets) >= 20
        for S, sense in sets:
            for n in range(0, 5):
                assert enumeration._count_naive(n, 3, S, sense) == \
                    enumerated_count(n, 3, S, sense), (S, sense, n)

    def test_empty_pattern_and_size_zero(self):
        empty = ColoredPattern((), (), 2)
        for S in ((empty,), (empty, parse_pattern("1^12^1"))):
            for sense in Sense:
                for n in range(0, 5):
                    assert enumeration._count_naive(n, 2, S, sense) == 0
                    assert enumerated_count(n, 2, S, sense) == 0
        for sense in Sense:
            assert enumeration._count_naive(0, 2, (), sense) == 1
            assert enumeration._count_naive(0, 2, parse_pattern_set("1^11^2"), sense) == 1

    def test_prefixes_partition_the_count(self):
        for text in ("1^11^2,1^22^1", "1^12^11^2,1^2", "1^21^1,1^12^21^1"):
            S = parse_pattern_set(text)
            for sense in Sense:
                whole = enumeration._count_naive(6, 2, S, sense)
                assert whole == sum(enumeration._count_naive(6, 2, S, sense, prefix)
                                    for prefix in iter_rgs(4)), (text, sense)
                assert whole == count_avoiders(6, 2, S, sense), (text, sense)


class TestProfiles:
    @pytest.mark.parametrize("k, nmax", [(2, 6), (3, 4)])
    def test_profiles_equal_brute_histogram(self, k, nmax):
        six = canonical_pair_patterns(k)
        for n in range(0, nmax + 1):
            brute = {}
            for sigma in iter_colored(n, k):
                mask = sum(1 << i for i, pi in enumerate(six) if contains_colored(sigma, pi))
                brute[mask] = brute.get(mask, 0) + 1
            assert containment_profiles(n, k) == brute, (k, n)

    def test_profile_counts_match_direct(self):
        for n in range(1, 7):
            hist = containment_profiles(n)
            assert sum(hist.values()) == bell(n) * 2 ** n
            for size in (1, 2, 3):
                for S in itertools.combinations(canonical_pair_patterns(), size):
                    assert count_from_profiles(hist, S) == count_avoiders(n, 2, S)

    def test_three_color_profiles_match_counts(self):
        six = canonical_pair_patterns(3)
        for n in range(1, 5):
            hist = containment_profiles(n, 3)
            assert sum(hist.values()) == bell(n) * 3 ** n
            for smask in range(64):
                S = [pi for i, pi in enumerate(six) if smask >> i & 1]
                assert count_from_profiles(hist, S) == count_avoiders(n, 3, S)


class TestVerificationReports:
    def test_color_symmetries_hold(self):
        report = verify_color_symmetries(n_max=6)
        assert report.ok
        assert len(report.checks) == 12

    def test_eq_pattern_identities_hold(self):
        report = verify_eq_pattern_identities(n_max=5)
        assert report.ok

    def test_identity_counts(self):
        # pattern-sense avoiders of 1^12^1 at n = 2: 2^(n+1) - 2 = 6
        assert count_avoiders(2, 2, parse_pattern_set("1^12^1")) == 6
        # pattern-sense avoiders of 1^11^1 for n <= 6
        seq = avoidance_sequence(parse_pattern_set("1^11^1"), n_max=6)
        assert seq.counts == (2, 6, 20, 76, 312, 1384)

    def test_planted_false_identity_fails_with_witness(self, monkeypatch):
        monkeypatch.setattr(enumeration, "EQ_PATTERN_IDENTITIES",
                            (("1^11^1", "1^11^1,1^21^2"), ("1^11^1", "1^11^2")))
        report = verify_eq_pattern_identities(n_max=3)
        assert not report.ok
        # the true identity at n = 1..3 and the planted one at n = 1, where
        # every element avoids both sides
        assert len(report.checks) == 4
        assert report.failures[0] == \
            "pat{1^11^1} = eq{1^11^2} at n=2: witness 1^11^1"
        assert len(report.failures) == 2

    def test_lockstep_agrees_with_set_comparison(self, monkeypatch):
        # every pattern side against every EQ side: the four identities and
        # twelve pairs whose avoider sets differ at some n; and a pair where
        # one side's avoiders at n = 2 are the other's but the last
        sides = enumeration.EQ_PATTERN_IDENTITIES
        pairs = tuple((pat, eq) for pat, _ in sides for _, eq in sides) + (("", "1^22^2"),)
        monkeypatch.setattr(enumeration, "EQ_PATTERN_IDENTITIES", pairs)
        report = verify_eq_pattern_identities(n_max=7)
        failures = iter(report.failures)
        for pat, eq in pairs:
            for n in range(1, 8):
                left = {(s.word, s.colors) for s in
                        avoider_set(n, 2, parse_pattern_set(pat), Sense.PATTERN)}
                right = {(s.word, s.colors) for s in
                         avoider_set(n, 2, parse_pattern_set(eq), Sense.EQ)}
                desc = "pat{%s} = eq{%s} at n=%d" % (pat, eq, n)
                if left == right:
                    assert desc in report.checks
                else:
                    witness = ColoredPartition(*min(left ^ right), 2).word_text()
                    assert next(failures) == "%s: witness %s" % (desc, witness)
        assert len(report.checks) > 4 * 7
        assert next(failures, None) is None

    def test_identities_hold_no_avoider_sets(self):
        # the two avoider sets per identity and n came to a 2.47 MB peak
        tracemalloc.start()
        try:
            report = verify_eq_pattern_identities(n_max=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 500_000, peak

    def test_identities_are_set_equalities(self):
        left = avoider_set(4, 2, parse_pattern_set("1^12^1"), Sense.PATTERN)
        right = avoider_set(4, 2, parse_pattern_set("1^12^1,1^22^2"), Sense.EQ)
        assert left == right
