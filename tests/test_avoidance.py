import random
from itertools import combinations, permutations, product

import pytest

from colorpart.avoidance import (
    Sense,
    _vincular_walk,
    avoids_all,
    begins_with_ascent,
    avoids,
    contains_colored,
    contains_vincular,
    copy_ends_at,
    iter_vincular_avoiders,
)
from colorpart.core import (
    ColoredPartition,
    ColoredPattern,
    Permutation,
    VincularPattern,
    canonize_sub,
    parse_blocks,
    parse_pattern,
    parse_pattern_set,
    parse_permutation,
    parse_vincular,
    reduce_word,
)
from colorpart.enumeration import avoider_set, canonical_pair_patterns, iter_colored, iter_rgs
from colorpart.formulas import bell


def pairwise_oracle(sigma, pi, sense):
    # independent scan over element pairs, straight from the definitions
    same = pi.word == (1, 1)
    hits = []
    for i, j in combinations(range(sigma.n), 2):
        if (sigma.word[i] == sigma.word[j]) != same:
            continue
        copy = (sigma.colors[i], sigma.colors[j])
        if sense is Sense.PATTERN:
            ok = reduce_word(copy) == reduce_word(pi.colors)
        elif sense is Sense.EQ:
            ok = copy == pi.colors
        else:
            ok = copy[0] <= pi.colors[0] and copy[1] <= pi.colors[1]
        if ok:
            return True
    return False


class TestContainsColored:
    def test_paper_host_examples(self):
        sigma = parse_blocks("1^13^1/2^2/4^2")  # word 1^12^21^13^2
        assert contains_colored(sigma, parse_pattern("1^12^1"))
        assert contains_colored(sigma, parse_pattern("1^12^2"))  # 1^1/2^2 in block form
        assert contains_colored(sigma, parse_pattern("1^22^1"))
        assert not contains_colored(sigma, parse_pattern("1^11^2"))

    def test_self_containment_eq(self):
        for sigma in iter_colored(3, 2):
            pi = ColoredPattern(sigma.word, sigma.colors, sigma.k)
            assert contains_colored(sigma, pi, Sense.EQ)

    def test_pattern_longer_than_host(self):
        sigma = ColoredPartition((1,), (1,))
        assert not contains_colored(sigma, parse_pattern("1^11^2"))

    def test_two_element_truth_table(self):
        # all 4 colorings of the two-block host against all six patterns
        for colors in product((1, 2), repeat=2):
            sigma = ColoredPartition((1, 2), colors)
            for pi in canonical_pair_patterns():
                expected = pairwise_oracle(sigma, pi, Sense.PATTERN)
                assert contains_colored(sigma, pi) == expected
        # one spot value: colors 2,1 do not form a copy of equal colors
        sigma = ColoredPartition((1, 2), (2, 1))
        assert not contains_colored(sigma, parse_pattern("1^12^1"))
        assert contains_colored(sigma, parse_pattern("1^22^1"))

    @pytest.mark.parametrize("sense", list(Sense))
    def test_matches_pairwise_oracle_exhaustive(self, sense):
        for n in range(1, 7):
            for sigma in iter_colored(n, 2):
                for pi in canonical_pair_patterns():
                    expected = pairwise_oracle(sigma, pi, sense)
                    assert contains_colored(sigma, pi, sense) == expected

    @pytest.mark.parametrize("sense", list(Sense))
    def test_matches_pairwise_oracle_three_colors(self, sense):
        pats = [ColoredPattern(w, c, 3) for w in ((1, 1), (1, 2))
                for c in product((1, 2, 3), repeat=2)]
        for n in range(1, 5):
            for sigma in iter_colored(n, 3):
                for pi in pats:
                    assert contains_colored(sigma, pi, sense) == \
                        pairwise_oracle(sigma, pi, sense)

    def test_matches_pairwise_oracle_at_n7_sample(self):
        pats = canonical_pair_patterns()
        for idx, sigma in enumerate(iter_colored(7, 2)):
            if idx % 97:  # deterministic sample of the 112k hosts
                continue
            for pi in pats:
                assert contains_colored(sigma, pi) == \
                    pairwise_oracle(sigma, pi, Sense.PATTERN)

    def test_longer_pattern_generic(self):
        # 157/238/4/6 contains the uncolored pattern 15/2/34 (word 12331)
        # via elements 2,4,5,7,8, but avoids 123/4/5 (word 11123)
        sigma = ColoredPartition((1, 2, 2, 3, 1, 4, 1, 2), (1,) * 8, 1)
        yes = ColoredPattern((1, 2, 3, 3, 1), (1,) * 5, 1)
        no = ColoredPattern((1, 1, 1, 2, 3), (1,) * 5, 1)
        assert contains_colored(sigma, yes)
        assert not contains_colored(sigma, no)

    def test_senses_coincide_single_color(self):
        for n in range(1, 6):
            for sigma in iter_colored(n, 1):
                for word in ((1, 1), (1, 2)):
                    pi = ColoredPattern(word, (1, 1), 1)
                    results = {contains_colored(sigma, pi, s) for s in Sense}
                    assert len(results) == 1

    def test_eq_implies_pattern(self):
        for n in range(1, 7):
            for sigma in iter_colored(n, 2):
                for pi in canonical_pair_patterns():
                    if contains_colored(sigma, pi, Sense.EQ):
                        assert contains_colored(sigma, pi, Sense.PATTERN)


class TestAvoidsAll:
    def test_empty_set(self):
        sigma = ColoredPartition((1, 2), (1, 2))
        assert avoids_all(sigma, (), Sense.PATTERN)

    def test_exact_match(self):
        sigma = ColoredPartition((1, 1), (1, 1))
        assert not avoids_all(sigma, parse_pattern_set("1^11^1"))

    def test_pair_class2_count_at_n2(self):
        S = parse_pattern_set("1^12^1,1^22^1")
        count = sum(avoids_all(s, S) for s in iter_colored(2, 2))
        assert count == 5

    def test_empty_pattern_is_contained_everywhere(self):
        empty = ColoredPattern((), (), 2)
        for n in range(4):
            for sigma in iter_colored(n, 2):
                assert not avoids_all(sigma, (empty,))
                assert not avoids_all(sigma, (parse_pattern("1^11^2"), empty))
                assert contains_colored(sigma, empty)

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("k", [2, 3])
    def test_one_scan_matches_each_pattern_and_the_walk(self, k, sense):
        # the set's merged tables against one scan per pattern, and against
        # the avoiders the walk generates
        by_length = {m: [ColoredPattern(w, c, k) for w in iter_rgs(m)
                         for c in product(range(1, k + 1), repeat=m)]
                     for m in (1, 2, 3)}
        rng = random.Random(20 + k)
        sets = []
        for _ in range(6):
            lengths = [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(2, 4))]
            sets.append(tuple(rng.choice(by_length[m]) for m in lengths))
        assert {pi.n for S in sets for pi in S} == {1, 2, 3}
        assert any(sum(pi.n == 2 for pi in S) > 1 for S in sets)
        for n in range(6):
            for S in sets:
                avoiders = avoider_set(n, k, S, sense)
                for sigma in iter_colored(n, k):
                    one = avoids_all(sigma, S, sense)
                    assert one == all(avoids(sigma, pi, sense) for pi in S), (sigma, S)
                    assert one == (sigma in avoiders), (sigma, S)


class TestVincular:
    def test_worked_permutations(self):
        p123 = parse_vincular("12-3")
        assert not contains_vincular(parse_permutation("73861542"), p123)
        assert contains_vincular(parse_permutation("123"), p123)
        assert not contains_vincular(parse_permutation("51432"), parse_vincular("214-3"))

    def test_short_host(self):
        assert not contains_vincular(Permutation((1,)), parse_vincular("12-3"))

    def test_no_bonds_matches_classical(self):
        def classical(q, p):
            m = len(p)
            return any(reduce_word([q[i] for i in idx]) == p
                       for idx in combinations(range(q.n), m))

        from colorpart.core import VincularPattern
        patterns = [VincularPattern((1, 2, 3), frozenset()),
                    VincularPattern((2, 1, 3), frozenset()),
                    VincularPattern((3, 1, 2), frozenset())]
        for n in range(1, 7):
            for entries in permutations(range(1, n + 1)):
                q = Permutation(entries)
                for p in patterns:
                    assert contains_vincular(q, p) == classical(q, p.values)

    def test_bond_constrains_adjacency(self):
        # 1 4 2 5 3: 1,4 then 5 gives 12-3 only via adjacent 1,4
        q = Permutation((1, 4, 2, 5, 3))
        assert contains_vincular(q, parse_vincular("12-3"))
        q = Permutation((2, 4, 1, 3))
        # rises 2,4 (adjacent) but nothing above 4 afterwards; 1,3 adjacent, nothing later
        assert not contains_vincular(q, parse_vincular("12-3"))


def vincular_oracle(q, p, last=None):
    # independent scan over index sets, straight from the definition:
    # bonded pattern positions sit side by side, values order-isomorphic;
    # given `last`, only the index sets whose last index it is
    return any(all(idx[b] == idx[b - 1] + 1 for b in p.bonds)
               and reduce_word([q[i] for i in idx]) == p.values
               for idx in combinations(range(q.n), p.m)
               if last is None or idx[-1] == last)


def all_permutations(m):
    return [Permutation(e) for e in permutations(range(1, m + 1))]


P12_3, P214_3, P1_23 = (parse_vincular(t) for t in ("12-3", "214-3", "1-23"))


class TestVincularAgainstOracle:
    # every length-3 pattern under each of its four bond sets, 214-3, and
    # two of 1324, where the order of entries 0 and 2 follows from no other;
    # then every bond position the search handles: none on a length-1
    # pattern, a bond onto the last element where it is element 1, all
    # bonds, and a first and a last bond around a free middle
    PATTERNS = [VincularPattern(v, b) for v in permutations((1, 2, 3))
                for b in ((), (1,), (2,), (1, 2))]
    PATTERNS += [P214_3, parse_vincular("1-3-2-4"), parse_vincular("1-32-4")]
    PATTERNS += [parse_vincular(t) for t in ("1", "12", "21", "1-2", "2-1", "2413", "13-24")]

    def test_contains_matches_oracle(self):
        for m in range(7):
            word = range(1, m + 1)
            for q in all_permutations(m):
                for p in self.PATTERNS:
                    assert contains_vincular(q, p) == vincular_oracle(q, p), (q, p)
                    for t in range(m):  # the pinned search the walk runs
                        assert (copy_ends_at(word, q.entries, t, p)
                                == vincular_oracle(q, p, last=t)), (q, p, t)

    @pytest.mark.parametrize("patterns,ascent", [
        ((P12_3, P214_3), False),  # the f codomain
        ((P1_23,), False),         # the tau codomain
        ((P12_3,), True),          # the g codomain: 12-3-avoiders led by 12
    ])
    def test_walk_matches_filter(self, patterns, ascent):
        for m in range(8):
            walked = set(iter_vincular_avoiders(m, patterns))
            assert len(walked) == len(list(iter_vincular_avoiders(m, patterns)))  # no repeats
            filtered = {q for q in all_permutations(m)
                        if not any(vincular_oracle(q, p) for p in patterns)}
            if ascent:
                walked = {q for q in walked if begins_with_ascent(q)}
                filtered = {q for q in filtered if begins_with_ascent(q)}
            assert walked == filtered, m

    def test_ascent_led_walk_prunes_to_the_filter(self):
        for m in range(10):
            pruned = [tuple(q) for q in _vincular_walk(m, (P12_3,), ascent_led=True)]
            assert len(pruned) == len(set(pruned)), m
            assert set(pruned) == {q.entries for q in iter_vincular_avoiders(m, (P12_3,))
                                   if begins_with_ascent(q)}, m

    def test_walk_small_hosts(self):
        assert list(iter_vincular_avoiders(0, (P12_3,))) == [Permutation(())]
        assert list(iter_vincular_avoiders(1, (P12_3,))) == [Permutation((1,))]
        empty = VincularPattern((), ())
        for m in range(4):
            assert list(iter_vincular_avoiders(m, (P12_3, empty))) == []
            assert all(contains_vincular(q, empty) for q in all_permutations(m))

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            list(iter_vincular_avoiders(-1, (P12_3,)))

    def test_bell_counts_past_eight(self):
        # |S_m(1-23)| = |S_m(12-3)| = B(m) (Claesson 2001)
        for p in (P1_23, P12_3):
            assert sum(1 for _ in iter_vincular_avoiders(9, (p,))) == bell(9) == 21147


class TestBeginsWithAscent:
    def test_examples(self):
        assert not begins_with_ascent(parse_permutation("73861542"))
        assert begins_with_ascent(parse_permutation("12"))
        assert not begins_with_ascent(Permutation((1,)))

    def test_s4_count(self):
        p123 = parse_vincular("12-3")
        hits = [q for q in map(Permutation, permutations((1, 2, 3, 4)))
                if begins_with_ascent(q) and not contains_vincular(q, p123)]
        assert len(hits) == 6  # (n+1) B(n) at n = 2

    def test_second_entry_is_max(self):
        p123 = parse_vincular("12-3")
        for m in range(3, 8):
            for q in map(Permutation, permutations(range(1, m + 1))):
                if begins_with_ascent(q) and not contains_vincular(q, p123):
                    assert q[1] == m
