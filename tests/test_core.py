import pytest
from hypothesis import given, strategies as st

from colorpart.core import (
    ColoredPartition,
    ColoredPattern,
    PartitionError,
    PatternSyntaxError,
    blocks_to_word,
    canonize_sub,
    color_complement,
    color_reverse,
    is_rgs,
    parse_blocks,
    parse_pattern,
    parse_pattern_set,
    parse_permutation,
    parse_vincular,
    print_pattern,
    reduce_word,
    rgs_normalize,
    word_to_blocks,
)


words = st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=12)


class TestReduce:
    def test_paper_example(self):
        assert reduce_word((1, 8, 4, 9, 4)) == (1, 3, 2, 4, 2)

    def test_constant_colors(self):
        assert reduce_word((2, 2)) == (1, 1)
        assert reduce_word((1, 1, 1)) == (1, 1, 1)

    def test_empty(self):
        assert reduce_word(()) == ()

    @given(words)
    def test_idempotent(self, w):
        assert reduce_word(reduce_word(w)) == reduce_word(tuple(w))

    @given(words)
    def test_preserves_relative_order(self, w):
        r = reduce_word(w)
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                assert (w[i] < w[j]) == (r[i] < r[j])
                assert (w[i] == w[j]) == (r[i] == r[j])


class TestBlocksWord:
    def test_paper_example(self):
        # 157/238/4/6 has canonical word 12231412
        blocks = [(1, 5, 7), (2, 3, 8), (4,), (6,)]
        assert blocks_to_word(blocks) == (1, 2, 2, 3, 1, 4, 1, 2)
        assert word_to_blocks((1, 2, 2, 3, 1, 4, 1, 2)) == [tuple(b) for b in blocks]

    def test_round_trip_small(self):
        from colorpart.enumeration import iter_rgs
        for n in range(0, 11):
            for w in iter_rgs(n):
                assert blocks_to_word(word_to_blocks(w)) == w

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(PartitionError):
            blocks_to_word([(1, 2), (2, 3)])


class TestCanonize:
    def test_word_normalization(self):
        assert rgs_normalize((2, 3, 1, 2)) == (1, 2, 3, 1)

    def test_subword_example(self):
        # elements 2,3,8 of 157/238/4/6 collapse to a single block
        sigma = ColoredPartition((1, 2, 2, 3, 1, 4, 1, 2), (1,) * 8)
        assert canonize_sub(sigma, (2, 3, 8)).word == (1, 1, 1)

    def test_paper_canonize_2312(self):
        sigma = ColoredPartition(rgs_normalize((2, 3, 1, 2)), (1, 1, 1, 1))
        assert sigma.word == (1, 2, 3, 1)

    def test_identity_on_full_index_set(self):
        sigma = parse_blocks("1^13^1/2^2/4^2")
        assert canonize_sub(sigma, range(1, 5)) == sigma

    def test_colors_carried(self):
        sigma = parse_blocks("1^24^1/2^1/3^26^1/5^1/7^2")
        sub = canonize_sub(sigma, (3, 6, 7))
        assert sub.word == (1, 1, 2)
        assert sub.colors == (2, 1, 2)

    def test_index_out_of_range(self):
        sigma = ColoredPartition((1, 1), (1, 2))
        with pytest.raises(PartitionError):
            canonize_sub(sigma, (3,))

    def test_always_rgs(self):
        from itertools import combinations
        from colorpart.enumeration import iter_rgs
        for n in range(1, 8):
            for w in iter_rgs(n):
                sigma = ColoredPartition(w, (1,) * n)
                for m in range(1, n + 1):
                    for idx in combinations(range(1, n + 1), m):
                        assert is_rgs(canonize_sub(sigma, idx).word)


class TestColorSymmetries:
    def test_reverse_example(self):
        assert color_reverse(parse_pattern("1^11^2")) == parse_pattern("1^21^1")

    def test_complement_example(self):
        assert color_complement(parse_pattern("1^12^2")) == parse_pattern("1^22^1")

    def test_constant_colors(self):
        pi = parse_pattern("1^11^1")
        assert color_reverse(pi) == pi
        # complementing flips the raw colors but not the reduced ones
        assert color_complement(pi).reduced_colors == pi.reduced_colors
        assert color_complement(pi).canonical() == pi.canonical()

    def test_involutions_and_commute(self):
        from colorpart.enumeration import canonical_pair_patterns
        for pi in canonical_pair_patterns():
            assert color_reverse(color_reverse(pi)) == pi
            assert color_complement(color_complement(pi)) == pi
            assert color_reverse(color_complement(pi)) == \
                color_complement(color_reverse(pi))


class TestPatternText:
    def test_parse_long_example(self):
        pi = parse_pattern("1^12^21^13^2")
        assert pi.word == (1, 2, 1, 3)
        assert pi.colors == (1, 2, 1, 2)

    def test_single_element(self):
        pi = parse_pattern("1^1")
        assert pi.word == (1,) and pi.colors == (1,)

    def test_non_rgs_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("2^11^1")

    def test_malformed(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("1^^2")
        with pytest.raises(PatternSyntaxError):
            parse_pattern("")

    def test_round_trip(self):
        for text in ("1^11^2", "1^12^21^13^2", "1^22^1"):
            assert print_pattern(parse_pattern(text)) == text

    def test_spaced_token_keeps_multidigit_color(self):
        pi = parse_pattern("1^1 2^12")
        assert pi.word == (1, 2) and pi.colors == (1, 12)

    def test_color_twelve_round_trip(self):
        pi = parse_pattern("1^12 2^1 1^3", 12)
        assert pi.word_text() == "1^12 2^1 1^3"
        assert parse_pattern(pi.word_text(), 12) == pi

    def test_unspaced_colors_are_single_digits(self):
        pi = parse_pattern("1^12^2")
        assert pi.word == (1, 2) and pi.colors == (1, 2)

    def test_pattern_set_parse_sorted(self):
        pats = parse_pattern_set("1^21^1,1^12^1")
        assert [p.word_text() for p in pats] == ["1^21^1", "1^12^1"]

    def test_reduced_colors_kept_raw(self):
        pi = parse_pattern("1^21^2")
        assert pi.colors == (2, 2)
        assert pi.reduced_colors == (1, 1)

    def test_block_text_round_trip(self):
        text = "1^24^1/2^1/3^26^1/5^1/7^2"
        assert parse_blocks(text).block_text() == text

    def test_block_text_round_trip_two_digit_colors(self):
        from itertools import product
        from colorpart.enumeration import iter_rgs

        sigma = ColoredPartition((1, 1), (12, 1), 12)
        assert sigma.block_text() == "1^12 2^1"
        for n in range(1, 5):
            for word in iter_rgs(n):
                for colors in product((1, 9, 10, 12), repeat=n):
                    sigma = ColoredPartition(word, colors, 12)
                    assert parse_blocks(sigma.block_text(), 12) == sigma


class TestPermutationAndVincular:
    def test_parse_permutation(self):
        assert parse_permutation("73861542").entries == (7, 3, 8, 6, 1, 5, 4, 2)
        assert parse_permutation("10 2 1 3 4 5 6 7 8 9").entries[0] == 10

    def test_invalid_permutation(self):
        with pytest.raises(PartitionError):
            parse_permutation("122")

    def test_vincular_parse(self):
        p = parse_vincular("12-3")
        assert p.values == (1, 2, 3) and p.bonds == {1}
        p = parse_vincular("214-3")
        assert p.values == (2, 1, 4, 3) and p.bonds == {1, 2}
        p = parse_vincular("1-23")
        assert p.values == (1, 2, 3) and p.bonds == {2}
        assert parse_vincular("214-3").text() == "214-3"

    def test_vincular_malformed(self):
        with pytest.raises(PartitionError):
            parse_vincular("1--2")
