from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpos.permutations import (
    PATTERN_1324,
    InvalidWordError,
    Permutation,
    avoids,
    contains_pattern,
    inverse,
    parse_permutation,
    reduce_word,
    reverse_complement,
    word_contains,
    _word_contains_1324,
)


def perm(*values):
    return Permutation(values)


def naive_contains(word, pat):
    """Oracle: scan every |pat|-element subsequence for the pattern's
    relative order."""
    def same_order(u, v):
        return all((u[i] < u[j]) == (v[i] < v[j])
                   for i in range(len(u)) for j in range(i + 1, len(u)))
    return any(same_order(sub, pat) for sub in combinations(word, len(pat)))


distinct_words = st.lists(st.integers(min_value=1, max_value=60),
                          max_size=10, unique=True)


class TestPermutationType:
    def test_validates(self):
        with pytest.raises(InvalidWordError):
            Permutation((1, 3))
        with pytest.raises(InvalidWordError):
            Permutation((1, 2, 2))
        assert len(Permutation(())) == 0

    def test_positions_are_one_based(self):
        p = perm(2, 5, 1, 3, 4)
        assert p.position(1) == 3
        assert p.value_at(1) == 2
        with pytest.raises(IndexError):
            p.value_at(0)

    def test_text_roundtrip(self):
        p = perm(2, 5, 1, 3, 4)
        assert p.to_text() == "2,5,1,3,4"
        assert parse_permutation("2,5,1,3,4") == p
        assert parse_permutation("25134") == p
        assert parse_permutation("") == Permutation(())
        with pytest.raises(InvalidWordError):
            parse_permutation("10,2")  # not a permutation of 1..2
        with pytest.raises(InvalidWordError):
            parse_permutation("a,b")


class TestReduce:
    def test_examples(self):
        assert reduce_word((2, 5, 3, 4)).values == (1, 4, 2, 3)
        assert reduce_word((1, 3, 2)).values == (1, 3, 2)
        assert reduce_word((7, 5, 8)).values == (2, 1, 3)
        assert reduce_word(()).values == ()

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidWordError):
            reduce_word((3, 3, 1))

    @given(distinct_words)
    def test_idempotent_and_order_preserving(self, word):
        r = reduce_word(word)
        assert len(r) == len(word)
        assert reduce_word(r.values) == r
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                assert (word[i] < word[j]) == (r.values[i] < r.values[j])


class TestUnaryOps:
    def test_inverse_examples(self):
        assert inverse(perm(2, 1, 4, 3)) == perm(2, 1, 4, 3)
        assert inverse(perm(4, 1, 2, 5, 3)) == perm(2, 3, 5, 1, 4)
        ident = Permutation(range(1, 7))
        assert inverse(ident) == ident
        assert inverse(Permutation(())) == Permutation(())

    def test_reverse_complement_examples(self):
        assert reverse_complement(perm(1, 3, 2, 4)) == perm(1, 3, 2, 4)
        assert reverse_complement(perm(2, 3, 1)) == perm(3, 1, 2)

    @given(st.permutations(list(range(1, 9))))
    def test_involutions(self, values):
        p = Permutation(values)
        assert inverse(inverse(p)) == p
        assert reverse_complement(reverse_complement(p)) == p

    def test_involutions_preserve_avoidance_exhaustively(self):
        for n in range(9):
            for values in permutations(range(1, n + 1)):
                p = Permutation(values, validate=False)
                a = avoids(p, PATTERN_1324)
                assert avoids(inverse(p), PATTERN_1324) == a
                assert avoids(reverse_complement(p), PATTERN_1324) == a


class TestContainment:
    def test_examples(self):
        assert contains_pattern(perm(1, 3, 2, 4), PATTERN_1324)
        assert not contains_pattern(perm(3, 5, 1, 4, 2), PATTERN_1324)
        assert not contains_pattern(perm(1, 2, 3), perm(2, 1))
        assert avoids(perm(2, 1, 4, 3), PATTERN_1324)
        assert not avoids(perm(1, 3, 2, 4), PATTERN_1324)
        assert avoids(Permutation(()), perm(2, 1))

    def test_derived_examples_match_subsequence_oracle(self):
        assert naive_contains((3, 5, 1, 4, 2), (1, 3, 2, 4)) is False
        assert naive_contains((2, 1, 4, 3), (1, 3, 2, 4)) is False

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_pattern(perm(1, 2), Permutation(()))

    def test_specialized_checkers_agree_with_oracle(self):
        # every permutation of size <= 8, all four working patterns; up to
        # size 7 also shifted down by n, so that 0 and negative values occur
        pats = [(2, 1), (1, 3, 2), (2, 1, 3), (1, 3, 2, 4)]
        for n in range(9):
            for values in permutations(range(1, n + 1)):
                words = [values] if n > 7 else [values, tuple(v - n for v in values)]
                for word in words:
                    for pat in pats:
                        assert word_contains(word, pat) == naive_contains(word, pat), \
                            (word, pat)
        assert word_contains((-1,), (1, 3, 2)) is False

    def test_1324_scan_edge_cases(self):
        # short words, including the empty word enumerate_dominoes(0) passes
        for n in range(4):
            for values in permutations(range(1, n + 1)):
                assert not _word_contains_1324(values)
        assert not _word_contains_1324([])
        # values need not be contiguous, and the scan must not stop early
        cases = {
            (10, 30, 20, 40): True,
            (5, 50, 7, 60): True,
            (2, 9, 4, 11, 1): True,
            (30, 50, 10, 40, 20): False,
            (40, 30, 20, 10): False,
            (100, 1, 3, 2, 4): True,
            (7, 3, 9, 8, 1, 6, 2, 5, 10): True,
            (61, 2, 45, 17, 3, 1): False,
            (20, 10, 40, 30): False,
        }
        for word, expected in cases.items():
            assert naive_contains(word, (1, 3, 2, 4)) == expected, word
            assert _word_contains_1324(word) == expected, word
            assert _word_contains_1324(list(word)) == expected, word

    @given(distinct_words)
    def test_checkers_on_words(self, word):
        for pat in [(2, 1), (1, 3, 2), (2, 1, 3), (1, 3, 2, 4)]:
            assert word_contains(word, pat) == naive_contains(word, pat)

    def test_generic_patterns(self):
        assert word_contains((1, 2, 3, 4), (1, 2, 3))
        assert not word_contains((4, 3, 2, 1), (1, 2))
        assert word_contains((2, 4, 1, 3), (2, 4, 1, 3))
        assert not word_contains((1, 2, 3), (1, 2, 3, 4))
        # an unoptimized longer pattern still works
        assert word_contains((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
        assert not word_contains((5, 1, 2, 3, 4), (1, 2, 3, 4, 5))
