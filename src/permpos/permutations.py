"""Permutations in one-line notation, with pattern containment checks.

Values and positions are 1-based throughout: a permutation of size n is a
rearrangement of {1, ..., n} and position queries return indices in 1..n.
The empty permutation (n = 0) is legal and is a fixed point of every unary
operation here.

Words -- sequences of distinct integers that need not form a
permutation -- are passed around as plain tuples/lists and turned into
permutations with :func:`reduce_word`.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence


class InvalidWordError(ValueError):
    """A word argument has duplicate values or is otherwise malformed."""


class DomainError(ValueError):
    """An argument lies outside the class an operation is defined on."""


class Permutation:
    """A permutation of {1, ..., n} stored in one-line notation.

    >>> p = Permutation((2, 1, 4, 3))
    >>> len(p), p.position(4), p.value_at(3)
    (4, 3, 4)
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int], validate: bool = True):
        vals = tuple(values)
        if validate and sorted(vals) != list(range(1, len(vals) + 1)):
            raise InvalidWordError(f"not a permutation of 1..{len(vals)}: {vals}")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Permutation({','.join(map(str, self.values))})"

    def position(self, value: int) -> int:
        """1-based position of ``value``.

        >>> Permutation((4, 1, 2, 5, 3)).position(5)
        4
        """
        return self.values.index(value) + 1

    def value_at(self, pos: int) -> int:
        """Value at 1-based position ``pos``."""
        if not 1 <= pos <= len(self.values):
            raise IndexError(f"position {pos} out of range 1..{len(self.values)}")
        return self.values[pos - 1]

    def to_text(self) -> str:
        """Canonical text form: comma-separated decimal values."""
        return ",".join(map(str, self.values))


def parse_permutation(text: str) -> Permutation:
    """Parse ``"2,5,1,3,4"``; a contiguous digit string like ``"25134"``
    is accepted for n <= 9. Emission always uses the comma form.
    """
    s = text.strip()
    if s == "":
        return Permutation(())
    if "," in s:
        try:
            return Permutation(int(tok) for tok in s.split(","))
        except ValueError as exc:
            raise InvalidWordError(f"cannot parse permutation {text!r}") from exc
    if not s.isdigit() or "0" in s:
        raise InvalidWordError(f"cannot parse permutation {text!r}")
    return Permutation(int(ch) for ch in s)


def reduce_word(word: Sequence[int]) -> Permutation:
    """Replace the i-th smallest letter by i.

    >>> reduce_word((2, 5, 3, 4)).values
    (1, 4, 2, 3)
    >>> reduce_word((7, 5, 8)).values
    (2, 1, 3)
    """
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    if len(rank) != len(word):
        raise InvalidWordError(f"word has duplicate values: {tuple(word)}")
    return Permutation((rank[v] for v in word), validate=False)


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation: result(p(i)) = i."""
    inv = [0] * len(p)
    for i, v in enumerate(p.values):
        inv[v - 1] = i + 1
    return Permutation(inv, validate=False)


def _reverse_complement_raw(values: Sequence[int]) -> tuple[int, ...]:
    n = len(values)
    return tuple(n + 1 - v for v in reversed(values))


def reverse_complement(p: Permutation) -> Permutation:
    """The involution i -> n+1-p(n+1-i)."""
    return Permutation(_reverse_complement_raw(p.values), validate=False)


# -- containment checks on words -------------------------------------------
#
# All _word_contains_* helpers take sequences of distinct integers; only the
# relative order matters. The specialized checkers are cross-checked against
# the generic subsequence scan for every permutation of size <= 8 in the
# test suite.


def _word_contains_132(w: Sequence[int]) -> bool:
    # right-to-left scan; `third` is the largest value popped below a later
    # (i.e. further-left) larger value, hence a valid "2" of an occurrence.
    # It starts at -inf, below every entry, so that no value, zero or
    # negative, is taken for the "1" of an occurrence before any "2" is.
    third = float("-inf")
    stack: list[int] = []
    for v in reversed(w):
        if v < third:
            return True
        while stack and stack[-1] < v:
            third = stack.pop()
        stack.append(v)
    return False


def _word_contains_1324(w: Sequence[int]) -> bool:
    # An occurrence is an inversion w[b] > w[c] (b < c) with a value below
    # w[c] somewhere before b and a value above w[b] somewhere after c. The
    # prefix minimum and the suffix maxima answer both; the suffix maxima
    # fall as c moves right, so each b stops at the first c that has
    # nothing above w[b] after it. O(n^2) worst case.
    n = len(w)
    if n < 4:
        return False
    sufmax = [0] * n  # sufmax[c] = max(w[c + 1:]) for 0 < c < n - 1
    top = w[-1]
    for c in range(n - 2, 0, -1):
        sufmax[c] = top
        if w[c] > top:
            top = w[c]
    lo = w[0]
    for b in range(1, n - 2):
        x = w[b]
        if x < lo:
            lo = x
            continue
        for c in range(b + 1, n - 1):
            if sufmax[c] < x:
                break
            if lo < w[c] < x:
                return True
    return False


def _same_relative_order(u: Sequence[int], v: Sequence[int]) -> bool:
    return all((u[i] < u[j]) == (v[i] < v[j])
               for i in range(len(u)) for j in range(i + 1, len(u)))


def _word_contains_generic(w: Sequence[int], pat: Sequence[int]) -> bool:
    k = len(pat)
    if k > len(w):
        return False
    return any(_same_relative_order(sub, pat) for sub in combinations(w, k))


_SPECIALIZED = {
    (1, 3, 2): _word_contains_132,
    # 213 is the reverse-complement of 132; negating the reversed word
    # reverses and complements its relative order
    (2, 1, 3): lambda w: _word_contains_132([-v for v in reversed(w)]),
    (1, 3, 2, 4): _word_contains_1324,
}


def _containment_scan(pattern: tuple[int, ...]) -> Callable[[Sequence[int]], bool]:
    """The scan that tests words of distinct integers for a reduced,
    non-empty pattern."""
    return _SPECIALIZED.get(pattern) or partial(_word_contains_generic, pat=pattern)


def word_contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of ``word`` has the relative order of
    ``pattern``. Both arguments are words of distinct integers.
    """
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    key = reduce_word(pattern).values
    if len(set(word)) != len(word):
        raise InvalidWordError(f"word has duplicate values: {tuple(word)}")
    return _containment_scan(key)(word)


def contains_pattern(p: Permutation, pattern: Permutation) -> bool:
    """True iff some subsequence of ``p`` reduces to ``pattern``."""
    return word_contains(p.values, pattern.values)


def avoids(p: Permutation, pattern: Permutation) -> bool:
    return not contains_pattern(p, pattern)


PATTERN_1324 = Permutation((1, 3, 2, 4))
