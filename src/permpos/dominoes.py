"""Two-cell vertical gridded permutations ("dominoes") and their
correspondence with primitives.

A domino with p points assigns each column a cell tag (bottom or top),
a bottom word avoiding 132 and a top word avoiding 213; every bottom value
lies below every top value in the underlying permutation, which must avoid
1324. The tag list plus the two reduced cell words is the canonical
encoding; the underlying permutation is always derived, never stored.

A primitive of size n maps to a domino with n - 2 points through its
inverse: the first letter i of the inverse becomes a separator, middle
letters below i form the bottom cell and letters above i + 1 the top
cell. The exhaustive generator enumerate_dominoes is independent of that
map. to_domino, from_domino and enumerate_dominoes wrap raw helpers on
value tuples, which the verify suite calls: _to_domino_raw,
_from_domino_raw and _tagged_dominoes (one column-tag vector's words).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .permutations import (
    DomainError,
    Permutation,
    _reverse_complement_raw,
    _word_contains_132,
    _word_contains_1324,
    parse_permutation,
    word_contains,
)
from .products import is_primitive


class GriddedDomino:
    """Canonical form: per-column tags over {'b', 't'} plus the reduced
    bottom and top cell words."""

    __slots__ = ("cols", "bottom", "top")

    def __init__(self, cols: Sequence[str], bottom: Permutation, top: Permutation,
                 validate: bool = True):
        self.cols = tuple(cols)
        self.bottom = bottom
        self.top = top
        if validate:
            self._validate()

    def _validate(self) -> None:
        if any(c not in ("b", "t") for c in self.cols):
            raise DomainError(f"bad column tags {self.cols}")
        b = self.cols.count("b")
        if len(self.bottom) != b or len(self.top) != len(self.cols) - b:
            raise DomainError("cell word lengths do not match column tags")
        if _word_contains_132(self.bottom.values):
            raise DomainError(f"bottom word {self.bottom!r} contains 132")
        if word_contains(self.top.values, (2, 1, 3)):
            raise DomainError(f"top word {self.top!r} contains 213")
        bit, tit = iter(self.bottom.values), iter(self.top.values)
        if _word_contains_1324([next(bit) if c == "b" else next(tit) + b for c in self.cols]):
            raise DomainError("underlying permutation contains 1324")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GriddedDomino) and self.cols == other.cols
                and self.bottom == other.bottom and self.top == other.top)

    def __hash__(self) -> int:
        return hash((self.cols, self.bottom.values, self.top.values))

    def __repr__(self) -> str:
        return f"GriddedDomino({self.to_text()!r})"

    def to_text(self) -> str:
        return (f"B:{self.bottom.to_text()}|T:{self.top.to_text()}"
                f"|cols:{''.join(self.cols)}")


def parse_domino(text: str) -> GriddedDomino:
    """Parse the text form "B:<bottom>|T:<top>|cols:<tags>"."""
    parts = text.strip().split("|")
    if len(parts) != 3 or not (parts[0].startswith("B:") and parts[1].startswith("T:")
                               and parts[2].startswith("cols:")):
        raise ValueError(f"cannot parse domino {text!r}")
    return GriddedDomino(parts[2][5:], parse_permutation(parts[0][2:]),
                         parse_permutation(parts[1][2:]))


def _to_domino_raw(sigma: Sequence[int]):
    """(cols, bottom, top) of the primitive sigma's domino; not checked."""
    q = [0] * len(sigma)
    for pos, v in enumerate(sigma, 1):
        q[v - 1] = pos
    i = q[0]
    cols, bottom, top = [], [], []
    for v in q[1:-1]:
        if v < i:
            cols.append("b")
            bottom.append(v)
        else:
            cols.append("t")
            top.append(v - i - 1)
    return tuple(cols), tuple(bottom), tuple(top)


def to_domino(p: Permutation) -> GriddedDomino:
    """Domino with n - 2 points for a primitive of size n.

    With q the inverse permutation, i = q(1) and q(n) = i + 1. The middle
    letters q(2..n-1) split by value: 1..i-1, already reduced, to the
    bottom cell, and i+2..n, lowered by i + 1, to the top. Raises
    DomainError unless p is primitive; _to_domino_raw is the unchecked map.
    """
    if not is_primitive(p):
        raise DomainError(f"{p!r} is not primitive")
    cols, bottom, top = _to_domino_raw(p.values)
    return GriddedDomino(cols, Permutation(bottom, validate=False),
                         Permutation(top, validate=False), validate=False)


def _from_domino_raw(cols: Sequence[str], bottom: Sequence[int], top: Sequence[int]):
    """The primitive of a domino: the inverse of q = (b + 1, the column
    values, the top ones raised by b + 2, b + 2), written without q; raises
    DomainError unless the words fit the tags and the image is primitive."""
    b = len(bottom)
    if cols.count("b") != b or len(cols) != b + len(top):
        raise DomainError("cell word lengths do not match column tags")
    sigma = [0] * (len(cols) + 2)
    # q starts with b + 1 and ends with b + 2, so 1 sits just left of n
    sigma[b], sigma[b + 1] = 1, len(sigma)
    bit, tit = iter(bottom), iter(top)
    for c, tag in enumerate(cols, 2):  # column c - 2 is q's entry c
        if tag == "b":
            sigma[next(bit) - 1] = c
        else:
            sigma[next(tit) + b + 1] = c
    if _word_contains_1324(sigma):
        raise DomainError(f"domino {''.join(cols)} {bottom} {top} does not map to a primitive")
    return tuple(sigma)


def from_domino(d: GriddedDomino) -> Permutation:
    """Exact inverse of to_domino; the result is primitive of size p + 2."""
    return Permutation(_from_domino_raw(d.cols, d.bottom.values, d.top.values), validate=False)


@lru_cache(maxsize=None)
def _cell_words(size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The 132-avoiding bottom words and 213-avoiding top words of one
    size, as value tuples in lexicographic order, built once per size from
    the smaller sizes: a word avoids 132 iff it is alpha, size, beta with
    alpha above beta (a of alpha below b of beta makes a, size, b a 132)
    and both avoiding 132, and avoids 213 iff its reverse-complement
    avoids 132."""
    if size == 0:
        return ((),), ((),)
    bottom = []
    for j in range(size):  # the length of alpha
        k = size - 1 - j  # the length of beta, whose values alpha's lie above
        for alpha in _cell_words(j)[0]:
            head = tuple(v + k for v in alpha) + (size,)
            bottom += [head + beta for beta in _cell_words(k)[0]]
    return tuple(sorted(bottom)), tuple(sorted(map(_reverse_complement_raw, bottom)))


def _tags(p: int, mask: int) -> tuple[str, ...]:
    """The column tags of one mask: column c is bottom iff bit c is set."""
    return tuple("b" if mask & (1 << c) else "t" for c in range(p))


def _tagged_dominoes(cols: tuple[str, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The (bottom, top) cell words of the valid dominoes with column tags
    ``cols``, in enumerate_dominoes order."""
    b = cols.count("b")
    bcols, tcols = ([c for c, tag in enumerate(cols) if tag == t] for t in "bt")
    # the underlying word, refilled in place: bottom values lowered by b lie
    # below every top value, and the 1324 scan reads only relative order
    under = [0] * len(cols)
    for bw in _cell_words(b)[0]:
        for c, v in zip(bcols, bw):
            under[c] = v - b
        for tw in _cell_words(len(cols) - b)[1]:
            for c, v in zip(tcols, tw):
                under[c] = v
            if not _word_contains_1324(under):
                yield bw, tw


def enumerate_dominoes(p: int) -> Iterator[GriddedDomino]:
    """All valid dominoes with p points, each once, generated directly from
    the definition (tag vectors x avoiding cell words, filtered on the
    underlying permutation) -- independent of to_domino/from_domino.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    for mask in range(1 << p):
        cols = _tags(p, mask)
        for bw, tw in _tagged_dominoes(cols):
            yield GriddedDomino(cols, Permutation(bw, validate=False),
                                Permutation(tw, validate=False), validate=False)
