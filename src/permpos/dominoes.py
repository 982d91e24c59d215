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
cell. An independent exhaustive generator (enumerate_dominoes) provides
the side the correspondence is verified from, one column-tag vector at a
time (_tagged_dominoes), as the verify suite splits it over its workers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .permutations import (
    DomainError,
    Permutation,
    _word_contains_132,
    _word_contains_1324,
    parse_permutation,
    inverse,
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
        if _word_contains_1324(self._underlying_values()):
            raise DomainError("underlying permutation contains 1324")

    @property
    def points(self) -> int:
        return len(self.cols)

    def _underlying_values(self) -> tuple[int, ...]:
        b = len(self.bottom)
        bit = iter(self.bottom.values)
        tit = iter(self.top.values)
        return tuple(next(bit) if c == "b" else next(tit) + b for c in self.cols)

    def underlying(self) -> Permutation:
        """Bottom values 1..b below top values b+1..p, interleaved by column."""
        return Permutation(self._underlying_values(), validate=False)

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


def to_domino(p: Permutation, validate: bool = True) -> GriddedDomino:
    """Domino with n - 2 points for a primitive of size n.

    With q the inverse permutation, i = q(1) and q(n) = i + 1. The middle
    letters q(2..n-1) split by value: 1..i-1, already reduced, to the
    bottom cell, and i+2..n, lowered by i + 1, to the top.
    ``validate=False`` skips the primitivity check, for callers whose p is
    primitive by construction.
    """
    if validate and not is_primitive(p):
        raise DomainError(f"{p!r} is not primitive")
    q = inverse(p).values
    i = q[0]
    mid = q[1:-1]
    return GriddedDomino(["b" if v < i else "t" for v in mid],
                         Permutation([v for v in mid if v < i], validate=False),
                         Permutation([v - i - 1 for v in mid if v > i], validate=False),
                         validate=False)


def from_domino(d: GriddedDomino) -> Permutation:
    """Exact inverse of to_domino; the result is primitive of size p + 2."""
    b = len(d.bottom)
    i = b + 1
    bit = iter(d.bottom.values)
    tit = iter(d.top.values)
    q = [i]
    q.extend(next(bit) if c == "b" else next(tit) + b + 2 for c in d.cols)
    q.append(i + 1)
    result = inverse(Permutation(q))
    if not is_primitive(result):
        raise DomainError(f"domino {d.to_text()} does not map to a primitive")
    return result


@lru_cache(maxsize=None)
def _cell_words(size: int) -> tuple[tuple[Permutation, ...], tuple[Permutation, ...]]:
    """The 132-avoiding bottom words and 213-avoiding top words of one
    size, built once per size for every enumerate_dominoes call."""
    from .enumeration import generate_avoiders

    return (tuple(generate_avoiders(size, Permutation((1, 3, 2)))),
            tuple(generate_avoiders(size, Permutation((2, 1, 3)))))


def _tags(p: int, mask: int) -> tuple[str, ...]:
    """The column tags of one mask: column c is bottom iff bit c is set."""
    return tuple("b" if mask & (1 << c) else "t" for c in range(p))


def _tagged_dominoes(cols: tuple[str, ...]) -> Iterator[GriddedDomino]:
    """The valid dominoes with column tags ``cols``, in enumerate_dominoes
    order."""
    b = cols.count("b")
    for bw in _cell_words(b)[0]:
        for tw in _cell_words(len(cols) - b)[1]:
            d = GriddedDomino(cols, bw, tw, validate=False)
            if not _word_contains_1324(d._underlying_values()):
                yield d


def enumerate_dominoes(p: int) -> Iterator[GriddedDomino]:
    """All valid dominoes with p points, each once, generated directly from
    the definition (tag vectors x avoiding cell words, filtered on the
    underlying permutation) -- independent of to_domino/from_domino.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    for mask in range(1 << p):
        yield from _tagged_dominoes(_tags(p, mask))
