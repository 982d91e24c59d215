"""The splice product on 1324-avoiders, unique primitive factorization, the
insert-a-1 expansion, and the marked-tuple codec.

A *primitive* is an avoider whose 1 sits immediately left of its maximum.
Writing a primitive as pi1 . 1 m . tau1 and a second avoider (with 1 left
of its maximum L) as pi2 . 1 . theta2 . L . tau2, the product splices them
as

    pi2^ pi1 1 m theta2^ n tau2^ tau1        (n = L + m - 1)

where hatted blocks have every entry raised by m - 1. Every avoider with 1
left of its maximum factors uniquely into primitives under this product;
the number of factors equals the position distance from 1 to the maximum.
Recomposition is right-nested -- sigma_1 . (sigma_2 . (... . sigma_k)) --
so the innermost factor carries the global maximum. ``odot`` factors its
right operand and recomposes in the one pass that ``recompose`` uses.

The marked-tuple codec encodes the class-(2, k) avoiders that do not end
in 1: delete the 1 (marking its right neighbour), factor the reduction
into k primitives, and re-insert the 1 at the transported mark. Both
directions are flat: the cuts (the 1, theta and the maximum) split the
values into one block per factor, so the raw codec slices blocks once
instead of splicing one factor at a time, and finds the marked entry by
its value within its block.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from operator import ge
from typing import Sequence

from .enumeration import PositionalClass, classify
from .permutations import (
    DomainError,
    Permutation,
    _word_contains_1324,
)


def is_primitive(p: Permutation) -> bool:
    """True iff n >= 2, p avoids 1324, and 1 sits immediately left of n."""
    n = len(p)
    if n < 2:
        return False
    vals = p.values
    if vals.index(n) - vals.index(1) != 1:
        return False
    return not _word_contains_1324(vals)


def is_marked_component(p: Permutation) -> bool:
    """True iff p qualifies as the marked component of a tuple: its 2 sits
    immediately left of its maximum, its 1 is right of the maximum but not
    last, and it avoids 1324. The smallest such size is 4 (e.g. 2413)."""
    n = len(p)
    if n < 4 or p.values[-1] == 1:
        return False
    if _word_contains_1324(p.values):
        return False
    return classify(p, validate=False) == PositionalClass(2, 1)


# -- raw helpers on value sequences ------------------------------------------
#
# The verification sweeps run these over hundreds of thousands of members,
# so they work on bare value sequences and assume class membership was
# established by the caller (the public wrappers validate).


def _factorize_raw(t: Sequence[int], mark: int = 0) -> tuple[list[list[int]], int, int]:
    """Primitive factors of an avoider with 1 left of its maximum.

    The 1, the run theta between the 1 and the maximum, and the maximum are
    the cuts; factor r holds the values from cut r to cut r + 1 in their
    order in t, reduced. Raises DomainError on structural violations
    (theta not increasing, interleaved blocks), which indicate the input is
    outside the class.

    A 1-based ``mark`` on an entry of t is carried along: the result is
    (factors, index of the factor holding the marked entry, its 1-based
    position there), or (factors, -1, 0) without a mark."""
    n = len(t)
    i = t.index(1)
    j = t.index(n)
    if j <= i:
        raise DomainError(f"{tuple(t)}: maximum not right of 1")
    if j == i + 1:
        return [list(t)], (0 if mark else -1), mark
    cuts = t[i:j + 1]
    if any(map(ge, cuts, cuts[1:])):
        raise DomainError(f"{tuple(t)}: segment between 1 and the maximum not increasing")
    # Bands are the value ranges between consecutive cuts. Splitting off one
    # factor per cut needs, at every cut, the larger values of the prefix
    # (and of the suffix) before the smaller ones: the band index may not
    # rise along either stretch.
    band = partial(bisect_right, cuts)
    for stretch in (t[:i], t[j + 1:]):
        bands = list(map(band, stretch))
        if bands != sorted(bands, reverse=True):
            raise DomainError(f"{tuple(t)}: blocks interleave around a cut")
    factors = [[v - lo + 1 for v in t if lo <= v <= hi] for lo, hi in zip(cuts, cuts[1:])]
    if not mark:
        return factors, -1, 0
    # the marked entry goes with the first factor whose top cut exceeds it
    mv = t[mark - 1]
    r = min(band(mv), len(factors)) - 1
    return factors, r, factors[r].index(mv - cuts[r] + 1) + 1


def _encode_raw(sig: Sequence[int]) -> tuple[list[list[int]], int]:
    """Marked k-tuple (components, 0-based marked index) for a class-(2, k)
    avoider not ending in 1."""
    if sig.index(len(sig)) == sig.index(2) + 1:
        return [list(sig)], 0  # k = 1: the member is its own marked component
    # deleting the 1 slides its right neighbour into its slot, which is marked
    comps, marked, pos = _factorize_raw([v - 1 for v in sig if v != 1],
                                        sig.index(1) + 1)
    f = [v + 1 for v in comps[marked]]
    f.insert(pos - 1, 1)
    comps[marked] = f
    return comps, marked


def _decode_raw(comps: Sequence[Sequence[int]], marked_idx: int = -1) -> tuple[int, ...]:
    """Right-nested product comps[0] . (comps[1] . (...)) of primitives,
    assembled in one pass. Raise each component by the sizes less one of
    the components before it; the result is then every component's
    entries left of its 1, last component first, the cuts (1 and each
    raised maximum), and every component's entries right of its maximum,
    last component first.

    With ``marked_idx``, that component is a marked component, and the
    result is the class-(2, k) avoider the marked tuple encodes (the
    inverse of _encode_raw): the component takes part without its 1, and
    the 1 goes back before its right neighbour, every other value raised
    by one."""
    if len(comps) == 1:
        return tuple(comps[0])  # a lone component, marked or not, is the result
    lift = 1 if marked_idx >= 0 else 0
    hi = sum(map(len, comps)) - len(comps) + 1 - lift  # top cut before the lift
    pre: list[int] = []
    cuts = [hi + lift]
    suf: list[int] = []
    for r in range(len(comps) - 1, -1, -1):
        c = comps[r]
        size = len(c)
        marked = r == marked_idx
        i = c.index(2 if marked else 1)
        if c.index(size) != i + 1:
            raise DomainError(f"component {tuple(c)} has no "
                              f"{2 if marked else 1} adjacent-left of its maximum")
        lo = hi - size + 1 + marked  # a marked component's 1 is not counted
        shift = lo - 1 + lift - marked
        pre += [v + shift for v in c[:i]]
        tail = [v + shift for v in c[i + 2:]]
        if marked:
            tail[c.index(1) - i - 2] = 1
        suf += tail
        cuts.append(lo + lift)
        hi = lo
    cuts.reverse()
    return tuple(pre + cuts + suf)


# -- public surface -----------------------------------------------------------


def _require_one_left_of_max(p: Permutation, who: str) -> PositionalClass:
    cls = classify(p)  # validates 1324-avoidance
    if cls is None or cls.a != 1:
        raise DomainError(f"{who}: {p!r} does not have 1 left of its maximum")
    return cls


def odot(p1: Permutation, p2: Permutation, validate: bool = True) -> Permutation:
    """Splice product of a primitive p1 with an avoider p2 whose 1 is left
    of its maximum. If p2 is in class (1, k), the result is in (1, k+1).

    Computed as the right-nested product of p1 and p2's factors, so even
    without validation an operand of the wrong shape raises DomainError."""
    if validate:
        if not is_primitive(p1):
            raise DomainError(f"left factor {p1!r} is not primitive")
        _require_one_left_of_max(p2, "right factor")
    return Permutation(_decode_raw([p1.values] + _factorize_raw(p2.values)[0]),
                       validate=False)


@dataclass(frozen=True)
class PrimitiveDecomposition:
    """Ordered primitive factors; right-nested recomposition returns the
    source permutation."""

    factors: tuple[Permutation, ...]

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def recompose(self) -> Permutation:
        return Permutation(_decode_raw([f.values for f in self.factors]),
                           validate=False)


def factorize(p: Permutation) -> PrimitiveDecomposition:
    """Unique decomposition of an avoider with 1 left of its maximum into
    k = pos(max) - pos(1) primitives."""
    cls = _require_one_left_of_max(p, "factorize")
    factors, _, _ = _factorize_raw(p.values)
    if len(factors) != cls.k:
        raise DomainError(
            f"factorize: {p!r} produced {len(factors)} factors, expected {cls.k}")
    return PrimitiveDecomposition(tuple(
        Permutation(f, validate=False) for f in factors))


def expand_with_one(p: Permutation, validate: bool = True) -> list[Permutation]:
    """All ways of turning a class-(1, k) avoider of size n-1 into a
    class-(2, k) avoider of size n: raise every value by one, then insert
    1 into each gap strictly right of the maximum."""
    if validate:
        _require_one_left_of_max(p, "expand_with_one")
    up = tuple(v + 1 for v in p.values)
    posmax = p.values.index(len(p)) + 1
    return [Permutation(up[:t - 1] + (1,) + up[t - 1:], validate=False)
            for t in range(posmax + 1, len(p) + 2)]


def contract_one(p: Permutation, validate: bool = True) -> Permutation:
    """Remove the 1 and reduce; left inverse of every expand_with_one
    branch. Requires a class-(2, k) avoider."""
    if validate:
        cls = classify(p)
        if cls is None or cls.a != 2:
            raise DomainError(f"contract_one: {p!r} is not in a class with a = 2")
    return Permutation((v - 1 for v in p.values if v != 1), validate=False)


@dataclass(frozen=True)
class MarkedTuple:
    """k components, exactly one of which (1-based marked_index) is a
    marked component (see is_marked_component); the others are primitive.
    Decodes to an avoider of size sum(sizes) - (k - 1) in class (2, k)."""

    components: tuple[Permutation, ...]
    marked_index: int

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def target_size(self) -> int:
        return sum(len(c) for c in self.components) - (self.k - 1)

    def validate(self) -> None:
        if not 1 <= self.marked_index <= self.k:
            raise DomainError(f"marked index {self.marked_index} out of 1..{self.k}")
        for idx, comp in enumerate(self.components, start=1):
            if idx == self.marked_index:
                if not is_marked_component(comp):
                    raise DomainError(f"component {idx} ({comp!r}) is not a valid "
                                      "marked component")
            elif not is_primitive(comp):
                raise DomainError(f"component {idx} ({comp!r}) is not primitive")

    def to_text(self) -> str:
        parts = [("^" if i == self.marked_index else "") + c.to_text()
                 for i, c in enumerate(self.components, start=1)]
        return "(" + ", ".join(parts) + ")"


def parse_marked_tuple(text: str) -> MarkedTuple:
    """Parse "(12, ^2413, 132)" -- the "^" prefix marks one component.

    Components are separated by comma-space; bare commas inside a component
    belong to its own comma-form permutation text.
    """
    from .permutations import parse_permutation

    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"cannot parse marked tuple {text!r}")
    comps = []
    marked = 0
    for i, tok in enumerate(s[1:-1].split(", "), start=1):
        tok = tok.strip()
        if tok.startswith("^"):
            if marked:
                raise ValueError("more than one marked component")
            marked = i
            tok = tok[1:]
        comps.append(parse_permutation(tok))
    if not marked:
        raise ValueError("no marked component")
    return MarkedTuple(tuple(comps), marked)


def decode_tuple(t: MarkedTuple, validate: bool = True) -> Permutation:
    """The class-(2, k) avoider (not ending in 1) encoded by a marked
    k-tuple."""
    if validate:
        t.validate()
    result = Permutation(
        _decode_raw([c.values for c in t.components], t.marked_index - 1),
        validate=False)
    if validate:
        cls = classify(result)
        if cls != PositionalClass(2, t.k) or result.values[-1] == 1:
            raise DomainError(f"decoded {result!r} is not a class-(2, {t.k}) "
                              "avoider off the ends-with-1 case")
    return result


def encode_perm(p: Permutation, validate: bool = True) -> MarkedTuple:
    """Marked tuple for a class-(2, k) avoider not ending in 1; inverse of
    decode_tuple."""
    if validate:
        cls = classify(p)
        if cls is None or cls.a != 2:
            raise DomainError(f"encode_perm: {p!r} is not in a class with a = 2")
        if p.values[-1] == 1:
            raise DomainError(f"encode_perm: {p!r} ends with 1")
    comps, marked_idx = _encode_raw(p.values)
    t = MarkedTuple(tuple(Permutation(c, validate=False) for c in comps),
                    marked_idx + 1)
    if validate:
        t.validate()
    return t
