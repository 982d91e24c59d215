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
values into one band per factor, and each side of the cuts lists the
bands in falling order. So ``_factorize_raw`` makes one pass over the
entries with one pointer per side, placing each entry in its factor and
rejecting a rising band as interleaved blocks; ``factorize``, ``odot`` and
the encoder all run that loop. The encoder runs it on the member itself,
cut from its 2, so no reduced copy is made: the 1 goes to the factor of
its right neighbour, whose other entries are raised by one. The decoder
assembles every component in one pass too.

This module states the codec's domain once, on bare values and without
the codec: ``_codec_k`` gives the k of a codec member, and
``_tuple_target`` the (n, k) of a valid marked tuple, whose marked
component is a codec member with k = 1. The codec's checks and verify's
proof that it is a bijection both read them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import ge
from typing import Optional, Sequence

from .enumeration import PositionalClass, _class_raw, classify
from .permutations import DomainError, Permutation, _word_contains_1324, parse_permutation


def is_primitive(p: Permutation) -> bool:
    """True iff n >= 2, p avoids 1324, and 1 sits immediately left of n:
    p is in class (1, 1)."""
    return _is_primitive_raw(p.values)


def _is_primitive_raw(values: Sequence[int]) -> bool:
    return _class_raw(values) == (1, 1) and not _word_contains_1324(values)


def _codec_k(values: Sequence[int]) -> Optional[int]:
    """k if the permutation ``values`` is a codec member, a 1324-avoider in
    class (2, k) that does not end in 1; None otherwise."""
    cls = _class_raw(values)
    if cls is None or cls[0] != 2 or values[-1] == 1 or _word_contains_1324(values):
        return None
    return cls[1]


def is_marked_component(p: Permutation) -> bool:
    """True iff p qualifies as the marked component of a tuple: it is a
    codec member with k = 1, so its 2 sits immediately left of its
    maximum, its 1 is right of the maximum but not last, and it avoids
    1324. The smallest such size is 4 (e.g. 2413)."""
    return _codec_k(p.values) == 1


def _tuple_target(comps: Sequence[Sequence[int]], marked_idx: int) -> tuple[int, int]:
    """(n, k) of the codec members a valid marked tuple encodes: each
    component a permutation of 1..len, component ``marked_idx`` (from 0) a
    codec member with k = 1, the others primitives. Raises DomainError,
    naming the first component at fault, for any other tuple."""
    k = len(comps)
    if not 0 <= marked_idx < k:
        raise DomainError(f"marked index {marked_idx + 1} out of 1..{k}")
    for idx, c in enumerate(comps):
        marked = idx == marked_idx
        if sorted(c) != list(range(1, len(c) + 1)) or (
                _codec_k(c) != 1 if marked else not _is_primitive_raw(c)):
            raise DomainError(f"component {idx + 1} {tuple(c)} is not a valid "
                              + ("marked component" if marked else "primitive"))
    return sum(map(len, comps)) - k + 1, k


# -- raw helpers on value sequences ------------------------------------------
#
# The verification sweeps run these over hundreds of thousands of members,
# so they work on bare value sequences and do not check the class they
# assume. They are the only unchecked path: each public wrapper below checks
# its argument on every call, unless decode_tuple or encode_perm is passed
# validate=False.


def _expand_raw(t: Sequence[int]) -> list[tuple[int, ...]]:
    """The children of a class-(1, k) avoider t: t raised by one, with 1
    inserted into each gap strictly right of the maximum."""
    up = tuple(v + 1 for v in t)
    return [up[:g] + (1,) + up[g:] for g in range(t.index(len(t)) + 1, len(t) + 1)]


def _contract_raw(t: Sequence[int]) -> tuple[int, ...]:
    """t without its 1, reduced."""
    return tuple(v - 1 for v in t if v != 1)


def _factorize_raw(t: Sequence[int], low: int = 1) -> tuple[list[list[int]], int]:
    """Primitive factors of an avoider with ``low`` left of its maximum.

    ``low``, the run theta after it and the maximum are the cuts; factor r
    holds the values from cut r to cut r + 1 in their order in t, reduced.
    The band of an entry is the factor it joins. Left and right of the
    cuts the bands may only fall, or blocks interleave, so one pass with a
    falling pointer per side places every entry. Raises DomainError when
    t lacks ``low``, 1 or its maximum, the maximum is not right of ``low``,
    theta is not increasing or blocks interleave: the input is outside the
    class.

    With low = 2, t's 1 is a mark and not a cut (the marked-tuple encoding
    of a class-(2, k) avoider, whose 1 is right of its maximum): it joins
    the factor of its right neighbour, just before it, and the rest of that
    factor is raised by one. A 1 between the 2 and the maximum breaks theta
    and raises DomainError. Returns (factors, index of the factor holding
    the 1), or (factors, -1)."""
    n = len(t)
    try:
        i = t.index(low)
        j = t.index(n)
        one = t.index(1) if low > 1 and j > i + 1 else -1
    except ValueError:  # t lacks low, 1 or its maximum: it is no permutation
        raise DomainError(f"{tuple(t)}: no {low}, 1 or maximum {n}") from None
    if j <= i:
        raise DomainError(f"{tuple(t)}: maximum not right of {low}")
    if low > 1 and t[-1] == 1:
        raise DomainError(f"{tuple(t)}: the marked 1 is last")
    if j == i + 1:
        return [list(t)], (0 if low > 1 else -1)  # t is its own single factor
    cuts = list(t[i:j + 1])
    if any(map(ge, cuts, cuts[1:])):
        raise DomainError(f"{tuple(t)}: segment between {low} and the maximum not increasing")
    k = len(cuts) - 1
    base = [c - 1 for c in cuts]  # factor r holds v - base[r]
    marked = -1
    if one >= 0:
        marked = min(bisect_right(cuts, t[one + 1]), k) - 1
        base[marked] -= 1
    factors: list[list[int]] = [[] for _ in range(k)]

    def place(stretch: Sequence[int]) -> None:
        r = k - 1
        for v in stretch:
            if v < low:
                factors[marked].append(1)
                continue
            while v < cuts[r]:
                r -= 1
            if v > cuts[r + 1]:
                raise DomainError(f"{tuple(t)}: blocks interleave around a cut")
            factors[r].append(v - base[r])

    place(t[:i])
    for r in range(k):
        factors[r] += (cuts[r] - base[r], cuts[r + 1] - base[r])
    place(t[j + 1:])
    return factors, marked


def _decode_raw(comps: Sequence[Sequence[int]], marked_idx: int = -1) -> tuple[int, ...]:
    """Right-nested product comps[0] . (comps[1] . (...)) of primitives,
    assembled in one pass. Raise each component by the sizes less one of
    the components before it; the result is then every component's
    entries left of its 1, last component first, the cuts (1 and each
    raised maximum), and every component's entries right of its maximum,
    last component first.

    With ``marked_idx``, that component is a marked component, and the
    result is the class-(2, k) avoider the marked tuple encodes (the
    inverse of _factorize_raw with low = 2): the component takes part
    without its 1, and the 1 goes back before its right neighbour, every
    other value raised by one. A component that lacks its 1, its 2 (when
    marked) or its maximum raises DomainError, as any other invalid one."""
    try:
        # The k = 1 fast path; keep it, and keep its class-(2, 1) test
        # inline. The loop below gives the same results and error types on
        # every lone component of size <= 8, but 238,045 of the 483,848
        # codec members of size <= 11 come here, and without it the codec
        # scan to size 10 took a median 0.74-0.92 s
        # against 0.63-0.85 s (2-core Xeon, Python 3.11).
        if len(comps) == 1 and marked_idx == 0:
            c = comps[0]
            if not c.index(2) + 1 == c.index(len(c)) < c.index(1) < len(c) - 1:
                raise DomainError(f"marked component {tuple(c)}: no 2 adjacent-left of "
                                  "its maximum, or 1 not right of it, or last")
            return tuple(c)  # a lone marked component is the result
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
                one = c.index(1) - i - 2  # the 1's place in the tail
                if not 0 <= one < len(tail) - 1:
                    raise DomainError(f"marked component {tuple(c)}: 1 not right of its "
                                      "maximum, or last")
                tail[one] = 1
            suf += tail
            cuts.append(lo + lift)
            hi = lo
        cuts.reverse()
        return tuple(pre + cuts + suf)
    except DomainError:
        raise
    except ValueError as exc:  # tuple.index: a component lacks its 1, 2 or maximum
        raise DomainError(f"a component lacks its 1, 2 or maximum: {exc}") from None


# -- public surface -----------------------------------------------------------


def _require_one_left_of_max(p: Permutation, who: str) -> PositionalClass:
    cls = classify(p)  # validates 1324-avoidance
    if cls is None or cls.a != 1:
        raise DomainError(f"{who}: {p!r} does not have 1 left of its maximum")
    return cls


def odot(p1: Permutation, p2: Permutation) -> Permutation:
    """Splice product of a primitive p1 with an avoider p2 whose 1 is left
    of its maximum. If p2 is in class (1, k), the result is in (1, k+1).
    Computed as the right-nested product of p1 and p2's factors."""
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
    _require_one_left_of_max(p, "factorize")
    # one factor per gap between the cuts (1, theta, the maximum): k of them
    factors, _ = _factorize_raw(p.values)
    return PrimitiveDecomposition(tuple(
        Permutation(f, validate=False) for f in factors))


def expand_with_one(p: Permutation) -> list[Permutation]:
    """All ways of turning a class-(1, k) avoider of size n-1 into a
    class-(2, k) avoider of size n: raise every value by one, then insert
    1 into each gap strictly right of the maximum."""
    _require_one_left_of_max(p, "expand_with_one")
    return [Permutation(c, validate=False) for c in _expand_raw(p.values)]


def contract_one(p: Permutation) -> Permutation:
    """Remove the 1 and reduce; left inverse of every expand_with_one
    branch. Requires a class-(2, k) avoider."""
    cls = classify(p)
    if cls is None or cls.a != 2:
        raise DomainError(f"contract_one: {p!r} is not in a class with a = 2")
    return Permutation(_contract_raw(p.values), validate=False)


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

    def validate(self) -> None:
        _tuple_target([c.values for c in self.components], self.marked_index - 1)

    def to_text(self) -> str:
        parts = [("^" if i == self.marked_index else "") + c.to_text()
                 for i, c in enumerate(self.components, start=1)]
        return "(" + ", ".join(parts) + ")"


def parse_marked_tuple(text: str) -> MarkedTuple:
    """Parse "(12, ^2413, 132)" -- the "^" prefix marks one component.

    Components are separated by comma-space; bare commas inside a component
    belong to its own comma-form permutation text.
    """
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
    values = _decode_raw([c.values for c in t.components], t.marked_index - 1)
    if validate and _codec_k(values) != t.k:
        raise DomainError(f"decoded {values} is not a class-(2, {t.k}) avoider off the "
                          "ends-with-1 case")
    return Permutation(values, validate=False)


def encode_perm(p: Permutation, validate: bool = True) -> MarkedTuple:
    """Marked tuple for a class-(2, k) avoider not ending in 1; inverse of
    decode_tuple."""
    if validate and _codec_k(p.values) is None:
        raise DomainError(f"encode_perm: {p!r} is not a 1324-avoider in a class with "
                          "a = 2 that does not end in 1")
    comps, marked_idx = _factorize_raw(p.values, 2)
    t = MarkedTuple(tuple(Permutation(c, validate=False) for c in comps),
                    marked_idx + 1)
    if validate:
        t.validate()
    return t
