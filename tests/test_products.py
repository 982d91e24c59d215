import inspect
from collections import Counter
from itertools import combinations, permutations

import pytest

import permpos
from permpos.enumeration import PositionalClass, _class_raw, classify, iter_class_members
from permpos.permutations import (
    DomainError,
    PATTERN_1324,
    Permutation,
    avoids,
    parse_permutation,
    reverse_complement,
)
from permpos.products import (
    MarkedTuple,
    PrimitiveDecomposition,
    _codec_k,
    _decode_raw,
    _factorize_raw,
    _tuple_target,
    contract_one,
    decode_tuple,
    encode_perm,
    expand_with_one,
    factorize,
    is_marked_component,
    is_primitive,
    odot,
    parse_marked_tuple,
)


def perm(text):
    return parse_permutation(text)


def one_left_of_max_members(n):
    out = []
    for k in range(1, n):
        out.extend(iter_class_members(n, 1, k))
    return out


def test_only_trusted_constructors_and_the_codec_take_validate():
    # the _raw helpers are the unchecked path; of the public callables,
    # only the constructors of trusted values and the codec, whose unchecked
    # round trip perfbench times, can skip their checks
    flagged = {name for name in permpos.__all__
               if callable(obj := getattr(permpos, name))
               and not (isinstance(obj, type) and issubclass(obj, Exception))
               and "validate" in inspect.signature(obj).parameters}
    assert flagged == {"Permutation", "GriddedDomino", "decode_tuple", "encode_perm"}


def has_1324(v):
    """Oracle: some inversion v[b] > v[c] has a smaller value before it and
    a larger one after it."""
    return any(min(v[:b], default=v[c]) < v[c] < v[b] < max(v[c + 1:], default=0)
               for b, c in combinations(range(len(v)), 2))


def test_class_tests_match_their_definitions():
    # _class_raw, the three class tests that read it and the codec-domain
    # rule, against the definitions in their docstrings on every
    # permutation of size <= 8
    seen = Counter()
    for n in range(9):
        for v in permutations(range(1, n + 1)):
            top = v.index(n) if n else 0
            # the smallest value left of n, and its distance to n
            a = next((x for x in range(1, n) if v.index(x) < top), None)
            cls = None if a is None else (a, top - v.index(a))
            assert _class_raw(v) == cls, v
            p = Permutation(v)
            avoider = not has_1324(v)
            want = (PositionalClass(*cls) if cls else None) if avoider else DomainError
            got = _outcome(classify, p)
            assert got == want and type(got) is type(want), v
            assert is_primitive(p) == (n >= 2 and avoider and v.index(1) + 1 == top), v
            marked = n >= 2 and avoider and v.index(2) + 1 == top < v.index(1) < n - 1
            assert is_marked_component(p) == marked, v
            # a codec member: a 1324-avoider with 2 left of n and 1 right of
            # it but not last; k is the distance from 2 to n
            member = avoider and n >= 3 and v.index(2) < top < v.index(1) < n - 1
            assert _codec_k(v) == (top - v.index(2) if member else None), v
            assert marked == (_codec_k(v) == 1), v
            seen[cls, avoider, is_primitive(p), marked] += 1
            seen["member", cls] += member
    assert seen[None, True, False, False] and seen[(1, 1), True, True, False]
    assert seen[(2, 1), True, False, True] and seen[(2, 1), False, False, False]
    assert seen["member", (2, 3)] and not seen["member", (1, 1)]


class TestIsPrimitive:
    def test_examples(self):
        assert is_primitive(perm("2143"))
        assert not is_primitive(perm("1234"))
        assert not is_primitive(perm("21"))  # 1 right of the max
        assert is_primitive(perm("12"))
        assert not is_primitive(perm("1"))

    def test_size_four_primitives(self):
        prims = [p.to_text() for p in iter_class_members(4, 1, 1)]
        assert sorted(prims) == sorted(
            ["1,4,2,3", "1,4,3,2", "2,1,4,3", "3,1,4,2", "2,3,1,4", "3,2,1,4"])

    def test_agrees_with_classify(self):
        for n in range(2, 8):
            for p in one_left_of_max_members(n):
                assert is_primitive(p) == (classify(p) == PositionalClass(1, 1))


class TestOdot:
    def test_worked_examples(self):
        assert odot(perm("2143"), perm("41253")) == perm("7,2,1,4,5,8,6,3")
        assert odot(perm("213"), perm("3142")) == perm("5,2,1,3,6,4")
        assert odot(perm("3142"), perm("213")) == perm("5,3,1,4,6,2")
        assert odot(perm("213"), perm("12")) == perm("2134")
        assert odot(perm("12"), perm("213")) == perm("3124")

    def test_not_commutative(self):
        assert odot(perm("213"), perm("12")) != odot(perm("12"), perm("213"))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            odot(perm("1234"), perm("12"))  # left factor not primitive
        with pytest.raises(DomainError):
            odot(perm("12"), perm("21"))  # right factor has 1 right of max
        with pytest.raises(DomainError):
            odot(perm("12"), perm("1324"))  # right factor not an avoider

    def test_closure_exhaustive(self):
        # primitives of size <= 6 against class members of size <= 6
        prims = [p for m in range(2, 7) for p in iter_class_members(m, 1, 1)]
        for n in range(2, 7):
            for p2 in one_left_of_max_members(n):
                k = classify(p2).k
                for p1 in prims:
                    prod = odot(p1, p2)
                    assert avoids(prod, PATTERN_1324)
                    assert classify(prod) == PositionalClass(1, k + 1)
                    assert len(prod) == len(p1) + len(p2) - 1

    def test_between_segment_is_increasing(self):
        # class membership forces the values between 1 and the max to rise
        for n in range(2, 9):
            for p in one_left_of_max_members(n):
                seg = p.values[p.position(1):p.position(n) - 1]
                assert all(a < b for a, b in zip(seg, seg[1:]))


class TestFactorize:
    def test_table_rows(self):
        assert [f.to_text() for f in factorize(perm("1243")).factors] == ["1,2", "1,3,2"]
        assert [f.to_text() for f in factorize(perm("1342")).factors] == ["1,3,2", "1,2"]
        assert [f.to_text() for f in factorize(perm("2134")).factors] == ["2,1,3", "1,2"]
        assert [f.to_text() for f in factorize(perm("3124")).factors] == ["1,2", "2,1,3"]
        assert [f.to_text() for f in factorize(perm("1234")).factors] == ["1,2", "1,2", "1,2"]
        assert [f.to_text() for f in factorize(perm("2143")).factors] == ["2,1,4,3"]

    def test_errors_on_inputs_outside_the_class(self):
        with pytest.raises(DomainError):
            factorize(perm("21"))
        with pytest.raises(DomainError):
            factorize(perm("1324"))
        with pytest.raises(DomainError):
            factorize(perm("312"))  # starts with max

    def test_lone_factor_is_checked_like_any_other(self):
        # a non-primitive factor is refused whether or not another factor
        # stands next to it, and a lone primitive recomposes to itself
        for values in ((1, 2, 3), (2, 1, 3, 4), (2, 3, 1)):
            bad = Permutation(values)
            for factors in ((bad,), (perm("12"), bad), (bad, perm("12"))):
                with pytest.raises(DomainError, match="adjacent-left"):
                    PrimitiveDecomposition(factors).recompose()
        for p in iter_class_members(6, 1, 1):
            assert PrimitiveDecomposition((p,)).recompose() == p

    def test_factor_count_and_recomposition(self):
        for n in range(2, 9):
            for p in one_left_of_max_members(n):
                d = factorize(p)
                assert d.k == classify(p).k
                assert all(is_primitive(f) for f in d.factors)
                assert sum(d.sizes) - (d.k - 1) == n
                assert d.recompose() == p

    def test_unique_first_factor(self):
        # build every product primitive (x) class-member; the results must
        # be pairwise distinct and exactly cover the non-primitive members
        prims = {m: list(iter_class_members(m, 1, 1)) for m in range(2, 8)}
        for n in range(3, 9):
            products = Counter()
            for m in range(2, n):
                for p1 in prims.get(m, []):
                    for p2 in one_left_of_max_members(n - m + 1):
                        products[odot(p1, p2).values] += 1
            assert products, n
            assert max(products.values()) == 1
            members = {p.values for p in one_left_of_max_members(n)}
            non_primitive = {v for v in members
                             if classify(Permutation(v)).k > 1}
            assert set(products) == non_primitive


class TestExpandContract:
    def test_examples(self):
        assert [p.to_text() for p in expand_with_one(perm("12"))] == ["2,3,1"]
        assert [p.to_text() for p in expand_with_one(perm("132"))] == \
            ["2,4,1,3", "2,4,3,1"]
        assert [p.to_text() for p in expand_with_one(perm("213"))] == ["3,2,4,1"]
        assert contract_one(perm("231")) == perm("12")
        assert contract_one(perm("2431")) == perm("132")
        assert contract_one(perm("2567134")) == perm("1,4,5,6,2,3")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expand_with_one(perm("21"))
        with pytest.raises(DomainError):
            expand_with_one(perm("231"))  # class (2, 1), not (1, k)
        with pytest.raises(DomainError):
            contract_one(perm("132"))  # class has a = 1

    def test_accounting_small(self, tables8):
        # unique preimages, the rc gap mirror, and the gap-count sum
        for n in range(3, 8):
            for k in range(1, n - 1):
                seen = set()
                gap_sum = 0
                for parent in iter_class_members(n - 1, 1, k):
                    size = n - 1
                    j_stat = size - parent.position(size)
                    i_stat = parent.position(1) - 1
                    # the mirror: rc is in class (1, k) with n - 2 - k - j
                    # entries right of its maximum
                    rc = reverse_complement(parent)
                    assert classify(rc) == PositionalClass(1, k)
                    assert size - rc.position(size) == n - 2 - k - j_stat
                    children = expand_with_one(parent)
                    assert len(children) == j_stat + 1
                    gap_sum += i_stat + 1  # the rc partner contributes these
                    for child in children:
                        assert classify(child) == PositionalClass(2, k)
                        assert child.values not in seen
                        seen.add(child.values)
                        assert contract_one(child) == parent
                assert len(seen) == tables8[n].count(2, k)
                # i and j swap under rc, so both sums count the class once
                assert gap_sum == tables8[n].count(2, k)


class TestTrailingOneMembers:
    def test_skew_sum_one_parametrizes_them(self, tables8):
        # appending a 1 below a class-(1, k) member of size n-1 yields
        # exactly the class-(2, k) members of size n that end in 1
        for n in range(3, 9):
            for k in range(1, n - 1):
                image = set()
                for parent in iter_class_members(n - 1, 1, k):
                    child = Permutation(tuple(v + 1 for v in parent.values) + (1,))
                    assert classify(child) == PositionalClass(2, k)
                    assert child.values[-1] == 1
                    image.add(child.values)
                trailing = {p.values for p in iter_class_members(n, 2, k)
                            if p.values[-1] == 1}
                assert image == trailing


class TestMarkedTupleCodec:
    def test_text_roundtrip(self):
        t = parse_marked_tuple("(12, ^2413, 132)")
        assert t.marked_index == 2
        assert t.to_text() == "(1,2, ^2,4,1,3, 1,3,2)"
        assert parse_marked_tuple(t.to_text()) == t
        with pytest.raises(ValueError):
            parse_marked_tuple("(12, 132)")  # nothing marked
        with pytest.raises(ValueError):
            parse_marked_tuple("(^12, ^132)")

    def test_marked_component_class(self):
        assert is_marked_component(perm("2413"))
        assert not is_marked_component(perm("2431"))  # ends with 1
        assert not is_marked_component(perm("213"))
        smallest = [n for n in range(2, 7)
                    if any(is_marked_component(p)
                           for p in iter_class_members(n, 2, 1))]
        assert smallest[0] == 4

    def test_worked_rows(self):
        assert decode_tuple(parse_marked_tuple("(12, ^2413, 132)")) == perm("2357614")
        assert decode_tuple(parse_marked_tuple("(^25134, 12, 12)")) == perm("2567134")
        assert decode_tuple(parse_marked_tuple("(12, 12, ^42513)")) == perm("6234715")
        assert encode_perm(perm("2357614")) == parse_marked_tuple("(12, ^2413, 132)")
        assert encode_perm(perm("3256714")) == parse_marked_tuple("(^32514, 12, 12)")

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            decode_tuple(MarkedTuple((perm("12"), perm("12")), 1))
        with pytest.raises(DomainError):
            encode_perm(perm("231"))  # ends with 1
        with pytest.raises(DomainError):
            encode_perm(perm("132"))  # a = 1
        # not 1324-avoiding, so its suffix blocks interleave when factored
        with pytest.raises(DomainError):
            encode_perm(perm("246135"), validate=False)
        # 23514 has its 1 right of its maximum and not last, but no 2
        # adjacent-left of the maximum: refused unvalidated, whether or not a
        # primitive stands next to it
        bad = perm("23514")
        for comps, marked in (((bad,), 1), ((bad, perm("12")), 1),
                              ((perm("12"), bad), 2)):
            with pytest.raises(DomainError, match="adjacent-left"):
                decode_tuple(MarkedTuple(comps, marked), validate=False)
        # raw components that lack a value the decoder looks up: a primitive
        # its 1, a marked component its 1 or 2
        for comps, marked in ((((1,),), 0), (((2, 4, 3, 5),), 0), (((2, 3),), -1),
                              (((1, 2), (2, 4, 3, 5)), 1), (((1, 3, 2), (2, 3)), -1)):
            with pytest.raises(DomainError, match="lacks"):
                _decode_raw(comps, marked)

    def test_roundtrip_small(self):
        for n in range(4, 8):
            for p in iter_class_members(n, 2):
                if p.values[-1] == 1:
                    continue
                t = encode_perm(p)
                assert _tuple_target([c.values for c in t.components],
                                     t.marked_index - 1) == (n, classify(p).k)
                assert decode_tuple(t) == p


# -- the step-by-step codec, kept as the reference for the flat one --------
#
# A copy of the codec as it stood before the flat rewrite: split off one
# primitive per element of theta, re-checking theta and both interleave
# conditions at every split, and decode by one splice product at a time
# while carrying the mark as a position.


def _ref_factorize(t, mark=0):
    factors = []
    marked = -1
    cur = tuple(t)
    while True:
        size = len(cur)
        i = cur.index(1)
        j = cur.index(size)
        if j <= i:
            raise DomainError("maximum not right of 1")
        if j == i + 1:
            factors.append(cur)
            if mark and marked < 0:
                marked = len(factors) - 1
            return factors, marked, mark
        theta = cur[i + 1:j]
        if any(a >= b for a, b in zip(theta, theta[1:])):
            raise DomainError("theta not increasing")
        m = theta[0]
        for block in (cur[:i], cur[j + 1:]):
            seen_small = False
            for v in block:
                if v < m:
                    seen_small = True
                elif seen_small:
                    raise DomainError("blocks interleave")
        if mark and marked < 0:
            if cur[mark - 1] < m:
                marked = len(factors)
                mark = sum(1 for v in cur[:mark] if v <= m)
            else:
                mark = sum(1 for v in cur[:mark] if v >= m)
        factors.append(tuple(v for v in cur if v <= m))
        cur = tuple(v - m + 1 for v in cur if v >= m)


def _ref_encode(sig):
    comps, marked, pos = _ref_factorize(tuple(v - 1 for v in sig if v != 1),
                                        sig.index(1) + 1)
    f = comps[marked]
    comps[marked] = (tuple(v + 1 for v in f[:pos - 1]) + (1,)
                     + tuple(v + 1 for v in f[pos - 1:]))
    return comps, marked


def _ref_odot(t1, t2):
    i = t1.index(1)
    if t1.index(len(t1)) != i + 1:
        raise DomainError("left factor not primitive")
    m = len(t1)
    j = t2.index(1)
    jm = t2.index(len(t2))
    d = m - 1
    return (tuple(v + d for v in t2[:j]) + tuple(t1[:i]) + (1, m)
            + tuple(v + d for v in t2[j + 1:jm]) + (len(t2) + d,)
            + tuple(v + d for v in t2[jm + 1:]) + tuple(t1[i + 2:]))


def _ref_odot_mark(t1, t2, mark, in_left):
    pos1_left = t1.index(1) + 1
    total = len(t1) + len(t2) - 1
    if in_left:
        if mark == pos1_left:
            raise DomainError("mark on the 1 of a factor")
        if mark <= pos1_left + 1:
            return t2.index(1) + mark
        return total - (len(t1) - mark)
    pos1_right = t2.index(1) + 1
    if mark == pos1_right:
        raise DomainError("mark on the 1 of a factor")
    if mark < pos1_right:
        return mark
    return mark + pos1_left


def _ref_decode(comps, marked_idx):
    marked = tuple(comps[marked_idx])
    mark = marked.index(1) + 1
    stripped = tuple(v - 1 for v in marked if v != 1)
    k = len(comps)
    if marked_idx == k - 1:
        acc, acc_mark = stripped, mark
    else:
        acc, acc_mark = tuple(comps[k - 1]), -1
    for j in range(k - 2, -1, -1):
        if j == marked_idx:
            left, new_mark = stripped, _ref_odot_mark(stripped, acc, mark, True)
        else:
            left = tuple(comps[j])
            new_mark = _ref_odot_mark(left, acc, acc_mark, False) if acc_mark > 0 else -1
        acc = _ref_odot(left, acc)
        acc_mark = new_mark
    return (tuple(v + 1 for v in acc[:acc_mark - 1]) + (1,)
            + tuple(v + 1 for v in acc[acc_mark - 1:]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


class TestFlatCodecMatchesStepByStep:
    def test_encode_and_decode_on_every_candidate(self):
        # every permutation of size <= 8 with 2 left of its maximum and 1
        # right of it, not ending in 1, avoiders or not
        seen = raised = 0
        for n in range(4, 9):
            for sig in permutations(range(1, n + 1)):
                top = sig.index(n)
                if not sig.index(2) < top < sig.index(1) < n - 1:
                    continue
                seen += 1
                ref = _outcome(_ref_encode, sig)
                got = _outcome(_factorize_raw, sig, 2)
                if ref is DomainError:
                    assert got is DomainError, sig
                    raised += 1
                    continue
                comps, marked = got
                assert ([tuple(c) for c in comps], marked) == ref, sig
                assert _decode_raw(comps, marked) == _ref_decode(*ref) == sig
        assert seen and 0 < raised < seen

    def test_a_one_between_the_2_and_the_maximum_is_refused(self):
        # no class-(2, k) member has its 1 there: with low cut 2 it breaks
        # theta, whether or not the rest would factor
        for n in range(3, 8):
            for sig in permutations(range(1, n + 1)):
                if sig.index(2) < sig.index(1) < sig.index(n):
                    with pytest.raises(DomainError, match="not increasing"):
                        _factorize_raw(sig, 2)

    def test_factorize_and_recompose_on_every_candidate(self):
        # every permutation of size <= 8 with 1 left of its maximum, unmarked
        # and with every entry marked: a 1 inserted before the marked entry,
        # every value raised, is the mark the loop takes with low cut 2. A 1
        # between the 2 and the maximum, where no class-(2, k) member has
        # it, breaks theta, and the encoder raises where the reference
        # still returns a tuple
        marks = raised = among = 0
        for n in range(2, 9):
            for t in permutations(range(1, n + 1)):
                if t.index(1) > t.index(n):
                    continue
                ref = _outcome(_ref_factorize, t)
                got = _outcome(_factorize_raw, t)
                if ref is DomainError:
                    assert got is DomainError, t
                else:
                    factors, marked = got
                    assert ([tuple(f) for f in factors], marked, 0) == ref, t
                    assert _decode_raw(factors) == t
                up = tuple(v + 1 for v in t)
                for mark in range(1, n + 1):
                    sig = up[:mark - 1] + (1,) + up[mark - 1:]
                    ref = _outcome(_ref_encode, sig)
                    got = _outcome(_factorize_raw, sig, 2)
                    if sig.index(2) < sig.index(1) < sig.index(n + 1):
                        among += ref is not DomainError
                        assert got is DomainError, (t, mark)
                        continue
                    if ref is DomainError:
                        assert got is DomainError, (t, mark)
                        continue
                    marks += 1
                    comps, marked = got
                    assert ([tuple(c) for c in comps], marked) == ref, (t, mark)
                    # the codec's image: a 1 right of the maximum decodes back,
                    # any other is not a marked component
                    if sig.index(1) > sig.index(n + 1):
                        assert _decode_raw(comps, marked) == sig, (t, mark)
                    else:
                        raised += 1
                        with pytest.raises(DomainError):
                            _decode_raw(comps, marked)
        assert 0 < raised < marks and among
