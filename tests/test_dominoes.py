import pytest

from permpos.dominoes import (
    GriddedDomino,
    enumerate_dominoes,
    from_domino,
    parse_domino,
    to_domino,
)
from permpos.enumeration import iter_class_members
from permpos.genfun import primitive_count_closed_form
from permpos.permutations import DomainError, Permutation, parse_permutation


class TestDominoType:
    def test_validation(self):
        with pytest.raises(DomainError):
            GriddedDomino(("x",), Permutation(()), Permutation(()))
        with pytest.raises(DomainError):
            GriddedDomino(("b",), Permutation(()), Permutation(()))
        # bottom cell must avoid 132
        with pytest.raises(DomainError):
            GriddedDomino(("b",) * 3, parse_permutation("132"), Permutation(()))
        # top cell must avoid 213
        with pytest.raises(DomainError):
            GriddedDomino(("t",) * 3, Permutation(()), parse_permutation("213"))
        # underlying permutation must avoid 1324: bottom 1 then top 2,1,3
        # gives 1,3,2,4 underneath
        with pytest.raises(DomainError):
            GriddedDomino(("b", "t", "t", "t"), parse_permutation("1"),
                          parse_permutation("213"))

    def test_underlying(self):
        d = GriddedDomino(("b", "t", "b"), parse_permutation("12"),
                          parse_permutation("1"))
        assert d.underlying() == parse_permutation("132")

    def test_text_roundtrip(self):
        d = GriddedDomino(("b", "t"), parse_permutation("1"), parse_permutation("1"))
        assert d.to_text() == "B:1|T:1|cols:bt"
        assert parse_domino("B:1|T:1|cols:bt") == d
        empty = GriddedDomino((), Permutation(()), Permutation(()))
        assert parse_domino(empty.to_text()) == empty
        with pytest.raises(ValueError):
            parse_domino("nope")


class TestBijection:
    def test_examples(self):
        assert to_domino(parse_permutation("12")).points == 0
        d = to_domino(parse_permutation("2143"))
        assert d.to_text() == "B:1|T:1|cols:bt"
        assert from_domino(d) == parse_permutation("2143")
        assert from_domino(GriddedDomino((), Permutation(()), Permutation(()))) == \
            parse_permutation("12")

    def test_rejects_non_primitives(self):
        with pytest.raises(DomainError):
            to_domino(parse_permutation("1234"))

    def test_counts(self):
        want = [1, 2, 6, 22, 91, 408]
        for p, expected in enumerate(want):
            assert sum(1 for _ in enumerate_dominoes(p)) == expected
            assert primitive_count_closed_form(p + 2) == expected

    def test_bijective_at_small_sizes(self):
        for p in range(0, 6):
            generated = {d.to_text() for d in enumerate_dominoes(p)}
            image = {}
            for sigma in iter_class_members(p + 2, 1, 1):
                d = to_domino(sigma)
                assert to_domino(sigma, validate=False) == d
                key = d.to_text()
                assert key not in image
                image[key] = sigma
                assert from_domino(d) == sigma
            assert set(image) == generated

    def test_six_two_point_dominoes(self):
        texts = sorted(d.to_text() for d in enumerate_dominoes(2))
        assert texts == sorted([
            "B:|T:1,2|cols:tt", "B:|T:2,1|cols:tt",
            "B:1,2|T:|cols:bb", "B:2,1|T:|cols:bb",
            "B:1|T:1|cols:bt", "B:1|T:1|cols:tb",
        ])
