import hashlib

import pytest

from permpos.dominoes import (
    GriddedDomino,
    _cell_words,
    _tagged_dominoes,
    _tags,
    enumerate_dominoes,
    from_domino,
    parse_domino,
    to_domino,
)
from permpos.enumeration import _walk, generate_avoiders, iter_class_members
from permpos.genfun import primitive_count_closed_form
from permpos.permutations import DomainError, Permutation, inverse, parse_permutation


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
        # underlying permutation must avoid 1324: bottom 1,2 and top 1,2 by
        # tags b, t, b, t give 1,3,2,4 underneath, with both cells valid
        with pytest.raises(DomainError):
            GriddedDomino(("b", "t", "b", "t"), parse_permutation("12"),
                          parse_permutation("12"))

    def test_underlying(self):
        # the generator filters on the underlying word, the bottom values
        # below the top ones by column: bottom 1,2 and top 2,1 by tags
        # b, t, b, t give 1,4,2,3, and with top 1,2 they give 1,3,2,4
        assert ((1, 2), (2, 1)) in _tagged_dominoes(("b", "t", "b", "t"))
        assert ((1, 2), (1, 2)) not in _tagged_dominoes(("b", "t", "b", "t"))

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
        assert to_domino(parse_permutation("12")).cols == ()
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
                key = d.to_text()
                assert key not in image
                image[key] = sigma
                assert from_domino(d) == sigma
            assert set(image) == generated

    def test_generated_sequence_is_pinned(self):
        # SHA-256 of the to_text() lines, taken before the generator was
        # split into one generator per tag vector
        want = [
            "b772df713c5ee749e8f63b5391f2056aa72ba4e2f5f5ebe6879eba11468da9e7",
            "d605808027bee275b3e5736549f6e1e19ba70c9aab543b9705aa93e7f6dc6ff4",
            "cd565fb0b09e136f337ea06d6b8ae439419b5e2a9e7209b6fff0b67c1a39b84d",
            "f6d186147819ad1007e36c5e9159cd59f69d1878df45e0c2766ef7696b719327",
            "4a87949d1e29cdfa3f99d229130f7c51eafafc2f7190d1f2be37b69efad5c4e6",
            "810eb9fb35286ada6ab5d4e4264c2fb6bb3671fbeaec2d4f0a0a625cba704477",
            "1800c43741a43123fd5a9b5e5726ec5cc6f39b398d7a0b68031f0fa6a9bd6c81",
            "ec8f522d2376fdeff522607e1d63d4d6586d2660f119577a9dcbd577f1413c6b",
            "af2963f2d2136952690d6c9e1dcc6746482254557456d2e858e24d7efed833a6",
        ]
        for p, digest in enumerate(want):
            text = "".join(d.to_text() + "\n" for d in enumerate_dominoes(p))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, p

    def test_cell_words_are_the_lex_avoiders(self):
        # the cell words are built from smaller ones, with no pattern scan;
        # the backtracking generator scans every prefix
        for size in range(10):
            bottom, top = _cell_words(size)
            assert bottom == tuple(w.values for w in
                                   generate_avoiders(size, Permutation((1, 3, 2))))
            assert top == tuple(w.values for w in
                                generate_avoiders(size, Permutation((2, 1, 3))))

    def test_tag_vectors_chain_to_the_generator(self):
        for p in range(9):
            chained = []
            for mask in range(1 << p):
                cols = _tags(p, mask)
                for bw, tw in _tagged_dominoes(cols):
                    assert (len(bw), len(tw)) == (cols.count("b"), cols.count("t"))
                    chained.append((cols, bw, tw))
            assert chained == [(d.cols, d.bottom.values, d.top.values)
                               for d in enumerate_dominoes(p)], p

    def test_one_pass_maps_match_their_references(self):
        # from_domino builds the inverse of q directly, without q
        for p in range(9):
            for d in enumerate_dominoes(p):
                b = len(d.bottom)
                bit, tit = iter(d.bottom.values), iter(d.top.values)
                q = [b + 1] + [next(bit) if c == "b" else next(tit) + b + 2
                               for c in d.cols] + [b + 2]
                assert from_domino(d) == inverse(Permutation(q)), d
        # to_domino splits the inverse in one pass, as the three
        # comprehensions did
        for _, _, _, values, _ in _walk(2, 10, 1, 1):
            q = inverse(Permutation(values)).values
            i, mid = q[0], q[1:-1]
            d = to_domino(Permutation(values))
            assert d.cols == tuple("b" if v < i else "t" for v in mid)
            assert d.bottom.values == tuple(v for v in mid if v < i)
            assert d.top.values == tuple(v - i - 1 for v in mid if v > i)
        # a bottom word with a 132 gives an image with a 1324
        with pytest.raises(DomainError):
            from_domino(GriddedDomino(("b",) * 7, Permutation((1, 2, 3, 4, 5, 7, 6)),
                                      Permutation(()), validate=False))

    def test_six_two_point_dominoes(self):
        texts = sorted(d.to_text() for d in enumerate_dominoes(2))
        assert texts == sorted([
            "B:|T:1,2|cols:tt", "B:|T:2,1|cols:tt",
            "B:1,2|T:|cols:bb", "B:2,1|T:|cols:bb",
            "B:1|T:1|cols:bt", "B:1|T:1|cols:tb",
        ])
