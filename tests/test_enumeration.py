import json
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from permpos import enumeration, verify
from permpos.enumeration import (
    _BATCH,
    _SEED_SIZE,
    _cache_paths,
    _count_arrays,
    _expand_state,
    _fan_out,
    _outside_class,
    _slot_bits,
    _tree_roots,
    _walk,
    COUNT_MAX_N,
    ClassCountTable,
    PositionalClass,
    classify,
    count_tables,
    generate_avoiders,
    iter_class_members,
)
from permpos.genfun import f_series
from permpos.permutations import DomainError, Permutation, word_contains


def filter_oracle(n, pat):
    """Oracle: filter all n! permutations with the generic subsequence scan."""
    out = []
    for values in permutations(range(1, n + 1)):
        if len(pat) > n or not word_contains(values, pat):
            out.append(values)
    return out


def lex_members(sizes, a=None, k=None):
    """(n, a, k, values) from the lexicographic generator and classify."""
    out = Counter()
    for n in sizes:
        for p in generate_avoiders(n):
            cls = classify(p)
            if a is None and k is None and cls is None:
                out[(n, None, None, p.values)] += 1
            elif cls is not None and (a is None or cls.a == a) and (k is None or cls.k == k):
                out[(n, cls.a, cls.k, p.values)] += 1
    return out


def longest_132_free_prefix(v):
    """The bound L of a node from its definition: the length of its longest
    prefix that avoids 132, ended by the first m whose entry is the 2 of a
    132."""
    for m in range(2, len(v)):
        if any(v[i] < v[m] < v[j] for i, j in combinations(range(m), 2)):
            return m
    return len(v)


def members_below(roots):
    """Every (n, a, k, values) below the given (node, top) roots; a _fan_out
    worker."""
    return Counter((n, a, k, v) for node, top in roots
                   for n, a, k, v, _ in _walk(2, top, root=node))


class TestGenerateAvoiders:
    def test_small_counts(self):
        assert sum(1 for _ in generate_avoiders(3)) == 6
        assert sum(1 for _ in generate_avoiders(4)) == 23
        assert sum(1 for _ in generate_avoiders(7)) == 2762

    def test_matches_filter_oracle_and_lex_order(self):
        for n in range(0, 9):
            got = [p.values for p in generate_avoiders(n)]
            want = filter_oracle(n, (1, 3, 2, 4))
            assert got == want  # filter over itertools.permutations is lex

    def test_other_patterns(self):
        catalan = [1, 1, 2, 5, 14, 42, 132]
        for pat in ((1, 3, 2), (2, 1, 3)):
            for n in range(7):
                got = [p.values for p in generate_avoiders(n, Permutation(pat))]
                assert got == filter_oracle(n, pat)
                assert len(got) == catalan[n]
        assert [p.values for p in generate_avoiders(3, Permutation((2, 1)))] == \
            [(1, 2, 3)]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(generate_avoiders(-1))
        with pytest.raises(ValueError):
            list(generate_avoiders(3, Permutation(())))


class TestClassify:
    def test_examples(self):
        assert classify(Permutation((2, 3, 1))) == PositionalClass(2, 1)
        assert classify(Permutation((1, 2, 3, 4))) == PositionalClass(1, 3)
        assert classify(Permutation((3, 1, 2))) is None
        assert classify(Permutation((3, 5, 1, 4, 2))) == PositionalClass(3, 1)
        assert classify(Permutation((1,))) is None
        assert classify(Permutation(())) is None

    def test_validates_avoidance(self):
        with pytest.raises(DomainError):
            classify(Permutation((1, 3, 2, 4)))

    def test_partitions_avoiders(self):
        # every avoider not starting with n gets exactly one class; the rest
        # are counted by the size-(n-1) total
        for n in range(2, 8):
            avoiders = list(generate_avoiders(n))
            classified = [p for p in avoiders if p.values[0] != n]
            assert all(classify(p) is not None for p in classified)
            assert all(classify(p) is None for p in avoiders
                       if p.values[0] == n)

    def test_smaller_values_live_right_of_max(self):
        for n in range(2, 8):
            for p in generate_avoiders(n):
                cls = classify(p)
                if cls is None:
                    continue
                pos_n = p.position(n)
                for b in range(1, cls.a):
                    assert p.position(b) > pos_n


ABOVE = 128  # value codes: a prefix minimum as its value, any other x as ABOVE + pm


def state_children(state, size):
    """The child states of a state in value codes, each built as bytes, with
    entry L + 1 kept where it exists: the expansion that the count makes on
    shapes, and that the grandchild count skips at size max_n - 2."""
    L = state[0]
    new_max = bytes((ABOVE + state[1],))
    children = [bytes((L + 1, size + 1)) + state[1:]]
    pm = state[1]
    for p in range(2, L + 2):
        pm = min(pm, state[p - 1])
        Lc = next((q for q in range(p, len(state)) if state[q] >= ABOVE + pm), L + 1)
        children.append(bytes((Lc,)) + state[1:p] + new_max + state[p:Lc + 1])
    return children


def count_children_by_scan(state, size, mult, runs, totals):
    """Count a value state's children, mult times each, by scanning its
    prefix minima: into totals, and into runs[(n, a, K)] once per prefix
    minimum a followed by K children of class a."""
    L = state[0]
    totals[size + 1] += (L + 1) * mult
    pm, pmpos = state[1], 1
    for q in range(2, L + 1):
        if state[q] < pm:
            runs[(size + 1, pm, q - pmpos)] += mult
            pm, pmpos = state[q], q
    runs[(size + 1, pm, L + 1 - pmpos)] += mult


def value_levels(top):
    """The value states of sizes 1..top with their multiplicities, entry
    L + 1 dropped, built one child at a time by state_children from the
    root: the oracle for the count's shapes."""
    levels = []
    values = Counter({bytes((1, 1)): 1})  # the root in value codes
    for size in range(1, top + 1):
        dropped = Counter()
        for state, mult in values.items():
            dropped[state[:state[0] + 1]] += mult
        levels.append(dropped)
        if size == top:
            break
        children = Counter()
        for state, mult in values.items():
            for child in state_children(state, size):
                children[child] += mult
        values = children
    return levels


def shape_of(state):
    """The shape of a value state: a prefix minimum coded as its rank, any
    other entry ABOVE + v as the rank of the prefix minimum v; and the
    prefix-minimum values in rank order."""
    ranks = {}
    codes = []
    for x in state[1:]:
        if x < ABOVE:
            ranks[x] = len(ranks)
        codes.append(ranks[x if x < ABOVE else x - ABOVE])
    return bytes(state[:1]) + bytes(codes), list(ranks)


def value_distributions(states):
    """{shape: [weight, {value: mult} per rank]} of value states: how many
    states have each shape, and per rank the values their prefix minima
    take."""
    out = {}
    for state, mult in states.items():
        shape, vals = shape_of(state)
        dist = out.setdefault(shape, [0] + [Counter() for _ in vals])
        dist[0] += mult
        for rank, v in enumerate(vals, 1):
            dist[rank][v] += mult
    return out


def unpack(vec, bits, top):
    """{value: count} of a packed vector with a bits-wide slot per value
    1..top; no bit may lie outside those slots."""
    mask = (1 << bits) - 1
    assert vec & mask == 0 and vec >> bits * (top + 1) == 0
    return Counter({v: c for v in range(1, top + 1) if (c := vec >> bits * v & mask)})


def unpacked_runs(runs, bits):
    """``runs[n][K]``, packed over a, as {(n, a, K): count}."""
    top = len(runs) - 1
    return {(n, a, K): c for n, row in enumerate(runs) for K, vec in enumerate(row)
            for a, c in unpack(vec, bits, top).items()}


def shape_levels(top):
    """The {shape: vector} levels of sizes 1..top that the count files, from
    the root down, each level merged whole."""
    bits = _slot_bits(top + 2)
    levels = [{bytes((1, 0)): [1, 1 << bits]}]  # the root
    arrays = _count_arrays(top + 2)
    for size in range(1, top):
        merged = {}
        for shape, st in levels[-1].items():
            _expand_state(shape, st, size, top + 2, *arrays, merged)
        levels.append(merged)
    return levels


def walk_tables(max_n):
    """The totals and the {(n, a, k): count} class counts of the
    node-by-node walk to size max_n."""
    totals = Counter({1: 1})
    classes = Counter()
    for n, a, k, _, _ in _walk(2, max_n):
        totals[n] += 1
        if a is not None:
            classes[(n, a, k)] += 1
    return totals, classes


class TestCountTables:
    def test_shapes_decode_to_the_value_states(self):
        # every (shape, vector) the count files for sizes <= 8, unpacked, is
        # the weight and the per-rank value distributions of the value states
        # that state_children builds, grouped by shape; ranks rise one at a
        # time, and the vector holds one int per rank
        bits = _slot_bits(10)
        values = value_levels(9)
        for size, level in enumerate(shape_levels(8), 1):
            got = {}
            for shape, st in level.items():
                i = -1
                for c in shape[1:]:
                    assert c <= i + 1, shape
                    i = max(i, c)
                assert len(st) == i + 2, shape
                got[shape] = [st[0]] + [unpack(vec, bits, 10) for vec in st[1:]]
            assert got == value_distributions(values[size - 1]), size
        assert sum(values[8].values()) == 94776  # the size-9 nodes, each once

    def test_grandchild_count_matches_the_two_level_expansion(self):
        # every shape of size <= 8, counted to max_n = size + 2 from its own
        # runs, against the children of its value states built one by one and
        # each child's children counted by a scan of that child; the packed
        # rows are unpacked to compare
        levels = shape_levels(8)
        for size, states in enumerate(value_levels(8), 1):
            bits = _slot_bits(size + 2)
            by_shape = {}
            for state, mult in states.items():
                by_shape.setdefault(shape_of(state)[0], Counter())[state] += mult
            assert by_shape.keys() == levels[size - 1].keys()
            for shape, group in by_shape.items():
                weight, *dists = value_distributions(group)[shape]
                st = [weight] + [sum(m << bits * v for v, m in dist.items())
                                 for dist in dists]
                got = _count_arrays(size + 2)
                _expand_state(shape, st, size, size + 2, *got, None)
                want = Counter()
                want_totals = [0] * (size + 3)
                for state, mult in group.items():
                    count_children_by_scan(state, size, mult, want, want_totals)
                    for child in state_children(state, size):
                        count_children_by_scan(child, size + 1, mult, want, want_totals)
                assert got[1] == want_totals, (size, shape)
                assert unpacked_runs(got[0], bits) == want, (size, shape)
        # count_tables(3) is the smallest count that takes the grandchild
        # route, straight from the root
        tables = count_tables(3)
        assert [tables[n].total for n in (1, 2, 3)] == [1, 2, 6]
        assert tables[3].counts == {(1, 1): 2, (1, 2): 1, (2, 1): 1}
        assert tables[2].counts == {(1, 1): 1}

    def test_against_filter_oracle(self, tables8):
        for n in range(1, 9):
            avoiders = filter_oracle(n, (1, 3, 2, 4))
            assert tables8[n].total == len(avoiders)
            by_class = {}
            for values in avoiders:
                cls = classify(Permutation(values))
                if cls is not None:
                    by_class[cls] = by_class.get(cls, 0) + 1
            assert tables8[n].counts == {(a, k): c for (a, k), c in by_class.items()}

    def test_known_small_tables(self, tables8):
        t4 = tables8[4]
        assert (t4.count(1, 1), t4.count(1, 2), t4.count(1, 3)) == (6, 4, 1)
        assert t4.count(2, 1) == 3
        t2 = tables8[2]
        assert t2.total == 2 and t2.counts == {(1, 1): 1}

    def test_partition_invariant(self, tables8):
        for n in range(2, 9):
            assert tables8[n].classified_total() == \
                tables8[n].total - tables8[n - 1].total

    def test_worker_counts_agree(self, tables11):
        redo = count_tables(11, workers=3)
        for n in range(1, 12):
            assert redo[n].total == tables11[n].total
            assert redo[n].counts == tables11[n].counts

    def test_split_count_is_byte_identical(self, monkeypatch):
        # n = 11 is past _SEED_SIZE + 1, so more than one worker splits the
        # seed level; the spy shows the Pool path ran
        real = enumeration._fan_out
        parts = []

        def spy(worker, roots, workers):
            out = real(worker, roots, workers)
            parts.append(len(out))
            return out

        monkeypatch.setattr(enumeration, "_fan_out", spy)
        texts = []
        for workers in (1, 2, 3):
            tables = count_tables(11, workers=workers)
            texts.append([tables[n].to_jsonl() for n in range(1, 12)])
        assert texts[0] == texts[1] == texts[2]
        assert parts[0] == 1 and parts[1] > 1 and parts[2] > 1

    def test_batch_size_keeps_the_tables(self, monkeypatch):
        # below the size-_SEED_SIZE states, one state per batch merges no two
        # states, and a batch larger than any level merges every level whole
        texts = []
        for batch in (1, _BATCH, 10 ** 9):
            monkeypatch.setattr(enumeration, "_BATCH", batch)
            texts.append([[table.to_jsonl() for table in count_tables(max_n).values()]
                          for max_n in range(1, 12)])
        assert texts[0] == texts[1] == texts[2]

    def test_contiguous_chunks_keep_neighbours_together(self):
        # two workers cut the roots into 2 * _CHUNKS_PER_WORKER runs
        parts = _fan_out(list, range(100), 2)
        assert len(parts) == 32
        assert sorted(x for part in parts for x in part) == list(range(100))
        assert all(part == list(range(part[0], part[-1] + 1)) for part in parts)

    def test_states_match_the_walk(self):
        # the node-by-node walk, tallied by class, is the oracle for n <= 10
        totals, classes = walk_tables(10)
        for max_n in range(1, 11):
            tables = count_tables(max_n)
            assert sorted(tables) == list(range(1, max_n + 1))
            for n, table in tables.items():
                assert table.n == n and table.total == totals[n]
                assert table.counts == {(a, k): c for (m, a, k), c in classes.items()
                                        if m == n}

    def test_a_slot_too_narrow_carries_and_the_walk_catches_it(self, monkeypatch):
        # a slot of b bits holds counts below 2^b; |S_n(1324)| <= 16^n, so
        # the width holds every slot up to COUNT_MAX_N and any n count_tables
        # takes. At 3 bits the slots carry into their neighbours long before
        # n = 9: the totals, which are not packed, stay right, and the class
        # counts no longer match the walk
        assert 16 ** COUNT_MAX_N < 1 << _slot_bits(COUNT_MAX_N)
        assert all(16 ** n < 1 << _slot_bits(n) for n in range(1, 256))
        totals, classes = walk_tables(9)
        monkeypatch.setattr(enumeration, "_slot_bits", lambda max_n: 3)
        tables = count_tables(9)
        assert all(tables[n].total == totals[n] for n in range(1, 10))
        assert {(n, a, k): c for n, table in tables.items()
                for (a, k), c in table.counts.items()} != classes

    def test_states_match_the_lex_generator(self):
        tables = count_tables(9)
        for n in range(1, 10):
            avoiders = list(generate_avoiders(n))
            assert tables[n].total == len(avoiders)
            assert tables[n].counts == Counter(
                classify(p) for p in avoiders if p.values[0] != n)

    def test_totals_to_twelve_are_oeis_a061552(self):
        a061552 = [1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112,
                   25431452]
        tables = count_tables(12)
        assert [tables[n].total for n in range(1, 13)] == a061552

    def test_no_merge_dict_holds_more_than_a_batch(self, monkeypatch):
        # with one worker every level is merged in batches, so a merge dict
        # holds the children of at most _BATCH shapes, each with at most
        # size + 1 children, however large the level; each child's vector
        # holds its weight and one int per rank, at most one more than its
        # parent's, and a child of size s has at most s ranks
        held = Counter()
        calls = Counter()
        batch = {"merged": None}
        real = enumeration._expand_state

        def spy(shape, st, size, max_n, runs, totals, merged):
            real(shape, st, size, max_n, runs, totals, merged)
            calls[size] += 1
            if size + 2 < max_n:
                if merged is not batch["merged"]:  # a batch's calls share its dict
                    batch.update(merged=merged, shapes=0, ints=0)
                batch["shapes"] += 1
                batch["ints"] += (len(st) + 1) * (size + 1)
                assert batch["shapes"] <= _BATCH
                assert sum(map(len, merged.values())) <= batch["ints"]
                assert all(len(vec) <= size + 2 for vec in merged.values())
                held[size] = max(held[size], len(merged))

        monkeypatch.setattr(enumeration, "_expand_state", spy)
        assert count_tables(11)[11].total == 3824112
        assert all(n <= _BATCH * (size + 1) for size, n in held.items())
        # the deeper levels were too large for one batch
        assert max(calls.values()) > _BATCH

    def test_key_bounds(self, tables8):
        for n in range(1, 9):
            for (a, k), c in tables8[n].counts.items():
                assert a >= 1 and k >= 1 and a + k <= n and c > 0

    def test_bad_argument(self):
        with pytest.raises(ValueError):
            count_tables(0)
        with pytest.raises(ValueError):
            count_tables(5, workers=-1)


class TestCache:
    def test_roundtrip_and_byte_identity(self, tmp_path):
        first = count_tables(6, cache_dir=tmp_path)
        blobs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(blobs) == 6
        # a cache hit must match recomputation byte for byte
        again = count_tables(6, cache_dir=tmp_path)
        for n in range(1, 7):
            assert again[n].total == first[n].total
            assert again[n].counts == first[n].counts
        other = tmp_path / "redo"
        count_tables(6, cache_dir=other)
        for name, blob in blobs.items():
            assert (other / name).read_bytes() == blob

    @staticmethod
    def read_back(cache_dir, n, text):
        """Table n as count_tables(n) reads it from a cache whose size-n
        file holds text and whose smaller sizes are intact."""
        for path, table in zip(_cache_paths(cache_dir, n), count_tables(n).values()):
            Path(path).write_text(text if table.n == n else table.to_jsonl())
        return count_tables(n, cache_dir=cache_dir)[n]

    @staticmethod
    def refused(cache_dir, n):
        """The start of the ValueError that refuses the size-n cache file."""
        return re.escape(f"cache file {_cache_paths(cache_dir, n)[n - 1]} (n={n}) "
                         "is not a count table: ")

    def test_jsonl_schema(self, tmp_path):
        table = ClassCountTable(n=4, total=23, counts={(1, 1): 6, (1, 3): 1, (3, 1): 4})
        text = table.to_jsonl()
        assert text == "[4,23]\n[4,1,6,0,1]\n[4,3,4]\n"
        assert self.read_back(tmp_path, 4, text) == table

    def test_malformed_text_raises(self, tmp_path):
        with pytest.raises(ValueError, match=self.refused(tmp_path, 3) + "mixed sizes"):
            self.read_back(tmp_path, 3, "[3,6]\n[4,1,2,1]\n")
        with pytest.raises(ValueError, match="no total"):
            self.read_back(tmp_path, 3, "[3,1,2,1]\n")
        with pytest.raises(ValueError, match="one record per line"):
            self.read_back(tmp_path, 3, "[3,6], [3,1,2,1]\n")
        # a file cut inside a line fails; one cut at a line boundary is a
        # shorter table
        text = count_tables(5)[5].to_jsonl()
        for cut in range(1, len(text)):
            if text[cut - 1] not in "]\n":
                with pytest.raises(ValueError):
                    self.read_back(tmp_path, 5, text[:cut])

    @pytest.mark.parametrize("record", ['[3,1,"2",1]', "[3,1,1.5,1]", "[3,1,true,1]",
                                        '[3,"6"]', "[3,1,null]", '{"n":3,"total":"6"}',
                                        "[3]", "3"])
    def test_a_record_that_is_not_a_list_of_ints_names_its_file(self, tmp_path, record):
        # a count that is a string, a float or a bool among them
        with pytest.raises(ValueError, match=self.refused(tmp_path, 3) + "the record"):
            self.read_back(tmp_path, 3, f"[3,6]\n{record}\n")

    def test_blank_lines_are_skipped(self, tmp_path):
        fresh = count_tables(6, cache_dir=tmp_path)
        victim = Path(_cache_paths(tmp_path, 6)[4])
        victim.write_text("\n" + victim.read_text().replace("\n", "\n \n\n"))
        assert count_tables(6, cache_dir=tmp_path) == fresh

    def test_missing_size_rewrites_the_cache_as_fresh(self, tmp_path):
        fresh, gap = tmp_path / "fresh", tmp_path / "gap"
        count_tables(6, cache_dir=fresh)
        count_tables(6, cache_dir=gap)
        # a size is missing, so no file is parsed, not even a damaged one
        paths = _cache_paths(gap, 6)
        os.unlink(paths[3])
        Path(paths[1]).write_text("damaged")
        count_tables(6, cache_dir=gap)

        def blobs(d):
            return {p.name: p.read_bytes() for p in d.iterdir()}

        assert len(blobs(fresh)) == 6
        assert blobs(gap) == blobs(fresh)

    def test_an_earlier_format_is_a_miss(self, tmp_path):
        # the files of the earlier format, one JSON object per class with
        # decimal-string counts, are left alone and the tables recounted
        fresh = count_tables(6, cache_dir=tmp_path / "fresh")
        old = tmp_path / "old"
        old.mkdir()
        for n, table in fresh.items():
            records = [{"n": n, "total": str(table.total)}] + [
                {"n": n, "a": a, "k": k, "count": str(c)}
                for (a, k), c in sorted(table.counts.items())]
            (old / f"class-counts-n{n:02d}.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in records))
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        assert count_tables(6, cache_dir=old) == fresh
        after = {p.name: p.read_bytes() for p in old.iterdir()}
        assert after == before | {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
        assert len(after) == 12

    def test_records_of_another_size_name_their_file(self, tmp_path):
        count_tables(6, cache_dir=tmp_path)
        three = Path(_cache_paths(tmp_path, 3)[2])
        own = three.read_text()
        four = Path(_cache_paths(tmp_path, 4)[3]).read_text()
        # the whole file of another size, then one stray record among its own
        for text in (four, own + four.splitlines(keepends=True)[1]):
            three.write_text(text)
            with pytest.raises(ValueError, match=self.refused(tmp_path, 3) +
                               "mixed sizes, a record of n=4"):
                count_tables(6, cache_dir=tmp_path)

    def test_line_cut_mid_record_names_its_file(self, tmp_path):
        count_tables(6, cache_dir=tmp_path)
        victim = Path(_cache_paths(tmp_path, 6)[4])
        lines = victim.read_text().splitlines(keepends=True)
        for cut in (lines[:2] + [lines[2][:9]] + lines[3:],  # inside a line
                    lines[:-1] + [lines[-1][:-3]]):  # the file's end
            victim.write_text("".join(cut))
            with pytest.raises(ValueError, match=self.refused(tmp_path, 5)):
                count_tables(6, cache_dir=tmp_path)

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            count_tables(3, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestWalk:
    def test_one_pass_matches_lex_generator(self):
        walked = Counter((n, a, k, v) for n, a, k, v, _ in _walk(2, 8))
        assert walked == lex_members(range(2, 9))

    def test_bounds_are_the_longest_132_free_prefixes(self, tables8):
        # every member carries its bound, those of the last size included,
        # and so do the members of a filtered walk
        nodes = 0
        for _, _, _, v, L in _walk(1, 8):
            nodes += 1
            assert L == longest_132_free_prefix(v), v
        # every avoider of size 2..8 is a node with a bound
        assert nodes == sum(tables8[n].total for n in range(2, 9))
        for walk in (_walk(3, 9, 2), _walk(2, 9, 1, 1)):
            for _, _, _, v, L in walk:
                assert L == longest_132_free_prefix(v), v

    @pytest.mark.parametrize("a,k", [(1, 1), (2, None), (2, 3)])
    def test_filters_match_lex_generator(self, a, k):
        walked = Counter((n, ca, ck, v) for n, ca, ck, v, _ in _walk(2, 8, a, k))
        assert walked == lex_members(range(2, 9), a, k)

    @pytest.mark.parametrize("chained", [False, True])
    def test_class_prune_keeps_the_filtered_walk(self, chained):
        # a given prunes the walk to the subtrees that can hold class a; the
        # members and their order must be those of the unfiltered walk, also
        # below the size-7 roots of the parallel split
        def walk(max_n, a=None, k=None):
            roots = _tree_roots(max_n) if chained else [(enumeration._ROOT, max_n)]
            return [m for node, top in roots for m in _walk(2, top, a, k, root=node)]

        for n in ((9,) if chained else range(2, 10)):
            every = walk(n)
            for a in range(1, n):
                for k in (None, *range(1, n)):
                    assert walk(n, a, k) == [m for m in every if m[1] == a and
                                             (k is None or m[2] == k)], (n, a, k)

    def test_pruned_nodes_hold_no_class_members(self):
        # the walk filtered to a = 2 does not expand a node whose bound L is
        # at most the index of 2; the unfiltered walk below each such
        # size-7 node with 2 before 1 must meet no class-2 member
        pruned = [(v, L) for _, _, _, v, L in _walk(7, 7)
                  if v.index(2) < v.index(1) and L <= v.index(2)]
        assert pruned
        below = [m for node in pruned for m in _walk(8, 10, root=node)]
        assert below
        assert all(a != 2 for _, a, _, _, _ in below)

    def test_roots_up_to_the_seed_size_are_the_tree_root(self, tables8):
        for n in range(1, _SEED_SIZE + 1):
            assert _tree_roots(n) == [(enumeration._ROOT, n)]

    @pytest.mark.parametrize("a", [None, 1, 2, 3])
    def test_roots_past_the_seed_size_are_the_seed_avoiders(self, a):
        # the tree root walked to the seed size, then every size-7 avoider
        # a walk for class a would enter, each once, with its bound
        seeds = [(p.values, longest_132_free_prefix(p.values))
                 for p in generate_avoiders(_SEED_SIZE)]
        want = sorted(node for node in seeds if not _outside_class(*node, a))
        for n in (8, 9, 11):
            roots = _tree_roots(n, a)
            assert roots[0] == (enumeration._ROOT, _SEED_SIZE)
            assert all(top == n for _, top in roots[1:])
            assert sorted(node for node, _ in roots[1:]) == want, (n, a)

    def test_thm3_at_the_seed_size_keeps_its_reports(self, tables8, monkeypatch):
        # the same thm3 reports as with every size-7 node listed as a root
        # too, each walking nothing
        def reports():
            return [dict(r.to_json_dict(), millis=0)
                    for r in verify.suite_thm3(_SEED_SIZE, _SEED_SIZE - 1, tables8)]

        alone = reports()
        monkeypatch.setattr(verify, "_tree_roots", lambda max_n, a=None: [
            (enumeration._ROOT, max_n)] + [
            ((v, L), max_n) for _, _, _, v, L in _walk(max_n, max_n)])
        assert reports() == alone
        assert all(r["pass"] for r in alone)

    def test_fan_out_parts_cover_the_tree_once(self):
        # n = 9 is past _SEED_SIZE + 1, so two workers split the tree
        assert 9 > _SEED_SIZE + 1
        parts = _fan_out(members_below, _tree_roots(9), 2)
        assert len(parts) > 1
        assert sum(parts, Counter()) == lex_members(range(2, 10))

    def test_only_a_fan_out_loads_the_pool_module(self):
        # a fresh interpreter, so no earlier test has loaded the module: a
        # serial verify never imports multiprocessing, a two-worker count does
        script = (
            "import contextlib, io, sys\n"
            "from permpos import cli\n"
            "from permpos.enumeration import count_tables\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['verify', '--suite', 'all', '--max-n', '8', '--threads', '1'])\n"
            "print('multiprocessing' in sys.modules)\n"
            "count_tables(9, workers=2)\n"
            "print('multiprocessing' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(enumeration.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_partition_does_not_depend_on_the_worker_count(self, monkeypatch):
        # the worker count chooses where the roots run, never which roots
        # the count and the codec scan cut the tree into
        real = enumeration._fan_out
        seen = {}

        def spy(worker, roots, workers):
            roots = list(roots)
            seen.setdefault(workers, []).append(roots)
            return real(worker, roots, workers)

        monkeypatch.setattr(enumeration, "_fan_out", spy)
        monkeypatch.setattr(verify, "_fan_out", spy)
        for workers in (1, 2):
            tables = count_tables(10, workers=workers)
            verify.suite_thm3(10, 9, tables, workers=workers)
            verify.suite_prop1(10, tables, workers=workers)
        assert len(seen[1]) == len(seen[2]) == 3
        assert seen[1] == seen[2]

    def test_every_codec_chunk_holds_class_members(self):
        # the a = 2 roots leave out the size-7 nodes the a = 2 walk does not
        # enter, so every chunk two workers get holds a class-2 member; the
        # unfiltered roots leave some chunks without one
        def idle_chunks(roots):
            return sum(not any(next(_walk(3, top, 2, root=node), None) for node, top in chunk)
                       for chunk in _fan_out(list, roots, 2))

        assert idle_chunks(_tree_roots(11, 2)) == 0
        assert idle_chunks(_tree_roots(11)) > 0

    def test_every_class_root_holds_class_members(self):
        # besides the size-7 nodes with a smaller value before 2, the a = 2
        # roots leave out the 160 of the other 1,588 whose bound L is at
        # most the index of 2, so every root left holds a class-2 member
        roots = _tree_roots(11, 2)
        assert len(roots) == 1 + 1428
        assert all(next(_walk(3, top, 2, root=node), None) for node, top in roots)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_class_roots_keep_the_codec_reports(self, tables11, monkeypatch, workers):
        # the thm3 reports are those of the unfiltered roots, which the a = 2
        # walk leaves at once
        def reports():
            return [dict(r.to_json_dict(), millis=0)
                    for r in verify.suite_thm3(10, 9, tables11, workers=workers)]

        filtered = reports()
        monkeypatch.setattr(verify, "_tree_roots", lambda max_n, a=None: _tree_roots(max_n))
        assert reports() == filtered
        assert all(r["pass"] for r in filtered)


class TestMemberStreams:
    def test_members_match_generate(self):
        for n in range(2, 8):
            want = {p.values for p in generate_avoiders(n)
                    if classify(p) == PositionalClass(1, 1)}
            got = {p.values for p in iter_class_members(n, 1, 1)}
            assert got == want

    def test_primitive_counts_match_closed_form(self, tables8):
        f = f_series(8)
        for n in range(2, 9):
            assert tables8[n].count(1, 1) == f.coeff(n - 1)

    def test_reverse_complement_fixes_a1_classes(self):
        from permpos.permutations import reverse_complement

        for n in range(2, 10):
            for k in range(1, n):
                for p in iter_class_members(n, 1, k):
                    assert classify(reverse_complement(p)) == PositionalClass(1, k)
