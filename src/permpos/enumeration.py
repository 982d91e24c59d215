"""Brute-force enumeration oracles for 1324-avoiding permutations.

Two independent generation routes and one counting route are provided and
cross-checked in the test suite:

* :func:`generate_avoiders` backtracks position by position, trying values
  in increasing order and pruning every prefix that already contains the
  pattern, so avoiders of any pattern stream out in lexicographic order.

* The generating tree: every 1324-avoider of size n+1 arises exactly once
  by inserting the new maximum n+1 into an avoider of size n, and the
  insertion position is legal iff the prefix strictly before it avoids
  132. Carrying the length L of the longest 132-free prefix along the tree
  makes the child set {1, ..., L+1} and the child's own bound computable
  in O(n), so visiting a node costs O(n) total. :func:`_walk` is the one
  stack walk over the tree that streams members (with their class and
  bound) for every caller: :func:`iter_class_members`, the seed list and
  the verification suites.

* :func:`count_tables` counts the tree without visiting it node by node:
  nodes with alike subtrees merge into one state (Marinov & Radoicic,
  "Counting 1324-avoiding permutations", EJC 2003). A state is a shape, a
  node's bound L and its first L entries coded by prefix-minimum rank,
  with a vector of per-rank value counts, each packed into one int, exact
  since |S_n(1324)| <= 16^n; the count reads one rank's value at a time,
  so the subtrees of one shape are expanded once, whatever their values.
  The shapes of a level are merged in sorted batches, so equal shapes,
  which come from parents with a common prefix, meet in one batch while
  memory stays flat; the last two levels are counted from each shape's
  prefix-minimum runs without building them. The README gives the
  measured times.

Both sweeps cut the tree at size min(_SEED_SIZE, max_n), whatever the
worker count, and :func:`_fan_out`, the one parallel helper, runs a
module-level worker over chunks of the nodes or count states of that size.
Parts merge by addition, so the worker count chooses where the work runs,
never what is computed. The pool module is loaded only when a stage runs on
more than one worker, so a serial run never imports :mod:`multiprocessing`.

Class counts are exact Python integers end to end; tables can be persisted
as JSON-lines, one file per size: a line [n, total], then one row
[n, a, c_1, ..., c_K] per a of bare JSON integers, which Python's json reads
exactly at any width.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .permutations import (
    PATTERN_1324,
    DomainError,
    Permutation,
    _containment_scan,
    _word_contains_1324,
)

DESK_MAX_N = 11
DESK_OPT_IN_MAX_N = 12
# count tables alone, without walking the members; the README gives the
# n = 15 time and peak RSS
COUNT_MAX_N = 15
_SEED_SIZE = 7  # size of the subtree roots that partition every sweep
_BATCH = 384  # count shapes expanded into one merge dict
_CHUNKS_PER_WORKER = 16  # fan-out chunks per worker, to shorten the idle tail
_ROOT = ((1,), 1)  # the tree's root node: the avoider 1 with bound L = 1


class PositionalClass(NamedTuple):
    """Class (a, k): value a sits k positions left of the maximum and every
    value below a sits right of the maximum."""

    a: int
    k: int


def classify(p: Permutation) -> Optional[PositionalClass]:
    """Positional class of a 1324-avoider, or None if it starts with its
    maximum (or n <= 1).

    a is the smallest value left of the maximum; every value below a is
    then automatically right of the maximum. k is the position distance
    from a to the maximum. Raises DomainError unless p avoids 1324.
    """
    if _word_contains_1324(p.values):
        raise DomainError(f"{p!r} does not avoid 1324")
    cls = _class_raw(p.values)
    return None if cls is None else PositionalClass(*cls)


def _class_raw(values: Sequence[int]) -> Optional[tuple[int, int]]:
    """(a, k) of a permutation of 1..n given by its values, or None if it
    starts with its maximum (or n <= 1): a is the smallest value left of n
    and k its distance to n. Runs no 1324 scan; the class checks outside
    the generating tree and the codec's decoder read this one."""
    n = len(values)
    if n <= 1 or values[0] == n:
        return None
    top = values.index(n)
    a = min(values[:top])
    return a, top - values.index(a)


# -- lexicographic backtracking generator -----------------------------------


def generate_avoiders(n: int, pattern: Permutation = PATTERN_1324) -> Iterator[Permutation]:
    """Yield the size-n avoiders of ``pattern``, each once, in lexicographic
    order of one-line notation.

    A prefix is extended only while it avoids the pattern, so the explored
    tree is exactly the set of avoiding prefixes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    pat = pattern.values
    # a prefix has distinct values, so the pattern's scan applies directly
    contains = _containment_scan(pat)
    prefix: list[int] = []
    used = [False] * (n + 1)

    def rec(depth: int) -> Iterator[Permutation]:
        if depth == n:
            yield Permutation(tuple(prefix), validate=False)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            prefix.append(v)
            if len(prefix) < len(pat) or not contains(prefix):
                used[v] = True
                yield from rec(depth + 1)
                used[v] = False
            prefix.pop()

    yield from rec(0)


# -- generating-tree sweeps --------------------------------------------------
#
# A node is (sig, L): sig an avoider as a list/tuple, L the length of its
# longest 132-avoiding prefix. Children insert M = len(sig)+1 at positions
# p = 1..L+1. For the child made at position p:
#
#   * its class is (a, k) = (pm, p - pmpos) where pm is the minimum of the
#     first p-1 entries of sig and pmpos its position (p = 1 children start
#     with the maximum and carry no class);
#   * its own bound Lc is the first position q in p..L with sig(q) > pm, or
#     L+1 if there is none -- the inserted maximum over an earlier smaller
#     entry turns any later larger entry into a 132. Every site finds it
#     with one scan, Lc = p; while Lc <= L and sig(Lc) < pm: Lc += 1, and
#     _expand_state and _count_grandchildren run it on state codes.
#
# With a class filter a, a node of size >= a is not expanded when its bound
# L is at most the 0-based index of a: its first L + 1 entries hold a 132
# ending at or before a. Every descendant keeps that 132 before a and puts
# its maximum no later than the 132's end, so left of a; none has a left of
# its maximum, so none is in class a.


def _walk(min_n: int, max_n: int, a: Optional[int] = None, k: Optional[int] = None,
          root: tuple[tuple[int, ...], int] = _ROOT
          ) -> Iterator[tuple[int, Optional[int], Optional[int], tuple[int, ...], Optional[int]]]:
    """Yield (n, a, k, values, L) for the descendants of ``root`` of size
    min_n..max_n, in tree order (not lexicographic).

    With a or k given, only members of a matching class are yielded, and
    the filter runs before the member's tuple is built. Without filters,
    the members that start with their maximum are yielded too, with a and k
    None. L is the member's bound.

    With a given, only subtrees that can hold class a are walked. A class-a
    member has a before every smaller value, and inserting a maximum keeps
    the order of the values below it, so each of its ancestors of size a or
    more has a before every smaller value too. The size-a ancestor is then
    the child that starts with a, the only size-a child pushed; a root
    that fails _outside_class is not walked at all.
    """
    every = a is None and k is None
    sig = root[0]
    if _outside_class(*root, a):
        return
    stack = [root] if len(sig) < max_n else []
    while stack:
        sig, L = stack.pop()
        child_n = len(sig) + 1
        # _outside_class's bound test; every pushed node passes its other
        if a is not None and child_n > a and L <= sig.index(a):
            continue
        deeper = child_n < max_n
        emit = child_n >= min_n
        if deeper or (emit and every):
            child = (child_n,) + sig
            if emit and every:
                yield child_n, None, None, child, L + 1
            if deeper:
                stack.append((child, L + 1))
        if child_n == a:
            continue
        pm = sig[0]
        pmpos = 1
        for p in range(2, L + 2):
            v = sig[p - 2]
            if v < pm:
                pm = v
                pmpos = p - 1
            hit = emit and (a is None or pm == a) and (k is None or p - pmpos == k)
            if not (deeper or hit):
                continue
            Lc = p
            while Lc <= L and sig[Lc - 1] < pm:
                Lc += 1
            child = sig[:p - 1] + (child_n,) + sig[p - 1:]
            if hit:
                yield child_n, pm, p - pmpos, child, Lc
            if deeper:
                stack.append((child, Lc))


def _outside_class(sig: tuple[int, ...], L: int, a: Optional[int]) -> bool:
    """True when no descendant of the node (sig, L) can be in class a."""
    return a is not None and len(sig) >= a and (
        L <= sig.index(a) or min(sig[:sig.index(a) + 1]) < a)


def _split_workers(workers: int, max_n: int) -> int:
    """Worker count for a stage over the tree to size max_n: ``workers``, 0
    meaning one per CPU, or one when the tree is no deeper than
    _SEED_SIZE + 1, too small for a Pool to pay off. Raises ValueError for
    a negative count."""
    if workers < 0:
        raise ValueError("worker count must be >= 0")
    if max_n <= _SEED_SIZE + 1:
        return 1
    return workers or os.cpu_count() or 1


def _tree_roots(max_n: int, a: Optional[int] = None) -> list:
    """(node, top) roots whose walks to size top together cover the tree to
    size max_n, each member once, in a fixed order: the root walked to size
    s = min(_SEED_SIZE, max_n), then each size-s node, if s < max_n, to max_n.
    With a given, the size-s nodes _walk would not enter for a are left out."""
    seed = min(_SEED_SIZE, max_n)
    if seed == max_n:
        return [(_ROOT, max_n)]
    return [(_ROOT, seed)] + [((v, L), max_n) for _, _, _, v, L in _walk(seed, seed)
                              if not _outside_class(v, L, a)]


def _fan_out(worker: Callable[[Iterable], object], roots: Iterable,
             workers: int) -> list:
    """Run ``worker(chunk)`` over chunks of ``roots`` and return the parts,
    one per chunk, in completion order.

    A root is whatever the worker expands: a (node, top) generating-tree
    seed from _tree_roots, or a (shape, vector) count state of the seed
    level. With one worker that is a single call in this process on
    ``roots`` as given, so an iterable is never listed. Otherwise the roots
    are listed and cut into about _CHUNKS_PER_WORKER chunks per worker, so
    no worker idles on a long tail, and run in one Pool; ``worker`` must
    then pickle, as a module-level function or a partial of one. The pool
    module is loaded on the first fan-out to more than one worker. Each
    chunk is a run of neighbouring roots, so sorted count shapes that share
    a prefix, and merge below, stay in one chunk. Chunks are disjoint, so
    callers that merge the parts by addition get the same result for every
    worker count.
    """
    if workers <= 1:
        return [worker(roots)]
    roots = list(roots)
    nchunks = min(len(roots), workers * _CHUNKS_PER_WORKER)
    cuts = [len(roots) * i // nchunks for i in range(nchunks + 1)]
    chunks = [roots[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    from multiprocessing import Pool  # here, so a serial run never loads it
    with Pool(workers) as pool:
        return list(pool.imap_unordered(worker, chunks))


def _add_counts(into: dict, part: dict) -> None:
    for key, c in part.items():
        into[key] = into.get(key, 0) + c


# -- state-merged counting ---------------------------------------------------
#
# A node's subtree depends only on its size, its bound L and its first L
# entries. Entry L + 1 is never read: the bound scan above _walk stops at
# L, and entry L + 1, above the running minimum or not, gives Lc = L + 1;
# and a child's first Lc entries are the new maximum and entries before Lc.
# Of those the rule above reads each prefix minimum's value and, for any
# other entry x, which prefix minima lie below x. The shape is the bytes L,
# then the L entries, coded by rank: the prefix minima are ranks 0, 1, ...
# from the left, a prefix minimum is coded as its rank, and any other x as
# the rank of the leftmost prefix minimum below x. Under a running minimum
# of rank i, a later entry is a new prefix minimum iff its code is above i,
# and lies above the running minimum iff its code is <= i; the maximum
# inserted at p >= 2 is coded 0.
#
# The count never reads the values of two ranks together: a tally reads one
# rank's value, the child at p >= 2 keeps the ranks left of its bound, the
# child at p = 1 puts its maximum in front as rank 0, and merging adds. So a
# state is a shape with a vector [weight, vec_0, ..., vec_{r-1}]: the number
# of merged nodes, and per rank j one int with a _slot_bits(max_n)-bit slot
# per value v, holding how many of those nodes have value v at rank j. A
# tally of rank j's K children is one addition of vec_j into runs[n][K], an
# int packed over a, and the tables are unpacked once, at the end. A slot
# counts nodes of one size n <= max_n, fewer than |S_n(1324)| <= 16^n
# (Claesson, Jelinek & Steingrimsson, JCTA 2012, with Arratia's
# |S_n(p)| <= L(p)^n), so 4 * max_n + 8 bits never carry into the next.
#
# A child at p >= 2 copies its parent's codes 1..p-1, so equal shapes come
# from parents with a common prefix. The shapes of a level are therefore
# taken in order of their entries, in batches of _BATCH; the children of a
# batch are filed in one dict, sorted in turn and merged the same way one
# level down. A duplicate split across two batches is expanded twice, which
# costs time, not exactness; each level holds at most one batch's children,
# whatever max_n.
#
# The classes of a node's children come from its runs: the prefix minima
# among entries 1..L, each followed by the children up to the next one (or
# to L + 1) in its class. A shape of size max_n - 2 counts its grandchildren
# from its own runs, without building its children. In the child that
# inserts the maximum at p >= 2, the prefix minima are the shape's, those at
# or right of p one place later, up to the child's bound Lc. So its runs are
# the shape's, the run over p one longer and the last run cut at Lc. An
# entry p that is not a prefix minimum lies above the running minimum pm,
# and the maximum before it makes pm, M, entry p a 132: Lc = p. Only a
# prefix minimum at p needs the scan for the first later entry above pm.
# The child at p = 1 adds a run of length 1 for its maximum to the shape's
# runs, whole; the child at p = L + 1 has Lc = L + 1 either way.

_SHIFT = bytes(range(1, 256)) + bytes(1)  # translate table: each code one rank later


def _slot_bits(max_n: int) -> int:
    """Bits per value slot of a packed count vector, for a count to size
    max_n: 16^max_n fits with room to spare (see above)."""
    return 4 * max_n + 8


def _expand_state(shape: bytes, st: list, size: int, max_n: int, runs: list,
                  totals: list[int], merged: dict) -> None:
    """Count the children of a shape of the given size, once per node its
    vector ``st`` merges: into ``totals``, and into ``runs[n][K]`` in the
    slot of each prefix minimum a followed by K children of class a. At
    size max_n - 2, count the grandchildren too, from the shape's own runs.
    Otherwise, below size max_n, file each child's vector in ``merged``
    under its shape."""
    L = shape[0]
    child_n = size + 1
    weight = st[0]
    totals[child_n] += (L + 1) * weight
    # the prefix minima's positions: rank i first occurs at its own
    at = [shape.index(i, 1) for i in range(len(st) - 1)]
    at.append(L + 1)
    row = runs[child_n]
    for x, y, vec in zip(at, at[1:], islice(st, 1, None)):
        row[y - x] += vec
    if child_n == max_n:
        return
    if child_n + 1 == max_n:
        _count_grandchildren(shape, st, at, max_n, runs, totals)
        return
    key = bytes((L + 1, 0)) + shape[1:].translate(_SHIFT)
    vec = [weight, weight << _slot_bits(max_n) * child_n]
    vec += islice(st, 1, None)
    into = merged.get(key)
    merged[key] = vec if into is None else list(map(add, into, vec))
    i = 0  # the rank of the running minimum of entries 1..p-1
    for p in range(2, L + 2):
        if shape[p - 1] > i:
            i += 1
        Lc = p
        while Lc <= L and shape[Lc] > i:
            Lc += 1
        key = bytes((Lc,)) + shape[1:p] + b"\0" + shape[p:Lc]
        into = merged.get(key)
        # the weight and the vectors of the prefix minima left of Lc
        merged[key] = (st[:bisect_left(at, Lc) + 1] if into is None
                       else list(map(add, into, st)))


def _count_grandchildren(shape: bytes, st: list, at: list[int], max_n: int,
                         runs: list, totals: list[int]) -> None:
    """Count the size-max_n grandchildren of a shape of size max_n - 2, once
    per node its vector ``st`` merges, into ``totals`` and ``runs``, from
    the shape's runs (see above); ``at`` lists its prefix minima and then
    L + 1. Rank j's vector is added once per child that cuts its run, and
    times the number of children that keep the run whole or one longer."""
    L = shape[0]
    weight = st[0]
    r = len(at) - 1
    full = [0] * (r + 1)  # full[J]: children whose runs before run J are whole
    longer = [0] * r  # longer[i]: of those, children whose run i is one longer
    row = runs[max_n]
    full[r] += 1  # p = 1
    row[1] += weight << _slot_bits(max_n) * (max_n - 1)
    full[r - 1] += 1  # p = L + 1
    row[L + 2 - at[r - 1]] += st[r]
    total = 2 * (L + 2)
    i = 0  # the rank of the last prefix minimum left of p
    for p in range(2, L + 1):
        if shape[p] <= i:  # above the running minimum: Lc = p
            full[i] += 1
            row[p + 1 - at[i]] += st[i + 1]  # run i cut at p
            total += p + 1
            continue
        Lc = p + 1
        while Lc <= L and shape[Lc] > i:
            Lc += 1
        J = bisect_left(at, Lc) - 1  # the last prefix minimum left of Lc
        longer[i] += 1
        full[J] += 1
        row[Lc - at[J]] += st[J + 1]  # run J, one place later, cut at Lc
        total += Lc + 1
        i += 1
    totals[max_n] += total * weight
    whole = 0
    for j in range(r - 1, -1, -1):
        whole += full[j + 1]
        vec = st[j + 1]
        K = at[j + 1] - at[j]
        more = longer[j]
        row[K] += (whole - more) * vec
        if more:
            row[K + 1] += more * vec


def _count_arrays(max_n: int) -> tuple[list, list[int]]:
    """Zeroed ``runs[n][K]``, each packed over a, and ``totals[n]`` for
    sizes up to max_n."""
    return [[0] * (max_n + 2) for _ in range(max_n + 1)], [0] * (max_n + 1)


def _entries(item: tuple[bytes, list]) -> bytes:
    """Sort key of a (shape, vector) item: the shape's entries."""
    return item[0][1:]


def _merge_count(states: Iterable, size: int, max_n: int, runs: list,
                 totals: list[int]) -> None:
    """Count the tree below (shape, vector) pairs of the given size, taken
    in sorted order, into ``runs`` and ``totals``: each batch of _BATCH
    shapes files its children in one dict, which is merged the same way one
    level down."""
    states = iter(states)
    while batch := list(islice(states, _BATCH)):
        merged: dict = {}
        for shape, st in batch:
            _expand_state(shape, st, size, max_n, runs, totals, merged)
        if merged:
            # the shapes of size max_n - 2 file no children, so need no order
            _merge_count(merged.items() if size + 3 == max_n
                         else sorted(merged.items(), key=_entries),
                         size + 1, max_n, runs, totals)


def _count_worker(size: int, max_n: int, roots: Iterable) -> tuple[list, list[int]]:
    """Count the tree to size max_n below sorted (shape, vector) roots of
    the given size; a _fan_out worker once size and max_n are bound. Returns
    the chunk's runs and totals."""
    runs, totals = _count_arrays(max_n)
    _merge_count(roots, size, max_n, runs, totals)
    return runs, totals


# -- exact class-count tables ------------------------------------------------


@dataclass
class ClassCountTable:
    """Exact counts |S_{n,k}^{a<n}(1324)| for one size n, plus the total
    |S_n(1324)|. Keys satisfy a + k <= n; every avoider not starting with
    n appears in exactly one class."""

    n: int
    total: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def count(self, a: int, k: int) -> int:
        return self.counts.get((a, k), 0)

    def classified_total(self) -> int:
        return sum(self.counts.values())

    def to_jsonl(self) -> str:
        """The table as cache text: a line [n, total], then a line
        [n, a, c_1, ..., c_K] for each a with a class, in order of a, where
        c_k is the count of class (a, k) and K the largest k of such a class."""
        rows = [[self.n, self.total]]
        for a in sorted({a for a, _ in self.counts}):
            K = max(k for b, k in self.counts if b == a)
            rows.append([self.n, a, *(self.count(a, k) for k in range(1, K + 1))])
        return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)


_INT = {int}  # the types of a cache record's entries


def _parse_tables(texts: list[bytes], paths: Sequence[str]) -> list[ClassCountTable]:
    """Parse the to_jsonl texts of the sizes 1, 2, ... with one json.loads:
    each text's non-blank lines form one JSON array, and the texts an array
    of those. Each line must hold one record, a list of ints; every record
    of a text must name its size and each text needs a total record. A
    ValueError names the file at fault and its size; only after a failed
    parse is each text parsed alone, to find it."""
    def refuse(n: int, err: Exception) -> ValueError:
        return ValueError(f"cache file {paths[n - 1]} (n={n}) is not a count table: {err}")

    lines = [list(filter(bytes.strip, text.splitlines())) for text in texts]
    try:
        parsed = json.loads(b"[[" + b"],[".join(map(b",".join, lines)) + b"]]")
        if len(parsed) != len(texts):
            raise ValueError("a text closes its own array")
    except ValueError:
        for n, text_lines in enumerate(lines, 1):
            try:
                json.loads(b"[" + b",\n".join(text_lines) + b"]")
            except ValueError as err:
                raise refuse(n, err) from err
        raise
    tables = []
    for n, (records, text_lines) in enumerate(zip(parsed, lines), 1):
        try:
            if len(records) != len(text_lines):
                raise ValueError("it does not hold one record per line")
            total = None
            counts: dict[tuple[int, int], int] = {}
            for rec in records:
                if type(rec) is not list or set(map(type, rec)) != _INT or len(rec) < 2:
                    raise ValueError(f"the record {rec!r} is not a list of two or more ints")
                if rec[0] != n:
                    raise ValueError(f"mixed sizes, a record of n={rec[0]}")
                if len(rec) == 2:
                    total = rec[1]
                    continue
                a = rec[1]
                for k, c in enumerate(islice(rec, 2, None), 1):
                    if c:
                        counts[(a, k)] = c
            if total is None:
                raise ValueError("it has no total record")
        except ValueError as err:
            raise refuse(n, err) from err
        tables.append(ClassCountTable(n=n, total=total, counts=counts))
    return tables


def _cache_paths(cache_dir: str | os.PathLike, max_n: int) -> list[str]:
    """The cache file of each size 1..max_n, in order. The stem names the
    format, so the files of an earlier format are a miss, not an error."""
    stem = os.path.join(cache_dir, "class-counts-v2-n")
    return [f"{stem}{n:02d}.jsonl" for n in range(1, max_n + 1)]


def count_tables(max_n: int, workers: int = 1,
                 cache_dir: str | os.PathLike | None = None) -> dict[int, ClassCountTable]:
    """Exact class-count tables for every 1 <= n <= max_n, from one
    state-merged count of the generating tree.

    The levels to size s = min(_SEED_SIZE, max_n) are merged whole, and
    below the sorted shapes of size s each level is merged in sorted
    batches. Those shapes are counted in this process for one worker or
    max_n <= _SEED_SIZE + 1, otherwise split over ``workers`` processes (0
    means one per CPU) in contiguous runs; every worker count does the same
    work. With a cache directory, tables are loaded when every size is
    present, every file read in binary and all of them parsed at once, and
    persisted after recomputation; cache files are byte-identical to a
    fresh recomputation. A damaged cache file raises ValueError naming the
    file and its size.
    """
    if not 1 <= max_n < 256:
        raise ValueError("max_n must be in 1..255")
    workers = _split_workers(workers, max_n)
    if cache_dir is not None:
        paths = _cache_paths(cache_dir, max_n)
        texts = []
        try:
            for path in paths:
                with open(path, "rb", buffering=0) as f:
                    texts.append(f.read())
        except FileNotFoundError:
            pass  # a size is missing: every table is recomputed
        else:
            return dict(enumerate(_parse_tables(texts, paths), 1))

    runs, totals = _count_arrays(max_n)
    totals[1] = 1
    bits = _slot_bits(max_n)
    level = [(bytes((1, 0)), [1, 1 << bits])]  # the root: L = 1, the entry 1
    seed = min(_SEED_SIZE, max_n)
    for size in range(1, seed):
        merged: dict = {}
        for shape, st in level:
            _expand_state(shape, st, size, max_n, runs, totals, merged)
        level = sorted(merged.items(), key=_entries)
    if max_n > 1:
        for part_runs, part_totals in _fan_out(partial(_count_worker, seed, max_n),
                                               level, workers):
            for n in range(seed + 1, max_n + 1):
                totals[n] += part_totals[n]
                runs[n] = list(map(add, runs[n], part_runs[n]))
    mask = (1 << bits) - 1
    tables = {}
    for n in range(1, max_n + 1):
        row = runs[n]
        for k in range(max_n, 0, -1):  # class k: every run of length >= k
            row[k] += row[k + 1]
        counts = {}
        for a in range(1, max_n + 1):
            for k in range(1, max_n + 1):
                if c := row[k] >> bits * a & mask:
                    counts[(a, k)] = c
        tables[n] = ClassCountTable(n=n, total=totals[n], counts=counts)

    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        for path, table in zip(map(Path, _cache_paths(cache_dir, max_n)), tables.values()):
            # a file appears under its final name only once it is complete
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(table.to_jsonl())
                os.replace(tmp, path)
            except OSError:
                tmp.unlink(missing_ok=True)
                raise
    return tables


# -- streaming class members -------------------------------------------------


def iter_class_members(n: int, a: Optional[int] = None,
                       k: Optional[int] = None) -> Iterator[Permutation]:
    """All size-n avoiders with a positional class (optionally filtered to
    one a and one k), as Permutations. Order is the tree's, not lex."""
    for _, cls_a, _, values, _ in _walk(n, n, a, k):
        if cls_a is not None:
            yield Permutation(values, validate=False)
