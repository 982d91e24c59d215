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
  bound) for every caller: :func:`iter_class_members`,
  :func:`count_ending_with_one`, the parallel seed list and the
  verification suites. :func:`_fan_out` splits a walk over worker
  processes by subtree; only the thm3 codec scan uses it.

* :func:`count_tables` counts the tree in one process without visiting it
  node by node: nodes with alike subtrees merge into one state with a
  multiplicity (Marinov & Radoicic, "Counting 1324-avoiding permutations",
  EJC 2003), so exact tables to n = 13 take seconds.

Class counts are exact Python integers end to end; tables can be persisted
as JSON-lines with decimal-string counts so no width limit is ever hit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from .permutations import (
    PATTERN_1324,
    DomainError,
    Permutation,
    _word_contains_1324,
    word_contains,
)

_BIG = 1 << 62

DESK_MAX_N = 11
DESK_OPT_IN_MAX_N = 12
COUNT_MAX_N = 13  # count tables alone, without walking the members
_SEED_SIZE = 7  # subtree-root size used to partition parallel sweeps
_ROOT = ((1,), 1)  # the tree's root node: the avoider 1 with bound L = 1


class PositionalClass(NamedTuple):
    """Class (a, k): value a sits k positions left of the maximum and every
    value below a sits right of the maximum."""

    a: int
    k: int


def classify(p: Permutation, validate: bool = True) -> Optional[PositionalClass]:
    """Positional class of a 1324-avoider, or None if it starts with its
    maximum (or n <= 1).

    a is the smallest value left of the maximum; every value below a is
    then automatically right of the maximum. k is the position distance
    from a to the maximum.
    """
    if validate and _word_contains_1324(p.values):
        raise DomainError(f"{p!r} does not avoid 1324")
    n = len(p)
    if n <= 1 or p.values[0] == n:
        return None
    pos_n = p.values.index(n)
    a = min(p.values[:pos_n])
    return PositionalClass(a, pos_n - p.values.index(a))


# -- lexicographic backtracking generator -----------------------------------


def generate_avoiders(n: int, pattern: Permutation = PATTERN_1324) -> Iterator[Permutation]:
    """Yield the size-n avoiders of ``pattern``, each once, in lexicographic
    order of one-line notation.

    A prefix is extended only while it avoids the pattern, so the explored
    tree is exactly the set of avoiding prefixes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    key = tuple(pattern.values)
    if len(key) == 0:
        raise ValueError("empty pattern")
    if n == 0:
        yield Permutation(())
        return
    if key == (1, 3, 2, 4):
        yield from _generate_1324(n)
    else:
        yield from _generate_generic(n, pattern)


def _generate_1324(n: int) -> Iterator[Permutation]:
    # m132 = smallest "3"-value over the 132 occurrences inside the prefix;
    # appending v creates a 1324 iff v > m132, so candidate values above the
    # threshold are pruned wholesale.
    prefix: list[int] = []
    premins: list[int] = []
    used = [False] * (n + 1)

    def rec(depth: int, m132: int, curmin: int) -> Iterator[Permutation]:
        if depth == n:
            yield Permutation(tuple(prefix), validate=False)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            if v > m132:
                break
            new_m132 = m132
            for j in range(depth):
                x = prefix[j]
                if v < x < new_m132 and premins[j] < v:
                    new_m132 = x
            used[v] = True
            prefix.append(v)
            premins.append(curmin)
            yield from rec(depth + 1, new_m132, v if v < curmin else curmin)
            premins.pop()
            prefix.pop()
            used[v] = False

    yield from rec(0, _BIG, _BIG)


def _generate_generic(n: int, pattern: Permutation) -> Iterator[Permutation]:
    pat = pattern.values
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
            if len(prefix) < len(pat) or not word_contains(prefix, pat):
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
#   * its own bound is min(L+1, F_p, len+1) where F_p is the first position
#     q >= p with sig(q) > pm -- the inserted maximum over an earlier
#     smaller entry turns any later larger entry into a 132.


def _walk(min_n: int, max_n: int, a: Optional[int] = None, k: Optional[int] = None,
          root: tuple[tuple[int, ...], int] = _ROOT
          ) -> Iterator[tuple[int, Optional[int], Optional[int], tuple[int, ...], Optional[int]]]:
    """Yield (n, a, k, values, L) for the descendants of ``root`` of size
    min_n..max_n, in tree order (not lexicographic).

    With a or k given, only members of a matching class are yielded, and
    the filter runs before the member's tuple is built. Without filters,
    the members that start with their maximum are yielded too, with a and k
    None. L is the member's bound, or None at size max_n, below which
    nothing is walked.
    """
    every = a is None and k is None
    stack = [root] if len(root[0]) < max_n else []
    while stack:
        sig, L = stack.pop()
        size = len(sig)
        child_n = size + 1
        deeper = child_n < max_n
        emit = child_n >= min_n
        if deeper or (emit and every):
            child = (child_n,) + sig
            Lc = (L + 1 if L + 1 < child_n else child_n) if deeper else None
            if emit and every:
                yield child_n, None, None, child, Lc
            if deeper:
                stack.append((child, Lc))
        pm = sig[0]
        pmpos = 1
        for p in range(2, L + 2):
            v = sig[p - 2]
            if v < pm:
                pm = v
                pmpos = p - 1
            hit = emit and (a is None or pm == a) and (k is None or p - pmpos == k)
            if not deeper:
                if hit:
                    yield child_n, pm, p - pmpos, sig[:p - 1] + (child_n,) + sig[p - 1:], None
                continue
            if p <= size and sig[p - 1] > pm:
                F = p
            else:
                F = child_n
                for q in range(p, size):
                    if sig[q] > pm:
                        F = q + 1
                        break
            Lc = L + 1 if L + 1 < F else F
            if Lc > child_n:
                Lc = child_n
            child = sig[:p - 1] + (child_n,) + sig[p - 1:]
            if hit:
                yield child_n, pm, p - pmpos, child, Lc
            stack.append((child, Lc))


def _resolve_workers(workers: int) -> int:
    if workers < 0:
        raise ValueError("worker count must be >= 0")
    return workers if workers else (os.cpu_count() or 1)


def _fan_out(subtrees: Callable[[tuple[list, int]], object], max_n: int,
             workers: int) -> list:
    """Run ``subtrees((roots, top))`` over the tree to size max_n and return
    the parts; one call covers the descendants of its roots up to size top.

    With one worker, or a tree no deeper than _SEED_SIZE + 1, that is one
    call from the root. Otherwise it is one call from the root to size
    _SEED_SIZE plus one call per chunk of the size-_SEED_SIZE nodes, run in
    a Pool; ``subtrees`` must then be a module-level function. The parts
    cover disjoint subtrees, so callers that merge them by addition get the
    same result for every worker count.
    """
    workers = _resolve_workers(workers)
    if workers <= 1 or max_n <= _SEED_SIZE + 1:
        return [subtrees(([_ROOT], max_n))]
    # walked one size deeper than the seeds so that each carries its bound
    seeds = [(v, L) for n, _, _, v, L in _walk(_SEED_SIZE, _SEED_SIZE + 1) if n == _SEED_SIZE]
    nchunks = min(len(seeds), workers * 4)
    chunks = [(seeds[i::nchunks], max_n) for i in range(nchunks)]
    parts = [subtrees(([_ROOT], _SEED_SIZE))]
    with Pool(workers) as pool:
        parts.extend(pool.imap_unordered(subtrees, chunks))
    return parts


def _add_counts(into: dict, part: dict) -> None:
    for key, c in part.items():
        into[key] = into.get(key, 0) + c


# -- state-merged counting ---------------------------------------------------
#
# A node's subtree depends only on its size, its bound L and its first
# min(L+1, size) entries, since no child reads past entry L+1. Of those the
# rule above reads each prefix minimum's value and, for any other entry x,
# which prefix minima lie below x. A state is the bytes L, then the entries:
# a prefix minimum as its value, any other x as _ABOVE + the largest earlier
# prefix minimum below x. So pm is the running minimum of the codes, x is
# above pm iff its code is >= _ABOVE + pm, and the maximum inserted at
# p >= 2 is coded _ABOVE + entry 1. Equal states merge, with a multiplicity.

_ABOVE = 128  # above every value, so sizes stay below it


def _expand_state(state: bytes, size: int, mult: int, max_n: int, runs: list,
                  totals: list[int], merged: Optional[dict]) -> None:
    """Count the children of a state of the given size, ``mult`` times each:
    into ``totals``, and into ``runs[n][a][K]`` once per prefix minimum a
    followed by K children of class a. Below size max_n, file each child in
    ``merged``, or expand it depth-first when that is None."""
    L = state[0]
    child_n = size + 1
    totals[child_n] += (L + 1) * mult
    row = runs[child_n]
    pm, pmpos = state[1], 1
    for q in range(2, L + 1):
        if state[q] < pm:
            row[pm][q - pmpos] += mult
            pm, pmpos = state[q], q
    row[pm][L + 1 - pmpos] += mult
    if child_n == max_n:
        return
    new_max = bytes((_ABOVE + state[1],))
    children = [bytes((L + 1, child_n)) + state[1:]]
    pm = state[1]
    for p in range(2, L + 2):
        if state[p - 1] < pm:
            pm = state[p - 1]
        above = _ABOVE + pm
        Lc = L + 1
        for q in range(p, len(state)):
            if state[q] >= above:
                Lc = q
                break
        children.append(bytes((Lc,)) + state[1:p] + new_max + state[p:Lc + 1])
    for child in children:
        if merged is None:
            _expand_state(child, child_n, mult, max_n, runs, totals, None)
        else:
            merged[child] = merged.get(child, 0) + mult


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
        lines = [json.dumps({"n": self.n, "total": str(self.total)})]
        for (a, k) in sorted(self.counts):
            lines.append(json.dumps(
                {"n": self.n, "a": a, "k": k, "count": str(self.counts[(a, k)])}))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ClassCountTable":
        total = None
        n = None
        counts: dict[tuple[int, int], int] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if n is None:
                n = rec["n"]
            elif rec["n"] != n:
                raise ValueError(f"mixed sizes in table: {rec['n']} vs {n}")
            if "total" in rec:
                total = int(rec["total"])
            else:
                counts[(rec["a"], rec["k"])] = int(rec["count"])
        if n is None or total is None:
            raise ValueError("table text has no total record")
        return cls(n=n, total=total, counts=counts)


def _cache_path(cache_dir: Path, n: int) -> Path:
    return Path(cache_dir) / f"class-counts-n{n:02d}.jsonl"


def count_tables(max_n: int, workers: int = 1,
                 cache_dir: str | os.PathLike | None = None) -> dict[int, ClassCountTable]:
    """Exact class-count tables for every 1 <= n <= max_n, from one
    state-merged count of the generating tree in this process.

    The count runs in one process whatever ``workers`` is. The argument is
    unused but still validated (0 means one per CPU), because the benchmark
    harness perfbench/run.py passes it; the CLI and run_suites do not.
    With a cache directory, tables are loaded when every size is present
    and persisted after recomputation; cache files are byte-identical to a
    fresh recomputation.
    """
    if not 1 <= max_n < _ABOVE:
        raise ValueError(f"max_n must be in 1..{_ABOVE - 1}")
    _resolve_workers(workers)
    if cache_dir is not None:
        paths = [_cache_path(Path(cache_dir), n) for n in range(1, max_n + 1)]
        if all(p.is_file() for p in paths):
            tables = {}
            for n, p in zip(range(1, max_n + 1), paths):
                table = ClassCountTable.from_jsonl(p.read_text())
                if table.n != n:
                    raise ValueError(f"cache file {p} holds n={table.n}")
                tables[n] = table
            return tables

    runs = [[[0] * (max_n + 2) for _ in range(max_n + 1)] for _ in range(max_n + 1)]
    totals = [0, 1] + [0] * (max_n - 1)
    # states are merged level by level up to size max_n - 3 and each of those
    # is expanded depth-first, so no level of size max_n - 2 or more is held
    level = {bytes((1, 1)): 1}  # the root: L = 1, the entry 1
    top = min(max(1, max_n - 3), max_n - 1)
    for size in range(1, top + 1):
        merged = {} if size < top else None
        for state, mult in level.items():
            _expand_state(state, size, mult, max_n, runs, totals, merged)
        level = merged
    tables = {}
    for n in range(1, max_n + 1):
        counts = {}
        for a, row in enumerate(runs[n]):
            for k in range(max_n, 0, -1):  # class k: every run of length >= k
                row[k] += row[k + 1]
            counts.update(((a, k), c) for k, c in enumerate(row) if c and k)
        tables[n] = ClassCountTable(n=n, total=totals[n], counts=counts)

    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        for n, table in tables.items():
            # a file appears under its final name only once it is complete
            path = _cache_path(Path(cache_dir), n)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(table.to_jsonl())
                os.replace(tmp, path)
            except OSError:
                tmp.unlink(missing_ok=True)
                raise
    return tables


def count_table(n: int, workers: int = 1,
                cache_dir: str | os.PathLike | None = None) -> ClassCountTable:
    """Exact counts for all (a, k) plus the total |S_n(1324)|."""
    return count_tables(n, workers=workers, cache_dir=cache_dir)[n]


# -- streaming class members -------------------------------------------------


def iter_class_members(n: int, a: Optional[int] = None,
                       k: Optional[int] = None) -> Iterator[Permutation]:
    """All size-n avoiders with a positional class (optionally filtered to
    one a and one k), as Permutations. Order is the tree's, not lex."""
    for _, cls_a, _, values, _ in _walk(n, n, a, k):
        if cls_a is not None:
            yield Permutation(values, validate=False)


def count_ending_with_one(n: int, k: int) -> int:
    """Number of size-n class-(2, k) avoiders whose last entry is 1,
    counted by direct enumeration."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return sum(1 for _, _, _, vals, _ in _walk(n, n, 2, k) if vals[-1] == 1)
