"""Named verification suites run by the CLI and the acceptance tests.

Every suite pins a claimed identity against the brute-force enumeration
oracle and returns IdentityReports with exact residuals. One rule,
``genfun._nonzero``, builds every residual that compares two routes cell
by cell: a difference per (n, k) cell, kept when nonzero, in cell order.
Only the insertion accounting, the codec's witnesses and the domino
bijection, which are not differences, mark a cell or a member by hand.
DECLARATIONS is the one list of suites: each entry is a name, a call on
(max_n, tables, workers, the conjecture a values, empty unless given) and
whether ``--suite all`` runs it. ``all`` runs the default suites, SUITES, in
declared order; an opt-in suite runs only when it is named. The suites:

* thm1       -- class-(1, k) counts: enumeration vs convolution recurrence
                vs coefficients of x f(x)^k.
* thm2       -- the halving identity |class(2,k) at n| = (n-k)/2 a_{n-1,k},
                plus the insert-a-1 accounting (unique preimages, the
                reverse-complement mirror of class (1, k), gap sums).
* thm3       -- a = 2 series expansion vs brute force, agreement of the two
                g2 assemblies, and the marked-tuple codec bijection.
* prop1      -- primitive/domino correspondence, checked from the domino
                side, and the three-way count check (enumeration, closed
                form, independent domino generator).
* conjecture -- the explicit expansion (form 3) for a in {3, 4}, inputs
                from brute force, residuals reported in full.
* gidentity  -- the total-count partition identity and OEIS A061552 totals.

Every member-level check streams its members from the one generating-tree
walk, ``enumeration._walk``, and holds no set of them: the insertion
accounting checks each parent's children as the walk yields the parent.
The codec is proved two-sided by counting, no tuple enumerated: to n = 9
the scan also checks that each encoding is a valid marked tuple of its
member's (n, k), by ``products._tuple_target``, which ``MarkedTuple.validate``
reads too; a marked component is a codec member with k = 1.
The roundtrip makes encode injective on the members, that check puts its
images among the valid tuples, and the tuple-count residual makes the two
equal in number; so encode is a bijection and decode its inverse on every
valid tuple. The codec sweep at large n is the expensive part; it walks
every size in one pass. It and the count tables cut the tree at the same
seed size at every worker count, and ``enumeration._fan_out`` splits the
seeds over the workers; the parts merge by addition, so any worker count
does the same work and produces identical reports (timings aside). The
checks run the unchecked raw helpers of ``products`` and ``dominoes`` on
the walk's bare value tuples and compare their images with the walk; the
public wrappers, which check their arguments, are not called. The scan's
roots and walk skip the subtrees that hold no a = 2 member, and the
encoder factors each member in one pass. The domino map walks no tree: its
roots are the column-tag vectors, most points first so that the longest
start first, and ``_fan_out`` splits them over the same workers; each maps
its generated dominoes, as value tuples, to primitives and back. The README
gives the measured times. A suite that raises is reported as one failing
report that names the suite and the exception, and the suites after it
still run.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Iterable, Optional, Sequence

from . import products
from .dominoes import _cell_words, _from_domino_raw, _tagged_dominoes, _tags, _to_domino_raw
from .enumeration import _class_raw, _fan_out, _split_workers, _tree_roots, _walk, count_tables
from .genfun import (
    IdentityReport,
    Tables,
    _nonzero,
    _report,
    a_nk_recurrence,
    conjecture_check,
    f_power,
    f_series,
    g2_series,
    g_identity_check,
    primitive_count_closed_form,
    t1k_series,
    t2k_series,
    t_ak_bruteforce,
)
from .permutations import DomainError, _reverse_complement_raw
from .products import _contract_raw, _decode_raw, _expand_raw, _factorize_raw
from .series import TruncatedSeries

_ACCOUNTING_MAX_N = 9   # exhaustive insert-a-1 accounting
_EXPLICIT_MAX_N = 9     # the codec is checked two-sided to this size
_DOMINO_MAX_POINTS = 8
_MAX_WITNESSES = 10     # failing members a codec report names
_CONJECTURE_K_MAX = 6   # the conjecture suite checks a <= k <= 6


def _witness_order(values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(values), values


def suite_thm1(max_n: int, tables: Tables) -> list[IdentityReport]:
    start = time.monotonic()
    residual = _nonzero(
        (n, k, (primitive_count_closed_form(n) if k == 1 else a_nk_recurrence(n, k))
         - tables[n].count(1, k))
        for n in range(2, max_n + 1) for k in range(1, n))
    reports = [_report("a1-recurrence", {"max_n": max_n}, residual, start)]

    start = time.monotonic()
    powers = {k: t1k_series(k, max_n) for k in range(1, max_n)}
    residual = _nonzero((n, k, powers[k].coeff(n) - tables[n].count(1, k))
                        for n in range(2, max_n + 1) for k in range(1, n))
    reports.append(_report("a1-power-series", {"max_n": max_n}, residual, start))
    return reports


def suite_thm2(max_n: int, tables: Tables) -> list[IdentityReport]:
    start = time.monotonic()
    residual = _nonzero(
        (n, k, Fraction(2 * tables[n].count(2, k) - (n - k) * tables[n - 1].count(1, k), 2))
        for n in range(3, max_n + 1) for k in range(1, n))
    reports = [_report("a2-halving-count", {"max_n": max_n}, residual, start)]

    start = time.monotonic()
    acc_max = min(max_n, _ACCOUNTING_MAX_N)
    gap_sums: dict[tuple[int, int], int] = {}  # by the children's (n, k)
    faults: set[tuple[int, int]] = set()
    for size, _, k, parent, _ in _walk(2, acc_max - 1, 1):
        key = (size + 1, k)
        j = size - 1 - parent.index(size)  # entries right of the maximum
        # the mirror: rc(parent) is in class (1, k) with its maximum at index
        # k + j, so with n - 2 - k - j entries right of it; its gaps and the
        # parent's add up to n - k, and the gap sum to (n - k)/2 a_{n-1,k}
        rc = _reverse_complement_raw(parent)
        children = _expand_raw(parent)
        gap_sums[key] = gap_sums.get(key, 0) + len(children)
        # contraction is a function, so a child that two parents share fails
        # it for one of them: distinct children per parent are distinct overall
        if (_class_raw(rc) != (1, k) or rc.index(size) != k + j or len(children) != j + 1
                or len(set(children)) != len(children)
                or any(_contract_raw(child) != parent for child in children)):
            faults.add(key)
    residual = [(n, k, gap_sums.get((n, k), 0) - tables[n].count(2, k) or 1)
                for n in range(3, acc_max + 1) for k in range(1, n - 1)
                if (n, k) in faults or gap_sums.get((n, k), 0) != tables[n].count(2, k)]
    reports.append(_report("a2-insertion-accounting",
                           {"max_n": acc_max}, residual, start))
    return reports


# -- marked-tuple codec ---------------------------------------------------


def _codec_scan(members: Iterable[tuple[int, int, int, tuple[int, ...], Optional[int]]],
                tuple_max_n: int):
    """Roundtrip-check every a=2 member, and to size tuple_max_n check that
    its encoding is a valid marked tuple of its (n, k); returns ({(n,k):
    count not ending in 1}, {(n,k): count ending in 1}, the smallest failing
    members by (size, values)). The roundtrip makes encode injective, the
    tuple check puts its images among the valid tuples, and suite_thm3's
    tuple counts make the two equal in number: so encode is a bijection to
    tuple_max_n, and decode its inverse on every valid tuple."""
    not1, last1, failures = Counter(), Counter(), []
    for n, _, k, values, _ in members:
        if values[-1] == 1:
            last1[n, k] += 1
            continue
        not1[n, k] += 1
        try:
            comps, idx = _factorize_raw(values, 2)
            ok = (_decode_raw(comps, idx) == values
                  and (n > tuple_max_n or products._tuple_target(comps, idx) == (n, k)))
        except DomainError:  # a codec or tuple rule that rejects a member fails on it
            ok = False
        if not ok:
            # keep the smallest failures, whatever order the walk visits them
            failures.append(values)
            if len(failures) > _MAX_WITNESSES:
                failures.remove(max(failures, key=_witness_order))
    return not1, last1, failures


def _codec_worker(tuple_max_n: int, roots):
    """_codec_scan over the a = 2 members below each (node, top) root; a
    _fan_out worker once tuple_max_n is bound."""
    return _codec_scan(itertools.chain.from_iterable(
        _walk(3, top, 2, root=node) for node, top in roots), tuple_max_n)


def suite_thm3(max_n: int, max_k: int, tables: Tables,
               workers: int = 1) -> list[IdentityReport]:
    start = time.monotonic()
    diffs = [t2k_series(k, max_n) - t_ak_bruteforce(2, k, max_n, tables)
             for k in range(max_k + 1)]
    residual = _nonzero((n, k, c) for k, diff in enumerate(diffs)
                        for n, c in enumerate(diff.coeffs))
    reports = [_report("a2-series-expansion", {"max_n": max_n, "max_k": max_k},
                       residual, start)]

    start = time.monotonic()
    g2 = g2_series(max_n, max_k)  # raises if the routes split
    residual = _nonzero((n, k, g2.coeff(n, k) - (tables[n].count(2, k) if n >= 1 else 0))
                        for n in range(g2.xorder + 1) for k in range(1, g2.torder + 1))
    reports.append(_report("g2-two-routes", {"order": g2.xorder, "torder": g2.torder},
                           residual, start))

    start = time.monotonic()
    not1, last1, failures = Counter(), Counter(), []
    tuple_max_n = min(max_n, _EXPLICIT_MAX_N)
    workers = _split_workers(workers, max_n)
    for part_not1, part_last1, part_failures in _fan_out(
            partial(_codec_worker, tuple_max_n), _tree_roots(max_n, 2), workers):
        not1.update(part_not1)
        last1.update(part_last1)
        failures.extend(part_failures)

    # each part kept its smallest failures, so these are the same for every
    # worker count
    residual = [(len(v), 0, 1) for v in sorted(failures, key=_witness_order)[:_MAX_WITNESSES]]
    # trailing-1 members correspond to class-(1, k) members one size down
    residual += _nonzero((n, k, c - tables[n - 1].count(1, k))
                         for (n, k), c in sorted(last1.items()))
    # tuple counts, the counting half of the scan's two-sided codec check: k
    # slots for the marked component, primitives elsewhere; from k = 2, as
    # at k = 1 the count is a21 itself
    a21 = TruncatedSeries.from_coeffs([not1.get((m, 1), 0) for m in range(max_n + 1)])
    tuple_counts = {k: (f_power(k - 1, max_n) * a21).scale(k) for k in range(2, max_n)}
    residual += _nonzero((n, k, not1.get((n, k), 0) - tuple_counts[k].coeff(n))
                         for k in range(2, max_n) for n in range(3, max_n + 1))
    # sweep totals must partition the enumerated class counts
    residual += _nonzero(
        (n, k, not1.get((n, k), 0) + last1.get((n, k), 0) - tables[n].count(2, k))
        for n in range(3, max_n + 1) for k in range(1, n - 1))

    reports.append(_report("marked-tuple-codec",
                           {"max_n": max_n, "explicit_max_n": tuple_max_n}, residual, start))
    return reports


def _domino_worker(roots):
    """({p: dominoes generated}, {p: dominoes mapped}) over the column-tag
    vectors ``roots``; a _fan_out worker. Dominoes under different tags
    differ, so the images counted per tag vector add up."""
    generated, mapped = Counter(), Counter()
    for cols in roots:
        p = len(cols)
        images: set[bytes] = set()
        count = 0
        for bw, tw in _tagged_dominoes(cols):
            count += 1
            try:  # raises unless the words fit the tags and the image is primitive
                sigma = _from_domino_raw(cols, bw, tw)
            except DomainError:
                continue
            # the map back as a left inverse makes the map injective, so a
            # domino that adds no image, or a repeated one, leaves the images
            # short of the dominoes
            if _to_domino_raw(sigma) == (cols, bw, tw):
                images.add(bytes(sigma))
        generated[p] += count
        mapped[p] += len(images)
    return generated, mapped


def suite_prop1(max_n: int, tables: Tables, workers: int = 1) -> list[IdentityReport]:
    start = time.monotonic()
    max_points = min(max_n - 2, _DOMINO_MAX_POINTS)
    # the cell words of every size to max_points, built once here and shared
    # by forked workers; at max_n = 1 there are none
    if max_points >= 0:
        _cell_words(max_points)
    domino_counts, mapped = Counter(), Counter()
    roots = [_tags(p, mask) for p in range(max_points, -1, -1) for mask in range(1 << p)]
    for part_counts, part_mapped in _fan_out(
            _domino_worker, roots, _split_workers(workers, max_n)):
        domino_counts.update(part_counts)
        mapped.update(part_mapped)
    residual = [(p, 0, 1) for p in range(max_points + 1)
                if not mapped[p] == domino_counts[p] == tables[p + 2].count(1, 1)]
    reports = [_report("primitive-domino-bijection",
                       {"max_points": max_points}, residual, start)]

    start = time.monotonic()
    f = f_series(max_n)
    brute = {n: tables[n].count(1, 1) for n in range(2, max_n + 1)}
    # by n, then by route: the closed form, f and the dominoes, where mapped
    residual = _nonzero(cell for n, b in brute.items() for cell in (
        (n, 0, b - primitive_count_closed_form(n)),
        (n, 1, f.coeff(n - 1) - b),
        (n, 2, domino_counts.get(n - 2, b) - b)))
    reports.append(_report("primitive-count-three-way",
                           {"max_n": max_n, "max_points": max_points},
                           residual, start))
    return reports


def suite_conjecture(max_n: int, tables: Tables,
                     a_values: Sequence[int] = (3, 4)) -> list[IdentityReport]:
    return [conjecture_check(a, k, max_n, tables)
            for a in a_values for k in range(a, _CONJECTURE_K_MAX + 1)]


def suite_gidentity(max_n: int, tables: Tables) -> list[IdentityReport]:
    return [g_identity_check(max_n, tables)]


DECLARATIONS = (
    ("thm1", lambda max_n, tables, *_: suite_thm1(max_n, tables), True),
    ("thm2", lambda max_n, tables, *_: suite_thm2(max_n, tables), True),
    # k <= 9 at every max_n; at 12 that leaves out class (2, 10)
    ("thm3", lambda max_n, tables, workers, _: suite_thm3(max_n, 9, tables, workers), True),
    ("prop1", lambda max_n, tables, workers, _: suite_prop1(max_n, tables, workers), True),
    ("conjecture", lambda max_n, tables, _, a: suite_conjecture(max_n, tables, a or (3, 4)), True),
    ("gidentity", lambda max_n, tables, *_: suite_gidentity(max_n, tables), True),
)
SUITES = tuple(name for name, _, default in DECLARATIONS if default)


def _check_suite_args(names: Sequence[str], max_n: int, workers: int,
                      conjecture_a: Optional[int]) -> None:
    """Raise ValueError for an argument run_suites would refuse, so that a
    caller can check before it counts the tables."""
    declared = [name for name, _, _ in DECLARATIONS]
    if unknown := [name for name in names if name not in declared]:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {tuple(declared)}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if conjecture_a is not None and not 1 <= conjecture_a <= _CONJECTURE_K_MAX:
        raise ValueError(f"conjecture a must be in 1..{_CONJECTURE_K_MAX}")
    if conjecture_a is not None and "conjecture" not in names:
        raise ValueError("conjecture a is read only by the conjecture suite")
    _split_workers(workers, max_n)


def run_suites(names: Sequence[str], max_n: int = 11, workers: int = 1,
               fail_fast: bool = False, conjecture_a: Optional[int] = None,
               tables: Optional[Tables] = None) -> list[IdentityReport]:
    """Run the named suites in declaration order and return all reports, on
    the given tables or on tables counted fresh. A bad argument, or tables
    that lack a size in 1..max_n, raise ValueError before any suite runs."""
    _check_suite_args(names, max_n, workers, conjecture_a)
    if tables is None:
        tables = count_tables(max_n, workers=workers)
    elif missing := [n for n in range(1, max_n + 1) if n not in tables]:
        raise ValueError(f"the given tables lack size {missing[0]}")
    reports: list[IdentityReport] = []
    for name, call, _ in DECLARATIONS:
        if name not in names:
            continue
        start = time.monotonic()
        try:
            batch = call(max_n, tables, workers, () if conjecture_a is None else (conjecture_a,))
        except Exception as exc:  # a defect inside one suite is that suite's FAIL
            batch = [IdentityReport(
                identity=name, passed=False,
                params={"error": type(exc).__name__, "message": str(exc)},
                millis=(time.monotonic() - start) * 1000.0)]
        reports.extend(batch)
        if fail_fast and any(not r.passed for r in batch):
            break
    return reports
