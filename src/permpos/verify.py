"""Named verification suites run by the CLI and the acceptance tests.

Every suite pins a claimed identity against the brute-force enumeration
oracle and returns IdentityReports with exact residuals. Suites:

* thm1       -- class-(1, k) counts: enumeration vs convolution recurrence
                vs coefficients of x f(x)^k.
* thm2       -- the halving identity |class(2,k) at n| = (n-k)/2 a_{n-1,k},
                plus the insert-a-1 accounting (unique preimages, the
                reverse-complement gap mirror, gap sums).
* thm3       -- a = 2 series expansion vs brute force, agreement of the two
                g2 assemblies, and the marked-tuple codec bijection.
* prop1      -- primitive/domino correspondence and the three-way count
                check (enumeration, closed form, independent domino
                generator).
* conjecture -- the three expansion forms for a in {3, 4}, inputs from
                brute force, residuals reported in full.
* gidentity  -- the total-count partition identity and OEIS A061552 totals.

Every member-level check streams its members from the one generating-tree
walk, ``enumeration._walk``. The codec sweep at large n is the expensive
part; it walks every size in one pass and is the one step split over
workers (by ``enumeration._fan_out``; count tables are built in one
process), so any worker count produces identical reports (timings aside).
Members the walk produced are not validated again: the codec and the
domino map run with ``validate=False``, and the checks compare their
images with the walk and the domino oracle. At n = 11 on one worker the
codec check took about 7.9 s and the domino check about 3.0 s of
``verify --suite all`` (medians of six runs on a shared 2-core Linux
machine, Python 3.11.7). A suite that raises is reported as one failing
report that names the suite and the exception, and the suites after it
still run.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .dominoes import enumerate_dominoes, from_domino, to_domino
from .enumeration import (
    _add_counts,
    _fan_out,
    _resolve_workers,
    _walk,
    Permutation,
    count_tables,
)
from .genfun import (
    IdentityReport,
    Tables,
    _report,
    a_nk_recurrence,
    conjecture_check,
    f_series,
    g2_series,
    g_identity_check,
    primitive_count_closed_form,
    t1k_series,
    t2k_series,
    t_ak_bruteforce,
)
from .permutations import DomainError, reverse_complement
from .products import (
    MarkedTuple,
    _decode_raw,
    _encode_raw,
    contract_one,
    decode_tuple,
    encode_perm,
    expand_with_one,
)
from .series import TruncatedSeries

SUITES = ("thm1", "thm2", "thm3", "prop1", "conjecture", "gidentity")

_ACCOUNTING_MAX_N = 9   # exhaustive insert-a-1 accounting
_EXPLICIT_MAX_N = 9     # exhaustive two-sided codec enumeration
_DOMINO_MAX_POINTS = 8
_MAX_WITNESSES = 10     # failing members a codec report names
_CONJECTURE_K_MAX = 6   # the conjecture suite checks a <= k <= 6


def _witness_order(values: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(values), values


def suite_thm1(max_n: int, tables: Tables) -> list[IdentityReport]:
    start = time.monotonic()
    residual = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            brute = tables[n].count(1, k)
            rec = primitive_count_closed_form(n) if k == 1 else a_nk_recurrence(n, k)
            if rec != brute:
                residual.append((n, k, Fraction(rec - brute)))
    reports = [_report("a1-recurrence", {"max_n": max_n}, residual, start)]

    start = time.monotonic()
    residual = []
    powers = {k: t1k_series(k, max_n) for k in range(1, max_n)}
    for n in range(2, max_n + 1):
        for k in range(1, n):
            diff = powers[k].coeff(n) - tables[n].count(1, k)
            if diff:
                residual.append((n, k, diff))
    reports.append(_report("a1-power-series", {"max_n": max_n}, residual, start))
    return reports


def suite_thm2(max_n: int, tables: Tables) -> list[IdentityReport]:
    start = time.monotonic()
    residual = []
    for n in range(3, max_n + 1):
        for k in range(1, n):
            lhs = 2 * tables[n].count(2, k)
            rhs = (n - k) * tables[n - 1].count(1, k)
            if lhs != rhs:
                residual.append((n, k, Fraction(lhs - rhs, 2)))
    reports = [_report("a2-halving-count", {"max_n": max_n}, residual, start)]

    start = time.monotonic()
    acc_max = min(max_n, _ACCOUNTING_MAX_N)
    residual = []
    for n in range(3, acc_max + 1):
        for k in range(1, n - 1):
            seen: set[tuple[int, ...]] = set()
            gap_sum = 0
            ok = True
            for parent in (Permutation(v, validate=False)
                           for _, _, _, v, _ in _walk(n - 1, n - 1, 1, k)):
                size = n - 1
                j_stat = size - 1 - parent.values.index(size)
                rc = reverse_complement(parent)
                if rc.values.index(1) != j_stat:
                    ok = False
                children = expand_with_one(parent, validate=False)
                gap_sum += len(children)
                if len(children) != j_stat + 1:
                    ok = False
                for child in children:
                    if child.values in seen:
                        ok = False
                    seen.add(child.values)
                    if contract_one(child, validate=False) != parent:
                        ok = False
            if not ok or gap_sum != tables[n].count(2, k) or len(seen) != gap_sum:
                residual.append((n, k, Fraction(gap_sum - tables[n].count(2, k))
                                 if gap_sum != tables[n].count(2, k) else Fraction(1)))
    reports.append(_report("a2-insertion-accounting",
                           {"max_n": acc_max}, residual, start))
    return reports


# -- marked-tuple codec ---------------------------------------------------


def _codec_scan(members: Iterable[tuple[int, int, int, tuple[int, ...], Optional[int]]]):
    """Roundtrip-check every a=2 member; returns ({(n,k): count not ending
    in 1}, {(n,k): count ending in 1}, the smallest failing members by
    (size, values))."""
    not1: dict[tuple[int, int], int] = {}
    last1: dict[tuple[int, int], int] = {}
    failures: list[tuple[int, ...]] = []
    for n, _, k, values, _ in members:
        key = (n, k)
        if values[-1] == 1:
            last1[key] = last1.get(key, 0) + 1
            continue
        not1[key] = not1.get(key, 0) + 1
        try:
            comps, idx = _encode_raw(values)
            if _decode_raw(comps, idx) != values:
                raise ValueError("roundtrip mismatch")
        except Exception:
            # keep the smallest failures, whatever order the walk visits them
            failures.append(values)
            if len(failures) > _MAX_WITNESSES:
                failures.remove(max(failures, key=_witness_order))
    return not1, last1, failures


def _codec_worker(job):
    """_codec_scan over the a = 2 members below the given roots up to size
    top; a _fan_out worker."""
    roots, top = job
    return _codec_scan(itertools.chain.from_iterable(
        _walk(3, top, 2, root=root) for root in roots))


def _compositions(total: int, mins: Sequence[int]) -> Iterator[tuple[int, ...]]:
    if len(mins) == 1:
        if total >= mins[0]:
            yield (total,)
        return
    rest_min = sum(mins[1:])
    for first in range(mins[0], total - rest_min + 1):
        for rest in _compositions(total - first, mins[1:]):
            yield (first,) + rest


def _explicit_codec_check(max_n: int, not1_sets: dict[tuple[int, int], set]
                          ) -> Optional[tuple[int, int]]:
    """Decode every valid marked tuple of target size <= max_n and check the
    image is exactly the class members not ending in 1, with encode as a
    two-sided inverse. Returns the first (n, k) that disagrees, or None; a
    roundtrip that raises DomainError is a disagreement too.

    The components come from the tree walk, so they are valid by
    construction and the codec runs without re-validating them; the set
    equality with the walked members is the check on the decoded side."""
    prims: dict[int, list[Permutation]] = {
        m: [Permutation(v, validate=False) for _, _, _, v, _ in _walk(m, m, 1, 1)]
        for m in range(2, max_n)}
    # the marked components: class-(2, 1) members not ending in 1
    marked: dict[int, list[Permutation]] = {
        m: [Permutation(v, validate=False) for v in not1_sets.get((m, 1), ())]
        for m in range(4, max_n + 1)}
    for (n, k), expected in sorted(not1_sets.items()):
        decoded: set[tuple[int, ...]] = set()
        total = n + k - 1
        for slot in range(k):
            mins = [4 if i == slot else 2 for i in range(k)]
            for sizes in _compositions(total, mins):
                pools = [marked.get(s, []) if i == slot else prims.get(s, [])
                         for i, s in enumerate(sizes)]
                for combo in itertools.product(*pools):
                    t = MarkedTuple(tuple(combo), slot + 1)
                    try:
                        sigma = decode_tuple(t, validate=False)
                        if sigma.values in decoded or encode_perm(sigma, validate=False) != t:
                            return n, k
                    except DomainError:  # an image outside the domain disagrees
                        return n, k
                    decoded.add(sigma.values)
        if decoded != expected:
            return n, k
    return None


def suite_thm3(max_n: int, max_k: int, tables: Tables,
               workers: int = 1) -> list[IdentityReport]:
    start = time.monotonic()
    residual = []
    for k in range(0, max_k + 1):
        formula = t2k_series(k, max_n)
        brute = t_ak_bruteforce(2, k, max_n, tables)
        for n in range(max_n + 1):
            diff = formula.coeff(n) - brute.coeff(n)
            if diff:
                residual.append((n, k, diff))
    reports = [_report("a2-series-expansion", {"max_n": max_n, "max_k": max_k},
                       residual, start)]

    start = time.monotonic()
    residual = []
    g2 = g2_series(max_n, min(max_k, 9))  # raises if the routes split
    for n in range(g2.xorder + 1):
        for k in range(1, g2.torder + 1):
            expected = tables[n].count(2, k) if n >= 1 else 0
            diff = g2.coeff(n, k) - expected
            if diff:
                residual.append((n, k, diff))
    reports.append(_report("g2-two-routes", {"order": g2.xorder, "torder": g2.torder},
                           residual, start))

    start = time.monotonic()
    not1: dict[tuple[int, int], int] = {}
    last1: dict[tuple[int, int], int] = {}
    failures: list[tuple[int, ...]] = []
    for part_not1, part_last1, part_failures in _fan_out(_codec_worker, max_n, workers):
        _add_counts(not1, part_not1)
        _add_counts(last1, part_last1)
        failures.extend(part_failures)

    residual = []
    # each part kept its smallest failures, so these are the same for every
    # worker count
    residual.extend((len(v), 0, Fraction(1))
                    for v in sorted(failures, key=_witness_order)[:_MAX_WITNESSES])
    # trailing-1 members correspond to class-(1, k) members one size down
    for (n, k), c in sorted(last1.items()):
        diff = c - tables[n - 1].count(1, k)
        if diff:
            residual.append((n, k, Fraction(diff)))
    # tuple counts: k slots for the marked component, primitives elsewhere
    a21 = TruncatedSeries.from_coeffs(
        [not1.get((m, 1), 0) for m in range(max_n + 1)])
    f = f_series(max_n)
    for k in range(1, max_n):
        tuple_counts = ((f ** (k - 1)) * a21).scale(k)
        for n in range(3, max_n + 1):
            diff = Fraction(not1.get((n, k), 0)) - tuple_counts.coeff(n)
            if diff:
                residual.append((n, k, diff))
    # sweep totals must partition the enumerated class counts
    for n in range(3, max_n + 1):
        for k in range(1, n - 1):
            got = not1.get((n, k), 0) + last1.get((n, k), 0)
            diff = got - tables[n].count(2, k)
            if diff:
                residual.append((n, k, Fraction(diff)))

    explicit_top = min(max_n, _EXPLICIT_MAX_N)
    not1_sets: dict[tuple[int, int], set] = {}
    for n, _, k, v, _ in _walk(4, explicit_top, 2):
        if v[-1] != 1:
            not1_sets.setdefault((n, k), set()).add(v)
    bad = _explicit_codec_check(explicit_top, not1_sets)
    if bad is not None:
        residual.append((*bad, Fraction(1)))

    reports.append(_report(
        "marked-tuple-codec",
        {"max_n": max_n, "explicit_max_n": explicit_top},
        residual, start))
    return reports


def suite_prop1(max_n: int, tables: Tables) -> list[IdentityReport]:
    start = time.monotonic()
    max_points = min(max_n - 2, _DOMINO_MAX_POINTS)
    residual = []
    domino_counts: dict[int, int] = {}
    for p in range(0, max_points + 1):
        n = p + 2
        images: set[str] = set()
        ok = True
        for _, _, _, v, _ in _walk(n, n, 1, 1):
            # primitive by construction; from_domino's primitivity check on
            # the way back is the assertion
            sigma = Permutation(v, validate=False)
            d = to_domino(sigma, validate=False)
            key = d.to_text()
            if key in images or from_domino(d) != sigma:
                ok = False
            images.add(key)
        generated = {d.to_text() for d in enumerate_dominoes(p)}
        domino_counts[p] = len(generated)
        if not ok or images != generated:
            residual.append((p, 0, Fraction(1)))
    reports = [_report("primitive-domino-bijection",
                       {"max_points": max_points}, residual, start)]

    start = time.monotonic()
    residual = []
    f = f_series(max_n)
    for n in range(2, max_n + 1):
        brute = tables[n].count(1, 1)
        closed = primitive_count_closed_form(n)
        if brute != closed:
            residual.append((n, 0, Fraction(brute - closed)))
        diff = f.coeff(n - 1) - brute
        if diff:
            residual.append((n, 1, diff))
        if n - 2 in domino_counts and domino_counts[n - 2] != brute:
            residual.append((n, 2, Fraction(domino_counts[n - 2] - brute)))
    reports.append(_report("primitive-count-three-way",
                           {"max_n": max_n, "max_points": max_points},
                           residual, start))
    return reports


def suite_conjecture(max_n: int, tables: Tables, a_values: Sequence[int] = (3, 4),
                     k_max: int = _CONJECTURE_K_MAX) -> list[IdentityReport]:
    return [conjecture_check(a, k, max_n, tables)
            for a in a_values for k in range(a, k_max + 1)]


def suite_gidentity(max_n: int, tables: Tables) -> list[IdentityReport]:
    return [g_identity_check(max_n, tables)]


def run_suites(names: Sequence[str], max_n: int = 11, max_k: int = 9,
               workers: int = 1, cache_dir=None,
               fail_fast: bool = False,
               conjecture_a: Optional[int] = None,
               tables: Optional[Tables] = None) -> list[IdentityReport]:
    """Run the named suites in a fixed order and return all reports. A bad
    argument raises ValueError before any suite runs."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    if conjecture_a is not None and not 1 <= conjecture_a <= _CONJECTURE_K_MAX:
        raise ValueError(f"conjecture a must be in 1..{_CONJECTURE_K_MAX}")
    _resolve_workers(workers)
    if tables is None:
        tables = count_tables(max_n, cache_dir=cache_dir)
    a_values = (3, 4) if conjecture_a is None else (conjecture_a,)
    calls = {
        "thm1": lambda: suite_thm1(max_n, tables),
        "thm2": lambda: suite_thm2(max_n, tables),
        "thm3": lambda: suite_thm3(max_n, max_k, tables, workers=workers),
        "prop1": lambda: suite_prop1(max_n, tables),
        "conjecture": lambda: suite_conjecture(max_n, tables, a_values=a_values),
        "gidentity": lambda: suite_gidentity(max_n, tables),
    }
    reports: list[IdentityReport] = []
    for name in SUITES:
        if name not in names:
            continue
        start = time.monotonic()
        try:
            batch = calls[name]()
        except Exception as exc:  # a defect inside one suite is that suite's FAIL
            batch = [IdentityReport(
                identity=name, passed=False,
                params={"error": type(exc).__name__, "message": str(exc)},
                millis=(time.monotonic() - start) * 1000.0)]
        reports.extend(batch)
        if fail_fast and any(not r.passed for r in batch):
            break
    return reports
