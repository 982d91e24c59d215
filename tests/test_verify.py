import copy
import importlib.util
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import permpos.verify
from permpos.cli import main
from permpos.dominoes import enumerate_dominoes, to_domino
from permpos.enumeration import _cache_paths, _walk, count_tables
from permpos.genfun import IdentityReport
from permpos.permutations import DomainError, Permutation, _word_contains_1324
from permpos.products import _decode_raw, _expand_raw
from permpos.series import TruncatedSeries
from permpos.verify import (
    SUITES,
    _codec_scan,
    _explicit_codec_check,
    run_suites,
    suite_gidentity,
    suite_prop1,
    suite_thm1,
    suite_thm2,
    suite_thm3,
)


@pytest.fixture()
def broken_tables(tables8):
    tables = copy.deepcopy(tables8)
    tables[6].counts[(1, 2)] += 1
    return tables


def test_all_suites_pass_at_desk_scale_8(tables8):
    reports = run_suites(SUITES, max_n=8, tables=tables8)
    assert reports and all(r.passed for r in reports)
    names = [r.identity for r in reports]
    assert names.index("a1-recurrence") < names.index("total-count-partition")


@pytest.mark.parametrize("max_n", [1, 2])
def test_all_suites_pass_below_the_conjecture_sizes(max_n):
    # the conjecture suite reads T_{a,0} for a up to 4, beyond these orders
    reports = run_suites(SUITES, max_n=max_n)
    assert reports and all(r.passed for r in reports)


def test_unknown_suite_rejected(tables8):
    with pytest.raises(ValueError):
        run_suites(("nope",), max_n=6, tables=tables8)


@pytest.mark.parametrize("kwargs", [
    {"conjecture_a": 7}, {"conjecture_a": 0}, {"workers": -1},
    {"max_n": 0}, {"max_n": 9}])  # the given tables stop at size 8
def test_bad_arguments_raise_before_any_suite(tables8, kwargs):
    with pytest.raises(ValueError):
        run_suites(SUITES, **{"max_n": 8, "tables": tables8, **kwargs})


def _without_millis(dicts):
    return [{k: v for k, v in d.items() if k != "millis"} for d in dicts]


def _verify_json(capsys, *argv):
    code = main(["verify", *argv, "--max-n", "8", "--format", "json"])
    return code, _without_millis(json.loads(capsys.readouterr().out))


def test_an_opt_in_suite_runs_only_when_named(monkeypatch, tables8, capsys):
    code, before = _verify_json(capsys, "--suite", "all")
    assert code == 0
    seen = []

    def probe(max_n, tables, workers, a_values):
        seen.append((max_n, workers, a_values))
        return [IdentityReport("probe-identity", {"max_n": max_n}, True)]

    declarations = permpos.verify.DECLARATIONS
    monkeypatch.setattr(permpos.verify, "DECLARATIONS", declarations + (("probe", probe, False),))
    assert permpos.verify.SUITES == ("thm1", "thm2", "thm3", "prop1", "conjecture", "gidentity")
    assert permpos.verify.SUITES == tuple(
        name for name, _, default in permpos.verify.DECLARATIONS if default)
    assert _verify_json(capsys, "--suite", "all") == (0, before)
    assert not seen
    assert [r.identity for r in run_suites(("probe",), max_n=8, tables=tables8)] == \
        ["probe-identity"]
    assert _verify_json(capsys, "--suite", "probe") == (
        0, [{"identity": "probe-identity", "params": {"max_n": 8}, "pass": True, "residual": []}])
    assert seen == [(8, 1, ()), (8, 1, ())]
    assert main(["verify", "--suite", "probe", "--max-n", "8", "--a", "3"]) == 2
    assert seen == [(8, 1, ()), (8, 1, ())]  # refused before any suite runs


def test_perfbench_calls_each_suite_as_run_suites_does(tables8):
    # perfbench/run.py keeps its own copy of the suite calls; load it as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    calls = perfbench.suite_calls(SimpleNamespace(verify=permpos.verify), 8, tables8, 1)
    assert sorted(calls) == sorted(SUITES)
    for name, call in calls.items():
        reports = run_suites((name,), max_n=8, tables=tables8)
        assert _without_millis(r.to_json_dict() for r in call()) == \
            _without_millis(r.to_json_dict() for r in reports), name


def test_conjecture_a_needs_the_conjecture_suite(tables8):
    with pytest.raises(ValueError):
        run_suites(("thm1",), max_n=8, tables=tables8, conjecture_a=3)
    reports = run_suites(("thm1", "conjecture"), max_n=8, tables=tables8, conjecture_a=3)
    assert all(r.passed for r in reports)


def test_corrupted_counts_are_detected(broken_tables):
    r1 = suite_thm1(8, broken_tables)
    assert not all(r.passed for r in r1)
    bad = next(r for r in r1 if not r.passed)
    assert any(n == 6 and k == 2 for n, k, _ in bad.residual)
    # the halving identity reads the same corrupted row at n = 7
    r2 = suite_thm2(8, broken_tables)
    assert not all(r.passed for r in r2)
    # the sweep totals no longer match the table
    r3 = suite_thm3(8, 8, broken_tables)
    assert not all(r.passed for r in r3)
    r4 = suite_prop1(8, broken_tables)
    assert all(r.passed for r in r4)  # (1,2) plays no role for primitives
    r5 = suite_gidentity(8, broken_tables)
    assert not all(r.passed for r in r5)


def test_tampered_cache_fails_total_count_partition(tmp_path):
    count_tables(8, cache_dir=tmp_path)
    victim = Path(_cache_paths(tmp_path, 8)[6])
    lines = victim.read_text().splitlines(keepends=True)
    n, total = json.loads(lines[0])
    last = json.loads(lines[-1])
    # a raised total, then the last row dropped, as a cut at a line
    # boundary leaves it: both files still parse
    for text, residual in (
            ("".join([json.dumps([n, total + 1]) + "\n"] + lines[1:]),
             [(7, 0, 1), (8, 0, -1), (7, 1, 1)]),
            ("".join(lines[:-1]), [(7, 0, sum(last[2:]))])):
        victim.write_text(text)
        [report] = run_suites(("gidentity",), max_n=8,
                              tables=count_tables(8, cache_dir=tmp_path))
        assert report.identity == "total-count-partition"
        assert not report.passed
        assert report.residual == residual


def test_fail_fast_stops_at_first_failure(broken_tables):
    reports = run_suites(SUITES, max_n=8, tables=broken_tables, fail_fast=True)
    assert not all(r.passed for r in reports)
    # thm1 fails immediately, so nothing beyond its batch is run
    assert {r.identity for r in reports} == {"a1-recurrence", "a1-power-series"}


def test_codec_report_params(tables8):
    reports = suite_thm3(8, 8, tables8, workers=1)
    codec = next(r for r in reports if r.identity == "marked-tuple-codec")
    assert codec.params["explicit_max_n"] == 8
    assert codec.passed


def test_thm3_checks_k_to_nine_at_every_max_n(tables8):
    # the series expansion and the g2 grid run to k = 9 whatever max_n is,
    # so the verify JSON at small max_n keeps its params
    reports = run_suites(["thm3"], max_n=8, tables=tables8)
    assert [r.params for r in reports[:2]] == [
        {"max_n": 8, "max_k": 9}, {"order": 8, "torder": 9}]
    assert all(r.passed for r in reports)


def test_suite_exception_is_a_failing_report(monkeypatch, capsys):
    clean = [r.identity for r in suite_thm3(6, 9, count_tables(6))]

    def broken(*args, **kwargs):
        raise RuntimeError("simulated codec defect")

    monkeypatch.setattr(permpos.verify, "_codec_scan", broken)
    assert main(["verify", "--suite", "all", "--max-n", "6", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    failed = [r for r in reports if not r["pass"]]
    assert [r["identity"] for r in failed] == ["thm3"]
    assert failed[0]["params"]["error"] == "RuntimeError"
    assert failed[0]["params"]["message"] == "simulated codec defect"
    # the suites after thm3 still ran
    monkeypatch.undo()
    others = [r.identity for r in run_suites(SUITES, max_n=6) if r.identity not in clean]
    assert [r["identity"] for r in reports if r["pass"]] == others


def _codec_report(reports):
    return next(r for r in reports if r.identity == "marked-tuple-codec")


def test_codec_failures_do_not_depend_on_worker_count(monkeypatch):
    # with every roundtrip broken, far more than ten members fail; each part
    # keeps its smallest failures, so one worker and two (the tree split at
    # n = 9; the forked workers see the patch) report the same ten members,
    # smallest first; the explicit check decodes with the same decoder, so
    # it names its first class, (4, 1), after them
    real = permpos.verify._decode_raw

    def mismatch(comps, idx):
        return real(comps, idx)[::-1]

    monkeypatch.setattr(permpos.verify, "_decode_raw", mismatch)
    tables = count_tables(9)
    runs = []
    for workers in (1, 2):
        codec = _codec_report(suite_thm3(9, 9, tables, workers=workers))
        assert not codec.passed
        runs.append({k: v for k, v in codec.to_json_dict().items() if k != "millis"})
    assert runs[0] == runs[1]
    smallest = sorted((v for _, _, _, v, _ in _walk(3, 9, 2) if v[-1] != 1),
                      key=lambda v: (len(v), v))[:10]
    assert runs[0]["residual"] == [[len(v), 0, "1"] for v in smallest] + [[4, 1, "1"]]


def _not1_counts(max_n):
    # the codec scan's count of the a = 2 members not ending in 1, by (n, k)
    return _codec_scan(_walk(3, max_n, 2))[0]


def test_explicit_codec_check_names_the_first_disagreeing_class(monkeypatch, tables8):
    not1 = _not1_counts(8)
    assert _explicit_codec_check(8, not1) is None

    # a decoder that sends every tuple of size 7 with three components to
    # the image of the first one, which re-encodes to the first tuple only;
    # only the explicit check's calls, whose components come as a tuple
    # from itertools.product, are broken, and the codec scan's, with a list
    # from the encoder, are not
    real = permpos.verify._decode_raw
    first = {}

    def broken(comps, marked_idx=-1):
        sigma = real(comps, marked_idx)
        if isinstance(comps, tuple) and len(comps) == 3 and len(sigma) == 7:
            return first.setdefault("image", sigma)
        return sigma

    monkeypatch.setattr(permpos.verify, "_decode_raw", broken)
    assert _explicit_codec_check(8, not1) == (7, 3)
    codec = _codec_report(suite_thm3(8, 8, tables8))
    assert not codec.passed
    assert codec.residual == [(7, 3, Fraction(1))]

    # one member more than the tuples decode to
    monkeypatch.undo()
    assert _explicit_codec_check(8, {**not1, (6, 2): not1[(6, 2)] + 1}) == (6, 2)


def test_explicit_codec_check_decodes_a_class_the_counts_leave_out():
    # a cell missing from the counts is still decoded, and its tuples then
    # outnumber the members counted there, none
    not1 = _not1_counts(8)
    for cell in ((4, 1), (6, 2), (8, 5)):
        assert _explicit_codec_check(8, {key: c for key, c in not1.items() if key != cell}) == cell


def test_explicit_codec_check_tests_the_class_of_each_image(monkeypatch, tables8):
    # the decoder and the encoder agree on one size-7, k = 3 tuple, whose
    # image contains 1324 (2 5 4 6); decoding stays injective, the image
    # count is unchanged, and only the class test names (7, 3)
    outsider = (2, 3, 5, 7, 1, 4, 6)
    assert _word_contains_1324(outsider)
    member = next(v for _, _, _, v, _ in _walk(7, 7, 2, 3) if v[-1] != 1)
    comps, slot = permpos.verify._factorize_raw(member, 2)
    combo = tuple(map(tuple, comps))
    real_decode = permpos.verify._decode_raw
    real_encode = permpos.verify._factorize_raw

    def decode(comps, marked_idx=-1):
        if isinstance(comps, tuple) and (comps, marked_idx) == (combo, slot):
            return outsider
        return real_decode(comps, marked_idx)

    def encode(values, low=1):
        if tuple(values) == outsider and low == 2:
            return [list(c) for c in combo], slot
        return real_encode(values, low)

    monkeypatch.setattr(permpos.verify, "_decode_raw", decode)
    monkeypatch.setattr(permpos.verify, "_factorize_raw", encode)
    assert _explicit_codec_check(8, _not1_counts(8)) == (7, 3)
    assert _codec_report(suite_thm3(8, 8, tables8)).residual == [(7, 3, Fraction(1))]


@pytest.mark.parametrize("suite,bound", [
    (lambda tables: suite_thm2(9, tables), 1 << 20),
    (lambda tables: suite_thm3(9, 9, tables), 2 << 20),
], ids=["thm2", "thm3"])
def test_exhaustive_checks_hold_no_member_sets(suite, bound):
    # the accounting and the explicit codec check run to n = 9 over every
    # member without holding them; holding the members in per-(n, k) sets
    # peaks at 2.4 and 3.0 MiB here, above these bounds
    tables = count_tables(9)
    tracemalloc.start()
    try:
        reports = suite(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < bound


def test_codec_image_outside_the_domain_is_a_disagreement(monkeypatch):
    # reversing every size-7, k = 3 image of the explicit check (its
    # components come as a tuple) gives permutations the encoder rejects;
    # that is a codec disagreement at (7, 3), not a thm3 crash
    real = permpos.verify._decode_raw

    def reversed_image(comps, marked_idx=-1):
        sigma = real(comps, marked_idx)
        if isinstance(comps, tuple) and len(comps) == 3 and len(sigma) == 7:
            return sigma[::-1]
        return sigma

    monkeypatch.setattr(permpos.verify, "_decode_raw", reversed_image)
    reports = run_suites(["thm3"], max_n=8)
    assert [r.identity for r in reports] == [
        "a2-series-expansion", "g2-two-routes", "marked-tuple-codec"]
    assert reports[0].passed and reports[1].passed
    assert _codec_report(reports).residual == [(7, 3, Fraction(1))]


def test_codec_image_that_is_no_permutation_is_a_disagreement(monkeypatch):
    # a decoder that returns () fails every member of the scan, and the
    # explicit check at its first class, (4, 1), where the encoder rejects
    # the empty image as outside the domain; thm3 is no suite error
    monkeypatch.setattr(permpos.verify, "_decode_raw", lambda comps, marked_idx=-1: ())
    reports = run_suites(["thm3"], max_n=7)
    assert [(r.identity, r.passed) for r in reports] == [
        ("a2-series-expansion", True), ("g2-two-routes", True), ("marked-tuple-codec", False)]
    smallest = sorted((v for _, _, _, v, _ in _walk(3, 7, 2) if v[-1] != 1),
                      key=lambda v: (len(v), v))[:10]
    assert _codec_report(reports).residual == [
        (len(v), 0, Fraction(1)) for v in smallest] + [(4, 1, Fraction(1))]


@pytest.mark.parametrize("workers", [1, 2])
def test_codec_scan_defect_is_the_suite_failure(monkeypatch, workers):
    # only DomainError counts as a codec disagreement; any other exception
    # in the scan (here raised in the forked workers at two) fails thm3 as a
    # whole, named by its type; only the encoder's calls, with low cut 2,
    # are broken
    real = permpos.verify._factorize_raw

    def broken(values, low=1):
        if low == 2:
            raise RuntimeError("simulated scan defect")
        return real(values, low)

    monkeypatch.setattr(permpos.verify, "_factorize_raw", broken)
    reports = run_suites(["thm3"], max_n=9, workers=workers, tables=count_tables(9))
    assert [(r.identity, r.passed) for r in reports] == [("thm3", False)]
    assert reports[0].params == {"error": "RuntimeError", "message": "simulated scan defect"}


def _encoder_defect_fails_the_codec(monkeypatch, workers, fault):
    # an encoder whose every tuple the decoder rejects: every member fails
    # marked-tuple-codec, whose residual names the ten smallest whatever the
    # worker count, then the explicit check's first class, (4, 1), as it
    # encodes with the same encoder; thm3 is no suite error. Only the
    # encoder's calls, with low cut 2, pass through fault(comps, marked index)
    real = permpos.verify._factorize_raw

    def broken(values, low=1):
        comps, idx = real(values, low)
        return (fault(comps, idx) if low == 2 else comps), idx

    for member in ((2, 4, 1, 3), (2, 3, 5, 1, 4)):  # k = 1 and k = 2
        with pytest.raises(DomainError):
            _decode_raw(*broken(member, 2))
    monkeypatch.setattr(permpos.verify, "_factorize_raw", broken)
    reports = run_suites(["thm3"], max_n=9, workers=workers, tables=count_tables(9))
    assert [(r.identity, r.passed) for r in reports] == [
        ("a2-series-expansion", True), ("g2-two-routes", True), ("marked-tuple-codec", False)]
    smallest = sorted((v for _, _, _, v, _ in _walk(3, 9, 2) if v[-1] != 1),
                      key=lambda v: (len(v), v))[:10]
    assert _codec_report(reports).residual == [
        (len(v), 0, Fraction(1)) for v in smallest] + [(4, 1, Fraction(1))]


@pytest.mark.parametrize("workers", [1, 2])
def test_marked_one_moved_to_the_end_is_a_codec_failure(monkeypatch, workers):
    # the marked component's 1 moved to its end: the decoder rejects it
    def moved(comps, idx):
        comps[idx] = [v for v in comps[idx] if v != 1] + [1]
        return comps

    _encoder_defect_fails_the_codec(monkeypatch, workers, moved)


@pytest.mark.parametrize("workers", [1, 2])
def test_component_without_its_one_is_a_codec_failure(monkeypatch, workers):
    # every component without its 1: the decoder's lookup of the 1 fails,
    # which is a DomainError like any other rejected component
    _encoder_defect_fails_the_codec(
        monkeypatch, workers, lambda comps, idx: [[v for v in c if v != 1] for c in comps])


def _size9_primitives():
    walk = _walk(9, 9, 1, 1)
    return [Permutation(next(walk)[3], validate=False) for _ in range(2)]


def _words(sigma):
    # the tags and the (bottom, top) words of a primitive's domino, as the
    # generator's fakes match them
    d = to_domino(sigma)
    return d.cols, (d.bottom.values, d.top.values)


def _collide(monkeypatch):
    # two size-9 primitives (p = 7) sent to one domino, so the second one's
    # domino does not map back to itself
    real = permpos.verify._to_domino_raw
    first, second = (sigma.values for sigma in _size9_primitives())
    monkeypatch.setattr(permpos.verify, "_to_domino_raw", lambda sigma: real(
        first if sigma == second else sigma))


def _outside(monkeypatch):
    # one size-9 primitive sent to a domino with 8 points, so its own domino
    # does not map back to itself
    real = permpos.verify._to_domino_raw
    first = _size9_primitives()[0].values
    other = next(_walk(10, 10, 1, 1))[3]
    monkeypatch.setattr(permpos.verify, "_to_domino_raw", lambda sigma: real(
        other if sigma == first else sigma))


def _oracle_swap(monkeypatch):
    # the generator trades the domino of one size-9 primitive for the words
    # of an 8-point domino; the generated count still agrees, and the tag
    # check rejects the words, which do not fit the 7 tags
    real = permpos.verify._tagged_dominoes
    cols, words = _words(_size9_primitives()[0])
    # an 8-point domino is never the image of a size-9 primitive
    stranger = next(enumerate_dominoes(8))
    assert stranger.bottom.values == words[0] == ()

    def swapped(tags):
        for pair in real(tags):
            yield ((stranger.bottom.values, stranger.top.values)
                   if tags == cols and pair == words else pair)

    monkeypatch.setattr(permpos.verify, "_tagged_dominoes", swapped)


def _oracle_extra(monkeypatch):
    # the generator gains the words of an 8-point domino under one 7-point
    # tag vector: they do not fit its tags, and the dominoes outnumber the
    # primitives
    real = permpos.verify._tagged_dominoes
    stranger = next(enumerate_dominoes(8))

    def extended(tags):
        yield from real(tags)
        if tags == ("t",) * 7:
            yield stranger.bottom.values, stranger.top.values

    monkeypatch.setattr(permpos.verify, "_tagged_dominoes", extended)


def _oracle_repeat(monkeypatch):
    # the generator yields one 7-point domino twice in place of another with
    # the same tags; the count still agrees, so only the distinct images
    # can see it
    real = permpos.verify._tagged_dominoes
    (cols, first), (other_cols, second) = (_words(sigma) for sigma in _size9_primitives())
    assert cols == other_cols

    def repeated(tags):
        for pair in real(tags):
            yield first if tags == cols and pair == second else pair

    monkeypatch.setattr(permpos.verify, "_tagged_dominoes", repeated)


def _oracle_moved(monkeypatch):
    # the generator yields the words of a 7-point domino of another tag
    # vector, with another bottom size, in place of one of this tag vector's
    # dominoes; the generated count agrees, and only the tag check keeps the
    # map from reading past the end of a cell word
    real = permpos.verify._tagged_dominoes
    cols, words = _words(_size9_primitives()[0])
    moved = next(d for d in enumerate_dominoes(7) if d.cols.count("b") != cols.count("b"))

    def replaced(tags):
        return ((moved.bottom.values, moved.top.values) if tags == cols and pair == words
                else pair for pair in real(tags))

    monkeypatch.setattr(permpos.verify, "_tagged_dominoes", replaced)


def _oracle_drop(monkeypatch):
    # the generator drops one 7-point domino; every other image is good, so
    # only the comparison with the table's primitive count can see it
    real = permpos.verify._tagged_dominoes
    cols, words = _words(_size9_primitives()[0])

    def dropped(tags):
        return (pair for pair in real(tags) if tags != cols or pair != words)

    monkeypatch.setattr(permpos.verify, "_tagged_dominoes", dropped)


def _oracle_invalid(monkeypatch):
    # the generator trades one all-bottom 7-point domino for one whose
    # bottom cell contains 132 (its underlying word avoids 1324), so the
    # map raises on it instead of giving a primitive
    real = permpos.verify._tagged_dominoes
    cols = ("b",) * 7
    words = next(real(cols))
    invalid = ((1, 2, 3, 4, 5, 7, 6), ())

    def traded(tags):
        return (invalid if tags == cols and pair == words else pair for pair in real(tags))

    monkeypatch.setattr(permpos.verify, "_tagged_dominoes", traded)


@pytest.mark.parametrize("fault", [None, _collide, _outside, _oracle_swap, _oracle_extra,
                                   _oracle_repeat, _oracle_moved, _oracle_drop,
                                   _oracle_invalid])
def test_domino_map_names_the_faulty_point_count(monkeypatch, fault):
    # at two workers the map runs in forked workers, which inherit the fault
    tables = count_tables(10)
    if fault is not None:
        fault(monkeypatch)
    for workers in (1, 2):
        bijection = suite_prop1(10, tables, workers=workers)[0].to_json_dict()
        assert bijection["identity"] == "primitive-domino-bijection"
        assert bijection["residual"] == ([] if fault is None else [[7, 0, "1"]]), workers


@pytest.mark.parametrize("max_n", [10, 11])
def test_domino_split_is_invisible(tables11, max_n):
    # one worker maps every tag vector in this process; two and three split
    # the tag vectors over a Pool and must report the same
    def reports(workers):
        return [dict(r.to_json_dict(), millis=0)
                for r in suite_prop1(max_n, tables11, workers=workers)]

    alone = reports(1)
    assert all(r["pass"] for r in alone)
    assert reports(2) == alone
    assert reports(3) == alone


# -- one injected fault per failure branch --------------------------------
#
# Each fault patches one route in verify's namespace, or one table cell or
# total, so that one identity fails at max_n = 8 and names the (n, k) the
# fault acts on; every identity run_suites emits has a row. The accounting
# faults act on one parent of class (1, 3) and size 6, so on (7, 3).


def _parent():
    # the first one with an entry right of its maximum, so two children
    return next(v for _, _, _, v, _ in _walk(6, 6, 1, 3) if v[-1] != 6)


def _wrap(monkeypatch, name, change):
    # verify's ``name`` passes each result through change(args, result)
    real = getattr(permpos.verify, name)
    monkeypatch.setattr(permpos.verify, name,
                        lambda *args, **kwargs: change(args, real(*args, **kwargs)))


def _rc_moves_the_one(monkeypatch, tables):
    parent = _parent()
    _wrap(monkeypatch, "_reverse_complement_raw",
          lambda args, rc: rc[1:] + rc[:1] if args[0] == parent else rc)


def _expand_drops_a_child(monkeypatch, tables):
    parent = _parent()
    _wrap(monkeypatch, "_expand_raw",
          lambda args, cs: cs[:-1] if args[0] == parent else cs)


def _expand_repeats_a_child(monkeypatch, tables):
    parent = _parent()
    _wrap(monkeypatch, "_expand_raw",
          lambda args, cs: cs[:-1] + cs[:1] if args[0] == parent else cs)


def _expand_borrows_a_child(monkeypatch, tables):
    # in place of its last child, the parent yields a child of another
    # parent of its class; the gap sum and the child count hold, and only
    # the contraction sees that two parents share the child
    parent = _parent()
    other = next(v for _, _, _, v, _ in _walk(6, 6, 1, 3) if v != parent)
    borrowed = _expand_raw(other)[0]
    _wrap(monkeypatch, "_expand_raw",
          lambda args, cs: cs[:-1] + [borrowed] if args[0] == parent else cs)


def _contract_misses_the_parent(monkeypatch, tables):
    parent = _parent()
    _wrap(monkeypatch, "_contract_raw",
          lambda args, p: p[::-1] if p == parent else p)


def _walk_swaps_two_labels(monkeypatch, tables):
    # (5,1,2,6,3,4) is in class (1, 2) and (1,2,3,6,4,5) in class (1, 3);
    # both have two entries right of their maximum, so with their k labels
    # swapped every gap sum still matches, and only the mirror sees it
    swap = {(5, 1, 2, 6, 3, 4): 3, (1, 2, 3, 6, 4, 5): 2}
    real = permpos.verify._walk
    monkeypatch.setattr(permpos.verify, "_walk", lambda *args: (
        (n, a, swap.get(v, k), v, L) for n, a, k, v, L in real(*args)))


def _table_cell(monkeypatch, tables):
    tables[7].counts[(2, 3)] += 1


def _a1_table_cell(monkeypatch, tables):
    # the size-7 class-(2, 3) members that end in 1 are as many as this cell
    tables[6].counts[(1, 3)] += 1


def _t2k_series_off(monkeypatch, tables):
    _wrap(monkeypatch, "t2k_series", lambda args, s: s + TruncatedSeries.monomial(
        7, s.order) if args[0] == 3 else s)


def _f_power_off(monkeypatch, tables):
    # f^1 gains x^4: of the tuple counts with k = 2, only n = 8 = 4 + 4 sees
    # it, through the one marked component of size 4, 2413, in each of the
    # two slots
    _wrap(monkeypatch, "f_power", lambda args, s: s + TruncatedSeries.monomial(
        4, s.order) if args[0] == 1 else s)


def _closed_form_off(monkeypatch, tables):
    _wrap(monkeypatch, "primitive_count_closed_form",
          lambda args, c: c + 1 if args[0] == 6 else c)


def _f_series_off(monkeypatch, tables):
    _wrap(monkeypatch, "f_series",
          lambda args, s: s + TruncatedSeries.monomial(5, s.order))


def _a3_table_cell(monkeypatch, tables):
    tables[7].counts[(3, 3)] += 1


def _table_total(monkeypatch, tables):
    # the size-7 total is read as |S_7(1324)| at n = 7 and as the
    # start-with-n count at n = 8, and it leaves A061552
    tables[7].total += 1


def _to_domino_reversed(monkeypatch, tables):
    # one primitive with four points whose domino does not map back to it
    _wrap(monkeypatch, "_to_domino_raw",
          lambda args, d: d[::-1] if tuple(args[0]) == (2, 1, 6, 3, 4, 5) else d)


_FAULT_ROWS = [
    (_rc_moves_the_one, "thm2", "a2-insertion-accounting", [(7, 3, 1)]),
    (_expand_drops_a_child, "thm2", "a2-insertion-accounting", [(7, 3, -1)]),
    (_expand_repeats_a_child, "thm2", "a2-insertion-accounting", [(7, 3, 1)]),
    (_contract_misses_the_parent, "thm2", "a2-insertion-accounting", [(7, 3, 1)]),
    (_table_cell, "thm2", "a2-insertion-accounting", [(7, 3, -1)]),
    (_t2k_series_off, "thm3", "a2-series-expansion", [(7, 3, 1)]),
    (_table_cell, "thm3", "g2-two-routes", [(7, 3, -1)]),
    (_f_power_off, "thm3", "marked-tuple-codec", [(8, 2, -2)]),
    (_table_cell, "thm3", "marked-tuple-codec", [(7, 3, -1)]),
    (_a1_table_cell, "thm3", "marked-tuple-codec", [(7, 3, -1)]),
    (_closed_form_off, "prop1", "primitive-count-three-way", [(6, 0, -1)]),
    (_f_series_off, "prop1", "primitive-count-three-way", [(6, 1, 1)]),
    (_walk_swaps_two_labels, "thm2", "a2-insertion-accounting", [(7, 2, 1), (7, 3, 1)]),
    (_a1_table_cell, "thm1", "a1-recurrence", [(6, 3, -1)]),  # its k >= 2 branch
    (_a1_table_cell, "thm1", "a1-power-series", [(6, 3, -1)]),
    (_a1_table_cell, "thm2", "a2-halving-count", [(7, 3, -2)]),
    # the first conjecture report, a = 3 and k = 3; its residual's 3 names form 3
    (_a3_table_cell, "conjecture", "conjecture-expansion", [(7, 3, -1)]),
    (_a3_table_cell, "gidentity", "total-count-partition", [(7, 0, -1)]),
    (_table_total, "gidentity", "total-count-partition", [(7, 0, 1), (8, 0, -1), (7, 1, 1)]),
    (_to_domino_reversed, "prop1", "primitive-domino-bijection", [(4, 0, 1)]),
    (_expand_borrows_a_child, "thm2", "a2-insertion-accounting", [(7, 3, 1)]),
]


@pytest.mark.parametrize("fault,suite,identity,residual", _FAULT_ROWS)
def test_injected_fault_fails_its_identity_at_its_cell(monkeypatch, tables8, fault, suite,
                                                        identity, residual):
    tables = copy.deepcopy(tables8)
    fault(monkeypatch, tables)
    reports = run_suites((suite,), max_n=8, tables=tables)
    report = next(r for r in reports if r.identity == identity)
    assert not report.passed
    assert report.residual == [(n, k, Fraction(c)) for n, k, c in residual]


def test_every_identity_has_a_fault_row(tables8):
    # every declared suite, default or opt-in
    declared = [name for name, _, _ in permpos.verify.DECLARATIONS]
    emitted = {r.identity for r in run_suites(declared, max_n=8, tables=tables8)}
    assert emitted == {identity for _, _, identity, _ in _FAULT_ROWS}
