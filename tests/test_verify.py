import copy
import json
from fractions import Fraction

import pytest

import permpos.verify
from permpos.cli import main
from permpos.enumeration import _walk, count_tables
from permpos.permutations import Permutation
from permpos.verify import (
    SUITES,
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
    reports = run_suites(SUITES, max_n=8, max_k=8, tables=tables8)
    assert reports and all(r.passed for r in reports)
    names = [r.identity for r in reports]
    assert names.index("a1-recurrence") < names.index("total-count-partition")


def test_unknown_suite_rejected(tables8):
    with pytest.raises(ValueError):
        run_suites(("nope",), max_n=6, tables=tables8)


@pytest.mark.parametrize("kwargs", [
    {"max_k": -1}, {"conjecture_a": 7}, {"conjecture_a": 0}, {"workers": -1}])
def test_bad_arguments_raise_before_any_suite(tables8, kwargs):
    with pytest.raises(ValueError):
        run_suites(SUITES, max_n=8, tables=tables8, **kwargs)


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


def test_fail_fast_stops_at_first_failure(broken_tables):
    reports = run_suites(SUITES, max_n=8, max_k=8, tables=broken_tables,
                         fail_fast=True)
    assert not all(r.passed for r in reports)
    # thm1 fails immediately, so nothing beyond its batch is run
    assert {r.identity for r in reports} == {"a1-recurrence", "a1-power-series"}


def test_codec_report_params(tables8):
    reports = suite_thm3(8, 8, tables8, workers=1)
    codec = next(r for r in reports if r.identity == "marked-tuple-codec")
    assert codec.params["explicit_max_n"] == 8
    assert codec.passed


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
    # smallest first
    def mismatch(comps, idx):
        return ()

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
    assert runs[0]["residual"] == [[len(v), 0, "1"] for v in smallest]


def test_explicit_codec_check_names_the_first_disagreeing_class(monkeypatch, tables8):
    not1_sets = {}
    for n, _, k, v, _ in _walk(4, 8, 2):
        if v[-1] != 1:
            not1_sets.setdefault((n, k), set()).add(v)
    assert _explicit_codec_check(8, not1_sets) is None

    # a decoder that sends every tuple of size 7 with three components to
    # the image of the first one
    real = permpos.verify.decode_tuple
    first = {}

    def broken(t, validate=True):
        sigma = real(t, validate)
        if t.k == 3 and t.target_size == 7:
            return first.setdefault("image", sigma)
        return sigma

    monkeypatch.setattr(permpos.verify, "decode_tuple", broken)
    assert _explicit_codec_check(8, not1_sets) == (7, 3)
    codec = _codec_report(suite_thm3(8, 8, tables8))
    assert not codec.passed
    assert codec.residual == [(7, 3, Fraction(1))]

    # a member the walk produced but no tuple decodes to
    monkeypatch.undo()
    missing = {key: set(members) for key, members in not1_sets.items()}
    missing[(6, 2)].add((6, 5, 4, 3, 2, 1))
    assert _explicit_codec_check(8, missing) == (6, 2)


def test_codec_image_outside_the_domain_is_a_disagreement(monkeypatch):
    # reversing every size-7, k = 3 image gives permutations encode rejects;
    # that is a codec disagreement at (7, 3), not a thm3 crash
    real = permpos.verify.decode_tuple

    def reversed_image(t, validate=True):
        sigma = real(t, validate)
        if t.k == 3 and t.target_size == 7:
            return Permutation(sigma.values[::-1], validate=False)
        return sigma

    monkeypatch.setattr(permpos.verify, "decode_tuple", reversed_image)
    reports = run_suites(["thm3"], max_n=8, max_k=8)
    assert [r.identity for r in reports] == [
        "a2-series-expansion", "g2-two-routes", "marked-tuple-codec"]
    assert reports[0].passed and reports[1].passed
    assert _codec_report(reports).residual == [(7, 3, Fraction(1))]
