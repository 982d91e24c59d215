import copy
import json

import pytest

import permpos.verify
from permpos.cli import main
from permpos.enumeration import count_tables
from permpos.permutations import DomainError
from permpos.verify import (
    SUITES,
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
        raise DomainError("simulated codec defect")

    monkeypatch.setattr(permpos.verify, "encode_perm", broken)
    assert main(["verify", "--suite", "all", "--max-n", "6", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    failed = [r for r in reports if not r["pass"]]
    assert [r["identity"] for r in failed] == ["thm3"]
    assert failed[0]["params"]["error"] == "DomainError"
    assert failed[0]["params"]["message"] == "simulated codec defect"
    # the suites after thm3 still ran
    monkeypatch.undo()
    others = [r.identity for r in run_suites(SUITES, max_n=6) if r.identity not in clean]
    assert [r["identity"] for r in reports if r["pass"]] == others
