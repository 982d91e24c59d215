"""Acceptance suite: one test per criterion, exact comparisons throughout.

Expected values are frozen from independent sources: the closed form for
primitive counts, exhaustive filter enumeration for totals and class
counts, and the published reference rows for the size-4 factorization
table and the (7, 3) marked-tuple instance. Run with -s to see one
PASS line per criterion.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from permpos.cli import main
from permpos.dominoes import enumerate_dominoes, from_domino, to_domino
from permpos.enumeration import _walk, classify, iter_class_members
from permpos.genfun import (
    a_nk_recurrence,
    conjecture_check,
    g2_series,
    g_identity_check,
    primitive_count_closed_form,
    t1k_series,
)
from permpos.products import decode_tuple, encode_perm, factorize, parse_marked_tuple
from permpos.permutations import Permutation, parse_permutation
from permpos.verify import suite_thm2, suite_thm3

# |S_{n,1}^{1<n}(1324)| for n = 2..9
PRIMITIVE_COUNTS = [1, 2, 6, 22, 91, 408, 1938, 9614]

# |S_n(1324)| for n = 1..11, from the exhaustive enumeration oracle
TOTALS = [1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112]

# size-4 members by distance k, with their primitive decompositions
TABLE1 = {
    3: [("1234", ["12", "12", "12"])],
    2: [("1243", ["12", "132"]),
        ("1342", ["132", "12"]),
        ("2134", ["213", "12"]),
        ("3124", ["12", "213"])],
    1: [("1423", ["1423"]), ("1432", ["1432"]), ("2143", ["2143"]),
        ("3142", ["3142"]), ("2314", ["2314"]), ("3214", ["3214"])],
}

# the 30 class-(2, 3) avoiders of size 7 not ending in 1, with their tuples
TABLE2 = [
    ("(^25134, 12, 12)", "2567134"), ("(12, ^25134, 12)", "2367145"),
    ("(12, 12, ^25134)", "2347156"), ("(^25143, 12, 12)", "2567143"),
    ("(12, ^25143, 12)", "2367154"), ("(12, 12, ^25143)", "2347165"),
    ("(^25413, 12, 12)", "2567413"), ("(12, ^25413, 12)", "2367514"),
    ("(12, 12, ^25413)", "2347615"), ("(^25314, 12, 12)", "2567314"),
    ("(12, ^25314, 12)", "2367415"), ("(12, 12, ^25314)", "2347516"),
    ("(^32514, 12, 12)", "3256714"), ("(12, ^32514, 12)", "4236715"),
    ("(12, 12, ^32514)", "5234716"), ("(^42513, 12, 12)", "4256713"),
    ("(12, ^42513, 12)", "5236714"), ("(12, 12, ^42513)", "6234715"),
    ("(^2413, 132, 12)", "2467513"), ("(^2413, 12, 132)", "2457613"),
    ("(132, ^2413, 12)", "2467153"), ("(12, ^2413, 132)", "2357614"),
    ("(132, 12, ^2413)", "2457163"), ("(12, 132, ^2413)", "2357164"),
    ("(^2413, 213, 12)", "5246713"), ("(^2413, 12, 213)", "6245713"),
    ("(213, ^2413, 12)", "3246715"), ("(12, ^2413, 213)", "6235714"),
    ("(213, 12, ^2413)", "3245716"), ("(12, 213, ^2413)", "4235716"),
]


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_primitive_counts(tables11):
    start = time.monotonic()
    for n, expected in zip(range(2, 10), PRIMITIVE_COUNTS):
        brute = sum(1 for _ in iter_class_members(n, 1, 1))
        assert brute == expected
        assert primitive_count_closed_form(n) == expected
        assert tables11[n].count(1, 1) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"primitive counts n=2..9 match the closed form ({elapsed:.1f}s)")


def test_criterion_02_table1_reproduction(capsys):
    listed = []
    for k, rows in TABLE1.items():
        for digits, factor_digits in rows:
            perm = parse_permutation(digits)
            assert classify(perm).k == k
            listed.append(perm)
            expected = " ⊙ ".join(
                parse_permutation(d).to_text() for d in factor_digits)
            code = main(["factor", digits])
            out = capsys.readouterr().out
            assert code == 0
            assert out.strip() == expected  # exact canonical string
    # the listed rows are exactly the size-4 members, bucket by bucket
    for k, rows in TABLE1.items():
        members = {p.values for p in iter_class_members(4, 1, k)}
        assert members == {parse_permutation(d).values for d, _ in rows}
    report(2, "size-4 factorization table reproduced string-exactly")


def test_criterion_03_domino_bijection():
    start = time.monotonic()
    for p in range(0, 8):
        generated = {d.to_text(): d for d in enumerate_dominoes(p)}
        assert len(generated) == primitive_count_closed_form(p + 2)
        image = set()
        for sigma in iter_class_members(p + 2, 1, 1):
            d = to_domino(sigma)
            key = d.to_text()
            assert key not in image
            assert key in generated
            image.add(key)
            assert from_domino(d) == sigma
        assert image == set(generated)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"domino correspondence bijective for p <= 7 ({elapsed:.1f}s)")


def test_criterion_04_unique_factorization():
    start = time.monotonic()
    checked = 0
    for n in range(2, 11):
        for _, a, k, values, _ in _walk(n, n, 1):
            p = Permutation(values, validate=False)
            decomp = factorize(p)
            assert decomp.k == p.position(n) - p.position(1)
            assert decomp.recompose() == p
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(4, f"factorization exact on {checked} members, n <= 10 ({elapsed:.1f}s)")


def test_criterion_05_distance_counts_triple(tables11):
    for n in range(2, 12):
        for k in range(1, n):
            brute = tables11[n].count(1, k)
            rec = primitive_count_closed_form(n) if k == 1 else a_nk_recurrence(n, k)
            assert rec == brute
            assert t1k_series(k, 11).coeff(n) == brute
    report(5, "enumeration = recurrence = series coefficients, n <= 11")


def test_criterion_06_halving_and_insertion(tables11):
    reports = suite_thm2(11, tables11)
    by_name = {r.identity: r for r in reports}
    assert by_name["a2-halving-count"].passed
    assert by_name["a2-halving-count"].params == {"max_n": 11}
    # evenness comes with the identity: (n-k) a_{n-1,k} is always even
    for n in range(3, 12):
        for k in range(1, n):
            assert (n - k) * tables11[n - 1].count(1, k) % 2 == 0
    assert by_name["a2-insertion-accounting"].passed
    assert by_name["a2-insertion-accounting"].params == {"max_n": 9}
    report(6, "halving identity n <= 11; insertion accounting n <= 9")


def test_criterion_07_marked_tuple_codec(tables11):
    # the (7, 3) reference instance, string-exact both ways
    decoded = set()
    for tuple_text, sigma_digits in TABLE2:
        t = parse_marked_tuple(tuple_text)
        sigma = parse_permutation(sigma_digits)
        assert decode_tuple(t) == sigma
        assert encode_perm(sigma) == t
        decoded.add(sigma.values)
    members = {v for _, _, _, v, _ in _walk(7, 7, 2, 3) if v[-1] != 1}
    assert decoded == members and len(decoded) == 30

    # codec bijection for n <= 11, series formula, g2 assembly agreement
    reports = suite_thm3(11, 9, tables11, workers=2)
    by_name = {r.identity: r for r in reports}
    codec = by_name["marked-tuple-codec"]
    assert codec.passed and codec.params["max_n"] == 11
    series = by_name["a2-series-expansion"]
    assert series.passed and series.params == {"max_n": 11, "max_k": 9}
    routes = by_name["g2-two-routes"]
    assert routes.passed and routes.params["torder"] == 9
    g2_series(9, 9)  # raises unless both assembly routes agree at N=K=9
    report(7, "codec bijective n <= 11; 30 reference rows exact; "
              "series and assembly routes agree")


def test_criterion_08_conjecture(tables11):
    for a in (3, 4):
        for k in range(a, 7):
            r = conjecture_check(a, k, 11, tables11)
            assert r.passed, (a, k, r.residual)
            assert r.residual == []  # the form-3 residual series is empty
    report(8, "conjecture form 3 residual-zero, "
              "a in {3,4}, k <= 6, order 11")


def test_criterion_09_total_partition(tables11):
    assert [tables11[n].total for n in range(1, 12)] == TOTALS
    r = g_identity_check(11, tables11)
    assert r.passed
    for n in range(2, 12):
        assert tables11[n].total == tables11[n - 1].total + \
            tables11[n].classified_total()
    report(9, "total-count partition identity holds for n <= 11")


def test_criterion_10_cli_verify_all():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "permpos", "verify", "--suite", "all",
         "--max-n", "11", "--threads", "0"],
        capture_output=True, text=True, timeout=300,
        cwd=Path(__file__).resolve().parents[1],
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ALL PASS" in proc.stdout
    assert elapsed < 300.0
    # n = 12 stays available as opt-in desk scale, larger is rejected
    from permpos.cli import build_parser
    assert build_parser().parse_args(["verify", "--max-n", "12"]).max_n == 12
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "13"])
    assert exc.value.code == 2
    report(10, f"verify --suite all --max-n 11 passed in {elapsed:.0f}s")
