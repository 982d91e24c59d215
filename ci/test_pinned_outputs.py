"""Pinned outputs, run with ``python -m pytest -q ci``: SHA-256 digests, each
taken before a refactor that had to keep it, of the count tables to n = 15, of
verify at max-n 11 and 12 and of the series at orders 14 and 15, and a
count-table cache written, read back and refused once cut. Tier-1 stops below
these."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permpos.enumeration import _cache_paths, count_tables

# (n, workers, SHA-256 of the record_text() of the tables for sizes 1..n).
# Two workers split the count into contiguous runs of sorted states and sum
# the packed parts, which must give the same text as one
TABLES = [
    (13, 1, "81a56b3596efd99bf6260a09936c2de8cf59eb6dceb0e248248c7a19a3f25324"),
    (13, 2, "81a56b3596efd99bf6260a09936c2de8cf59eb6dceb0e248248c7a19a3f25324"),
    (14, 1, "6589a7e4abd3c54d8bd2056ccd8471832c24f1b9405939b6abf93bfd74e8e5ab"),
    (14, 2, "6589a7e4abd3c54d8bd2056ccd8471832c24f1b9405939b6abf93bfd74e8e5ab"),
    (15, 2, "5d8bf91135dbdc901ce9e23cca36cbd1f244e8dcb8bced4b1def14c1f9acb5d3"),
]
TOTAL_15 = 8604450011  # |S_15(1324)|, OEIS A061552

# (argv, SHA-256 of its JSON reports without millis, json.dumps with
# sort_keys); the count, the thm3 codec scan and the prop1 domino map split
# their roots over the workers, and every worker count gives the same reports
VERIFY = [(["verify", "--suite", "all", "--max-n", n, "--threads", t, "--format", "json"], d)
          for n, t, d in [
    ("12", "0", "ed95f67b370a9e7d9fa7ffe4f0dd054b0be68ed935c1be9f4fcc60311350f31c"),
    ("11", "1", "8a831df92752baaa561058ea0045592b30ccee28fc0e0066427412d3dcaab05d"),
    ("11", "2", "8a831df92752baaa561058ea0045592b30ccee28fc0e0066427412d3dcaab05d")]]

# (argv, SHA-256 of stdout): f, the closed forms of t for a = 1 and 2, and the
# g1 and g2 grids to t^(order - 1), the last column that reaches x^order; at
# order 15, the CLI's top, the two series that halve: g2 and t for a = 2
SERIES = [(["series", "--which", *which.split(), "--order", order, "--format", "json"], d)
          for which, order, d in [
    ("f", "14", "de538176c194415b1c9218131dcf2f7fba98b4b3d73e55341067d11cd176d262"),
    ("t --a 1 --k 5", "14", "2da291c3ec351c969793889a8621902fb4e72b188e4e04632a8c10e10e92fd5b"),
    ("t --a 2 --k 3", "14", "48e46b4cdc509085db30133b4bb0d08001ac5e2bbe0834cb029fa59075e5cea4"),
    ("g1", "14", "5ff1ad5602e5d6048e5cb3b1e7dbf1613aed64670ffae5c1c5a203ffa933453a"),
    ("g2", "14", "991be6d5936c22d1ff1adae965d228e942e794ef2829b0fab8ee706f97253d12"),
    ("g2", "15", "a367743c2aa3a1e9221ba7df8a411544052a1ffb5ab0291fe09db4453273b884"),
    ("t --a 2 --k 3", "15", "8d8b5f49ec3b6be699241741ca17031bf01a36c3fcec8f0ac55e8660bc346b5e")]]

# t(3, 4) counts its tables to order 12; each takes --cache-dir
CACHED_SERIES = ["series", "--which", "t", "--a", "3", "--k", "4", "--order", "12",
                 "--format", "json"]
CACHED_DIGEST = "854998de41eb7cfe4013a0ad4679cdc9667723381f768adda02720856be6d8b7"
CACHED_VERIFY = ["verify", "--suite", "gidentity", "--max-n", "12"]


def run_permpos(argv):
    """Run ``python -m permpos argv`` in a fresh process; its exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "permpos", *argv], env=env,
                         stdout=subprocess.PIPE, text=True)
    return run.returncode, run.stdout


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record_text(table):
    """One table as the JSON-lines text the TABLES digests were taken of: a
    total record, then one record per class, with decimal-string counts.
    It pins the tables' content, whatever format the cache files use."""
    records = [{"n": table.n, "total": str(table.total)}] + [
        {"n": table.n, "a": a, "k": k, "count": str(c)}
        for (a, k), c in sorted(table.counts.items())]
    return "".join(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("n, workers, digest", TABLES)
def test_count_tables(n, workers, digest):
    tables = count_tables(n, workers=workers)
    assert sha256("".join(record_text(tables[m]) for m in range(1, n + 1))) == digest
    assert n != 15 or tables[15].total == TOTAL_15


@pytest.mark.parametrize("argv, digest", VERIFY)
def test_verify(argv, digest):
    code, out = run_permpos(argv)
    reports = [{k: v for k, v in r.items() if k != "millis"} for r in json.loads(out)]
    assert (code, sha256(json.dumps(reports, sort_keys=True))) == (0, digest)


@pytest.mark.parametrize("argv, digest", SERIES)
def test_series(argv, digest):
    code, out = run_permpos(argv)
    assert (code, sha256(out)) == (0, digest)


def test_cache_is_written_read_back_and_refused_once_cut(tmp_path):
    # a file cut at a line boundary still parses, as a shorter table, so
    # series and verify must refuse it by the total-count partition
    cache = ["--cache-dir", str(tmp_path / "tcache")]
    code, out = run_permpos(CACHED_SERIES + cache)
    assert (code, sha256(out), len(os.listdir(tmp_path / "tcache"))) == (0, CACHED_DIGEST, 12)
    code, out = run_permpos(CACHED_SERIES + cache)  # every table read back
    assert (code, sha256(out)) == (0, CACHED_DIGEST)
    n11 = Path(_cache_paths(tmp_path / "tcache", 11)[10])
    n11.write_text("".join(n11.read_text().splitlines(keepends=True)[:5]))
    assert run_permpos(CACHED_SERIES + cache)[0] == 2
    assert run_permpos(CACHED_VERIFY + cache)[0] == 2
