#!/usr/bin/env python3
"""Exact-output benchmark for permpos.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n11 --seed 1 --seconds 10 --trace 0

It imports permpos from ./src (and from nowhere else), builds the
workload's inputs, then calls the workload in a closed loop, one call at a
time, until --seconds of timed calls have passed (at least one call). Every
call's output is checked exactly against committed digests
(perfbench/expected.json) and against the OEIS A061552 totals; a check
that does not hold counts as one failed operation.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced run that
replays the workload as its layer calls and runs the layer probes. A JSON
record with the environment, every sample, the actual digests and (when
traced) the spans is written to .perfbench_out/. See perfbench/README.md
for what each metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

WORKLOADS = ("verify-n11", "verify-n11-par", "tables-n12", "series-warm")
TABLE_SUITES = ("thm1", "thm2", "conjecture", "gidentity")
# |S_n(1324)| for n = 1..12 (OEIS A061552), a reference the sweep did not make.
A061552 = (1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112, 25431452)
IMPORT_SAMPLES = 9
SETUP_SAMPLES = 3
SERIES_TRACE_PASSES = 3
# Machine speed is sampled every SAMPLE_PERIOD_S as the thread CPU time of
# one reference walk; REFERENCE_S is that time at the reference speed.
REFERENCE_DEPTH = 8
REFERENCE_S = 0.0025
SAMPLE_PERIOD_S = 0.25
MIN_SAMPLES = 3
CACHE_LOAD_SAMPLES = 20
WRITE_FLAGS = os.O_WRONLY | os.O_RDWR
MEASUREMENT_LIMITS = (
    "in-process timers only (time.perf_counter, resource.getrusage); "
    "no machine-wide profiler or tracer",
    "cpu_s counts this process plus the children it waited for; "
    "peak_rss_mb children figure is the largest single child, not a sum",
    "wall_s, cpu_s and setup_s are scaled to a reference machine speed, "
    "sampled during each call by a thread that times a fixed reference walk "
    "in thread CPU time (about 1% of one core); raw figures and the factors "
    "are in the record",
    "setup_s import part is the wall time of fresh interpreters that "
    "import permpos.cli, measured by the parent",
    "the machine may be shared; see loadavg_before/loadavg_after",
)

# Sizes per profile. "full" is the benchmark proper; "tiny" runs the
# same code paths in seconds for perfbench/selftest.py.
PROFILES = {
    "full": {"verify_n": 11, "tables_n": 12, "order": 11, "grid_a": (3, 8),
             "grid_k_max": 10, "g_torder": 10, "members_n": 10,
             "codec_n": 10, "domino_n": 10, "avoiders_n": 9, "sweep_n": 11,
             "mul_reps": 2000, "g1_reps": 5},
    "tiny": {"verify_n": 7, "tables_n": 8, "order": 7, "grid_a": (3, 4),
             "grid_k_max": 6, "g_torder": 6, "members_n": 7,
             "codec_n": 7, "domino_n": 7, "avoiders_n": 6, "sweep_n": 7,
             "mul_reps": 200, "g1_reps": 2},
}


# -- correctness gate ---------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reports_digest(reports: list[dict]) -> str:
    """Digest of identity reports in JSON form with millis (and any field
    added later) left out."""
    kept = [{key: r[key] for key in ("identity", "params", "pass", "residual")}
            for r in reports]
    return sha256(json.dumps(kept, sort_keys=True, separators=(",", ":")))


def table_line(table) -> str:
    """Canonical JSON line of one count table's content."""
    return json.dumps({"n": table.n, "total": str(table.total),
                       "counts": [[a, k, str(table.counts[(a, k)])]
                                  for a, k in sorted(table.counts)]},
                      separators=(",", ":"))


class Gate:
    """Counts checked operations; any check that does not hold is a failed
    operation. Actual digests are kept so a mismatch can be inspected."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)

    def expect(self, key: str, actual) -> None:
        """actual must equal the committed expected[key] (a digest or an
        exact count)."""
        self.digests[key] = actual
        want = self.expected.get(key)
        self.check(actual == want, f"{key}: got {actual}, want {want}")

    def reports(self, key: str, reports: list[dict]) -> None:
        for r in reports:
            self.check(r["pass"], f"report {r['identity']} {r['params']} failed")
        self.expect(key, reports_digest(reports))

    def tables(self, tables: dict, max_n: int) -> None:
        for n in range(1, max_n + 1):
            self.check(tables[n].total == A061552[n - 1],
                       f"total n={n}: {tables[n].total} != {A061552[n - 1]}")
            self.expect(f"table-n{n:02d}", sha256(table_line(tables[n])))


# -- tracing ------------------------------------------------------------------


class Tracer:
    """In-memory spans around calls into permpos layers. A span records its
    name, start, end, parent span and run id; each identity report's millis
    becomes a child span of the call that made it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run = ""

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def reports(self, name: str, fn, *args, **kwargs) -> list:
        """Call a suite; lay its reports out as consecutive child spans."""
        with self.span(name) as parent:
            reports = fn(*args, **kwargs)
        at = parent["start"]
        for r in reports:
            self.spans.append({"id": len(self.spans), "name": "report:" + r.identity,
                               "run": self.run, "parent": parent["id"],
                               "start": at, "end": at + r.millis / 1000.0})
            at += r.millis / 1000.0
        return reports

    def seconds(self, run: str, name: str) -> float:
        """Total duration of the spans of one run with one name."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["run"] == run and s["name"] == name)

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = sorted((s["start"], s["end"]) for s in self.spans
                      if s["parent"] == span["id"])
        covered, reach = 0.0, span["start"]
        for start, end in kids:
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        return span["end"] - span["start"] - covered


# -- measurement helpers ------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process and of the children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def reference_walk() -> int:
    """Fixed work in the style of permpos's hot loops (tuple splicing, dict
    counts over a generating tree) that calls no permpos code."""
    counts: dict = {}
    stack = [((1,), 1)]
    while stack:
        sig, bound = stack.pop()
        n = len(sig) + 1
        for p in range(bound + 1):
            child = sig[:p] + (n,) + sig[p:]
            key = (n, p, child[-1])
            counts[key] = counts.get(key, 0) + 1
            if n < REFERENCE_DEPTH:
                stack.append((child, bound + 1 if p == bound else p + 1))
    return len(counts)


class SpeedSampler:
    """Machine speed over time. The shared machine's speed drifts by up to
    2x within seconds to minutes, so raw times of identical calls spread
    too far to compare commits. A daemon thread times one reference walk in
    thread CPU time every SAMPLE_PERIOD_S; CPU time leaves out its waits
    for the interpreter lock, so a sample shows only how fast a core ran.
    The thread starts no process and touches nothing of permpos."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            c0 = time.thread_time()
            reference_walk()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample taken in [start, end], or the
        MIN_SAMPLES nearest to it when fewer fall inside. A time multiplied
        by it reads as at the reference speed."""
        inside = [c for t, c in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            inside = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - mid))
                      [:MIN_SAMPLES]]
        return REFERENCE_S / statistics.median(inside)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest whole percentile with at least
    ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    pct = (100 * (n - 10)) // n
    return float(pct), ordered[max(0, -(-pct * n // 100) - 1)]


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_seconds(root: Path) -> list[float]:
    """Wall time of fresh interpreters that import permpos.cli from ./src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import permpos.cli"], cwd=root,
                       env=env, check=True)
        out.append(time.perf_counter() - t0)
    return out


# -- permpos ------------------------------------------------------------------


class Permpos:
    """The permpos modules, imported from <root>/src only."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "permpos" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no permpos package under {src}")
        sys.path.insert(0, str(src))
        import permpos
        from permpos import (cli, dominoes, enumeration, genfun, permutations,
                             products, series, verify)
        if Path(permpos.__file__).resolve().parent != (src / "permpos").resolve():
            raise SystemExit(f"perfbench: permpos imported from {permpos.__file__}")
        self.cli, self.dominoes, self.enumeration = cli, dominoes, enumeration
        self.genfun, self.permutations, self.products = genfun, permutations, products
        self.series, self.verify = series, verify


def suite_calls(pp: Permpos, max_n: int, tables: dict, workers: int) -> dict:
    """Each suite called the way run_suites calls it (max_k 9, conjecture
    a in {3, 4})."""
    v = pp.verify
    return {
        "thm1": lambda: v.suite_thm1(max_n, tables),
        "thm2": lambda: v.suite_thm2(max_n, tables),
        "thm3": lambda: v.suite_thm3(max_n, 9, tables, workers=workers),
        "prop1": lambda: v.suite_prop1(max_n, tables),
        "conjecture": lambda: v.suite_conjecture(max_n, tables, a_values=(3, 4)),
        "gidentity": lambda: v.suite_gidentity(max_n, tables),
    }


def replay_suites(pp: Permpos, tracer: Tracer, names, max_n: int,
                  workers: int, tables: dict | None = None) -> tuple[dict, list[dict]]:
    """count_tables (unless given) then each named suite in SUITES order,
    one span per call."""
    if tables is None:
        with tracer.span("count_tables"):
            tables = pp.enumeration.count_tables(max_n, workers=workers)
    calls = suite_calls(pp, max_n, tables, workers)
    reports = []
    for name in pp.verify.SUITES:
        if name in names:
            reports += tracer.reports("suite_" + name, calls[name])
    return tables, [r.to_json_dict() for r in reports]


# -- workloads ------------------------------------------------------------------
#
# A workload builds its inputs in setup(), makes one timed call in run(),
# checks a call's output in check(), and replays the same call as layer
# calls in replay(). run() and replay() return outputs that check() accepts.


class VerifyWorkload:
    def __init__(self, pp: Permpos, prof: dict, workers: int):
        self.pp, self.n, self.workers = pp, prof["verify_n"], workers

    def setup(self, rng: random.Random) -> None:
        """Nothing to build: tables are cold and there is no cache."""

    def run(self):
        argv = ["verify", "--suite", "all", "--max-n", str(self.n),
                "--threads", str(self.workers), "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pp.cli.main(argv)
        return code, json.loads(buf.getvalue())

    def check(self, out, gate: Gate) -> None:
        code, reports = out
        gate.check(code == 0, f"verify exit code {code}")
        gate.reports(f"verify-n{self.n:02d}", reports)

    def replay(self, tracer: Tracer):
        tables, reports = replay_suites(self.pp, tracer, self.pp.verify.SUITES,
                                        self.n, self.workers)
        self.tables = tables
        return 0, reports


class TablesWorkload:
    def __init__(self, pp: Permpos, prof: dict, work: Path):
        self.pp, self.n, self.work = pp, prof["tables_n"], work

    def setup(self, rng: random.Random) -> None:
        """Nothing to build: each call makes its own fresh cache directory."""

    def _fresh(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="tables-", dir=self.work))

    def run(self):
        cache = self._fresh()
        tables = self.pp.enumeration.count_tables(self.n, workers=1, cache_dir=cache)
        reports = self.pp.verify.run_suites(TABLE_SUITES, max_n=self.n, tables=tables)
        return cache, tables, [r.to_json_dict() for r in reports]

    def check(self, out, gate: Gate) -> None:
        cache, tables, reports = out
        gate.tables(tables, self.n)
        gate.reports(f"tables-suites-n{self.n:02d}", reports)
        # the files it wrote must load back to the same tables
        gate.tables(self.pp.enumeration.count_tables(self.n, cache_dir=cache), self.n)
        shutil.rmtree(cache)

    def replay(self, tracer: Tracer):
        cache = self._fresh()
        with tracer.span("count_tables"):
            tables = self.pp.enumeration.count_tables(self.n, workers=1, cache_dir=cache)
        _, reports = replay_suites(self.pp, tracer, TABLE_SUITES, self.n, 1, tables)
        return cache, tables, reports


class SeriesWorkload:
    """series-warm: one call is a pass over the conjecture grid, each cell
    reloading its tables from a warm cache, then g2_series."""

    def __init__(self, pp: Permpos, prof: dict, work: Path):
        self.pp, self.order, self.torder = pp, prof["order"], prof["g_torder"]
        self.work = work
        lo, hi = prof["grid_a"]
        self.grid = [(a, k) for a in range(lo, hi + 1)
                     for k in range(a, prof["grid_k_max"] + 1)]

    def setup(self, rng: random.Random) -> None:
        """Sweep every n <= order into a fresh warm cache."""
        warm = Path(tempfile.mkdtemp(prefix="warm-", dir=self.work))
        self.pp.enumeration.count_tables(self.order, workers=1, cache_dir=warm)
        self.use(warm, rng)

    def use(self, warm: Path, rng: random.Random) -> None:
        """Read tables from warm; visit the grid in an order set by rng."""
        self.warm = warm
        self.cells = rng.sample(self.grid, len(self.grid))

    def run(self):
        e, g = self.pp.enumeration, self.pp.genfun
        cells = []
        for a, k in self.cells:
            tables = e.count_tables(self.order, cache_dir=self.warm)
            cells.append((tables, g.conjecture_check(a, k, self.order, tables)))
        return cells, g.g2_series(self.order, self.torder)

    def check(self, out, gate: Gate) -> None:
        cells, g2 = out
        for tables, _ in cells:
            gate.tables(tables, self.order)
        reports = sorted((r.to_json_dict() for _, r in cells),
                         key=lambda r: (r["params"]["a"], r["params"]["k"]))
        reports.append({"identity": "g2-series", "params": {"torder": self.torder},
                        "pass": True, "residual": [list(row) for row in g2.integer_coeffs()]})
        gate.reports(f"series-warm-o{self.order:02d}", reports)

    def replay(self, tracer: Tracer):
        e, g = self.pp.enumeration, self.pp.genfun
        cells = []
        for a, k in self.cells:
            with tracer.span("count_tables"):
                tables = e.count_tables(self.order, cache_dir=self.warm)
            with tracer.span("conjecture_check") as sp:
                report = g.conjecture_check(a, k, self.order, tables)
            sp["cell"] = [a, k]
            cells.append((tables, report))
        with tracer.span("g2_series"):
            g2 = g.g2_series(self.order, self.torder)
        return cells, g2


def make_workload(name: str, pp: Permpos, prof: dict, work: Path):
    if name == "tables-n12":
        return TablesWorkload(pp, prof, work)
    if name == "series-warm":
        return SeriesWorkload(pp, prof, work)
    return VerifyWorkload(pp, prof, nproc() if name == "verify-n11-par" else 1)


# -- layer probes (traced run only) ----------------------------------------------


def probe_enumeration(pp: Permpos, prof: dict, gate: Gate, work: Path):
    """Sweep, parallel sweep, cache write and load, member streaming.
    Returns (metrics, tables, cache directory holding the swept tables)."""
    e, n = pp.enumeration, prof["sweep_n"]
    tables, serial = timed(e.count_tables, n, workers=1)
    gate.tables(tables, n)
    tables, parallel = timed(e.count_tables, n, workers=nproc())
    gate.tables(tables, n)

    # cache write: from the first file opened for writing in the cache
    # directory to the return of count_tables; an audit hook sees the open
    cache = Path(tempfile.mkdtemp(prefix="probe-cache-", dir=work))
    first_write: list[float] = []

    def on_open(event, args):
        if event != "open" or first_write:
            return
        path = os.fspath(args[0]) if isinstance(args[0], os.PathLike) else args[0]
        if isinstance(path, str) and path.startswith(str(cache)) and args[2] & WRITE_FLAGS:
            first_write.append(time.perf_counter())

    sys.addaudithook(on_open)
    e.count_tables(n, workers=1, cache_dir=cache)
    end = time.perf_counter()
    gate.check(bool(first_write), "count_tables wrote no cache file")
    write_ms = (end - first_write[0]) * 1000.0 if first_write else 0.0
    first_write.append(end)  # disarms the hook, which cannot be removed
    cache_bytes = sum(f.stat().st_size for f in cache.iterdir())
    loads = []
    for _ in range(CACHE_LOAD_SAMPLES):
        loaded, dt = timed(e.count_tables, n, cache_dir=cache)
        loads.append(dt)
    gate.tables(loaded, n)

    members_n = prof["members_n"]
    members, stream = timed(lambda: sum(1 for _ in e.iter_class_members(members_n)))
    # every avoider of size m is classified unless it starts with m
    gate.check(members == A061552[members_n - 1] - A061552[members_n - 2],
               f"iter_class_members({members_n}) streamed {members}")
    return {
        "enumeration.count_tables_s": serial,
        "enumeration.avoiders_per_s": sum(A061552[:n]) / serial,
        "enumeration.sweep_speedup": serial / parallel,
        "enumeration.members_per_s": members / stream,
        "enumeration.cache_write_ms": write_ms,
        "enumeration.cache_bytes": float(cache_bytes),
        "enumeration.cache_load_ms": statistics.median(loads) * 1000.0,
    }, tables, cache


def probe_products(pp: Permpos, prof: dict, gate: Gate, rng) -> dict:
    p, e = pp.products, pp.enumeration
    members = [m for m in e.iter_class_members(prof["codec_n"], 2) if m.values[-1] != 1]
    rng.shuffle(members)
    bad = 0
    t0 = time.perf_counter()
    for m in members:
        if p.decode_tuple(p.encode_perm(m, validate=False), validate=False) != m:
            bad += 1
    dt = time.perf_counter() - t0
    gate.check(bad == 0, f"codec round-trip failed on {bad} members")
    gate.expect(f"codec-members-n{prof['codec_n']:02d}", len(members))
    return {"products.codec_us_per_member": dt / len(members) * 1e6,
            "products.codec_members": float(len(members))}


def probe_dominoes(pp: Permpos, prof: dict, gate: Gate, rng) -> dict:
    d, e = pp.dominoes, pp.enumeration
    prims = list(e.iter_class_members(prof["domino_n"], 1, 1))
    rng.shuffle(prims)
    images, bad = [], 0
    t0 = time.perf_counter()
    for p in prims:
        dom = d.to_domino(p)
        if d.from_domino(dom) != p:
            bad += 1
        images.append(dom)
    dt = time.perf_counter() - t0
    gate.check(bad == 0, f"from_domino(to_domino(p)) != p on {bad} primitives")
    oracle, oracle_s = timed(lambda: {x.to_text() for x in
                                      d.enumerate_dominoes(prof["domino_n"] - 2)})
    gate.check(oracle == {x.to_text() for x in images},
               "domino image set differs from enumerate_dominoes")
    return {"dominoes.bijection_us_per_primitive": dt / len(prims) * 1e6,
            "dominoes.oracle_s": oracle_s}


def probe_permutations(pp: Permpos, prof: dict, gate: Gate, rng) -> dict:
    pm, e, n = pp.permutations, pp.enumeration, prof["avoiders_n"]
    avoiders = list(e.generate_avoiders(n))
    gate.check(len(avoiders) == A061552[n - 1], f"generate_avoiders({n}) gave {len(avoiders)}")
    rng.shuffle(avoiders)
    t0 = time.perf_counter()
    bad = sum(1 for p in avoiders if not pm.avoids(p, pm.PATTERN_1324))
    dt = time.perf_counter() - t0
    gate.check(bad == 0, f"avoids() false on {bad} generated avoiders")
    return {"permutations.avoids_1324_us": dt / len(avoiders) * 1e6}


def probe_series(pp: Permpos, prof: dict, gate: Gate, tables: dict) -> dict:
    g, order = pp.genfun, prof["order"]
    f = g.f_series(order)
    t0 = time.perf_counter()
    for _ in range(prof["mul_reps"]):
        sq = f * f
    mul = (time.perf_counter() - t0) / prof["mul_reps"]
    c = f.integer_coeffs()
    gate.check(sq.integer_coeffs() == tuple(sum(c[i] * c[m - i] for i in range(m + 1))
                                            for m in range(order + 1)), "f * f")
    inv = []
    for _ in range(prof["g1_reps"]):
        g1, dt = timed(g.g1_series, order, prof["g_torder"])
        inv.append(dt)
    gate.check(all(g1.coeff(n, k) == (tables[n].count(1, k) if n else 0)
                   for n in range(order + 1) for k in range(1, prof["g_torder"] + 1)),
               "g1 coefficients differ from class-(1, k) counts")
    return {"series.mul_us": mul * 1e6,
            "series.bivariate_inverse_ms": statistics.median(inv) * 1000.0}


# -- runs ---------------------------------------------------------------------


def run_ops(fn, check, seconds: float, gate: Gate) -> tuple[list, list, list]:
    """Closed loop: call fn until the timed calls add up to `seconds`.
    Returns wall and CPU seconds and the (start, end) of each call."""
    walls, cpus, spans = [], [], []
    while not walls or sum(walls) < seconds:
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = fn()
        t1, c1 = time.perf_counter(), cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        spans.append((t0, t1))
        check(out, gate)
    return walls, cpus, spans


def setup_workload(wl, root: Path, seed: int) -> tuple[float, list, list]:
    """Import permpos in fresh interpreters and build the workload's inputs
    SETUP_SAMPLES times (the last build is kept); the raw setup time is the
    median import plus the median build."""
    imports = import_seconds(root)
    builds = []
    for _ in range(SETUP_SAMPLES):
        _, dt = timed(wl.setup, random.Random(seed))
        builds.append(dt)
    return statistics.median(imports) + statistics.median(builds), imports, builds


def untraced(name, pp, prof, gate, root, work, args) -> tuple[dict, dict]:
    wl = make_workload(name, pp, prof, work)
    mask = os.sched_getaffinity(0)
    if name != "verify-n11-par":
        # one core for the calls and the sampler, so the samples time the
        # core the calls run on; the sampler thread inherits this mask
        os.sched_setaffinity(0, {min(mask)})
    try:
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            setup_s, imports, builds = setup_workload(wl, root, args.seed)
            setup_factor = speed.factor(t0, time.perf_counter())
            walls, cpus, spans = run_ops(wl.run, wl.check, args.seconds, gate)
    finally:
        os.sched_setaffinity(0, mask)
    factors = [speed.factor(start, end) for start, end in spans]
    metrics = {
        "wall_s": statistics.median(w * f for w, f in zip(walls, factors)),
        "cpu_s": statistics.median(c * f for c, f in zip(cpus, factors)),
        "setup_s": setup_s * setup_factor,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"raw_wall_s": walls, "raw_cpu_s": cpus, "factors": factors,
                     "raw_setup_s": setup_s, "setup_factor": setup_factor,
                     "import_s": imports, "build_s": builds,
                     "speed_samples": len(speed.samples)}


def traced(name, pp, prof, gate, root, work, args) -> tuple[dict, dict, Tracer]:
    """The workload's call once untraced and once replayed as layer calls,
    then the layer probes, the 1-worker verify replay (reused on
    verify-n11), suite_thm3 at nproc workers (reused on verify-n11-par) and
    traced series-warm passes."""
    rng = random.Random(args.seed)
    tracer = Tracer()
    wl = make_workload(name, pp, prof, work)
    _, imports, _ = setup_workload(wl, root, args.seed)
    out, plain_s = timed(wl.run)
    wl.check(out, gate)
    tracer.run = name
    out, replay_s = timed(wl.replay, tracer)
    wl.check(out, gate)
    m = {"trace.overhead_s": replay_s - plain_s,
         "cli.import_ms": statistics.median(imports) * 1000.0}

    probes, tables, cache = probe_enumeration(pp, prof, gate, work)
    m.update(probes)
    m.update(probe_products(pp, prof, gate, rng))
    m.update(probe_dominoes(pp, prof, gate, rng))
    m.update(probe_permutations(pp, prof, gate, rng))
    m.update(probe_series(pp, prof, gate, tables))

    serial_run = par_run = name
    vw = wl
    if name != "verify-n11":
        serial_run = tracer.run = "verify-1-worker"
        vw = VerifyWorkload(pp, prof, 1)
        vw.check(vw.replay(tracer), gate)
    if name != "verify-n11-par":
        par_run = tracer.run = "thm3-nproc"
        for r in tracer.reports("suite_thm3", pp.verify.suite_thm3,
                                prof["verify_n"], 9, vw.tables, workers=nproc()):
            gate.check(r.passed, f"suite_thm3 at {nproc()} workers: {r.identity}")
    report_ms = {key: tracer.seconds(serial_run, "report:" + identity) * 1000.0
                 for key, identity in (("codec", "marked-tuple-codec"),
                                       ("domino", "primitive-domino-bijection"),
                                       ("accounting", "a2-insertion-accounting"))}
    serial_s = sum(s["end"] - s["start"] for s in tracer.spans
                   if s["run"] == serial_run and s["parent"] is None)
    tables_s = tracer.seconds(serial_run, "count_tables")
    m.update({f"verify.{key}_ms": v for key, v in report_ms.items()})
    m["verify.tables_s"] = tables_s
    m["verify.other_ms"] = (serial_s - tables_s) * 1000.0 - sum(report_ms.values())
    m["verify.thm3_speedup"] = (tracer.seconds(serial_run, "suite_thm3")
                                / tracer.seconds(par_run, "suite_thm3"))

    series = SeriesWorkload(pp, prof, work)
    series.use(cache, rng)
    for i in range(SERIES_TRACE_PASSES):
        tracer.run = f"series-{i}"
        series.check(series.replay(tracer), gate)
    cell_ms = [(s["end"] - s["start"]) * 1000.0 for s in tracer.spans
               if s["run"].startswith("series-") and s["name"] == "conjecture_check"]
    pct, tail = tail_percentile(cell_ms)
    m.update({"genfun.conjecture_cell_ms_p50": statistics.median(cell_ms),
              "genfun.conjecture_cell_ms_ptail": tail,
              "genfun.conjecture_cell_ptail_pct": pct,
              "genfun.conjecture_cell_samples": float(len(cell_ms))})
    m["fail_ratio"] = gate.failed / gate.attempted
    return m, {"untraced_s": plain_s, "traced_s": replay_s}, tracer


UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "enumeration.count_tables_s": "s", "enumeration.avoiders_per_s": "1/s",
    "enumeration.sweep_speedup": "ratio", "enumeration.members_per_s": "1/s",
    "enumeration.cache_write_ms": "ms", "enumeration.cache_bytes": "bytes",
    "enumeration.cache_load_ms": "ms", "products.codec_us_per_member": "us",
    "products.codec_members": "count", "dominoes.bijection_us_per_primitive": "us",
    "dominoes.oracle_s": "s", "permutations.avoids_1324_us": "us",
    "series.mul_us": "us", "series.bivariate_inverse_ms": "ms",
    "genfun.conjecture_cell_ms_p50": "ms", "genfun.conjecture_cell_ms_ptail": "ms",
    "genfun.conjecture_cell_ptail_pct": "%", "genfun.conjecture_cell_samples": "count",
    "verify.tables_s": "s", "verify.codec_ms": "ms", "verify.domino_ms": "ms",
    "verify.accounting_ms": "ms", "verify.other_ms": "ms",
    "verify.thm3_speedup": "ratio", "cli.import_ms": "ms",
    "trace.overhead_s": "s", "fail_ratio": "ratio",
}


def load_expected() -> dict:
    """Committed digests and exact counts, keyed by what and at which size."""
    return json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def measure(args, root: Path, expected: dict | None = None) -> dict:
    """One benchmark run; returns the result record (its "result" entry is
    the last line run.py prints)."""
    prof = PROFILES[args.profile]
    gate = Gate(load_expected() if expected is None else expected)
    load_before = read_loadavg()
    pp = Permpos(root)
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record: dict = {}
    try:
        if args.trace:
            metrics, samples, tracer = traced(args.workload, pp, prof, gate, root, work, args)
            record["spans"] = [dict(s, self=tracer.self_time(s)) for s in tracer.spans]
        else:
            metrics, samples = untraced(args.workload, pp, prof, gate, root, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "result": {"correct": gate.failed == 0, "attempted": gate.attempted,
                   "failed": gate.failed,
                   "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}},
        "workload": args.workload, "profile": args.profile, "trace": args.trace,
        "seconds": args.seconds,
        "env": {"nproc": nproc(), "cpu_count": os.cpu_count(),
                "python": platform.python_version(), "cpu_model": cpu_model(),
                "loadavg_before": load_before, "loadavg_after": read_loadavg(),
                "git_commit": git_commit(root), "seed": args.seed,
                "measurement_limits": MEASUREMENT_LIMITS},
        "samples": samples, "digests": gate.digests, "problems": gate.problems,
    })
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.profile}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=tuple(PROFILES), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    record = measure(args, Path.cwd())
    print(json.dumps({"env": record["env"], "problems": record["problems"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
