#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (n <= 8); takes well under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload untraced and traced through the same code as the
full benchmark, requires every metric named in BENCHMARK.json and no
failed check, and then shows that the correctness gate bites: a corrupted
expected digest and a warm-cache file truncated at a line boundary must
each give fail_ratio > 0. Exits 1 on the first requirement that does not
hold.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def tiny_args(workload: str, trace: int):
    return run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                           "--trace", str(trace), "--profile", "tiny"])


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    require({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
            "BENCHMARK.json lists the workloads run.py runs")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.measure(tiny_args(workload, trace), root)["result"]
            require(result["failed"] == 0 and result["correct"],
                    f"{workload} trace={trace}: {result['attempted']} checks, none failed")
            require(set(result["metrics"]) == names[trace],
                    f"{workload} trace={trace}: reports exactly the BENCHMARK.json metrics")

    corrupted = run.load_expected()
    corrupted["verify-n07"] = "0" * 64
    result = run.measure(tiny_args("verify-n11", 0), root, corrupted)["result"]
    require(result["failed"] > 0, "a corrupted expected digest gives fail_ratio > 0")

    # a warm-cache file cut at a line boundary still loads; the gate must
    # notice the tables it yields
    pp = run.Permpos(root)
    prof = run.PROFILES["tiny"]
    warm = root / ".perfbench_work" / "selftest"
    try:
        pp.enumeration.count_tables(prof["order"], cache_dir=warm)
        victim = max(warm.iterdir(), key=lambda f: f.stat().st_size)
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:len(lines) // 2]))
        gate = run.Gate(run.load_expected())
        series = run.SeriesWorkload(pp, prof, warm)
        series.use(warm, random.Random(7))
        series.check(series.run(), gate)
        require(gate.failed > 0,
                f"{victim.name} truncated to {len(lines) // 2} of {len(lines)} lines "
                f"gives fail_ratio {gate.failed}/{gate.attempted} > 0")
    finally:
        shutil.rmtree(warm, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
