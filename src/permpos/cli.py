"""Command-line entry point.

Subcommands: count, factor, domino, series, verify; each takes only the
flags it reads. Output is plain text by default; --format json (and csv on
count, factor and series) is machine-readable, with counts as decimal
strings. --cache-dir goes with the commands that build count tables and
--threads with verify's thm3 codec scan, the one step split over workers.
Exit codes: 0 ok, 1 a verification suite failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dominoes import enumerate_dominoes, to_domino
from .enumeration import COUNT_MAX_N, DESK_MAX_N, DESK_OPT_IN_MAX_N, count_tables
from .genfun import (
    f_series,
    g1_series,
    g2_series,
    t1k_series,
    t2k_series,
    t_ak_bruteforce,
)
from .permutations import DomainError, InvalidWordError, parse_permutation
from .products import factorize
from .series import BivariateSeries, TruncatedSeries
from .verify import SUITES, run_suites


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpos",
        description="Positional statistics of 1324-avoiding permutations: "
                    "exact counts, primitive factorization, dominoes, series, "
                    "and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser, *formats: str,
                   cache_dir: bool = False) -> None:
        p.add_argument("--format", choices=formats, default=None,
                       help="machine-readable output format")
        if cache_dir:
            p.add_argument("--cache-dir", default=None, metavar="PATH",
                           help="persist/reuse count tables (opt-in)")

    p = sub.add_parser("count", help="class counts and totals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    add_output(p, "json", "csv", cache_dir=True)

    p = sub.add_parser("factor", help="primitive factorization")
    p.add_argument("perm", help="permutation, e.g. 1243 or 1,2,4,3")
    add_output(p, "json", "csv")

    p = sub.add_parser("domino", help="domino correspondence")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--count", action="store_true",
                   help="print only the number of dominoes")
    p.add_argument("--perm", default=None, help="primitive to convert")
    add_output(p, "json")

    p = sub.add_parser("series", help="generating-function coefficients")
    p.add_argument("--which", type=str.lower, required=True,
                   choices=("f", "t", "g1", "g2"))
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--order", type=int, default=DESK_MAX_N)
    p.add_argument("--max-k", type=int, default=9, dest="max_k")
    add_output(p, "json", "csv", cache_dir=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + SUITES)
    p.add_argument("--max-n", type=int, default=DESK_MAX_N, dest="max_n")
    p.add_argument("--max-k", type=int, default=9, dest="max_k")
    p.add_argument("--a", type=int, default=None,
                   help="restrict the conjecture suite to one a")
    p.add_argument("--strict", action="store_true",
                   help="stop at the first failing identity")
    p.add_argument("--threads", type=int, default=1, metavar="T",
                   help="worker count for the thm3 codec scan (0 = auto)")
    add_output(p, "json", cache_dir=True)

    return parser


def _check_max_n(parser: argparse.ArgumentParser, flag: str, value: int,
                 top: int) -> None:
    if not 1 <= value <= top:
        parser.error(f"{flag} must be in 1..{top}")


def _cmd_count(args, parser) -> int:
    _check_max_n(parser, "--n", args.n, COUNT_MAX_N)
    if (args.a is None) != (args.k is None):
        parser.error("--a and --k must be given together")
    tables = count_tables(args.n, cache_dir=args.cache_dir)
    table = tables[args.n]
    if args.a is not None:
        c = table.count(args.a, args.k)
        if args.format == "json":
            print(json.dumps({"n": args.n, "a": args.a, "k": args.k,
                              "count": str(c)}))
        elif args.format == "csv":
            print("n,a,k,count")
            print(f"{args.n},{args.a},{args.k},{c}")
        else:
            print(c)
        return 0
    if args.format == "json":
        print(json.dumps({
            "n": args.n, "total": str(table.total),
            "counts": [{"a": a, "k": k, "count": str(table.counts[(a, k)])}
                       for (a, k) in sorted(table.counts)]}))
    elif args.format == "csv":
        print("n,a,k,count")
        for (a, k) in sorted(table.counts):
            print(f"{args.n},{a},{k},{table.counts[(a, k)]}")
    else:
        print(table.total)
    return 0


def _cmd_factor(args, parser) -> int:
    perm = parse_permutation(args.perm)
    decomp = factorize(perm)
    texts = [f.to_text() for f in decomp.factors]
    if args.format == "json":
        print(json.dumps({"perm": perm.to_text(), "k": decomp.k,
                          "factors": texts}))
    elif args.format == "csv":
        print("index,factor")
        for i, t in enumerate(texts, start=1):
            print(f"{i},\"{t}\"")
    else:
        print(" ⊙ ".join(texts))
    return 0


def _cmd_domino(args, parser) -> int:
    if (args.points is None) == (args.perm is None):
        parser.error("give exactly one of --points or --perm")
    if args.perm is not None:
        d = to_domino(parse_permutation(args.perm))
        if args.format == "json":
            print(json.dumps({"perm": args.perm, "domino": d.to_text()}))
        else:
            print(d.to_text())
        return 0
    if args.points < 0:
        parser.error("--points must be >= 0")
    dominoes = enumerate_dominoes(args.points)
    if args.count:
        c = sum(1 for _ in dominoes)
        if args.format == "json":
            print(json.dumps({"points": args.points, "count": str(c)}))
        else:
            print(c)
        return 0
    texts = [d.to_text() for d in dominoes]
    if args.format == "json":
        print(json.dumps({"points": args.points, "dominoes": texts}))
    else:
        for t in texts:
            print(t)
    return 0


def _print_series(s: TruncatedSeries, fmt: str | None) -> None:
    if fmt == "json":
        print(json.dumps({"order": s.order,
                          "coeffs": [str(c) for c in s.coeffs]}))
    elif fmt == "csv":
        print("n,coeff")
        for n, c in enumerate(s.coeffs):
            print(f"{n},{c}")
    else:
        print(s.to_text())


def _print_bivariate(b: BivariateSeries, fmt: str | None) -> None:
    if fmt == "json":
        print(json.dumps({"xorder": b.xorder, "torder": b.torder,
                          "coeffs": [[str(c) for c in row] for row in b.coeffs]}))
    else:
        sys.stdout.write(b.to_csv())


def _cmd_series(args, parser) -> int:
    _check_max_n(parser, "--order", args.order, COUNT_MAX_N)
    if args.which == "f":
        _print_series(f_series(args.order), args.format)
        return 0
    if args.which == "g1":
        _print_bivariate(g1_series(args.order, args.max_k), args.format)
        return 0
    if args.which == "g2":
        _print_bivariate(g2_series(args.order, args.max_k), args.format)
        return 0
    if args.a is None or args.k is None:
        parser.error("--which t needs --a and --k")
    if args.a == 1 and args.k >= 1:
        s = t1k_series(args.k, args.order)
    elif args.a == 2:
        s = t2k_series(args.k, args.order)
    else:
        tables = count_tables(args.order, cache_dir=args.cache_dir)
        s = t_ak_bruteforce(args.a, args.k, args.order, tables)
    _print_series(s, args.format)
    return 0


def _cmd_verify(args, parser) -> int:
    _check_max_n(parser, "--max-n", args.max_n, DESK_OPT_IN_MAX_N)
    names = SUITES if args.suite == "all" else (args.suite,)
    reports = run_suites(names, max_n=args.max_n, max_k=args.max_k,
                         workers=args.threads, cache_dir=args.cache_dir,
                         fail_fast=args.strict, conjecture_a=args.a)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            print(f"{status}  {r.identity}  ({params})  [{r.millis:.0f} ms]")
            if not r.passed:
                for n, k, c in r.residual[:10]:
                    print(f"      residual ({n},{k}) = {c}")
        failed = sum(1 for r in reports if not r.passed)
        if failed:
            print(f"FAILED {failed}/{len(reports)} identities")
        else:
            print(f"ALL PASS ({len(reports)} identities)")
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"count": _cmd_count, "factor": _cmd_factor, "domino": _cmd_domino,
                "series": _cmd_series, "verify": _cmd_verify}
    try:
        return commands[args.command](args, parser)
    except (DomainError, InvalidWordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
