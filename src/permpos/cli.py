"""Command-line entry point.

Subcommands: count, factor, domino, series, verify; each takes only the
flags it reads. Every command prints through _emit: plain text by default;
--format json (and csv on count, factor and series) is machine-readable,
with counts as decimal strings. --cache-dir goes with the three commands
that build count tables: count, series and verify. All three get them
from _tables, which refuses a cache it cannot read or write and one whose
tables break the total-count partition; verify checks its suite
arguments first. count and series split the build over one worker per
CPU, and --threads sets the workers of verify, whose count tables, thm3
codec scan and prop1 domino map are split over them. series rejects the
flags its --which does not read, and prints g1 and g2 to t^(order - 1),
the last power of t whose column reaches x^order. A usage error prints
the usage of its own command. Exit codes: 0 ok, 1 a verification suite
failed, 2 usage error or a refused cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import verify
from .dominoes import enumerate_dominoes, to_domino
from .enumeration import COUNT_MAX_N, DESK_MAX_N, DESK_OPT_IN_MAX_N, count_tables
from .genfun import (
    f_series,
    g1_series,
    g2_series,
    g_identity_check,
    t1k_series,
    t2k_series,
    t_ak_bruteforce,
)
from .permutations import parse_permutation
from .products import factorize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpos",
        description="Positional statistics of 1324-avoiding permutations: "
                    "exact counts, primitive factorization, dominoes, series, "
                    "and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)  # usage errors name the command
        return p

    def add_output(p: argparse.ArgumentParser, *formats: str,
                   cache_dir: bool = False) -> None:
        p.add_argument("--format", choices=formats, default=None,
                       help="machine-readable output format")
        if cache_dir:
            p.add_argument("--cache-dir", default=None, metavar="PATH",
                           help="persist/reuse count tables (opt-in)")

    p = add_command("count", _cmd_count, "class counts and totals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    add_output(p, "json", "csv", cache_dir=True)

    p = add_command("factor", _cmd_factor, "primitive factorization")
    p.add_argument("perm", help="permutation, e.g. 1243 or 1,2,4,3")
    add_output(p, "json", "csv")

    p = add_command("domino", _cmd_domino, "domino correspondence")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--count", action="store_true",
                   help="print only the number of dominoes")
    p.add_argument("--perm", default=None, help="primitive to convert")
    add_output(p, "json")

    p = add_command("series", _cmd_series, "generating-function coefficients")
    p.add_argument("--which", type=str.lower, required=True,
                   choices=("f", "t", "g1", "g2"))
    p.add_argument("--a", type=int, default=None, help="only with --which t")
    p.add_argument("--k", type=int, default=None, help="only with --which t")
    p.add_argument("--order", type=int, default=DESK_MAX_N,
                   help="highest power of x; g1 and g2 run to t^(order - 1)")
    add_output(p, "json", "csv", cache_dir=True)

    p = add_command("verify", _cmd_verify, "run verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(name for name, _, _ in verify.DECLARATIONS),
                   help="all runs the default suites in order; a name runs that suite alone")
    p.add_argument("--max-n", type=int, default=DESK_MAX_N, dest="max_n")
    p.add_argument("--a", type=int, default=None,
                   help="restrict the conjecture suite to one a (only with "
                        "--suite all or conjecture)")
    p.add_argument("--strict", action="store_true",
                   help="stop after the first suite with a failing identity")
    p.add_argument("--threads", type=int, default=1, metavar="T",
                   help="worker count for the count tables, the thm3 "
                        "codec scan and the prop1 domino map (0 = auto)")
    add_output(p, "json", cache_dir=True)

    return parser


def _check_max_n(parser: argparse.ArgumentParser, flag: str, value: int,
                 top: int) -> None:
    if not 1 <= value <= top:
        parser.error(f"{flag} must be in 1..{top}")


def _emit(fmt: str | None, obj, text: str, rows: Iterable[str] = ()) -> None:
    """The one output path: obj as a JSON line for --format json, the CSV
    lines rows for --format csv, and text otherwise."""
    if fmt == "json":
        print(json.dumps(obj))
    elif fmt == "csv":
        print("\n".join(rows))
    else:
        print(text)


def _tables(max_n: int, cache_dir: str | None, workers: int) -> dict:
    """The count tables of every command that reads them. A cache that
    cannot be read or written is refused with the file at fault. A cache
    file cut at a line boundary still parses, as a shorter table, so tables
    read from a cache must meet the total-count partition."""
    try:
        tables = count_tables(max_n, workers=workers, cache_dir=cache_dir)
    except OSError as exc:
        if cache_dir is None:
            raise
        raise ValueError(f"the count-table cache {exc.filename2 or exc.filename or cache_dir} "
                         f"is unusable: {exc.strerror or exc}") from exc
    if cache_dir is not None and (residual := g_identity_check(max_n, tables).residual):
        n, _, diff = min(residual)
        raise ValueError(f"the count tables in {cache_dir} break the total-count partition "
                         f"at n={n} (residual {diff}): a cache file was cut or altered")
    return tables


def _cmd_count(args, parser) -> int:
    _check_max_n(parser, "--n", args.n, COUNT_MAX_N)
    if (args.a is None) != (args.k is None):
        parser.error("--a and --k must be given together")
    if args.a is not None and (args.a < 1 or args.k < 1):  # the tables hold no other class
        parser.error("--a and --k must be >= 1")
    table = _tables(args.n, args.cache_dir, 0)[args.n]
    if args.a is not None:
        c = table.count(args.a, args.k)
        _emit(args.format, {"n": args.n, "a": args.a, "k": args.k, "count": str(c)},
              str(c), ["n,a,k,count", f"{args.n},{args.a},{args.k},{c}"])
        return 0
    cells = sorted(table.counts.items())
    _emit(args.format,
          {"n": args.n, "total": str(table.total),
           "counts": [{"a": a, "k": k, "count": str(c)} for (a, k), c in cells]},
          str(table.total),
          ["n,a,k,count"] + [f"{args.n},{a},{k},{c}" for (a, k), c in cells])
    return 0


def _cmd_factor(args, parser) -> int:
    perm = parse_permutation(args.perm)
    decomp = factorize(perm)
    texts = [f.to_text() for f in decomp.factors]
    _emit(args.format, {"perm": perm.to_text(), "k": decomp.k, "factors": texts},
          " ⊙ ".join(texts),
          ["index,factor"] + [f"{i},\"{t}\"" for i, t in enumerate(texts, start=1)])
    return 0


def _cmd_domino(args, parser) -> int:
    if (args.points is None) == (args.perm is None):
        parser.error("give exactly one of --points or --perm")
    if args.perm is not None:
        if args.count:
            parser.error("--count goes only with --points")
        d = to_domino(parse_permutation(args.perm)).to_text()
        _emit(args.format, {"perm": args.perm, "domino": d}, d)
        return 0
    top = DESK_OPT_IN_MAX_N - 2  # the primitives of size <= 12; each point costs ~5x
    if not 0 <= args.points <= top:
        parser.error(f"--points must be in 0..{top}")
    dominoes = enumerate_dominoes(args.points)
    if args.count:
        c = sum(1 for _ in dominoes)
        _emit(args.format, {"points": args.points, "count": str(c)}, str(c))
        return 0
    texts = [d.to_text() for d in dominoes]
    _emit(args.format, {"points": args.points, "dominoes": texts}, "\n".join(texts))
    return 0


def _cmd_series(args, parser) -> int:
    _check_max_n(parser, "--order", args.order, COUNT_MAX_N)
    if args.which != "t":
        given = {"--a": args.a, "--k": args.k, "--cache-dir": args.cache_dir}
        for flag, value in given.items():
            if value is not None:
                parser.error(f"--which {args.which} does not read {flag}")
    if args.which in ("g1", "g2"):
        # t^(order - 1) is the last power whose column reaches x^order
        g = (g1_series if args.which == "g1" else g2_series)(args.order, args.order - 1)
        grid = ["n\\k," + ",".join(map(str, range(g.torder + 1)))] + [
            f"{n}," + ",".join(map(str, row)) for n, row in enumerate(g.coeffs)]
        _emit(args.format, {"xorder": g.xorder, "torder": g.torder,
                            "coeffs": [[str(c) for c in row] for row in g.coeffs]},
              "\n".join(grid), grid)
        return 0
    if args.which == "f":
        s = f_series(args.order)
    else:
        if args.a is None or args.k is None:
            parser.error("--which t needs --a and --k")
        if args.a < 1 or args.k < 0:  # before any table is counted
            parser.error("--which t needs --a >= 1 and --k >= 0")
        if args.a in (1, 2):
            if args.cache_dir is not None:  # a closed form builds no tables
                parser.error(f"--which t --a {args.a} --k {args.k} does not read --cache-dir")
            s = (t1k_series if args.a == 1 else t2k_series)(args.k, args.order)
        else:
            s = t_ak_bruteforce(args.a, args.k, args.order, _tables(args.order, args.cache_dir, 0))
    _emit(args.format, {"order": s.order, "coeffs": [str(c) for c in s.coeffs]},
          s.to_text(), ["n,coeff"] + [f"{n},{c}" for n, c in enumerate(s.coeffs)])
    return 0


def _cmd_verify(args, parser) -> int:
    _check_max_n(parser, "--max-n", args.max_n, DESK_OPT_IN_MAX_N)
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    verify._check_suite_args(names, args.max_n, args.threads, args.a)  # before the tables
    tables = _tables(args.max_n, args.cache_dir, args.threads)
    reports = verify.run_suites(names, max_n=args.max_n, workers=args.threads,
                                fail_fast=args.strict, conjecture_a=args.a, tables=tables)
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.identity}  ({params})  "
                     f"[{r.millis:.0f} ms]")
        if not r.passed:
            lines += [f"      residual ({n},{k}) = {c}" for n, k, c in r.residual[:10]]
    failed = sum(not r.passed for r in reports)
    lines.append(f"FAILED {failed}/{len(reports)} identities" if failed
                 else f"ALL PASS ({len(reports)} identities)")
    _emit(args.format, [r.to_json_dict() for r in reports], "\n".join(lines))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, args.parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
