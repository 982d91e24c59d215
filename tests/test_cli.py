import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

import permpos.cli
import permpos.verify
from permpos.cli import build_parser, main
from permpos.enumeration import _cache_paths, count_tables


def _pinned_argvs():
    """Every argv that ci/test_pinned_outputs.py runs, read from its tables."""
    path = Path(__file__).resolve().parents[1] / "ci" / "test_pinned_outputs.py"
    spec = importlib.util.spec_from_file_location("pinned_outputs", path)
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    cache = ["--cache-dir", "X"]
    return [argv for argv, _ in pins.VERIFY + pins.SERIES] + [
        pins.CACHED_SERIES + cache, pins.CACHED_VERIFY + cache]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_total(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "4")
        assert code == 0 and out.strip() == "23"

    def test_class_count(self, capsys):
        cases = [
            (["--n", "4", "--a", "1", "--k", "2"], "4\n"),
            (["--n", "7", "--a", "2", "--k", "3"], "60\n"),
            (["--n", "7", "--a", "2", "--k", "3", "--format", "json"],
             '{"n": 7, "a": 2, "k": 3, "count": "60"}\n'),
            (["--n", "7", "--a", "2", "--k", "3", "--format", "csv"],
             "n,a,k,count\n7,2,3,60\n"),
        ]
        for argv, stdout in cases:
            assert run_cli(capsys, "count", *argv) == (0, stdout, ""), argv

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "4", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,a,k,count"
        assert "4,1,1,6" in lines and "4,3,1,2" in lines

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["total"] == "23"
        assert {"a": 1, "k": 3, "count": "1"} in payload["counts"]

    def test_usage_errors(self, capsys):
        # each prints the count usage, not the top-level one; the tables
        # hold classes with a, k >= 1 only
        for argv in (["--n", "0"], ["--n", "4", "--a", "1"],
                     ["--n", "3", "--a", "3", "--k", "0"], ["--n", "3", "--a", "1", "--k", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(["count", *argv])
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: permpos count "), argv

    def test_cache_dir(self, capsys, tmp_path):
        code, out1, _ = run_cli(capsys, "count", "--n", "6",
                                "--cache-dir", str(tmp_path), "--format", "csv")
        assert code == 0 and any(tmp_path.iterdir())
        code, out2, _ = run_cli(capsys, "count", "--n", "6",
                                "--cache-dir", str(tmp_path), "--format", "csv")
        assert out1 == out2


def test_count_and_series_accept_fifteen(capsys, monkeypatch):
    # verify keeps its cap of 12 (see TestVerify); the table-only commands
    # take 15, here with stand-in tables so that nothing is counted, and
    # build them on one worker per CPU
    from permpos.enumeration import ClassCountTable

    workers_seen = []

    def fake_tables(max_n, workers=1, cache_dir=None):
        workers_seen.append(workers)
        return {n: ClassCountTable(n=n, total=n, counts={(3, 3): 7 * n})
                for n in range(1, max_n + 1)}

    monkeypatch.setattr(permpos.cli, "count_tables", fake_tables)
    assert run_cli(capsys, "count", "--n", "15")[1].strip() == "15"
    assert run_cli(capsys, "count", "--n", "15", "--a", "3", "--k", "3")[1].strip() == "105"
    code, out, _ = run_cli(capsys, "series", "--which", "t", "--a", "3", "--k", "3",
                           "--order", "15", "--format", "json")
    assert code == 0 and json.loads(out)["coeffs"][15] == "105"
    assert workers_seen == [0, 0, 0]
    for argv in (["count", "--n", "16"], ["series", "--which", "f", "--order", "16"],
                 ["count", "--n", "0"], ["series", "--which", "f", "--order", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: permpos {argv[0]} "), argv


def test_count_series_and_verify_refuse_a_cut_cache(capsys, tmp_path):
    # a cache file cut at a line boundary still parses, as a shorter table;
    # the total-count partition finds it, here at n = 7, where the rows of
    # a >= 3 hold 814 members
    count_tables(8, cache_dir=tmp_path)
    argvs = (["series", "--which", "t", "--a", "3", "--k", "3", "--order", "8"],
             ["count", "--n", "7", "--format", "csv"],
             ["verify", "--suite", "conjecture", "--max-n", "8"])

    def run(*argv):  # verify's timings aside
        code, out, err = run_cli(capsys, *argv)
        return code, re.sub(r"\[\d+ ms\]", "[ms]", out), err

    cached = [run(*argv, "--cache-dir", str(tmp_path)) for argv in argvs]
    assert cached == [run(*argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in cached)
    path = Path(_cache_paths(tmp_path, 7)[6])
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "") and "n=7 (residual 814)" in err, argv


@pytest.mark.parametrize("argv", [["count", "--n", "4"], ["verify", "--suite", "thm1", "--max-n", "4"]])
def test_an_unusable_cache_is_refused(capsys, tmp_path, argv):
    # a directory where a cache file belongs, and a cache dir that is a file
    three = Path(_cache_paths(tmp_path / "dir", 3)[2])
    three.mkdir(parents=True)
    (tmp_path / "file").write_text("")
    for cache, culprit in ((tmp_path / "dir", three),
                           (tmp_path / "file", tmp_path / "file")):
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
        assert (code, out) == (2, "") and err.startswith("error: "), (argv, cache)
        assert str(culprit) in err, (argv, cache)


class TestFactor:
    def test_outputs(self, capsys):
        assert run_cli(capsys, "factor", "1243")[1].strip() == "1,2 ⊙ 1,3,2"
        assert run_cli(capsys, "factor", "2143")[1].strip() == "2,1,4,3"
        assert run_cli(capsys, "factor", "1234")[1].strip() == "1,2 ⊙ 1,2 ⊙ 1,2"
        assert run_cli(capsys, "factor", "1243", "--format", "csv") == \
            (0, 'index,factor\n1,"1,2"\n2,"1,3,2"\n', "")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "1243", "--format", "json")
        payload = json.loads(out)
        assert payload == {"perm": "1,2,4,3", "k": 2, "factors": ["1,2", "1,3,2"]}

    def test_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "factor", "21")
        assert code == 2 and "error" in err


class TestDomino:
    def test_count(self, capsys):
        assert run_cli(capsys, "domino", "--points", "2", "--count")[1].strip() == "6"
        assert run_cli(capsys, "domino", "--points", "5", "--count")[1].strip() == "408"
        assert run_cli(capsys, "domino", "--points", "5", "--count", "--format", "json") == \
            (0, '{"points": 5, "count": "408"}\n', "")

    def test_perm(self, capsys):
        assert run_cli(capsys, "domino", "--perm", "12")[1].strip() == "B:|T:|cols:"
        assert run_cli(capsys, "domino", "--perm", "2143")[1].strip() == \
            "B:1|T:1|cols:bt"
        assert run_cli(capsys, "domino", "--perm", "2143", "--format", "json") == \
            (0, '{"perm": "2143", "domino": "B:1|T:1|cols:bt"}\n', "")

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "domino", "--points", "1")
        assert sorted(out.strip().split("\n")) == ["B:1|T:|cols:b", "B:|T:1|cols:t"]
        # the generator's order, which the listing keeps
        assert run_cli(capsys, "domino", "--points", "2", "--format", "json") == (0, (
            '{"points": 2, "dominoes": ["B:|T:1,2|cols:tt", "B:|T:2,1|cols:tt", '
            '"B:1|T:1|cols:bt", "B:1|T:1|cols:tb", "B:1,2|T:|cols:bb", '
            '"B:2,1|T:|cols:bb"]}\n'), "")

    def test_usage(self, capsys):
        # --points stops at 10, the dominoes of the primitives of size <= 12
        for argv in ([], ["--points", "-1"], ["--points", "11"], ["--perm", "2143", "--count"]):
            with pytest.raises(SystemExit) as exc:
                main(["domino", *argv])
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err.startswith("usage: permpos domino "), argv


class TestSeries:
    def test_f(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "f", "--order", "4")
        assert out.strip() == "0 + 1*x + 2*x^2 + 6*x^3 + 22*x^4"

    def test_t_variants(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "series", "--which", "T", "--a", "2",
                               "--k", "0", "--order", "4")
        assert out.strip() == "0 + 0*x + 1*x^2 + 0*x^3 + 0*x^4"
        code, out, _ = run_cli(capsys, "series", "--which", "T", "--a", "1",
                               "--k", "2", "--order", "4")
        assert out.strip() == "0 + 0*x + 0*x^2 + 1*x^3 + 4*x^4"
        # expected values from the exhaustive filter oracle over n! permutations
        code, out, _ = run_cli(capsys, "series", "--which", "t", "--a", "3",
                               "--k", "1", "--order", "6")
        assert out.strip() == "0 + 0*x + 0*x^2 + 0*x^3 + 2*x^4 + 8*x^5 + 39*x^6"
        # a t that counts tables reads --cache-dir
        code, cached, _ = run_cli(capsys, "series", "--which", "t", "--a", "3",
                                  "--k", "1", "--order", "6", "--cache-dir", str(tmp_path))
        assert code == 0 and cached == out and any(tmp_path.iterdir())

    def test_csv_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "f", "--order", "3",
                               "--format", "csv")
        assert out.strip().split("\n") == ["n,coeff", "0,0", "1,1", "2,2", "3,6"]
        code, out, _ = run_cli(capsys, "series", "--which", "g1", "--order", "3",
                               "--format", "json")
        payload = json.loads(out)
        # g1 runs to t^(order - 1), the last column that reaches x^order
        assert payload["coeffs"][2][1] == "1" and payload["torder"] == 2

    def test_g2_csv(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "g2", "--order", "4")
        lines = out.strip().split("\n")
        assert lines[0] == "n\\k,0,1,2,3"
        assert lines[5] == "4,0,3,1,0"

    def test_a1_k0_is_x_and_counts_no_tables(self, capsys, monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("count_tables called")

        monkeypatch.setattr(permpos.cli, "count_tables", no_tables)
        code, out, err = run_cli(capsys, "series", "--which", "t", "--a", "1",
                                 "--k", "0", "--order", "15")
        assert (code, err) == (0, "")
        assert out.strip() == " + ".join(["0", "1*x"] + [f"0*x^{i}" for i in range(2, 16)])

    @pytest.mark.parametrize("a,k", [("0", "1"), ("3", "-1")])
    def test_bad_a_or_k_fails_before_counting(self, capsys, monkeypatch, a, k):
        def no_tables(*args, **kwargs):
            raise AssertionError("count_tables called")

        monkeypatch.setattr(permpos.cli, "count_tables", no_tables)
        with pytest.raises(SystemExit) as exc:
            main(["series", "--which", "t", "--a", a, "--k", k, "--order", "12"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: permpos series ")

    def test_k_zero_beyond_the_order_is_zero(self, capsys):
        code, out, err = run_cli(capsys, "series", "--which", "t", "--a", "5",
                                 "--k", "0", "--order", "3")
        assert (code, out.strip(), err) == (0, "0 + 0*x + 0*x^2 + 0*x^3", "")

    def test_missing_args(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--which", "t", "--order", "4"])
        assert exc.value.code == 2


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gidentity",
                               "--max-n", "6")
        assert code == 0
        assert "PASS  total-count-partition" in out
        assert "ALL PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm1",
                               "--max-n", "6", "--format", "json")
        reports = json.loads(out)
        assert code == 0
        assert {r["identity"] for r in reports} == {"a1-recurrence", "a1-power-series"}
        assert all(r["pass"] and r["residual"] == [] for r in reports)

    def test_failing_suite_text(self, capsys, monkeypatch):
        # a closed form off by one at n = 5 fails the k = 1 row of the
        # recurrence check; the text names the residual and the failure count
        real = permpos.verify.primitive_count_closed_form
        monkeypatch.setattr(permpos.verify, "primitive_count_closed_form",
                            lambda n: real(n) + (n == 5))
        code, out, err = run_cli(capsys, "verify", "--suite", "thm1", "--max-n", "6")
        assert (code, err) == (1, "")
        assert re.sub(r"\[\d+ ms\]", "[ms]", out) == (
            "FAIL  a1-recurrence  (max_n=6)  [ms]\n"
            "      residual (5,1) = 1\n"
            "PASS  a1-power-series  (max_n=6)  [ms]\n"
            "FAILED 1/2 identities\n")

    def test_max_n_bounds(self):
        parser = build_parser()
        args = parser.parse_args(["verify", "--max-n", "12"])
        assert args.max_n == 12  # opt-in desk scale parses fine
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "13"])
        assert exc.value.code == 2

    def test_json_payload_identical_across_workers(self, capsys):
        # max-n 9 is past the seed cutoff, so --threads 2 really fans out
        payloads = []
        for threads in ("1", "2"):
            code, out, _ = run_cli(capsys, "verify", "--suite", "thm3",
                                   "--max-n", "9", "--threads", threads,
                                   "--format", "json")
            assert code == 0
            reports = json.loads(out)
            for r in reports:
                r.pop("millis")  # timing excluded from canonical comparison
            payloads.append(json.dumps(reports))
        assert payloads[0] == payloads[1]

    def test_strict_flag_parses(self):
        args = build_parser().parse_args(["verify", "--strict", "--suite", "thm2"])
        assert args.strict is True

    @pytest.mark.parametrize("argv", [
        ["--suite", "conjecture", "--a", "9"],
        ["--suite", "conjecture", "--a", "0"],
        ["--threads", "-1"],
        ["--suite", "thm1", "--a", "3"],
    ])
    def test_bad_arguments_are_usage_errors(self, capsys, tmp_path, argv):
        # checked before any table is counted: no report is printed and no
        # cache is written
        cache = tmp_path / "cache"
        code, out, err = run_cli(capsys, "verify", "--max-n", "5",
                                 "--cache-dir", str(cache), *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not cache.exists()


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["factor", "12", "--threads", "1"],
        ["factor", "12", "--cache-dir", "X"],
        ["domino", "--points", "2", "--cache-dir", "X"],
        ["domino", "--points", "2", "--threads", "1"],
        ["domino", "--points", "2", "--format", "csv"],
        ["verify", "--format", "csv"],
        ["count", "--n", "4", "--threads", "2"],
        ["series", "--which", "f", "--threads", "2"],
        # series reads --a, --k and --cache-dir only with t, and no command
        # takes a --max-k
        ["series", "--which", "f", "--a", "2"],
        ["series", "--which", "g1", "--k", "1"],
        ["series", "--which", "t", "--a", "3", "--k", "3", "--max-k", "4"],
        ["series", "--which", "f", "--max-k", "9"],
        ["series", "--which", "g2", "--cache-dir", "X"],
        ["series", "--which", "f", "--cache-dir", "X"],
        # t takes the closed form, with no tables, for a = 1 and a = 2
        ["series", "--which", "t", "--a", "2", "--k", "3", "--order", "6",
         "--cache-dir", "X"],
        ["series", "--which", "t", "--a", "2", "--k", "0", "--cache-dir", "X"],
        ["series", "--which", "t", "--a", "1", "--k", "2", "--cache-dir", "X"],
        ["series", "--which", "t", "--a", "1", "--k", "0", "--cache-dir", "X"],
        ["verify", "--max-k", "9"],
        ["series", "--which", "g2", "--max-k", "3"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_benchmark_verify_argv_parses(self):
        args = build_parser().parse_args(["verify", "--suite", "all", "--max-n", "11",
                                          "--threads", "0", "--format", "json"])
        assert (args.suite, args.max_n, args.threads, args.format) == \
            ("all", 11, 0, "json")

    @pytest.mark.parametrize("argv", _pinned_argvs())
    def test_pinned_output_argv_parses(self, argv):
        # a renamed flag breaks ci/test_pinned_outputs.py; fail here first
        build_parser().parse_args(argv)


# SHA-256 of stdout for each command and format on small inputs, taken
# before every command printed through one emitter; verify's timings are
# masked, since they change from run to run
GOLDEN = [
    ("count-table", ["count", "--n", "5"], {
        None: "45080860abd6d79b808dbd71836bf29e41918f1bf1f05f7ce732ada7674cc816",
        "json": "e5727c6266b737b8ede08fdc4e5f42c67994a9d5c6dd5d52e2436548f47b5250",
        "csv": "a45e67994d51aa9afb6a041e38021d793d1cb986cb620ee4947da44d4c3a05b5"}),
    ("count-cell", ["count", "--n", "7", "--a", "2", "--k", "3"], {
        None: "95cf32708a31caa478a0e9141103ac567d85e5186e697e7e0c81f75589999e31",
        "json": "ccb6f52818757790ca5ea85ad2990f357b8d03a371b2880e391fe2b3ddb16a92",
        "csv": "16b3c05c0837648febf5e5898343a33b96c90d86954c164bb812ff6a15947172"}),
    ("factor", ["factor", "1243"], {
        None: "e8f6017100701ea2467df7a7a82b773b41839b3348cf6dd647ae8f727e6e1721",
        "json": "18e3dbc5151bba73e35bc6cf0f5aff2aa95e4be79159f6a2dc8ffd6aa3c23d4b",
        "csv": "2a656a694940ab340f0b0a120871dcd626567a29274cac66f459e1e4da650846"}),
    ("domino-points", ["domino", "--points", "2"], {
        None: "cd565fb0b09e136f337ea06d6b8ae439419b5e2a9e7209b6fff0b67c1a39b84d",
        "json": "5e56069afe59c2f8fbc653af2dc28bec5a2e23d9157ba4593e74161b1db91093"}),
    ("domino-count", ["domino", "--points", "3", "--count"], {
        None: "f14b4987904bcb5814e4459a057ed4d20f58a633152288a761214dcd28780b56",
        "json": "c7c9c5848af59234231e0e6c227c76efacf345db9052b1befeb75f0803d669b1"}),
    ("domino-perm", ["domino", "--perm", "2143"], {
        None: "a2f48dba2bfc7364e9b3ed4b26ef1aa656befe83e84fff761b3d7e394e5003c5",
        "json": "f8269819147723877711982a260aa0e11b2921c41b42f4ce359d6145e7088f47"}),
    ("series-f", ["series", "--which", "f", "--order", "5"], {
        None: "c629676e839f2deabc37e114f1e9942f5a2c72a987f8992b5e04d7616913d2a7",
        "json": "0c46d540692fc453cf30d471bc482842d334ebeea44f91c4634ceca6b6a1f2c7",
        "csv": "cc31a1b35926555d19c53db442820573d2cedd8f2dc919648cd6acbe654bd075"}),
    ("series-t-a2", ["series", "--which", "t", "--a", "2", "--k", "1", "--order", "6"], {
        None: "e4c2def2bf2bfc4e12976f44da87d0037e5d03aee8139ed48ff5924edb3a31a6",
        "json": "1a494df15c5e6a9f36bbbe89675f11652bfc279f8e664059cbf54c5e0e9d08a2",
        "csv": "d354e9dfc0f46b218f93a36fe2a2513478f483fbae67ad70898deffe41636238"}),
    ("series-t-a3", ["series", "--which", "t", "--a", "3", "--k", "1", "--order", "6"], {
        None: "25635d1718a7da2bf21ddcf3e35d18f3c217299dde550754fc8220c8c3b1a51b",
        "json": "8f455669f37ab07c1172e00a6638c5fa7250fa8a6b652a212d914b393bf47b0e",
        "csv": "0cc6742f6741c1dfa4e91a86a69393884d0c4ab388d13b8222ba8d949aba0150"}),
    # g1 and g2 print their CSV grid, rows n and columns k, also without
    # --format
    ("series-g1", ["series", "--which", "g1", "--order", "4"], {
        None: "3deb70078269770961a174324acf6c5c559db3849c9e4a70382ddabfa5738813",
        "json": "7f91a6ff495b0360b4d063673b41b07c75f664dac76109ea485b94b05b2370e2",
        "csv": "3deb70078269770961a174324acf6c5c559db3849c9e4a70382ddabfa5738813"}),
    ("series-g2", ["series", "--which", "g2", "--order", "4"], {
        None: "28a56dd421b3967f1908fbe5e794e86b5ad1029c943e88f48219f7c39bb91e15",
        "json": "07c117682ab8710fe7fb3a4d1a44542cd43a5fabd3012c19c9327e8322c15c6e",
        "csv": "28a56dd421b3967f1908fbe5e794e86b5ad1029c943e88f48219f7c39bb91e15"}),
    ("verify", ["verify", "--suite", "thm1", "--max-n", "5"], {
        None: "5cf200d619b689e74000fe91553073a3e6e8f8f1f2067ed373ac553905331909",
        "json": "484b0f748ee203d5a46f25f8994be948ce5d2606b5b9ecd0c9be3496e132cba7"}),
]


@pytest.mark.parametrize("argv,digest", [
    pytest.param(argv + ["--format", fmt] * (fmt is not None), digest,
                 id=f"{name}-{fmt or 'plain'}")
    for name, argv, digests in GOLDEN for fmt, digest in digests.items()])
def test_stdout_digest(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    out = re.sub(r"\[\d+ ms\]", "[ms]", out)
    out = re.sub(r'"millis": [0-9.e+-]+', '"millis": 0', out)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
