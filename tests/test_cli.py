import json
import re

import pytest

import permpos.cli
import permpos.verify
from permpos.cli import build_parser, main


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
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "4", "--a", "1"])
        assert exc.value.code == 2

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
        for argv in ([], ["--points", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(["domino", *argv])
            assert exc.value.code == 2, argv


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
        assert capsys.readouterr().out == ""

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
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        # checked before any suite runs: no report is printed
        code, out, err = run_cli(capsys, "verify", "--max-n", "5", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")


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
