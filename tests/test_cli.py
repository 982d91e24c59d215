import json

import pytest

import permpos.cli
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
        code, out, _ = run_cli(capsys, "count", "--n", "4", "--a", "1", "--k", "2")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run_cli(capsys, "count", "--n", "7", "--a", "2", "--k", "3")
        assert code == 0 and out.strip() == "60"

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


def test_count_and_series_accept_thirteen(capsys, monkeypatch):
    # verify keeps its cap of 12 (see TestVerify); the table-only commands
    # take 13, here with stand-in tables so that nothing is counted
    from permpos.enumeration import ClassCountTable

    def fake_tables(max_n, workers=1, cache_dir=None):
        return {n: ClassCountTable(n=n, total=n, counts={(3, 3): 7 * n})
                for n in range(1, max_n + 1)}

    monkeypatch.setattr(permpos.cli, "count_tables", fake_tables)
    assert run_cli(capsys, "count", "--n", "13")[1].strip() == "13"
    assert run_cli(capsys, "count", "--n", "13", "--a", "3", "--k", "3")[1].strip() == "91"
    code, out, _ = run_cli(capsys, "series", "--which", "t", "--a", "3", "--k", "3",
                           "--order", "13", "--format", "json")
    assert code == 0 and json.loads(out)["coeffs"][13] == "91"
    for argv in (["count", "--n", "14"], ["series", "--which", "f", "--order", "14"],
                 ["count", "--n", "0"], ["series", "--which", "f", "--order", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestFactor:
    def test_outputs(self, capsys):
        assert run_cli(capsys, "factor", "1243")[1].strip() == "1,2 ⊙ 1,3,2"
        assert run_cli(capsys, "factor", "2143")[1].strip() == "2,1,4,3"
        assert run_cli(capsys, "factor", "1234")[1].strip() == "1,2 ⊙ 1,2 ⊙ 1,2"

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

    def test_perm(self, capsys):
        assert run_cli(capsys, "domino", "--perm", "12")[1].strip() == "B:|T:|cols:"
        assert run_cli(capsys, "domino", "--perm", "2143")[1].strip() == \
            "B:1|T:1|cols:bt"

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "domino", "--points", "1")
        assert sorted(out.strip().split("\n")) == ["B:1|T:|cols:b", "B:|T:1|cols:t"]

    def test_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["domino"])
        assert exc.value.code == 2


class TestSeries:
    def test_f(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "f", "--order", "4")
        assert out.strip() == "0 + 1*x + 2*x^2 + 6*x^3 + 22*x^4"

    def test_t_variants(self, capsys):
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

    def test_csv_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "f", "--order", "3",
                               "--format", "csv")
        assert out.strip().split("\n") == ["n,coeff", "0,0", "1,1", "2,2", "3,6"]
        code, out, _ = run_cli(capsys, "series", "--which", "g1", "--order", "3",
                               "--max-k", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["coeffs"][2][1] == "1"

    def test_g2_csv(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--which", "g2", "--order", "4",
                               "--max-k", "3")
        lines = out.strip().split("\n")
        assert lines[0] == "n\\k,0,1,2,3"
        assert lines[5] == "4,0,3,1,0"

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
        ["--max-k", "-1"],
        ["--suite", "conjecture", "--a", "9"],
        ["--suite", "conjecture", "--a", "0"],
        ["--threads", "-1"],
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
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_benchmark_verify_argv_parses(self):
        args = build_parser().parse_args(["verify", "--suite", "all", "--max-n", "11",
                                          "--threads", "0", "--format", "json"])
        assert (args.suite, args.max_n, args.threads, args.format) == \
            ("all", 11, 0, "json")
