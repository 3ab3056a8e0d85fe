import json
import subprocess
import sys

import pytest

from colorpart import cli, enumeration
from colorpart.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "count", "-p", "1^11^2,1^21^1",
                           "-n", "6", "-k", "2")
        assert code == 0
        assert "count=2430" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "-p", "1^12^2,1^22^1", "-n", "5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 134
        assert payload["sense"] == "pattern"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "-p", "1^12^1", "-n", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("pattern_set,")
        assert lines[1].endswith("3,14,,")

    def test_eq_sense(self, capsys):
        code, out, _ = run(capsys, "count", "-p", "1^12^1", "--sense", "eq",
                           "-n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # EQ avoidance is weaker than pattern avoidance
        assert payload["count"] >= 14

    def test_spaced_multidigit_color(self, capsys):
        code, out, _ = run(capsys, "count", "-p", "1^1 2^12", "-k", "12",
                           "-n", "2")
        assert code == 0
        assert out.strip().endswith("count=222")  # 2 * 12^2 - C(12, 2)

    def test_naive_flag_matches(self, capsys):
        fast = json.loads(run(capsys, "count", "-p", "1^11^1,1^21^1", "-n", "5",
                              "--format", "json")[1])
        slow = json.loads(run(capsys, "count", "-p", "1^11^1,1^21^1", "-n", "5",
                              "--naive", "--format", "json")[1])
        assert fast["count"] == slow["count"] == 142


class TestSequence:
    def test_formula_side_by_side(self, capsys):
        code, out, _ = run(capsys, "sequence", "-p", "1^11^2,1^21^1",
                           "--nmax", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [2, 6, 22, 94, 454, 2430]
        assert payload["formula"]["agrees"] is True
        assert payload["formula"]["values"] == payload["counts"]

    def test_no_formula_registered(self, capsys):
        code, out, _ = run(capsys, "sequence", "-p", "1^11^2", "--nmax", "3")
        assert code == 0
        assert "no registered formula" in out

    def test_min_n_respected(self, capsys):
        # pair class 6 formula starts at n = 2; n = 1 row has no formula value
        code, out, _ = run(capsys, "sequence", "-p", "1^11^2,1^22^1",
                           "--nmax", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [2, 6, 18, 56]
        assert payload["formula"]["min_n"] == 2
        assert payload["formula"]["values"] == [6, 18, 56]


class TestClassify:
    def test_pairs(self, capsys):
        code, out, _ = run(capsys, "classify", "--size", "2", "--nmax", "5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 8
        assert sum(len(c["members"]) for c in payload["classes"]) == 15

    def test_quads_table_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--size", "4", "--nmax", "4")
        assert code == 0
        assert "4 Wilf classes" in out

    def test_naive_runs_the_oracle(self, capsys, monkeypatch):
        argv = ["classify", "--size", "2", "--nmax", "4"]
        code, fast, _ = run(capsys, *argv)
        calls = []
        count_naive = enumeration._count_naive

        def recording(*args):
            calls.append(args)
            return count_naive(*args)

        monkeypatch.setattr(enumeration, "_count_naive", recording)
        code_naive, slow, _ = run(capsys, *argv, "--naive")
        assert code == code_naive == 0
        assert slow == fast
        assert len(calls) == 15 * 4  # every pair at every n = 1..4

    def test_bad_size(self, capsys):
        code, _, err = run(capsys, "classify", "--size", "9", "--nmax", "3")
        assert code == 2
        assert "error" in err

    def test_one_color_rejected(self, capsys):
        code, out, err = run(capsys, "classify", "--size", "1", "--nmax", "3", "-k", "1")
        assert code == 2
        assert out == ""
        assert "-k" in err and "two colors" in err
        assert "out of range" not in err


class TestVerify:
    def test_planted_identity_prints_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration, "EQ_PATTERN_IDENTITIES",
                            (("1^11^1", "1^11^2"),))
        code, out, _ = run(capsys, "verify", "--identities", "--nmax", "2")
        assert code == 1
        assert out == ("FAIL pattern/EQ set identities (1 checks)\n"
                       "  pat{1^11^1} = eq{1^11^2} at n=2: witness 1^11^1\n")

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--nmax", "4")
        assert code == 0
        assert "FAIL" not in out

    def test_single_bijection(self, capsys):
        code, out, _ = run(capsys, "verify", "--bijection", "f", "-n", "4")
        assert code == 0
        assert "PASS bijection f at n=4 (domain 43)" in out

    def test_no_target_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert "nothing to verify" in out

    @pytest.mark.parametrize("argv", [
        ["--formulas", "--nmax", "0"],
        ["--identities", "--nmax", "0"],
        ["--bijection", "f", "-n", "-1"],
        ["--bijection", "g", "-n", "-2"],
    ])
    def test_sizes_out_of_range_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "must be at least" in err and "Traceback" not in err

    def test_cap_reads_the_bijection_size(self, capsys, monkeypatch):
        monkeypatch.setenv("PPL_NMAX_CAP", "7")
        code, out, err = run(capsys, "verify", "--bijection", "class2", "-n", "9")
        assert code == 3
        assert out == ""
        assert "n = 9 exceeds the PPL_NMAX_CAP limit of 7" in err

    def test_cap_ignores_an_unused_nmax(self, capsys, monkeypatch):
        # the default --nmax 6 is not what runs: the bijection runs at n = 2
        monkeypatch.setenv("PPL_NMAX_CAP", "3")
        code, out, _ = run(capsys, "verify", "--bijection", "class2", "-n", "2")
        assert code == 0
        assert out == "PASS bijection class2 at n=2 (domain 5)\n"
        # identities run at min(nmax, 6), the other checks at nmax
        monkeypatch.setenv("PPL_NMAX_CAP", "6")
        assert run(capsys, "verify", "--identities", "--nmax", "9")[0] == 0
        assert run(capsys, "verify", "--symmetries", "--nmax", "9")[0] == 3

    def test_size_zero_bijection(self, capsys):
        code, out, _ = run(capsys, "verify", "--bijection", "f", "-n", "0")
        assert code == 0
        assert out == "PASS bijection f at n=0 (domain 1)\n"

    @pytest.mark.parametrize("check, count", [("--tables", 53), ("--formulas", 54)])
    def test_one_pass_line_per_registered_set(self, capsys, check, count):
        code, out, _ = run(capsys, "verify", check, "--nmax", "6")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == count
        assert all(line.startswith("PASS ") for line in lines)

    def test_formula_wrong_at_one_n_fails(self, capsys, monkeypatch):
        closed_form = cli.closed_form

        def wrong_at_4(entry, n):
            return closed_form(entry, n) + (entry.label == "pair class 5" and n == 4)

        monkeypatch.setattr(cli, "closed_form", wrong_at_4)
        code, out, _ = run(capsys, "verify", "--formulas", "--nmax", "6")
        failed = [line for line in out.splitlines() if not line.startswith("PASS ")]
        assert code == 1
        assert failed and all(line.startswith("FAIL pair class 5 {") for line in failed)

    def test_formula_stated_above_nmax_is_skipped(self, capsys):
        # pair class 6 is stated for n >= 2: at --nmax 1 nothing is evaluated
        code, out, _ = run(capsys, "verify", "--formulas", "--nmax", "1")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 54
        assert [line for line in lines if not line.startswith("PASS ")] == [
            "SKIP pair class 6 {1^11^2,1^22^1}: stated for n >= 2",
            "SKIP pair class 6 {1^21^1,1^12^2}: stated for n >= 2"]

    def test_table_lines_carry_registry_labels(self, capsys):
        _, out, _ = run(capsys, "verify", "--tables", "--nmax", "6")
        assert out.splitlines()[0] == \
            "PASS pair class 1 {1^11^1,1^12^1}: [2, 4, 0, 0, 0, 0]"


class TestBijectionCommand:
    def test_f_round_trip(self, capsys):
        code, out, _ = run(capsys, "bijection", "f",
                           "1^24^1/2^1/3^26^1/5^1/7^2")
        assert code == 0
        assert out.strip() == "73861542"
        code, out, _ = run(capsys, "bijection", "f-inv", "73861542",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["image"]["blocks"] == "1^24^1/2^1/3^26^1/5^1/7^2"

    def test_g(self, capsys):
        code, out, _ = run(capsys, "bijection", "g", "1^2")
        assert code == 0
        assert out.strip() == "231"

    @pytest.mark.parametrize("name, text", [
        ("f", "1^3"), ("g", "1^3"), ("class2", "1^3"), ("class3b", "1^32^1")])
    def test_colors_above_two_are_usage_errors(self, capsys, name, text):
        code, out, err = run(capsys, "bijection", name, text)
        assert code == 2
        assert out == ""
        assert "color above 2" in err

    def test_empty_permutation_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bijection", "f-inv", "")
        assert code == 2
        assert out == ""
        assert "outside the f codomain S_{n+1}, n >= 0" in err

    @pytest.mark.parametrize("text", ["2 1 3 x", "12a"])
    def test_malformed_permutation_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "bijection", "f-inv", text)
        assert code == 2
        assert out == ""
        assert err == "error: malformed permutation %r\n" % text

    def test_tau_ignores_colors(self, capsys):
        code, out, _ = run(capsys, "bijection", "tau", "1^3/2^1")
        assert code == 0
        assert out.strip() == "21"

    def test_domain_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bijection", "f", "1^12^1")
        assert code == 2
        assert "error" in err


class TestParser:
    @pytest.mark.parametrize("argv", [
        [cmd, "--help"] for cmd in ("count", "sequence", "classify", "verify", "bijection")
    ] + [
        ["count"], ["count", "-n", "x"], ["count", "-n", "3", "extra"],
        ["sequence", "--nmax", "4", "-k", "0"], ["classify", "--size", "2"],
        ["verify", "--all"], ["verify", "--bijection", "nope"], ["verify", "extra"],
        ["bijection", "f"], ["bijection", "nope", "1"], ["bijection", "f", "1^1", "x"],
    ])
    def test_one_subparser_parses_as_all(self, capsys, argv):
        def outcome(parser):
            try:
                parsed = vars(parser.parse_args(argv))
            except SystemExit as exc:
                parsed = exc.code
            captured = capsys.readouterr()
            return parsed, captured.out, captured.err

        assert outcome(build_parser(argv[0])) == outcome(build_parser())


class TestErrorsAndCaps:
    def test_malformed_pattern(self, capsys):
        code, _, err = run(capsys, "count", "-p", "garbage", "-n", "3")
        assert code == 2
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "count", "--bogus", "-n", "3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["count", "-p", "", "-n", "3", "-k", "0"],
        ["count", "-p", "", "-n", "3", "-k", "-1"],
        ["sequence", "-p", "1^11^2", "-k", "0"],
        ["count", "-p", "1^11^2", "-n", "3", "--jobs", "0"],
        ["classify", "--jobs", "-3"],
        ["sequence", "-p", "1^11^2", "--nmax", "3", "--jobs", "0"],
    ])
    def test_nonpositive_colors_and_jobs(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be at least 1" in err

    def test_verify_has_no_jobs(self, capsys):
        # verify never runs the naive oracle, the only count that --jobs splits
        code, out, err = run(capsys, "verify", "--tables", "--jobs", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --jobs" in err

    def test_nmax_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PPL_NMAX_CAP", "5")
        code, _, err = run(capsys, "count", "-p", "1^11^2", "-n", "9")
        assert code == 3
        assert "PPL_NMAX_CAP" in err
        code, _, _ = run(capsys, "count", "-p", "1^11^2", "-n", "5")
        assert code == 0


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "colorpart.cli", "count", "-p", "1^12^1",
         "-n", "4", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 30
