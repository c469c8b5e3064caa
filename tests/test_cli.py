"""End-to-end command-line behavior: payloads, exit codes, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zerosum.cli as cli
from zerosum import Sequence, make_group, run_all_sweeps

CMD = [sys.executable, "-m", "zerosum.cli"]
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, check=False):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def assert_usage_error(returncode, stderr, sub):
    """argparse's usage-error shape: exit 1, the usage line, then the error."""
    assert returncode == 1
    assert stderr.startswith("usage:")
    assert f"zerosum {sub}: error:" in stderr


class TestInvariant:
    def test_json_payload(self):
        proc = run_cli("invariant", "C2^3", "--leq", "2", check=True)
        payload = json.loads(proc.stdout)
        assert payload["group"] == "C2^3"
        assert payload["L"] == "[1,2]"
        assert payload["value"] == 8
        assert payload["complete"] is True
        assert isinstance(payload["seconds"], float)
        W = Sequence.parse(make_group([2, 2, 2]), payload["witness"])
        assert len(W) == 7

    def test_infinite(self):
        proc = run_cli("invariant", "C3", "--leq", "2", check=True)
        assert json.loads(proc.stdout)["value"] == "infinite"

    def test_singleton_off_the_exponent_is_infinite(self):
        proc = run_cli("invariant", "C3", "--exactly", "2", check=True)
        assert json.loads(proc.stdout)["value"] == "infinite"

    def test_text_format(self):
        proc = run_cli("invariant", "C3^2", "--davenport", "--format", "text", check=True)
        assert "s_N(C3^2) = 5" in proc.stdout

    def test_explicit_length_list(self):
        # a single zero term dodges both banned lengths, so the maximal
        # {2,3}-free length is 7, one more than the support-only bound
        proc = run_cli("invariant", "C3^2", "--L", "2,3", check=True)
        assert json.loads(proc.stdout)["value"] == 8

    def test_eta_and_egz(self):
        eta = json.loads(run_cli("invariant", "C3^2", "--eta", check=True).stdout)
        egz = json.loads(run_cli("invariant", "C3^2", "--egz", check=True).stdout)
        assert eta["value"] == 7
        assert egz["value"] == 9

    @pytest.mark.parametrize("args,symmetry", [
        # C3^2, C3^3 and C2xC4 have a permutation table: orderly generation.
        (("C3^3", "--leq", "4"), "orderly"),
        (("C3^3", "--leq", "4", "--symmetry"), "flag"),
        (("C3^2", "--davenport"), "orderly"),
        (("C2xC4", "--davenport"), "orderly"),
        # |Aut(C2^3xC4)| = 21,504 is over the table cap: orbit-minimum roots.
        (("C2^3xC4", "--davenport"), "roots"),
        # exp(G) divides every member of L: the search is rooted at 0.  C2^4
        # (20,160 automorphisms) has no table either; its EGZ search takes
        # 122 nodes, against 6.9M on C2^3xC4.
        (("C3^2", "--egz"), "orderly+translation"),
        (("C2xC4", "--egz"), "orderly+translation"),
        (("C2^4", "--egz"), "translation"),
        (("C3^2", "--L", "3,6", "--symmetry"), "flag+translation"),
        # Certified infinite: no multiple of exp = 6 in L, so no search.
        (("C6", "--exactly", "4"), "none"),
    ], ids=str)
    def test_symmetry_reported(self, args, symmetry):
        payload = json.loads(run_cli("invariant", *args, check=True).stdout)
        assert list(payload)[list(payload).index("nodes") + 1] == "symmetry"
        assert payload["symmetry"] == symmetry
        text = run_cli("invariant", *args, "--format", "text", check=True).stdout
        assert f"  symmetry: {symmetry}  " in text

    def test_budget_exhaustion_exit_2(self):
        proc = run_cli("invariant", "C3^2", "--davenport", "--budget-nodes", "3")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["value"] == "unknown"

    def test_unknown_reports_the_bound_reached(self):
        # Only a budget leaves a value unknown; the result says how far the
        # search got: s >= best_length + 1.
        args = ("invariant", "C3^3", "--leq", "3", "--budget-nodes", "1000")
        proc = run_cli(*args)
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert list(payload)[list(payload).index("witness") + 1] == "best_length"
        assert payload["value"] == "unknown" and payload["best_length"] == 16
        assert len(Sequence.parse(make_group([3, 3, 3]), payload["witness"])) == 16
        proc = run_cli(*args, "--format", "text")
        assert proc.returncode == 2
        assert proc.stdout.splitlines()[0] == "s_[1,3](C3^3) = unknown (>= 17)"

    def test_horizon_flag_removed(self):
        proc = run_cli("invariant", "C3^2", "--davenport", "--horizon", "5")
        assert_usage_error(proc.returncode, proc.stderr, "invariant")

    def test_requires_exactly_one_selector(self):
        proc = run_cli("invariant", "C3^2")
        assert_usage_error(proc.returncode, proc.stderr, "invariant")
        assert "choose exactly one" in proc.stderr
        proc = run_cli("invariant", "C3^2", "--leq", "3", "--davenport")
        assert_usage_error(proc.returncode, proc.stderr, "invariant")

    def test_nan_time_budget_exit_1(self):
        proc = run_cli("invariant", "C3", "--davenport", "--budget-seconds", "nan")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "time_budget must be positive" in proc.stderr

    def test_bad_group_exit_1(self):
        proc = run_cli("invariant", "spam", "--davenport")
        assert proc.returncode == 1

    def test_zero_node_budget_exit_1(self):
        # --budget-nodes defaults to SearchConfig's budget, so 0 reaches
        # its check like any other non-positive value.
        for budget in ("0", "-5"):
            proc = run_cli("invariant", "C3^2", "--davenport", "--budget-nodes", budget)
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert "node_budget must be positive" in proc.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "result.json"
        run_cli("invariant", "C2^2", "--leq", "2", "--out", str(out), check=True)
        assert json.loads(out.read_text())["value"] == 4

    def test_unwritable_out_exit_1(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        proc = run_cli("invariant", "C3^2", "--davenport", "--symmetry", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestConstructAndVerify:
    def test_construct_lowercnr_round_trip(self):
        proc = run_cli("construct", "lowercnr", "3", "2", "2", check=True)
        S = Sequence.parse(make_group([3, 3]), proc.stdout.strip())
        assert S == Sequence.parse(make_group([3, 3]), "1,0^2; 0,1^2; 1,1^2")

    def test_construct_general(self):
        proc = run_cli("construct", "general", "C3^2", "2", check=True)
        S = Sequence.parse(make_group([3, 3]), proc.stdout.strip())
        assert len(S) == 6

    def test_construct_inv2_with_x(self):
        proc = run_cli("construct", "inv2", "4", "3", "--x", "3", check=True)
        S = Sequence.parse(make_group([4, 4]), proc.stdout.strip())
        assert S.multiplicity(make_group([4, 4]).element((3, 1))) == 3

    def test_construct_invalid_params_exit_1(self):
        assert run_cli("construct", "lowercnr", "3", "1", "0").returncode == 1
        assert run_cli("construct", "inv2", "4", "3", "--x", "2").returncode == 1
        assert run_cli("construct", "inv2", "3", "2", "--xs", "5,5,5").returncode == 1

    def test_verify_pass_and_fail_both_exit_0(self):
        good = run_cli(
            "verify", "C3^2", "--len", "6", "--min-zs", "4",
            "--seq", "1,0^2; 0,1^2; 1,1^2", "--format", "text", check=True,
        )
        assert good.stdout.startswith("pass")
        bad = run_cli(
            "verify", "C3^2", "--len", "6", "--min-zs", "7",
            "--seq", "1,0^2; 0,1^2; 1,1^2", "--format", "text",
        )
        assert bad.returncode == 0
        assert bad.stdout.startswith("FAIL")

    def test_verify_json_payload(self):
        proc = run_cli(
            "verify", "C3^2", "--len", "6", "--min-zs", "4",
            "--seq", "1,0^2; 0,1^2; 1,1^2", check=True,
        )
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True
        assert payload["actual_min"] == 4

    def test_verify_from_file(self, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("1,0^2; 0,1^2; 1,1^2\n")
        proc = run_cli(
            "verify", "C3^2", "--len", "6", "--min-zs", "4", "--in", str(seq_file),
            check=True,
        )
        assert json.loads(proc.stdout)["passed"] is True

    @pytest.mark.parametrize("sub,args", [("verify", ["--len", "2", "--min-zs", "1"]),
                                          ("criteria", ["--k", "4"])])
    def test_unreadable_in_exit_1(self, tmp_path, sub, args):
        # A missing file for verify, a directory for criteria.
        path = tmp_path / "missing" if sub == "verify" else tmp_path
        proc = run_cli(sub, "C3^2", *args, "--in", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_pipe_construct_into_verify(self, tmp_path):
        built = run_cli("construct", "lowercnr", "3", "2", "1", check=True).stdout
        seq_file = tmp_path / "s.txt"
        seq_file.write_text(built)
        proc = run_cli(
            "verify", "C3^2", "--len", "5", "--min-zs", "5", "--in", str(seq_file),
            check=True,
        )
        assert json.loads(proc.stdout)["passed"] is True


class TestCriteria:
    def test_schema(self):
        proc = run_cli(
            "criteria", "C3^2", "--k", "4", "--seq", "1,0^3; 0,1^3; 1,1; 2,2",
            check=True,
        )
        payload = json.loads(proc.stdout)
        assert set(payload) == {"p", "T_len", "k", "D", "a", "i0", "guarantees_short", "flags"}
        assert payload["p"] == 3
        assert payload["T_len"] == 8
        assert payload["D"] == 5
        assert payload["a"] == [[1, 0], [2, 1], [3, 2]]
        assert payload["i0"] == 2
        assert payload["guarantees_short"] is True
        assert set(payload["flags"]) == {"l4_7", "c4_8", "l4_9"}

    def test_non_p_group_exit_1(self):
        proc = run_cli("criteria", "C6", "--k", "4", "--seq", "1^6")
        assert_usage_error(proc.returncode, proc.stderr, "criteria")

    def test_unknown_davenport_constant_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "davenport_value", lambda G: (5, "assumed D=D*", True))
        rc = cli.main(["criteria", "C3^2", "--k", "4", "--seq", "1,0^3; 0,1^3; 1,1; 2,2"])
        err = capsys.readouterr().err
        assert_usage_error(rc, err, "criteria")
        assert err.endswith("zerosum criteria: error: D(C3^2) unknown; pass --D\n")

    def test_non_zero_sum_exit_1(self):
        proc = run_cli("criteria", "C3^2", "--k", "4", "--seq", "1,0^3; 0,1^3; 1,1; 2,1")
        assert proc.returncode == 1


class TestTheorems:
    def test_c33_claims(self):
        proc = run_cli("theorems", "C3^3", check=True)
        payload = json.loads(proc.stdout)
        names = [c["theorem"] for c in payload]
        assert names == ["thm_1_8", "thm_1_10(iii)"]
        main = payload[0]
        assert main["applies"] is True
        assert main["claimed_bound"] == 9
        assert main["k"] == 5
        assert main["equality_expected"] is True

    def test_with_k_adds_1_9(self):
        proc = run_cli("theorems", "C5^3", "--k", "9", check=True)
        payload = json.loads(proc.stdout)
        row = next(c for c in payload if c["theorem"] == "thm_1_9")
        assert row["applies"] is True
        assert row["claimed_bound"] == 18

    def test_case_i_detection(self):
        proc = run_cli("theorems", "C2^2", check=True)
        names = [c["theorem"] for c in json.loads(proc.stdout)]
        assert "thm_1_10(i)" in names

    def test_text_format(self):
        proc = run_cli("theorems", "C3^3", "--format", "text", check=True)
        assert "thm_1_8 on C3^3: claims s_leq(5) <= 9" in proc.stdout

    def test_no_data_override(self):
        # The packaged table is the only reference table.
        for sub in ("theorems", "conjectures"):
            proc = run_cli(sub, "C3^3", "--data", "x")
            assert_usage_error(proc.returncode, proc.stderr, sub)
            assert proc.stderr.endswith(f"zerosum {sub}: error: unrecognized arguments: --data x\n")


ROW_KEYS = ["j", "m", "value", "is_lower_bound", "bound", "holds", "source"]
KEXP_KEYS = ["k", "kexp", "value", "threshold", "region", "relation", "consistent", "source"]


class TestConjectures:
    @pytest.mark.parametrize("args", [("C3^3", "--symmetry"), ("C2^7", "--source", "bundled")])
    def test_field_orders(self, args):
        payload = json.loads(run_cli("conjectures", *args, check=True).stdout)
        assert payload["rows"] and payload["s_kexp"]
        assert all(list(row) == ROW_KEYS for row in payload["rows"])
        assert all(list(row) == KEXP_KEYS for row in payload["s_kexp"])
        text = run_cli("conjectures", *args, "--format", "csv", check=True).stdout
        lines = text.splitlines()
        assert lines[0] == ",".join(ROW_KEYS)
        assert len(lines) == 1 + len(payload["rows"])

    def test_bundled_c53_json(self):
        proc = run_cli("conjectures", "C5^3", "--source", "bundled", check=True)
        payload = json.loads(proc.stdout)
        assert payload["k_G"] == 7
        assert payload["conjecture_k_half"] is True
        assert payload["D"] == {"value": 13, "source": "S10"}
        assert len(payload["rows"]) == 8

    def test_bundled_c27_unknown_text(self):
        proc = run_cli("conjectures", "C2^7", "--source", "bundled", "--format", "text", check=True)
        assert "k_G = unknown" in proc.stdout

    def test_csv_format(self):
        proc = run_cli("conjectures", "C3^2", "--source", "computed", "--format", "csv", check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("j,m,value")
        assert len(lines) == 3

    def test_computed_c33(self):
        proc = run_cli("conjectures", "C3^3", "--symmetry", check=True)
        payload = json.loads(proc.stdout)
        assert payload["k_G"] == 4

    def test_budget_exhausted_exit_2(self):
        proc = run_cli("conjectures", "C3^3", "--budget-nodes", "50")
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert any(row["is_lower_bound"] for row in payload["rows"])

    def test_unknown_k_g_text(self):
        # With k_G unknown the conjecture check is unknown too, not "None".
        proc = run_cli("conjectures", "C2^2xC4", "--source", "computed", "--budget-nodes", "50",
                       "--format", "text")
        assert proc.returncode == 2
        assert "k_G = unknown (conjectured (D+1)/2 = 3.5): unknown\n" in proc.stdout


class TestSweepCommand:
    def test_runs_and_is_byte_identical(self, tmp_path):
        args = ["sweep", "--p", "3", "--max-T", "60", "--seed", "7",
                "--row-count", "20", "--congruence-samples", "10",
                "--soundness-samples", "10"]
        a = run_cli(*args, check=True)
        b = run_cli(*args, check=True)
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert payload["seed"] == 7
        assert all(entry["passed"] for entry in payload["suites"])

    @pytest.mark.parametrize("flag", ["--row-count", "--congruence-samples",
                                      "--soundness-samples"])
    def test_no_cases_exit_1(self, flag):
        proc = run_cli("sweep", "--p", "3", "--max-T", "20", flag, "0", "--format", "text")
        assert proc.returncode == 1
        assert "need" in proc.stderr and ">= 1" in proc.stderr
        assert "all passed" not in proc.stdout

    def test_text_format(self):
        proc = run_cli("sweep", "--p", "3", "--max-T", "40", "--row-count", "5",
                       "--congruence-samples", "5", "--soundness-samples", "5",
                       "--format", "text", check=True)
        assert "i0-predictions" in proc.stdout
        assert "pass" in proc.stdout

    def test_json_matches_run_all_sweeps(self):
        proc = run_cli("sweep", "--p", "3,5", "--max-T", "60", "--seed", "4",
                       "--row-count", "10", "--congruence-samples", "8",
                       "--soundness-samples", "8", check=True)
        payload = json.loads(proc.stdout)
        outcomes = run_all_sweeps(seed=4, max_T=60, row_count=10, congruence_samples=8,
                                  soundness_samples=8, ps=(3, 5))
        assert payload["suites"] == [
            {"name": o.name, "cases": o.cases, "passed": o.passed, "violations": list(o.violations)}
            for o in outcomes
        ]
        assert payload["passed"] is all(o.passed for o in outcomes)


class TestTopLevel:
    def test_no_subcommand_exit_1(self):
        assert run_cli().returncode == 1

    def test_unknown_subcommand_exit_1(self):
        assert run_cli("frobnicate").returncode == 1

    def test_help_exits_0(self):
        assert run_cli("--help").returncode == 0


class TestInvariantTableScript:
    def run_script(self, *args):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "invariant_table.py"), *args],
            capture_output=True, text=True, timeout=300, env=env,
        )

    def test_empty_k_range_writes_header_only(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = self.run_script("3,3", "--k-min", "9", "--csv", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines() == ["group,k,search,known,source,agree"]
        assert "wrote 0 rows" in proc.stdout

    def test_search_agrees_with_tables(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = self.run_script("3,3", "2,2,2", "2,4", "--csv", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert {r["agree"] for r in rows} == {"yes", "-"}
        assert ("C3^2", "3", "7") in {(r["group"], r["k"], r["search"]) for r in rows}


class TestConjectureScanScript:
    def run_script(self, *args):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "conjecture_scan.py"), *args],
            capture_output=True, text=True, timeout=300, env=env,
        )

    def test_no_rows_writes_header_only(self, tmp_path):
        # no invariant-factor chain of rank >= 2 has order <= 3
        out = tmp_path / "out.csv"
        proc = self.run_script("--max-order", "3", "--csv", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines() == [
            "group,order,D,D_source,k_G,target,holds,monotone"]
        assert "wrote 0 rows" in proc.stdout

    def test_rows_under_the_header(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = self.run_script("--max-order", "9", "--source", "computed", "--csv", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["group"], r["D"], r["k_G"]) for r in rows] == [
            ("C2^2", "3", "2"), ("C2xC4", "5", "4"), ("C3^2", "5", "3"), ("C2^3", "4", "3")]
