import json

import pytest

from clonebench import parse_report
from clonebench.cli import main


class TestScalarCommands:
    def test_clone_fidelity_plain(self, capsys):
        assert main(["clone-fidelity", "--n", "1", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "f_clon=0.75" in out

    def test_clone_fidelity_json_entangled(self, capsys):
        assert main(
            ["clone-fidelity", "--family", "entangled", "--n", "2", "--m", "4",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_clon"] == pytest.approx(0.6827646633859229, abs=1e-10)

    def test_mp_fidelity(self, capsys):
        assert main(["mp-fidelity", "--n", "1", "--m", "1", "--lambda", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_mp"] == pytest.approx(0.75, abs=1e-12)

    def test_scalar_csv_is_header_and_value_row(self, capsys):
        assert main(["clone-fidelity", "--n", "1", "--m", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "family,N,M,f_clon\nqubit,1,3,0.75\n"
        assert main(["mp-fidelity", "--family", "entangled", "--n", "1", "--m", "1",
                     "--format", "csv"]) == 0
        header, values = capsys.readouterr().out.strip().split("\n")
        assert header == "family,N,M,lambda,f_mp"
        assert values == "entangled,1,1,1,0.5"

    def test_optimize_prep_replay_consistency(self, capsys):
        assert main(["optimize-prep", "--n", "2", "--m", "16", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_eig"] == pytest.approx(payload["replayed_f_mp"], abs=1e-10)


class TestSweepCommand:
    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["sweep", "--n", "1", "--m", "1,3", "--grid", "1,2", "--out", str(out)]
        )
        assert code == 0
        report = parse_report(out.read_text(), "csv")
        assert [row.m_copies for row in report.rows] == [1, 3]

    def test_sweep_json_stdout(self, capsys):
        assert main(
            ["sweep", "--n", "2", "--m", "4", "--grid", "1", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["N"] == 2

    def test_empty_sweep_exits_zero(self, capsys):
        assert main(["sweep", "--n", "2", "--m", "", "--grid", "1"]) == 0
        out = capsys.readouterr().out
        assert out.strip().count("\n") == 0  # header only

    def test_lambda_rule(self, capsys):
        assert main(
            ["sweep", "--n", "2", "--m", "16", "--lambda-rule", "0.5"]
        ) == 0
        report = parse_report(capsys.readouterr().out, "csv")
        assert report.rows[0].lam == 4.0

    def test_unwritable_path_is_fatal(self, capsys):
        code = main(
            ["sweep", "--n", "1", "--m", "1", "--grid", "1",
             "--out", "/nonexistent-dir/report.csv"]
        )
        assert code == 1

    def test_conflicting_lambda_rules(self, capsys):
        code = main(
            ["sweep", "--n", "1", "--m", "1", "--grid", "1", "--lambda-rule", "0.5"]
        )
        assert code == 1


class TestAppendixCommand:
    def test_appendix_table(self, capsys):
        assert main(
            ["appendix-check", "--n", "2", "--lambda", "8", "--m", "128,256"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "M,f_exact,f_zeroth,f_second,gap_ratio"
        assert len(lines) == 3


class TestExitStatuses:
    def test_bad_flag_is_config_error(self, capsys):
        assert main(["sweep", "--n", "not-a-number", "--m", "1", "--grid", "1"]) == 1

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_domain_error_is_config_error(self, capsys):
        for argv in (
            ["clone-fidelity", "--n", "4", "--m", "2"],
            ["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "nan"],
            ["sweep", "--n", "2", "--m", "4", "--grid", "nan"],
        ):
            assert main(argv) == 1
            assert "configuration error" in capsys.readouterr().err

    def test_non_convergence_is_exit_two(self, capsys):
        code = main(["optimize-prep", "--n", "1", "--m", "1", "--tol", "-1"])
        assert code == 2
        assert "non-convergence" in capsys.readouterr().err


class TestOracleCheck:
    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_oracle_check_fails_with_absurd_tolerance(self, capsys):
        assert main(["oracle-check", "--tol", "1e-30"]) == 2

    def test_oracle_check_rejects_degenerate_nodes(self, capsys):
        assert main(["oracle-check", "--nodes", "2"]) == 1
