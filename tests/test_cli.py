import gc
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from clonebench import QuadratureWarning, cli, quadrature
from clonebench.cli import main
from clonebench.report import parse_report


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

    def test_scalar_json_carries_the_plain_digits(self, capsys):
        argv = ["mp-fidelity", "--family", "entangled", "--n", "48", "--m", "2048",
                "--lambda", "16"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert plain.strip().endswith(f"f_mp={payload['f_mp']!r}")
        assert payload["f_mp"] == 0.0157632695866

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

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_rows_in_ascending_n_m_order(self, capsys, output_format):
        argv = ["sweep", "--n", "4,2,2", "--m", "64,16", "--grid", "1",
                "--format", output_format]
        assert main(argv) == 0
        report = parse_report(capsys.readouterr().out, output_format)
        assert [(row.n_copies, row.m_copies) for row in report.rows] == [
            (2, 16), (2, 64), (4, 16), (4, 64)
        ]

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
        for argv in (
            ["sweep", "--n", "not-a-number", "--m", "1", "--grid", "1"],
            ["sweep", "--n", "2", "--m", "4", "--grid", "1,x"],
        ):
            assert main(argv) == 1
            assert "error: argument --" in capsys.readouterr().err

    def test_unknown_command_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_domain_error_is_config_error(self, capsys):
        for argv in (
            ["clone-fidelity", "--n", "4", "--m", "2"],
            ["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "nan"],
            ["sweep", "--n", "2", "--m", "4", "--grid", "nan"],
            ["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "inf"],
            ["sweep", "--n", "2", "--m", "4", "--grid", "inf"],
            ["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "-1e-3"],
            ["oracle-check", "--tol", "-1e-9"],
            ["mp-fidelity", "--n", "2", "--m", "4", "--lambda", "-inf"],
            ["oracle-check", "--tol", "-nan"],
            ["clone-fidelity", "--n", "0", "--m", "2"],
            ["sweep", "--n", "2", "--m", "4", "--grid", ","],
        ):
            assert main(argv) == 1
            assert "configuration error" in capsys.readouterr().err

    def test_unallocatable_size_is_config_error(self, capsys):
        # 10^14 copies need ~800 TB per array: refused at once, never touched.
        assert main(["mp-fidelity", "--n", "2", "--m", str(10**14)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal: out of memory") and err.count("\n") == 1

    # Windowed weights would fit these in memory, with digits ~1e-5 off at 10^10:
    # refused before an M-lattice weight is formed.  At lambda = 100 the ansatz
    # window (K = M / 100) is accepted up to 10^10 and the evaluator refuses M.
    @pytest.mark.parametrize("m_copies", [10**10, 10**11, 10**12])
    def test_copy_number_above_the_bound_is_refused(self, capsys, m_copies):
        for family in ("qubit", "entangled"):
            for lam in ("1", "100"):
                start = time.perf_counter()
                assert main(["mp-fidelity", "--family", family, "--n", "2",
                             "--m", str(m_copies), "--lambda", lam]) == 1
                assert time.perf_counter() - start < 1.0
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("fatal: out of memory")
                assert captured.err.count("\n") == 1 and "100000000" in captured.err

    # Building the N-copy seed spectrum takes O(N^2) time and GBs at N = 10^8:
    # every command that builds one refuses an M above the bound before it.
    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "qubit", "--grid", "100"],
        ["sweep", "--family", "entangled", "--grid", "100"],
        ["mp-fidelity", "--family", "qubit", "--lambda", "100"],
        ["mp-fidelity", "--family", "entangled", "--lambda", "100"],
        ["appendix-check", "--lambda", "100"],
    ], ids=["sweep-qubit", "sweep-entangled", "mp-qubit", "mp-entangled", "appendix"])
    def test_copy_number_above_the_bound_is_refused_before_the_seed(self, capsys, argv):
        argv = [*argv, "--n", "100000002", "--m", "100000002"]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fatal: out of memory") and "100000000" in captured.err

    def test_non_convergence_is_exit_two(self, capsys):
        code = main(["optimize-prep", "--n", "1", "--m", "1", "--tol", "0"])
        assert code == 2
        assert "non-convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_optimize_prep_negative_or_nan_tol_is_config_error(self, capsys, tol):
        assert main(["optimize-prep", "--n", "1", "--m", "1", "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "tolerance must be >= 0" in err


class TestOracleCheck:
    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_oracle_check_fails_with_absurd_tolerance(self, capsys):
        assert main(["oracle-check", "--tol", "1e-30"]) == 2

    def test_oracle_check_rejects_degenerate_nodes(self, capsys):
        assert main(["oracle-check", "--nodes", "2"]) == 1
        assert main(["oracle-check", "--nodes", "0"]) == 1

    def test_node_count_is_bounded(self, capsys):
        start = time.perf_counter()
        assert main(["oracle-check", "--nodes", "100001"]) == 1
        assert time.perf_counter() - start < 0.1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: --nodes must be at most 100000") and "525" in err

    def test_nodes_override_applies_to_every_stage(self, capsys):
        assert main(["oracle-check", "--nodes", "40"]) == 2
        out, err = capsys.readouterr()
        assert "QuadratureWarning: 40 nodes is below the exactness threshold" in err
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0] == ("phase-circle: max |closed-form - quadrature| = 7.432e-04 "
                            "(tol 1e-10) -> FAIL")
        assert lines[1].startswith("su2-class: ") and lines[1].endswith("-> PASS")
        name, gap = lines[2].split(" (")[0].split(" = ")
        assert name == "character-integral: max |closed-form - quadrature|"
        assert float(gap) < 1e-13
        assert lines[2].endswith("(tol 1e-09) -> PASS")

    @pytest.mark.parametrize("argv, flagged", [
        ([], []),
        (["--nodes", "40"], ["phase-circle", "character-integral"]),
        (["--nodes", "1001"], []),
    ])
    def test_at_most_one_warning_line_per_stage(self, capsys, argv, flagged):
        main(["oracle-check", *argv])
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == flagged
        assert all(line.startswith("warning: ") for line in lines)

    @pytest.mark.parametrize("nodes", [None, 40])
    def test_one_char4_call_per_oracle_check(self, monkeypatch, nodes):
        # One call over all 13^4 quadruples, with one node count per quadruple
        # by default and one for all of them under --nodes.
        seen = []
        weyl = quadrature.weyl_quadrature_char4

        def counting(*args):
            seen.append(args[-1])
            return weyl(*args)

        monkeypatch.setattr(quadrature, "weyl_quadrature_char4", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            stages = list(cli._oracle_lines(nodes, 1e-10, 1e-9))
        assert stages[2][0] == "character-integral"
        assert len(seen) == 1
        assert np.shape(seen[0]) == (() if nodes else (13**4,))

    @pytest.mark.parametrize("family, n_max, m_max", [("qubit", 6, 256), ("entangled", 4, 24)])
    def test_one_seed_spectrum_per_distinct_n(self, seed_builds, family, n_max, m_max):
        rng = random.Random(170)
        cli._worst_mp_gap(rng, family, n_max, m_max, [1.0, 2.0],
                          lambda n, m, state, nodes: 0.0, lambda n, m: 3)
        assert len(seed_builds) == len(set(seed_builds)) <= n_max

    def test_optimize_prep_builds_one_seed_spectrum(self, seed_builds, capsys):
        assert main(["optimize-prep", "--n", "6", "--m", "256"]) == 0
        assert seed_builds == [6]


class TestOracleCheckTolerance:
    """--tol handling, with the oracles replaced by fixed worst-case gaps."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = []

        def fake_lines(nodes, tol_qubit, tol_ent):
            calls.append((tol_qubit, tol_ent))
            yield "phase-circle", 1e-12, tol_qubit
            yield "su2-class", 1e-12, tol_ent

        monkeypatch.setattr(cli, "_oracle_lines", fake_lines)
        return calls

    def test_defaults_only_without_tol(self, seen, capsys):
        assert main(["oracle-check"]) == 0
        assert seen == [(1e-10, 1e-9)]

    def test_zero_tol_is_used(self, seen, capsys):
        assert main(["oracle-check", "--tol", "0"]) == 2
        assert seen == [(0.0, 0.0)]
        assert capsys.readouterr().out.count("FAIL") == 2

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_tol_is_config_error(self, seen, capsys, tol):
        assert main(["oracle-check", "--tol", tol]) == 1
        assert seen == []
        assert "configuration error" in capsys.readouterr().err


def _assert_no_cyclic_garbage(argv, status):
    """A warm main(argv) returns `status` and leaves nothing for the collector."""
    assert main(argv) == status
    gc.collect()
    gc.disable()  # so that no automatic collection hides garbage
    try:
        assert main(argv) == status
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestSharedParser:
    """main() parses with one parser, built on the first call."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["clone-fidelity", "--n", "2", "--m", "10"],
        ["mp-fidelity", "--family", "entangled", "--n", "2", "--m", "10", "--format", "csv"],
        ["sweep", "--n", "2,3", "--m", "10,11", "--grid", "1,4"],
    ])
    def test_a_call_leaves_no_cyclic_garbage(self, capsys, argv):
        # Cyclic garbage left by each call makes callers in one process pay
        # full collections.
        _assert_no_cyclic_garbage(argv, 0)

    @pytest.mark.parametrize("argv, status", [
        (["oracle-check"], 0),
        (["oracle-check", "--nodes", "40"], 2),
    ])
    def test_an_oracle_check_leaves_no_cyclic_garbage(self, capsys, argv, status):
        _assert_no_cyclic_garbage(argv, status)

    def test_no_value_carries_over_between_calls(self, capsys):
        argv = ["mp-fidelity", "--n", "1", "--m", "1", "--format", "csv"]
        assert main([*argv, "--lambda", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("qubit,1,1,4,")
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("qubit,1,1,1,")


def test_cold_start_loads_no_scipy():
    # Importing scipy.special takes about half a process start, and hashlib
    # ~3.5 ms of it; only the benchmark's reference generator needs scipy, and
    # only a JSON sweep report's config hash needs hashlib.
    code = ("import sys, clonebench.cli; "
            "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib')])")
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert done.stdout.strip() == "[]"
