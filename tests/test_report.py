import json
import logging
import random
from dataclasses import replace

import pytest

from clonebench import DomainError, appendix_check, entangled, optimize
from clonebench.report import (
    CSV_COLUMNS,
    SweepConfig,
    SweepReport,
    SweepRow,
    parse_report,
    relative_gap,
    run_sweep,
    serialize_appendix,
    serialize_report,
    serialize_scalar,
)


def _strip_timing(rows):
    return [replace(row, wall_time_ms=0.0) for row in rows]


class TestSweepConfig:
    def test_requires_exactly_one_lambda_rule(self):
        with pytest.raises(DomainError):
            SweepConfig("qubit", (1,), (1,))
        with pytest.raises(DomainError):
            SweepConfig("qubit", (1,), (1,), lambda_grid=(1.0,), lambda_exponent=0.5)

    def test_exponent_range(self):
        with pytest.raises(DomainError):
            SweepConfig("qubit", (1,), (1,), lambda_exponent=1.5)

    def test_lambda_grid_validated(self):
        with pytest.raises(DomainError):
            SweepConfig("qubit", (1,), (1,), lambda_grid=(0.5,))
        with pytest.raises(DomainError):
            SweepConfig("qubit", (1,), (1,), lambda_grid=(float("nan"),))
        with pytest.raises(DomainError):
            SweepConfig("qubit", (1,), (1,), lambda_grid=(float("inf"),))

    def test_power_rule_lambdas(self):
        config = SweepConfig("qubit", (2,), (256,), lambda_exponent=0.5)
        assert config.lambdas_for(256) == (16.0,)

    def test_digest_is_stable(self):
        a = SweepConfig("qubit", (1,), (1, 3), lambda_grid=(1.0,))
        b = SweepConfig("qubit", (1,), (1, 3), lambda_grid=(1.0,))
        assert a.digest() == b.digest()


class TestRunSweep:
    def test_single_trivial_row(self):
        config = SweepConfig("qubit", (1,), (1,), lambda_grid=(1.0,))
        report = run_sweep(config)
        (row,) = report.rows
        assert row.f_clon == pytest.approx(1.0)
        assert row.f_mp == pytest.approx(0.75, abs=1e-12)
        assert row.delta == pytest.approx(0.25, abs=1e-10)
        assert row.ratio_naive == pytest.approx(0.75, abs=1e-12)
        assert row.f_eig == pytest.approx(0.75, abs=1e-10)

    def test_empty_m_values(self):
        config = SweepConfig("qubit", (2,), (), lambda_grid=(1.0,))
        assert run_sweep(config).rows == []

    def test_parity_mismatch_skipped_with_log(self, caplog):
        config = SweepConfig("qubit", (2,), (3, 4), lambda_grid=(1.0,))
        with caplog.at_level(logging.INFO, logger="clonebench.report"):
            report = run_sweep(config)
        assert [row.m_copies for row in report.rows] == [4]
        assert any("skipping" in record.message for record in caplog.records)

    def test_clamped_cutoff_flagged_in_log(self, caplog):
        config = SweepConfig("qubit", (2,), (4,), lambda_grid=(4.0,))
        with caplog.at_level(logging.WARNING, logger="clonebench.report"):
            run_sweep(config)
        assert any("clamped" in record.message for record in caplog.records)

    def test_sqrt_rule_delta_non_increasing(self):
        config = SweepConfig("qubit", (2,), (256, 1024, 4096), lambda_exponent=0.5)
        report = run_sweep(config)
        deltas = [row.delta for row in report.rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_entangled_rows_have_no_eig(self):
        config = SweepConfig("entangled", (2,), (8,), lambda_grid=(1.0, 2.0))
        (row,) = run_sweep(config).rows
        assert row.f_eig is None
        assert 0 < row.ratio_naive <= 1

    def test_naive_value_taken_from_grid(self, monkeypatch):
        calls = []
        evaluate = entangled.mp_fidelity_exact_ent_from_seed

        def counted(seed, m, state):
            calls.append((len(seed) - 1, m))
            return evaluate(seed, m, state)

        monkeypatch.setattr(entangled, "mp_fidelity_exact_ent_from_seed", counted)
        (row,) = run_sweep(SweepConfig("entangled", (2,), (64,), lambda_grid=(1.0, 4.0))).rows
        assert len(calls) == 2
        assert row.f_naive == entangled.mp_fidelity_exact_ent(
            2, 64, entangled.prepared_state_ansatz_ent(64, 1.0))
        calls.clear()
        run_sweep(SweepConfig("entangled", (2,), (64,), lambda_grid=(4.0,)))
        assert len(calls) == 2  # without lambda = 1 in the grid, one extra naive call

    @pytest.mark.parametrize("family, forms", [("qubit", 1), ("entangled", 0)])
    def test_kernel_built_through_the_module_attribute(self, monkeypatch, family, forms):
        # A tracer rebinds optimize.build_quadratic_form; the family's kernel must run it.
        calls = []
        build = optimize.build_quadratic_form

        def counted(n, m):
            calls.append((n, m))
            return build(n, m)

        monkeypatch.setattr(optimize, "build_quadratic_form", counted)
        (row,) = run_sweep(SweepConfig(family, (2,), (64,), lambda_grid=(1.0, 4.0))).rows
        assert calls == [(2, 64)] * forms
        assert (row.f_eig is None) == (forms == 0)

    @pytest.mark.parametrize("family", ["qubit", "entangled"])
    @pytest.mark.parametrize("lambdas", [None, (2.0, 8.0)], ids=["default-grid", "grid-without-1"])
    def test_one_seed_spectrum_per_row(self, seed_builds, family, lambdas):
        # The sweep, the kernel and the naive value share the row's seed
        # spectrum; the default grid at M = 4096 holds 13 lambdas.
        relative_gap(6, 4096, family, lambdas)
        assert seed_builds == [6]

    @pytest.mark.parametrize("family", ["qubit", "entangled"])
    @pytest.mark.parametrize("rule", [
        {"lambda_grid": (1.0, 4.0)},
        {"lambda_grid": (2.0, 8.0)},
        {"lambda_exponent": 0.5},
    ], ids=["grid-with-1", "grid-without-1", "exponent"])
    def test_library_row_is_the_printed_row(self, family, rule):
        config = SweepConfig(family, (1, 2), (2, 3, 16, 64), **rule)
        rows = run_sweep(config).rows
        assert len(rows) == 4
        library = [relative_gap(row.n_copies, row.m_copies, family,
                                config.lambdas_for(row.m_copies)) for row in rows]
        assert _strip_timing(library) == _strip_timing(rows)

    def test_deterministic_up_to_timing(self):
        config = SweepConfig("qubit", (1, 2), (2, 4, 8), lambda_grid=(1.0, 2.0))
        first = run_sweep(config)
        second = run_sweep(config)
        assert _strip_timing(first.rows) == _strip_timing(second.rows)


def _random_rows(count, rng):
    def f12(x):
        return float(f"{x:.12g}")

    rows = []
    for _ in range(count):
        family = rng.choice(["qubit", "entangled"])
        rows.append(
            SweepRow(
                family=family,
                n_copies=rng.randint(1, 6),
                m_copies=rng.randint(1, 4096),
                lam=f12(rng.uniform(1, 64)),
                f_clon=f12(rng.random()),
                f_mp=f12(rng.random()),
                f_naive=f12(rng.random()),
                f_eig=f12(rng.random()) if family == "qubit" else None,
                ratio_naive=f12(rng.random()),
                delta=f12(rng.random()),
                wall_time_ms=f12(rng.uniform(0, 1e4)),
            )
        )
    return rows


class TestSerialization:
    def test_empty_csv_is_header_only(self):
        assert serialize_report(SweepReport(), "csv") == CSV_COLUMNS + "\n"

    def test_single_row_field_count(self):
        config = SweepConfig("qubit", (1,), (1,), lambda_grid=(1.0,))
        text = serialize_report(run_sweep(config), "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 11

    def test_twelve_significant_digits(self):
        row = SweepRow("qubit", 1, 1, 1.0, 1 / 3, 0.75, 0.75, 0.75, 0.75, 0.25, 1.0)
        text = serialize_report(SweepReport(rows=[row]), "csv")
        assert "0.333333333333" in text

    def test_empty_eig_serialized_as_empty_field(self):
        row = SweepRow("entangled", 2, 8, 1.0, 0.5, 0.4, 0.4, None, 0.8, 0.2, 1.0)
        line = serialize_report(SweepReport(rows=[row]), "csv").strip().split("\n")[1]
        assert ",," in line
        payload = json.loads(serialize_report(SweepReport(rows=[row]), "json"))
        assert payload["rows"][0]["f_eig"] is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_csv_round_trip(self, seed):
        rows = _random_rows(3, random.Random(seed))
        text = serialize_report(SweepReport(rows=rows), "csv")
        assert parse_report(text, "csv").rows == rows

    @pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
    def test_json_round_trip(self, seed):
        report = SweepReport(rows=_random_rows(3, random.Random(seed)), config_hash="abc")
        text = serialize_report(report, "json")
        assert parse_report(text, "json") == report

    def test_json_carries_metadata(self):
        payload = json.loads(serialize_report(SweepReport(config_hash="deadbeef"), "json"))
        assert payload["config_hash"] == "deadbeef"
        assert "version" in payload

    def test_wrong_csv_header_rejected(self):
        text = serialize_report(SweepReport(), "csv").replace("f_clon", "f_clone")
        with pytest.raises(DomainError, match="unexpected CSV header"):
            parse_report(text, "csv")

    @pytest.mark.parametrize("serialize, payload", [
        (serialize_report, SweepReport()),
        (serialize_appendix, []),
        (serialize_scalar, {"N": 1}),
    ], ids=["report", "appendix", "scalar"])
    def test_unknown_format_rejected(self, serialize, payload):
        with pytest.raises(DomainError, match="unknown output format 'xml'"):
            serialize(payload, "xml")


class TestAppendixCheck:
    def test_gap_ratio_halves_when_m_doubles(self):
        rows = appendix_check(4, 16.0, [2048, 4096])
        ratio = rows[0].gap_ratio / rows[1].gap_ratio
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_second_order_closer_than_zeroth(self):
        for row in appendix_check(4, 16.0, [2048, 4096]):
            assert abs(row.f_second - row.f_exact) < abs(row.f_zeroth - row.f_exact)

    def test_rows_sorted_by_m(self):
        rows = appendix_check(2, 8.0, [512, 128, 256])
        assert [row.m_copies for row in rows] == [128, 256, 512]

    def test_serialize_appendix_csv(self):
        rows = appendix_check(2, 8.0, [128])
        text = serialize_appendix(rows, "csv")
        header, line = text.strip().split("\n")
        assert header == "M,f_exact,f_zeroth,f_second,gap_ratio"
        assert line.startswith("128,")
