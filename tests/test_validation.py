"""Validation harness tests: the checks themselves must pass at the spec
parameters, be deterministic under reruns, and serialize stably."""

import math

import pytest

from coxcascade.error_model import GammaIntensity, TimeUnitLayout, pmf
from coxcascade.validation import (
    CheckRecord,
    EXAMPLE_ERROR_POSITIONS,
    EXAMPLE_KEY_BITS,
    SUITES,
    ValidationReport,
    adaptive_pmf_sum,
    check_assumption_one,
    check_parity_formulas,
    check_partial_sum_identities,
    check_pmf_normalization,
    check_reconciliation,
    check_simulator_statistics,
    run_suites,
)

G = GammaIntensity(10.0, 2.0)


class TestFixture:
    def test_example_key_shape(self):
        assert len(EXAMPLE_KEY_BITS) == 31
        assert set(EXAMPLE_KEY_BITS) <= {"0", "1"}
        assert len(EXAMPLE_ERROR_POSITIONS) == 6


class TestNormalizationChecks:
    def test_main_parameters_at_explicit_cutoff(self):
        records = check_pmf_normalization(G)
        assert all(r.passed for r in records)
        assert all(r.abs_dev < 1e-10 for r in records)
        assert math.fsum(pmf(k, G) for k in range(401)) == pytest.approx(1.0, abs=1e-10)

    def test_geometric_cutoff_sixty(self):
        g = GammaIntensity(1, 1)
        vs_one = next(r for r in check_pmf_normalization(g) if r.name == "pmf_normalization")
        assert vs_one.passed
        # the truncated geometric sum to k = 60 is exactly 1 - 2**-61
        total = math.fsum(pmf(k, g) for k in range(61))
        assert 1.0 - total == pytest.approx(2.0**-61, rel=1e-6)

    def test_half_shape(self):
        assert all(r.passed for r in check_pmf_normalization(GammaIntensity(0.5, 4)))

    def test_adaptive_cutoff(self):
        total, cutoff = adaptive_pmf_sum(G)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert pmf(cutoff, G) < 1e-15


class TestParityChecks:
    def test_geometric_refutation(self):
        records = check_parity_formulas(GammaIntensity(1, 1))
        by_name = {r.name: r for r in records if not r.name.startswith("p_odd_finite")}
        margin = by_name["p_odd_rejected_variant_margin"]
        assert margin.passed  # the rejected variant sits well off the oracle
        # the record holds the threshold it is judged by: ten times 1e-8
        assert margin.tolerance == pytest.approx(1e-7, rel=1e-12)
        assert margin.abs_dev > margin.tolerance
        assert margin.abs_dev == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert by_name["p_odd_vs_oracle"].passed
        assert by_name["p_odd_vs_oracle"].analytic == pytest.approx(1 / 3, rel=1e-12)

    def test_main_grid(self):
        records = check_parity_formulas(G)
        assert all(r.passed for r in records)
        finite = [r for r in records if r.name == "p_odd_finite_vs_oracle"]
        assert len(finite) == 21
        assert max(r.abs_dev for r in finite) < 1e-10

    def test_limit_correction_is_tiny(self):
        records = check_parity_formulas(G)
        limit = next(r for r in records if r.name == "p_odd_limit")
        assert limit.abs_dev < 1e-8


class TestIdentityChecks:
    def test_full_grid_passes(self):
        records = check_partial_sum_identities()
        assert len(records) == 18  # two identities over a 3x3 grid
        assert all(r.passed for r in records)
        assert max(r.rel_dev for r in records) < 1e-9


class TestAssumptionOne:
    def test_main_parameters(self):
        records = check_assumption_one(TimeUnitLayout(1000), G, units=5000, seed=7)
        by_name = {r.name: r for r in records}
        assert by_name["assumption1_block_size"].analytic == 200
        p = by_name["assumption1_p_at_most_one"]
        assert p.analytic == pytest.approx(0.736, abs=5e-4)
        assert p.passed
        assert by_name["assumption1_errors_per_block"].passed

    def test_probability_rises_as_blocks_shrink(self):
        # with far more units than needed per error, one error per block is
        # nearly certain
        records = check_assumption_one(TimeUnitLayout(10), GammaIntensity(0.01, 1.0),
                                       units=0)
        p_analytic = pmf(0, GammaIntensity(0.01, 1.0), dt=100.0)
        assert p_analytic < 1.0  # block spans many units' worth of errors


class TestSimulatorStatistics:
    def test_gates_pass(self):
        records = check_simulator_statistics(trials=20_000, seed=3)
        assert all(r.passed for r in records)
        by_name = {r.name: r for r in records}
        assert by_name["sampler_unit_mean"].analytic == 5.0
        assert by_name["sampler_dispersion_ratio"].analytic == 1.5
        assert by_name["sampler_odd_frequency"].analytic == pytest.approx(0.49951171875)

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            check_simulator_statistics(trials=10)


class TestReconciliationChecks:
    def test_regression_and_sweep(self):
        records = check_reconciliation(runs=120, seed=5)
        by_name = {r.name: r for r in records}
        assert by_name["worked_example_parities"].passed
        assert by_name["worked_example_mismatch_blocks"].passed
        assert by_name["reconcile_zero_error"].passed
        assert by_name["reconcile_success_rate"].oracle >= 0.99
        assert by_name["reconcile_residual_on_success"].oracle == 0.0
        assert by_name["reconcile_leak_ledger_identity"].passed
        assert by_name["reconcile_length_accounting"].passed

    def test_minimum_runs(self):
        with pytest.raises(ValueError):
            check_reconciliation(runs=10)


class TestReportAndSuites:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suites(["no-such-suite"])

    def test_suite_names(self, monkeypatch):
        calls = []

        def fake(name):
            def suite():
                calls.append(name)
                return [CheckRecord(name, "", 0.0, 0.0, 0.0, 0.0, 0.1, True)]
            return suite

        monkeypatch.setattr("coxcascade.validation.SUITES",
                            {"one": fake("one"), "two": fake("two")})
        report = run_suites(["all", "two"])
        assert calls == ["one", "two"]
        assert [r.name for r in report.records] == ["one", "two"]
        calls.clear()
        run_suites(["two", "two", "one"])
        assert calls == ["two", "one"]
        with pytest.raises(KeyError):
            run_suites(["one", "bogus"])

    def test_single_suite_runs_only_that_check_family(self):
        report = run_suites(["identities"])
        assert report.records
        assert {r.name for r in report.records} <= {
            "partial_sum_identity", "odd_partial_sum_identity"
        }

    def test_reports_are_deterministic(self):
        r1 = run_suites(["sampler"])
        r2 = run_suites(["sampler"])
        assert ([r.to_row() for r in r1.sorted_records()]
                == [r.to_row() for r in r2.sorted_records()])

    def test_text_and_csv_renderings(self):
        # the CSV file itself is written by ``coxcascade validate --output``
        report = run_suites(["identities"])
        text = report.to_text()
        assert "PASS" in text and "0 failed" in text
        assert text.splitlines()[-1] == f"{len(report.records)} checks, 0 failed"
        assert CheckRecord.FIELDS == ("check", "params", "analytic", "oracle",
                                      "abs_dev", "rel_dev", "tolerance", "passed")
        assert all(len(r.to_row()) == len(CheckRecord.FIELDS) for r in report.records)

    def test_records_sorted_by_name(self):
        report = run_suites(["normalization"])
        names = [(r.name, r.params) for r in report.sorted_records()]
        assert names == sorted(names)

    def test_failure_detection(self):
        report = ValidationReport([
            CheckRecord("x", "", 1.0, 2.0, 1.0, 0.5, 0.1, False)
        ])
        assert not report.all_passed
