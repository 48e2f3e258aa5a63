"""Validation harness tests: the checks themselves must pass at the spec
parameters, be deterministic under reruns, and serialize stably."""

import math
from dataclasses import astuple, replace

import pytest

from coxcascade import validation
from coxcascade.error_model import GammaIntensity, TimeUnitLayout, pmf
from coxcascade.validation import (
    CheckRecord,
    EXAMPLE_ERROR_POSITIONS,
    EXAMPLE_KEY_BITS,
    SUITES,
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
        # two identities and the paper's tail closed form over a 3x3 grid
        assert len(records) == 27
        assert {r.name for r in records} == {
            "partial_sum_identity", "odd_partial_sum_identity", "tail_closed_form"}
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

    def test_probability_depends_on_the_shape_only(self):
        # the recommended block spans n = f b / a bits, so its error count
        # follows G(a, b f / n) = G(a, a): P(at most one error) is
        # (a/(a+1))**a * (2a+1)/(a+1), the same for two rates whose blocks
        # differ, and it falls towards the Poisson value 2/e as a grows
        def at_most_one(a, b):
            records = check_assumption_one(TimeUnitLayout(1000), GammaIntensity(a, b),
                                           units=50)
            by_name = {r.name: r for r in records}
            assert by_name["assumption1_p_at_most_one"].passed
            return (by_name["assumption1_block_size"].analytic,
                    by_name["assumption1_p_at_most_one"].analytic)

        def closed_form(a):
            return (a / (a + 1)) ** a * (2 * a + 1) / (a + 1)

        n_200, p_200 = at_most_one(10, 2)
        n_100, p_100 = at_most_one(10, 1)
        assert (n_200, n_100) == (200, 100)
        assert p_200 == p_100 == pytest.approx(closed_form(10), rel=1e-14)
        n_shape, p_shape = at_most_one(20, 2)
        assert n_shape == 100
        assert p_shape == pytest.approx(closed_form(20), rel=1e-14)
        assert 2 / math.e < p_shape < p_100


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

    @pytest.mark.parametrize("field, check", [
        ("leaked_parities", "reconcile_leak_ledger_identity"),
        ("deleted_bits", "reconcile_length_accounting"),
    ])
    def test_exact_gate_fails_on_a_miscount(self, monkeypatch, field, check):
        # an outcome that overcounts by one fails its gate, and only that one
        reconcile = validation.reconcile

        def miscounted(*args):
            out = reconcile(*args)
            return replace(out, **{field: getattr(out, field) + 1})

        monkeypatch.setattr(validation, "reconcile", miscounted)
        records = check_reconciliation(runs=100)
        assert [r.name for r in records if not r.passed] == [check]
        assert {r.name: r for r in records}[check].oracle == 100


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
        records = run_suites(["all", "two"])
        assert calls == ["one", "two"]
        assert [r.name for r in records] == ["one", "two"]
        calls.clear()
        run_suites(["two", "two", "one"])
        assert calls == ["two", "one"]
        with pytest.raises(KeyError):
            run_suites(["one", "bogus"])

    def test_single_suite_runs_only_that_check_family(self):
        records = run_suites(["identities"])
        assert records
        assert {r.name for r in records} <= {
            "partial_sum_identity", "odd_partial_sum_identity", "tail_closed_form"
        }

    def test_reports_are_deterministic(self):
        r1 = run_suites(["sampler"])
        r2 = run_suites(["sampler"])
        assert list(map(astuple, r1)) == list(map(astuple, r2))

    def test_records_sorted_by_name(self):
        names = [(r.name, r.params) for r in run_suites(["normalization"])]
        assert names == sorted(names)
