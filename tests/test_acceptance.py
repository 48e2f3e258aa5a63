"""Acceptance suite.

One test per criterion, each at its stated tolerance, each printing a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to
see them all).  Expected values come from independent oracles computed in
place: truncated pmf sums, odd-index sums, direct series summation, and
seeded Monte Carlo with three-standard-error gates.
"""

import math

import numpy as np
import pytest

from coxcascade.error_model import (
    GammaIntensity,
    TimeUnitLayout,
    cdf,
    mean,
    p_odd,
    p_odd_finite,
    pmf,
    recommend_block_size,
    sample_error_pattern,
    sample_process,
    tail,
)
from coxcascade.reconciliation import (
    COMPARE_BLOCK,
    COMPARE_SUBSET,
    PARITY_EVENT_KINDS,
    CascadeConfig,
    Transcript,
    bits_from_string,
    make_key_pair,
    reconcile,
)
from coxcascade.special_functions import hyp2f1_one_sum, hyp3f2_sum, ln_pochhammer
from coxcascade.validation import (
    EXAMPLE_ERROR_POSITIONS,
    EXAMPLE_KEY_BITS,
    adaptive_pmf_sum,
)

GRID = [(10.0, 2.0), (1.0, 1.0), (0.5, 4.0), (25.0, 0.5)]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {number:02d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_tail_vs_brute_force():
    worst = 0.0
    complement_exact = True
    for a, b in GRID:
        g = GammaIntensity(a, b)
        running = 0.0
        for m in range(51):
            running += pmf(m, g)
            worst = max(worst, abs(tail(m, g) - (1.0 - running)))
            if tail(m, g) + cdf(m, g) != 1.0:
                complement_exact = False
    report(1, "closed-form tail vs brute force", worst <= 1e-10 and complement_exact,
           f"max |dev| = {worst:.3g}")


def test_criterion_02_normalization():
    worst = 0.0
    for a, b in GRID:
        total, _ = adaptive_pmf_sum(GammaIntensity(a, b))
        worst = max(worst, abs(total - 1.0))
    report(2, "pmf normalization at adaptive cutoff", worst <= 1e-10,
           f"max |1 - sum| = {worst:.3g}")


def test_criterion_03_mean_identity():
    worst = 0.0
    main_value = None
    for a, b in GRID:
        g = GammaIntensity(a, b)
        _, cutoff = adaptive_pmf_sum(g)
        est = math.fsum(k * pmf(k, g) for k in range(cutoff + 1))
        worst = max(worst, abs(est - mean(g)))
        if (a, b) == (10.0, 2.0):
            main_value = est
    ok = worst <= 1e-8 and main_value == pytest.approx(5.0, abs=1e-8)
    report(3, "first moment equals a/b", ok, f"max |dev| = {worst:.3g}")


def test_criterion_04_parity_verdict():
    g = GammaIntensity(1.0, 1.0)
    oracle = math.fsum(pmf(k, g) for k in range(1, 801, 2))
    implemented = p_odd(g)
    rejected = 0.5 * (1.0 - pmf(0, g))  # halves P(X >= 1); over-counts evens
    agree = abs(implemented - oracle) <= 1e-12
    margin = abs(rejected - oracle)
    refuted = margin == pytest.approx(1.0 / 12.0, abs=1e-4)
    report(4, "odd-count probability verdict", agree and refuted,
           f"|impl - oracle| = {abs(implemented - oracle):.3g}, "
           f"rejected-variant margin = {margin:.4f}")


def test_criterion_05_finite_parity_formula():
    g = GammaIntensity(10.0, 2.0)
    worst = 0.0
    for m in range(21):
        oracle = math.fsum(pmf(2 * j + 1, g) for j in range(m + 1))
        worst = max(worst, abs(p_odd_finite(m, g) - oracle))
    limit_dev = abs(p_odd_finite(200, g) - p_odd(g))
    report(5, "finite-string odd-count formula",
           worst <= 1e-10 and limit_dev < 1e-8,
           f"max |dev| = {worst:.3g}, limit dev = {limit_dev:.3g}")


def test_criterion_06_series_identities():
    # partial-sum closed form and its odd-index analogue, 1e-9 relative
    worst_sum = 0.0
    for a in (0.5, 2.0, 10.0):
        for c in (1.5, 3.0, 11.0):
            for m in range(31):
                direct = math.fsum(
                    math.exp(math.lgamma(k + a) - math.lgamma(k + 1) - k * math.log(c))
                    for k in range(m + 1)
                )
                closed = math.exp(
                    math.lgamma(a) - a * (math.log(c - 1) - math.log(c))
                ) - math.exp(
                    math.lgamma(m + 1 + a) - math.lgamma(m + 2) - (m + 1) * math.log(c)
                ) * hyp2f1_one_sum(m + a + 1, m + 2, 1.0 / c).value
                worst_sum = max(worst_sum, abs(direct - closed) / direct)

                odd_direct = math.fsum(
                    math.exp(math.lgamma(2 * k + 1 + a) - math.lgamma(2 * k + 2)
                             - (2 * k + 1) * math.log(c))
                    for k in range(m + 1)
                )
                z = 1.0 / c
                odd_closed = (
                    math.exp(math.lgamma(a)) * ((1 - z) ** -a - (1 + z) ** -a) / 2.0
                    - math.exp(
                        math.lgamma(2 * m + 3 + a) - math.lgamma(2 * m + 4)
                        - (2 * m + 3) * math.log(c)
                    ) * hyp3f2_sum(m + 2 + a / 2, m + 1.5 + a / 2, m + 2, m + 2.5,
                                   z * z).value
                )
                worst_sum = max(worst_sum, abs(odd_direct - odd_closed) / odd_direct)

    # Pochhammer identities at 1e-12 relative
    def pochhammer(x, n):
        return math.exp(ln_pochhammer(x, n))

    worst_poch = 0.0
    for a in (0.5, 1.0, 2.0, 7.3):
        for k in range(21):
            pairs = (
                (pochhammer(a, k) * pochhammer(a + 0.5, k),
                 pochhammer(2 * a, 2 * k) / 4.0**k),
                (pochhammer(a + 1.0, k), (a + k) / a * pochhammer(a, k)),
                (pochhammer(1.5, k),
                 math.factorial(2 * k + 1) / (math.factorial(k) * 4.0**k)),
            )
            for lhs, rhs in pairs:
                worst_poch = max(worst_poch, abs(lhs - rhs) / max(abs(rhs), 1.0))

    # binomial series partial sums at 1e-10 relative
    worst_euler = 0.0
    for a in (0.5, 1.0, 2.5, 10.0):
        for z in (0.1, 0.5, 0.9):
            term, total = 1.0, 1.0
            for k in range(1, 10_000):
                term *= (a + k - 1) / k * z
                total += term
            worst_euler = max(worst_euler, abs(total - (1 - z) ** -a) / (1 - z) ** -a)

    ok = worst_sum <= 1e-9 and worst_poch <= 1e-12 and worst_euler <= 1e-10
    report(6, "partial-sum, Pochhammer, and binomial-series identities", ok,
           f"rel devs: sums {worst_sum:.3g}, pochhammer {worst_poch:.3g}, "
           f"series {worst_euler:.3g}")


def test_criterion_07_sampler_statistics():
    g = GammaIntensity(10.0, 2.0)
    layout = TimeUnitLayout(100)
    units = 100_000
    sample = sample_process(units * layout.f, layout, g, seed=0x5EED)
    counts = sample.unit_counts.astype(np.float64)

    mean_dev = abs(counts.mean() - 5.0)
    mean_gate = 3.0 * counts.std(ddof=1) / math.sqrt(units)

    batches = 100
    grouped = counts.reshape(batches, -1)
    ratios = grouped.var(axis=1, ddof=1) / grouped.mean(axis=1)
    ratio_dev = abs(ratios.mean() - 1.5)
    ratio_gate = 3.0 * ratios.std(ddof=1) / math.sqrt(batches)

    odd_freq = float((sample.unit_counts % 2 == 1).mean())
    odd_dev = abs(odd_freq - 0.49951171875)
    odd_gate = 3.0 * math.sqrt(0.25 / units)

    ok = mean_dev < mean_gate and ratio_dev < ratio_gate and odd_dev < odd_gate
    report(7, "sampler statistics over 1e5 units", ok,
           f"mean dev {mean_dev:.4f} < {mean_gate:.4f}, "
           f"var/mean dev {ratio_dev:.4f} < {ratio_gate:.4f}, "
           f"odd dev {odd_dev:.5f} < {odd_gate:.5f}")


def test_criterion_08_assumption_one_quantifier():
    g = GammaIntensity(10.0, 2.0)
    layout = TimeUnitLayout(1000)
    n = recommend_block_size(layout, g)
    block = GammaIntensity(g.a, g.b * layout.f / n)  # the unit law at rate b f / n
    analytic = pmf(0, block) + pmf(1, block)

    units = 20_000
    sample = sample_process(units * layout.f, layout, g, seed=0x5EED + 8)
    positions = np.array(sample.pattern.positions, dtype=np.int64)
    per_unit = layout.f // n
    block_of = positions // n  # n divides f here, so blocks align with units
    block_counts = np.bincount(block_of, minlength=units * per_unit)
    ok_fracs = (block_counts <= 1).astype(np.float64).reshape(units, per_unit).mean(axis=1)
    emp = float(ok_fracs.mean())
    gate = 3.0 * float(ok_fracs.std(ddof=1)) / math.sqrt(units)

    ok = n == 200 and round(analytic, 3) == 0.736 and abs(emp - analytic) < gate
    report(8, "at-most-one-error-per-block quantifier", ok,
           f"block {n}, analytic {analytic:.4f}, empirical {emp:.4f} "
           f"(gate {gate:.4f})")


def test_criterion_09_worked_example_regression():
    alice = bits_from_string(EXAMPLE_KEY_BITS)
    bob = alice.copy()
    bob[list(EXAMPLE_ERROR_POSITIONS)] ^= 1
    spans = [(lo, min(lo + 5, 31)) for lo in range(0, 31, 5)]
    pa = tuple(int(alice[lo:hi].sum()) & 1 for lo, hi in spans[:6])
    pb = tuple(int(bob[lo:hi].sum()) & 1 for lo, hi in spans[:6])
    mismatch = tuple(
        i + 1 for i, (lo, hi) in enumerate(spans)
        if int(alice[lo:hi].sum()) & 1 != int(bob[lo:hi].sum()) & 1
    )
    ok = pa == (0, 0, 1, 0, 0, 0) and pb == (0, 1, 1, 0, 0, 1) and mismatch == (2, 6)
    report(9, "31-bit worked-example regression", ok,
           f"alice {pa}, bob {pb}, mismatch {mismatch}")


def test_criterion_10_end_to_end_reconciliation():
    g = GammaIntensity(10.0, 2.0)
    layout = TimeUnitLayout(250)  # a/b errors per 250 bits: 2 percent rate
    n = 4096
    runs = 500
    base_seed = 0x5EED + 10

    successes = 0
    residual_on_success = 0
    ledger_ok = True
    accounting_ok = True
    for r in range(runs):
        pattern = sample_error_pattern(n, layout, g, base_seed + 3 * r)
        pair = make_key_pair(n, pattern, base_seed + 3 * r + 1)
        config = CascadeConfig(seed=base_seed + 3 * r + 2).resolve(layout, g)
        t = Transcript()
        out = reconcile(pair, config, t)
        if out.success:
            successes += 1
            residual_on_success += out.residual_error_count
        parity_events = sum(1 for e in t.events if e.kind in PARITY_EVENT_KINDS)
        if out.leaked_parities != parity_events:
            ledger_ok = False
        comparisons = sum(
            1 for e in t.events if e.kind in (COMPARE_BLOCK, COMPARE_SUBSET)
        )
        if out.final_length != n - comparisons or out.deleted_bits != comparisons:
            accounting_ok = False

    rate = successes / runs
    ok = (rate >= 0.99 and residual_on_success == 0 and ledger_ok and accounting_ok)
    report(10, "end-to-end reconciliation sweep", ok,
           f"success rate {rate:.3f}, residual on success {residual_on_success}, "
           f"ledger exact: {ledger_ok}, accounting exact: {accounting_ok}")
