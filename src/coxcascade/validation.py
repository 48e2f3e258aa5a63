"""Brute-force and Monte Carlo certification of the closed forms.

Every analytic evaluator in :mod:`coxcascade.error_model` is checked here
against an independent route: truncated direct summation of the pmf for
the distribution function, tail, mean, and parity probabilities; the raw
partial-sum identities behind those closed forms; and seeded Monte Carlo
for the sampler and the reconciliation protocol.  Statistical checks use
three-standard-error gates with sample sizes large enough to notice a few
percent of relative deviation.

Each check returns a list of :class:`CheckRecord`, and :func:`run_suites`
returns the records of the named suites sorted by (check, params); the
command line renders them as the text report and the records CSV.
Checks are deterministic given their seeds; re-running a suite produces
identical records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .error_model import (
    ErrorPattern,
    GammaIntensity,
    TimeUnitLayout,
    _count,
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
from .reconciliation import (
    COMPARE_BLOCK,
    COMPARE_SUBSET,
    PARITY_EVENT_KINDS,
    CascadeConfig,
    KeyPair,
    Transcript,
    bits_from_string,
    make_key_pair,
    reconcile,
)
from .special_functions import hyp2f1_one_sum, hyp3f2_sum

__all__ = [
    "CheckRecord",
    "EXAMPLE_ERROR_POSITIONS",
    "EXAMPLE_KEY_BITS",
    "SUITES",
    "adaptive_pmf_sum",
    "check_assumption_one",
    "check_parity_formulas",
    "check_partial_sum_identities",
    "check_pmf_normalization",
    "check_reconciliation",
    "check_simulator_statistics",
    "odd_sum_oracle",
    "run_suites",
]

# 31-bit regression fixture: six scattered errors; with five-bit blocks the
# fourth and fifth blocks each hide an even error count, so only the second
# and sixth block parities disagree.
EXAMPLE_KEY_BITS = "0011010100101101110101010011000"
EXAMPLE_ERROR_POSITIONS = (6, 16, 17, 22, 24, 29)

_MC_SEED = 0x5EED


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check: analytic value vs independent oracle value."""

    name: str
    params: str
    analytic: float
    oracle: float
    abs_dev: float
    rel_dev: float
    tolerance: float
    passed: bool

    FIELDS = ("check", "params", "analytic", "oracle", "abs_dev", "rel_dev",
              "tolerance", "passed")


def _record(name: str, params: str, analytic: float, oracle: float,
            tolerance: float) -> CheckRecord:
    abs_dev = abs(analytic - oracle)
    scale = max(abs(analytic), abs(oracle))
    rel_dev = abs_dev / scale if scale > 0 else 0.0
    return CheckRecord(name, params, float(analytic), float(oracle),
                       abs_dev, rel_dev, tolerance, abs_dev <= tolerance)


# ---------------------------------------------------------------------------
# brute-force oracles

def odd_sum_oracle(m: int, g: GammaIntensity) -> float:
    """Direct summation of the odd-count probabilities up to 2m + 1."""
    return math.fsum(pmf(2 * j + 1, g) for j in range(m + 1))


def adaptive_pmf_sum(g: GammaIntensity) -> tuple[float, int]:
    """Sum the pmf until a term drops below 1e-16 of the running sum.

    Returns (sum, cutoff); the cutoff only triggers past the distribution
    mean so the decaying regime has been reached.
    """
    total = 0.0
    floor_k = int(mean(g)) + 1
    k = 0
    while True:
        p = pmf(k, g)
        total += p
        if k > floor_k and p < 1e-16 * total:
            return total, k
        k += 1


# ---------------------------------------------------------------------------
# closed-form checks

def check_pmf_normalization(g: GammaIntensity) -> list[CheckRecord]:
    """Compare the adaptively truncated pmf sum to 1 and to the closed-form
    cdf at the cutoff, both at 1e-10, and the truncated mean to ``a / b``
    at 1e-8."""
    total, k_max = adaptive_pmf_sum(g)
    params = f"a={g.a:g};b={g.b:g};k_max={k_max}"
    est_mean = math.fsum(k * pmf(k, g) for k in range(k_max + 1))
    return [
        _record("pmf_normalization", params, 1.0, total, 1e-10),
        _record("pmf_sum_vs_cdf", params, cdf(k_max, g), total, 1e-10),
        _record("mean_identity", params, mean(g), est_mean, 1e-8),
    ]


def check_parity_formulas(g: GammaIntensity) -> list[CheckRecord]:
    """Certify the odd-count probabilities against direct odd-term sums.

    ``p_odd_finite`` is checked for m = 0..20 at 1e-10; the limit ``p_odd``
    against ``p_odd_finite`` and the odd sum at m = 200, at 1e-8.  Also
    records how far the rejected parity-failure variant
    (1 - (b/(b+1))**a) / 2, which is half the probability of any errors
    at all, lands from the brute-force odd sum; that record's tolerance is
    the margin it must exceed, ten times the limit's 1e-8.
    """
    tolerance = 1e-10
    limit_m = 200
    limit_tolerance = 1e-8
    base = f"a={g.a:g};b={g.b:g}"
    records = []
    for m in range(21):
        records.append(
            _record("p_odd_finite_vs_oracle", f"{base};m={m}",
                    p_odd_finite(m, g), odd_sum_oracle(m, g), tolerance)
        )
    records.append(
        _record("p_odd_limit", f"{base};m={limit_m}",
                p_odd(g), p_odd_finite(limit_m, g), limit_tolerance)
    )
    oracle = odd_sum_oracle(limit_m, g)
    records.append(
        _record("p_odd_vs_oracle", base, p_odd(g), oracle, limit_tolerance)
    )
    # The rejected variant halves P(X >= 1); it must sit measurably off the
    # oracle while the implemented form agrees, hence passed means REFUTED.
    rejected = 0.5 * (1.0 - pmf(0, g))
    margin = abs(rejected - oracle)
    least_margin = 10 * limit_tolerance
    records.append(
        CheckRecord("p_odd_rejected_variant_margin", base, rejected, oracle,
                    margin, margin / oracle if oracle else 0.0,
                    least_margin, margin > least_margin)
    )
    return records


def check_partial_sum_identities() -> list[CheckRecord]:
    """Closed forms of the raw partial sums versus direct summation.

    For G(m) = sum_{k<=m} Gamma(k+a) / (k! c**k) the closed form is

        Gamma(a) (c/(c-1))**a
        - Gamma(m+1+a) 2F1(1, m+a+1; m+2; 1/c) / ((m+1)! c**(m+1)),

    and the odd-index analogue sum_{k<=m} Gamma(2k+1+a) / ((2k+1)! c**(2k+1))
    equals a two-sided-binomial first term minus a 3F2 correction.  The
    2F1 term over the first term G(inf) is the paper's closed form of
    ``tail`` at b = c - 1; ``tail`` itself is computed by a continued
    fraction, so the third record checks the two against each other.  All
    three are checked for a in {0.5, 2, 10}, c in {1.5, 3, 11} at 1e-9
    relative, worst case over m = 0..30 recorded.
    """
    m_max = 30
    tolerance = 1e-9
    records = []
    for a in (0.5, 2.0, 10.0):
        for c in (1.5, 3.0, 11.0):
            g = GammaIntensity(a, c - 1.0)
            worst_g = 0.0
            worst_odd = 0.0
            worst_tail = 0.0
            for m in range(m_max + 1):
                direct = math.fsum(
                    math.exp(math.lgamma(k + a) - math.lgamma(k + 1) - k * math.log(c))
                    for k in range(m + 1)
                )
                first = math.exp(math.lgamma(a) - a * (math.log(c - 1) - math.log(c)))
                rest = math.exp(
                    math.lgamma(m + 1 + a) - math.lgamma(m + 2) - (m + 1) * math.log(c)
                ) * hyp2f1_one_sum(m + a + 1, m + 2, 1.0 / c).value
                closed = first - rest
                worst_g = max(worst_g, abs(direct - closed) / abs(direct))
                exact_tail = tail(m, g)
                worst_tail = max(worst_tail, abs(rest / first - exact_tail) / exact_tail)

                direct_odd = math.fsum(
                    math.exp(
                        math.lgamma(2 * k + 1 + a)
                        - math.lgamma(2 * k + 2)
                        - (2 * k + 1) * math.log(c)
                    )
                    for k in range(m + 1)
                )
                z = 1.0 / c
                head = math.exp(math.lgamma(a)) * ((1 - z) ** -a - (1 + z) ** -a) / 2.0
                corr = math.exp(
                    math.lgamma(2 * m + 3 + a)
                    - math.lgamma(2 * m + 4)
                    - (2 * m + 3) * math.log(c)
                ) * hyp3f2_sum(
                    m + 2 + a / 2, m + 1.5 + a / 2, m + 2, m + 2.5, z * z
                ).value
                closed_odd = head - corr
                worst_odd = max(worst_odd, abs(direct_odd - closed_odd) / abs(direct_odd))
            params = f"a={a:g};c={c:g};m<={m_max}"
            records.append(
                CheckRecord("partial_sum_identity", params, 0.0, worst_g,
                            worst_g, worst_g, tolerance, worst_g <= tolerance)
            )
            records.append(
                CheckRecord("odd_partial_sum_identity", params, 0.0, worst_odd,
                            worst_odd, worst_odd, tolerance, worst_odd <= tolerance)
            )
            records.append(
                CheckRecord("tail_closed_form", params, 0.0, worst_tail,
                            worst_tail, worst_tail, tolerance, worst_tail <= tolerance)
            )
    return records


# ---------------------------------------------------------------------------
# Monte Carlo checks

def _batch_gate(name: str, params: str, analytic: float, values: np.ndarray) -> CheckRecord:
    """Gate a per-batch statistic against its analytic target at 3 sigma."""
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values)))
    return _record(name, params, analytic, est, 3.0 * se)


def check_assumption_one(
    layout: TimeUnitLayout,
    g: GammaIntensity,
    units: int = 20_000,
    seed: int = _MC_SEED,
) -> list[CheckRecord]:
    """Quantify the at-most-one-error-per-block working assumption.

    For the recommended block of n bits, a span of n / f time units, the
    error count follows the unit law at rate b f / n, so P(at most one
    error) = pmf(0) + pmf(1) of that law.  The probability is confirmed by
    sampling whole units and counting the aligned blocks (blocks fully
    inside one unit) that hold 0 or 1 errors.
    """
    units = _count(units, "units")
    n = recommend_block_size(layout, g)
    f = layout.f
    block = GammaIntensity(g.a, g.b * f / n)
    analytic = pmf(0, block) + pmf(1, block)
    params = f"f={f};a={g.a:g};b={g.b:g}"
    records = [
        # the recommendation must sit within rounding distance of f b / a
        _record("assumption1_block_size", params, n,
                max(1.0, f * g.b / g.a), 0.5 + 1e-12),
        _record("assumption1_errors_per_block", params, mean(block), 1.0,
                0.5 * mean(g) / f + 1e-12),
    ]
    per_unit = f // n
    if per_unit >= 1 and units > 0:
        sample = sample_process(units * f, layout, g, seed)
        positions = np.fromiter(sample.pattern.positions, dtype=np.int64,
                                count=len(sample.pattern.positions))
        unit_of = positions // f
        offset = positions - unit_of * f
        keep = offset < per_unit * n  # ignore the ragged tail past aligned blocks
        block_of = unit_of[keep] * per_unit + offset[keep] // n
        counts = np.bincount(block_of, minlength=units * per_unit)
        ok = (counts <= 1).astype(np.float64).reshape(units, per_unit).mean(axis=1)
        records.append(
            _batch_gate("assumption1_p_at_most_one", params, analytic, ok)
        )
    return records


def check_simulator_statistics(
    trials: int = 100_000, seed: int = _MC_SEED
) -> list[CheckRecord]:
    """Sampler statistics versus the model over ``trials`` whole time units
    of 100 bits at a = 10, b = 2.

    Gates, all at three standard errors: per-unit mean against a/b;
    variance-to-mean ratio against 1 + 1/b (and strictly above 1, the
    over-dispersion signature separating the mixture from a plain Poisson
    law); frequency of odd per-unit counts against ``p_odd``.  The
    dispersion gate comes from the spread over 100 batches of units.
    """
    layout = TimeUnitLayout(100)
    g = GammaIntensity(10.0, 2.0)
    batches = 100
    trials = _count(trials, "trials", 1_000)
    sample = sample_process(trials * layout.f, layout, g, seed)
    counts = sample.unit_counts.astype(np.float64)
    params = f"f={layout.f};a={g.a:g};b={g.b:g};units={trials}"
    records = [
        _record(
            "sampler_unit_mean", params, mean(g), float(counts.mean()),
            3.0 * float(counts.std(ddof=1)) / math.sqrt(trials)
        )
    ]
    # variance/mean ratio per batch of units; batch spread gives the gate
    usable = (trials // batches) * batches
    grouped = counts[:usable].reshape(batches, -1)
    ratios = grouped.var(axis=1, ddof=1) / grouped.mean(axis=1)
    records.append(
        _batch_gate("sampler_dispersion_ratio", params, 1.0 + 1.0 / g.b, ratios)
    )
    se = float(ratios.std(ddof=1) / math.sqrt(batches))
    excess = float(ratios.mean()) - 1.0
    records.append(
        CheckRecord("sampler_overdispersion", params, 1.0, float(ratios.mean()),
                    excess, excess, 3.0 * se, excess > 3.0 * se)
    )
    odd_freq = float((sample.unit_counts % 2 == 1).mean())
    se_odd = math.sqrt(max(odd_freq * (1.0 - odd_freq), 1e-12) / trials)
    records.append(
        _record("sampler_odd_frequency", params, p_odd(g), odd_freq, 3.0 * se_odd)
    )
    return records


def _worked_example_records() -> list[CheckRecord]:
    """Fixed 31-bit regression: the first six block parities and the
    mismatching block set of a five-bit block pass over the raw order,
    read from the transcript of a one-pass run."""
    alice = bits_from_string(EXAMPLE_KEY_BITS)
    bob = alice.copy()
    bob[list(EXAMPLE_ERROR_POSITIONS)] ^= 1
    t = Transcript()
    reconcile(KeyPair(alice, bob), CascadeConfig(initial_block_size=5, num_passes=1), t)
    compares = [e for e in t.events if e.kind == COMPARE_BLOCK]
    pa = tuple(e.parity_a for e in compares[:6])
    pb = tuple(e.parity_b for e in compares[:6])
    expect_a = (0, 0, 1, 0, 0, 0)
    expect_b = (0, 1, 1, 0, 0, 1)
    mismatch = tuple(i + 1 for i, e in enumerate(compares) if e.parity_a != e.parity_b)
    ok_parities = pa == expect_a and pb == expect_b
    ok_blocks = mismatch == (2, 6)
    parity_params = ("alice=" + "".join(map(str, pa))
                     + ";bob=" + "".join(map(str, pb)))
    return [
        _record("worked_example_parities", parity_params, 1.0, float(ok_parities), 0.0),
        _record("worked_example_mismatch_blocks",
                "blocks=" + "+".join(map(str, mismatch)), 1.0, float(ok_blocks), 0.0),
    ]


def check_reconciliation(runs: int = 500, seed: int = _MC_SEED) -> list[CheckRecord]:
    """End-to-end protocol checks over seeded runs plus the fixed regression.

    Each run plants roughly a 2 percent error rate (a = 10, b = 2: a/b
    errors per f = 250 bits) in a 4096-bit key and runs the BBBSS variant
    with the auto block size.  Records cover the success rate, residual
    errors, the leak ledger identity (leaked parities equals the count of
    comparison and bisection events) and the BBBSS length accounting (one
    deleted bit per block or subset comparison).
    """
    runs = _count(runs, "runs", 100)
    records = _worked_example_records()

    g = GammaIntensity(10.0, 2.0)
    layout = TimeUnitLayout(250)
    n = 4096
    config = CascadeConfig().resolve(layout, g)

    # an error-free pair must terminate in exactly the configured number of
    # agreeing subset rounds with no corrections
    clean = make_key_pair(256, ErrorPattern(256, ()), seed)
    out_clean = reconcile(clean, CascadeConfig(
        initial_block_size=config.initial_block_size, seed=seed))
    ok_clean = (out_clean.success and out_clean.corrections_made == 0 and
                out_clean.subset_rounds == config.termination_successes)
    records.append(
        _record("reconcile_zero_error", f"n=256;seed={seed}", 1.0, float(ok_clean), 0.0)
    )

    successes = 0
    residual_on_success = 0
    ledger_mismatch = 0
    accounting_mismatch = 0
    leaked = np.empty(runs, dtype=np.float64)
    deleted = np.empty(runs, dtype=np.float64)
    for r in range(runs):
        pattern = sample_error_pattern(n, layout, g, seed + 3 * r)
        pair = make_key_pair(n, pattern, seed + 3 * r + 1)
        t = Transcript()
        out = reconcile(pair, replace(config, seed=seed + 3 * r + 2), t)
        if out.success:
            successes += 1
            residual_on_success += out.residual_error_count
        # the events are built on each read: count both kinds from one
        kinds = Counter(e.kind for e in t.events)
        parity_events = sum(kinds[kind] for kind in PARITY_EVENT_KINDS)
        if out.leaked_parities != t.parities_revealed or parity_events != t.parities_revealed:
            ledger_mismatch += 1
        comparisons = kinds[COMPARE_BLOCK] + kinds[COMPARE_SUBSET]
        # back-correction never runs under BBBSS, so every comparison
        # deleted exactly one bit
        if out.final_length != n - comparisons or out.deleted_bits != comparisons:
            accounting_mismatch += 1
        leaked[r] = out.leaked_parities
        deleted[r] = out.deleted_bits

    params = (f"n={n};f={layout.f};a={g.a:g};b={g.b:g};"
              f"variant={config.variant};runs={runs}")
    rate = successes / runs
    records.append(_record("reconcile_success_rate", params, 1.0, rate, 0.01))
    records.append(_record("reconcile_residual_on_success", params, 0.0,
                           residual_on_success, 0.0))
    records.append(_record("reconcile_leak_ledger_identity", params, 0.0,
                           ledger_mismatch, 0.0))
    records.append(_record("reconcile_length_accounting", params, 0.0,
                           accounting_mismatch, 0.0))
    records.append(_record("reconcile_mean_leaked_parities", params,
                           float(leaked.mean()), float(leaked.mean()), 0.0))
    records.append(_record("reconcile_mean_deleted_bits", params,
                           float(deleted.mean()), float(deleted.mean()), 0.0))
    return records


# ---------------------------------------------------------------------------
# suites

_GRID = ((10.0, 2.0), (1.0, 1.0), (0.5, 4.0), (25.0, 0.5))


SUITES: dict[str, Callable[[], list[CheckRecord]]] = {
    "normalization": lambda: [
        r for a, b in _GRID for r in check_pmf_normalization(GammaIntensity(a, b))],
    "parity": lambda: [
        r for a, b in _GRID[:3] for r in check_parity_formulas(GammaIntensity(a, b))],
    "identities": check_partial_sum_identities,
    "assumption1": lambda: check_assumption_one(TimeUnitLayout(1000),
                                                GammaIntensity(10.0, 2.0)),
    "sampler": check_simulator_statistics,
    "reconciliation": check_reconciliation,
}


def run_suites(names: Iterable[str] = ("all",)) -> list[CheckRecord]:
    """Run the named suites (or all of them), each once in the order first
    named, and return their records sorted by (check, params)."""
    chosen: list[str] = []
    for name in names:
        if name == "all":
            chosen.extend(SUITES)
        elif name in SUITES:
            chosen.append(name)
        else:
            raise KeyError(f"unknown validation suite {name!r}")
    records = [r for name in dict.fromkeys(chosen) for r in SUITES[name]()]
    return sorted(records, key=lambda r: (r.name, r.params))
