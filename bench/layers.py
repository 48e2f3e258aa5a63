"""Per-layer metrics: a traced pass over every layer of coxcascade.

Every traced run makes the same pass, whatever its workload, so each
per-layer metric has one definition.  Times come from the spans the pass
records around calls into the layers; counts come from the outputs.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from pathlib import Path

from coxcascade import SeriesNonConvergence
from coxcascade.reconciliation import COMPARE_BLOCK
from coxcascade.special_functions import hyp2f1_one_sum, hyp3f2_sum
from coxcascade.validation import check_reconciliation

from tracing import Tracer
from workloads import (
    SAMPLER_LAYOUT,
    SWEEP_N,
    TABLE_GRID,
    TABLE_M,
    VARIANTS,
    LongKeyCli,
    Sampler,
    Sweep,
    Tables,
)

SWEEP_OPS = 8
SAMPLER_OPS = 3
VALIDATION_RUNS = 100


def _ms(ns: float) -> float:
    return ns / 1e6


def _median_ms(tr: Tracer, name: str) -> float:
    return _ms(statistics.median(tr.durations_ns(name)))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def series_args(point: tuple[float, float], m: int):
    """The 2F1 and 3F2 arguments that ``tail`` and ``p_odd_finite`` use."""
    a, b = point
    return ((m + a + 1, m + 2, 1.0 / (b + 1)),
            (m + 2 + a / 2.0, m + 1.5 + a / 2.0, m + 2.0, m + 2.5, 1.0 / (b + 1) ** 2))


def kernel_metrics(tr: Tracer) -> dict[str, float]:
    calls = terms = failed = 0
    for point in TABLE_GRID:
        tr.begin_op()
        for m in TABLE_M:
            args2, args3 = series_args(point, m)
            for name, fn, args in (("hyp2f1_one_sum", hyp2f1_one_sum, args2),
                                   ("hyp3f2_sum", hyp3f2_sum, args3)):
                calls += 1
                with tr.span(f"special_functions.{name}"):
                    try:
                        s = fn(*args)
                    except SeriesNonConvergence as exc:
                        terms += exc.terms_used
                        failed += 1
                    else:
                        terms += s.terms_used
                        # an overflowing sum is as useless as a refused one
                        failed += not math.isfinite(s.value)
    spans = tr.durations_ns("special_functions.hyp2f1_one_sum")
    spans += tr.durations_ns("special_functions.hyp3f2_sum")
    return {
        "special_functions.series_calls": calls,
        "special_functions.series_terms": terms,
        "special_functions.series_ms": _ms(sum(spans)),
        "special_functions.nonconvergence": failed,
    }


def evaluator_metrics(tr: Tracer, oracle: dict) -> dict[str, float]:
    tables = Tables(0, oracle)
    failed = 0
    for point in TABLE_GRID:
        tr.begin_op()
        failed += len(tables.check(point, tables.op(point, tr)))
    out = {f"error_model.{name}_us_p50":
           statistics.median(tr.durations_ns(f"error_model.{name}")) / 1e3
           for name in ("tail", "cdf", "p_odd_finite")}
    out["error_model.eval_calls"] = sum(
        len(tr.durations_ns(f"error_model.{name}")) for name in ("tail", "cdf", "p_odd_finite"))
    out["error_model.eval_failed"] = failed
    return out


def sampler_metrics(tr: Tracer, seed: int, labels: list[str]) -> dict[str, float]:
    sampler = Sampler(seed)
    capped = 0
    for i in range(SAMPLER_OPS):
        tr.begin_op()
        sample = sampler.op(sampler.item(i), tr)
        labels += sampler.check(sampler.item(i), sample)
        # units are whole, so a capped unit holds f errors
        capped += int((sample.unit_counts == SAMPLER_LAYOUT.f).sum())
    ms = _median_ms(tr, "error_model.sample_process")
    return {
        "error_model.sample_ms": ms,
        "error_model.sample_units_per_s": sampler.units / (ms / 1e3),
        "error_model.capped_units": capped,
    }


def sweep_metrics(tr: Tracer, seed: int) -> dict[str, float]:
    sweep = Sweep(seed)
    counts: dict[str, Counter] = {v: Counter() for v in VARIANTS}
    efficiency: dict[str, list[float]] = {v: [] for v in VARIANTS}
    redundant = compares = 0
    for i in range(SWEEP_OPS):
        tr.begin_op()
        with tr.span("op.sweep-4096"):
            planted, runs = sweep.op(sweep.item(i), tr)
        shannon = SWEEP_N * binary_entropy(planted / SWEEP_N)
        for variant, (outcome, transcript) in runs.items():
            c = counts[variant]
            c["events"] += len(transcript.events)
            c["leaked_parities"] += outcome.leaked_parities
            c["subset_rounds"] += outcome.subset_rounds
            c["corrections"] += transcript.corrections_made
            c["deleted_bits"] += outcome.deleted_bits
            efficiency[variant].append(outcome.leaked_parities / shannon)
        seen = set()
        for e in runs["cascade"][1].events:
            if e.kind == COMPARE_BLOCK:
                key = (e.round_index, e.lo, e.hi)
                compares += 1
                redundant += key in seen
                seen.add(key)
    out = {}
    for variant in VARIANTS:
        ms = _median_ms(tr, f"reconciliation.reconcile.{variant}")
        pre = f"reconciliation.{variant}."
        out[pre + "reconcile_ms"] = ms
        out[pre + "bits_per_s"] = SWEEP_N / (ms / 1e3)
        for key in ("events", "leaked_parities", "subset_rounds", "corrections"):
            out[pre + key] = counts[variant][key] / SWEEP_OPS
        out[pre + "leak_efficiency"] = statistics.fmean(efficiency[variant])
    out["reconciliation.bbbss.deleted_bits"] = counts["bbbss"]["deleted_bits"] / SWEEP_OPS
    out["reconciliation.cascade.redundant_compare_frac"] = redundant / compares
    out["reconciliation.make_key_pair_ms"] = _median_ms(tr, "reconciliation.make_key_pair")
    out["error_model.sample_share"] = (
        sum(tr.durations_ns("error_model.sample_error_pattern"))
        / sum(tr.durations_ns("op.sweep-4096")))
    return out


def cli_metrics(tr: Tracer, seed: int, workdir: Path, labels: list[str]) -> dict[str, float]:
    long_key = LongKeyCli(workdir)
    tr.begin_op()
    with tr.span("op.long-key-32768"):
        out = long_key.op(seed, tr)
    transcript_bytes = sum(log.stat().st_size for _, log in out.values())
    tr.begin_op()
    labels += long_key.check(seed, out, tr)
    main_ns = {v: tr.durations_ns(f"cli.main.{v}")[0] for v in VARIANTS}
    replay_ns = [tr.durations_ns(f"replay.{v}")[0] for v in VARIANTS]
    return {
        "cli.bbbss.main_ms": _ms(main_ns["bbbss"]),
        "cli.cascade.main_ms": _ms(main_ns["cascade"]),
        "cli.self_ms": _ms(sum(main_ns.values()) - sum(replay_ns)),
        "reconciliation.render_ms": _ms(sum(tr.durations_ns("reconciliation.render"))),
        "reconciliation.transcript_bytes": transcript_bytes,
    }


def validation_metrics(tr: Tracer, seed: int, labels: list[str]) -> dict[str, float]:
    tr.begin_op()
    with tr.span("validation.check_reconciliation"):
        records = check_reconciliation(runs=VALIDATION_RUNS, seed=seed)
    labels += [f"validation {r.name} ({r.params}): {r.analytic:g} vs {r.oracle:g}"
               for r in records if not r.passed]
    return {"validation.check_reconciliation_s":
            tr.durations_ns("validation.check_reconciliation")[0] / 1e9}


def layer_metrics(seed: int, oracle: dict,
                  workdir: Path) -> tuple[dict[str, float], Tracer, list[str]]:
    """Run the traced pass over every layer.

    Returns its metrics, its spans, and the failure labels of the checks on
    the sampler and long-key CLI ops, which no workload runs, and of the
    validation checks.
    """
    tr = Tracer()
    labels: list[str] = []
    metrics: dict[str, float] = {}
    metrics.update(kernel_metrics(tr))
    metrics.update(evaluator_metrics(tr, oracle))
    metrics.update(sampler_metrics(tr, seed, labels))
    metrics.update(sweep_metrics(tr, seed))
    metrics.update(cli_metrics(tr, seed, workdir, labels))
    metrics.update(validation_metrics(tr, seed, labels))
    return metrics, tr, labels
