"""Tests of the benchmark itself: names, tracing and failure counting."""

import json
import re
from pathlib import Path

import numpy as np

from calibration import REFERENCE_NS
from oracles import table_oracle
from run import end_to_end, high_percentile
from tracing import NO_TRACE, Tracer, self_times_ns
from workloads import LongKeyCli, Sampler, Sweep, Tables, drive

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_match_the_workloads():
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    for name in metrics + workloads:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(set(metrics)) == len(metrics)
    assert sorted(workloads) == sorted(w.name for w in (Sweep, Tables))


def test_traced_and_untraced_ops_give_identical_outputs(tmp_path):
    sweep = Sweep(11)
    tr = Tracer()
    planted, runs = sweep.op(sweep.item(2))
    planted_t, runs_t = sweep.op(sweep.item(2), tr)
    assert sweep.check(sweep.item(2), (planted, runs)) == []
    assert planted == planted_t
    for v in runs:
        assert runs[v][0] == runs_t[v][0]
        assert runs[v][1].events == runs_t[v][1].events
    assert {s[3] for s in tr.spans} >= {"reconciliation.reconcile.bbbss",
                                        "reconciliation.reconcile.cascade"}

    tables = Tables(0)
    assert tables.op((10.0, 2.0)) == tables.op((10.0, 2.0), Tracer())

    sampler = Sampler(5, units=300)
    a, b = sampler.op(5), sampler.op(5, Tracer())
    assert sampler.check(5, a) == []
    assert a.pattern == b.pattern
    assert np.array_equal(a.unit_counts, b.unit_counts)
    assert np.array_equal(a.unit_intensities, b.unit_intensities)

    long_key = LongKeyCli(tmp_path, n=2048)
    files = [p.read_bytes() for pair in long_key.op(7).values() for p in pair]
    files_t = [p.read_bytes() for pair in long_key.op(7, Tracer()).values() for p in pair]
    assert files == files_t
    assert long_key.check(7, long_key.op(7)) == []


def _result(loop):
    return {"latencies_ns": loop.latencies_ns, "reference_ns": loop.reference_ns,
            "attempted": loop.attempted, "failed": loop.failed, "peak_rss_kb": 1024}


def test_a_raising_op_counts_as_failed():
    sampler = Sampler(3, units=50, size=3)  # a zero-second run makes one pass
    real = sampler.op

    def op(s, tr=NO_TRACE):
        if s == sampler.item(1):
            raise RuntimeError("injected")
        return real(s, tr)

    sampler.op = op
    loop = drive(sampler, 0)
    assert (loop.attempted, loop.failed, len(loop.latencies_ns)) == (3, 1, 3)
    assert "RuntimeError: injected" in loop.labels[0]
    assert end_to_end(_result(loop), [1.0])[0]["ok_frac"] == 1 - 1 / 3


def test_a_wrong_value_counts_as_failed():
    points = ((10.0, 2.0), (1.0, 1.0))
    tables = Tables(0, table_oracle(points), points)
    real = tables.op
    ops = []

    def op(x, tr=NO_TRACE):
        out = real(x, tr)
        ops.append(x)
        if len(ops) == 2:
            out["tail"] = (out["tail"][0] * (1 + 1e-6),) + out["tail"][1:]
        return out

    tables.op = op
    loop = drive(tables, 0)
    a, b = ops[1]
    assert (loop.attempted, loop.failed) == (2, 1)
    assert loop.labels == [f"tail(m=0) a={a:g} b={b:g}"]
    assert end_to_end(_result(loop), [1.0])[0]["ok_frac"] == 0.5


def test_self_time_subtracts_child_coverage():
    spans = [
        [0, 0, None, "op", 0, 100],
        [0, 1, 0, "child", 10, 30],
        [0, 2, 1, "grandchild", 15, 20],
        [0, 3, 0, "child", 50, 90],
    ]
    assert self_times_ns(spans) == [40, 15, 5, 40]


def test_high_percentile_keeps_ten_samples_beyond():
    values = list(range(100))
    assert high_percentile(values) == (89, 90.0, 10)
    assert high_percentile(list(range(12))) == (6, 100.0 * 7 / 12, 5)


def test_op_latency_is_scaled_by_the_reference_after_it():
    result = {"latencies_ns": [2_000_000, 4_000_000, 4_000_000],
              "reference_ns": [REFERENCE_NS, 2 * REFERENCE_NS, REFERENCE_NS],
              "attempted": 3, "failed": 0, "peak_rss_kb": 1024}
    metrics = end_to_end(result, [1.0])[0]
    assert metrics["op_ms_p50"] == 2.0
    assert metrics["ops_per_s"] == 3 / 0.008
