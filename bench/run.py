"""coxcascade benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-4096 --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src``.  Load is one closed-loop client in one thread, making whole
passes over a pool of inputs (see ``workloads.py``).  Set-up is timed in
fresh interpreters before and after the measuring one, and reported as
their median.  Every time is scaled to a nominal host speed (see
``calibration.py``).  The measuring process is fresh too, so its peak RSS
is the workload's alone; oracles are computed here, in the parent, and
never timed.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones in BENCHMARK.json; with ``--trace 1`` the per-layer ones.
``correct`` is false when an op fails other than by a known evaluator
defect (``known_defects.json``).  Lines before it say the same in text.
Spans of traced runs are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import IMPORT_REFERENCE_S, REFERENCE_NS, import_reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SETUP_PROBES = 7  # before and again after the measuring process: 15 samples
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds it took to print ``ready``,
    scaled by the import reference timed just before."""
    ref = import_reference_s(max(1.0, deadline - time.monotonic()))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
    if not ready:
        proc.kill()
        proc.communicate()
        raise RunError("worker did not set up before the deadline")
    # the worker flushes "ready" as one whole line, so readline cannot block
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunError(f"worker did not set up (exit {proc.returncode})")
    return proc, setup * IMPORT_REFERENCE_S / ref


def probe(worker_args: list[str], deadline: float) -> float:
    """Set-up time of one more fresh worker that stops once it is ready."""
    proc, setup = spawn([*worker_args, "--probe"], deadline)
    finish(proc, deadline)
    return setup


def finish(proc: subprocess.Popen, deadline: float, stdin: str = "") -> str:
    """Send ``stdin``, collect stdout and wait, killing the worker at the deadline."""
    try:
        out, _ = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the deadline")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    return out


def high_percentile(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has at least ten samples beyond it, but never below the median:
    fewer than 21 samples have no such tail, and give their upper
    median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat_ms = [ns / 1e6 * REFERENCE_NS / ref for ns, ref in
              zip(result["latencies_ns"], result["reference_ns"])]
    hi, pct, beyond = high_percentile(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_hi": hi,
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"op latency: scaled by the reference loop after each op; unscaled median "
        f"{statistics.median(result['latencies_ns']) / 1e6:.4g} ms, host speed "
        f"{REFERENCE_NS / statistics.median(result['reference_ns']):.3f} of reference",
        f"op_ms_hi: p{pct:.1f} of {len(lat_ms)} timed ops, {beyond} beyond it",
        f"failed_frac: {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.6g}",
    ]
    return metrics, notes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "coxcascade" / "__init__.py").is_file():
        print(f"bench: no coxcascade sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oracles import encode, known_defects, table_oracle

    oracle = "null"
    if args.workload == "tables" or args.trace:
        oracle = encode(table_oracle())

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [probe(worker_args, deadline) for _ in range(SETUP_PROBES)]
        proc, setup = spawn(worker_args, deadline)
        setups.append(setup)
        result = json.loads(finish(proc, deadline, oracle).splitlines()[-1])
        setups += [probe(worker_args, deadline) for _ in range(SETUP_PROBES)]
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    known = known_defects()
    unexpected = [label for label in result["labels"] if label not in known]
    if args.trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_frac"] = (
            sum(result["traced_ns"]) / sum(result["latencies_ns"]) - 1.0)
        names = spec["per_layer"]
        notes = []
    else:
        metrics, notes = end_to_end(result, setups)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"closed loop, 1 client, {result['attempted']} ops, {result['failed']} failed")
    for line in notes:
        print(line)
    for label in result["labels"]:
        print(("known defect: " if label not in unexpected else "FAILED: ") + label)
    for m in names:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
