"""One measuring process of the benchmark, started fresh by ``run.py``.

It sets up its workload (imports coxcascade from the checkout's ``src``,
makes the inputs from the seed, warms up) and prints ``ready``; the parent
times set-up from process start to that line.  With ``--probe`` it stops
there.  Otherwise it reads the tables oracle (JSON, or ``null``) from
stdin, runs the closed loop, with ``--trace 1`` also the traced pass over
every layer, and prints one JSON line of raw results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import coxcascade  # noqa: E402

from layers import layer_metrics  # noqa: E402
from oracles import decode  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402
from workloads import Sweep, Tables, drive  # noqa: E402

WORKLOADS = {w.name: w for w in (Sweep, Tables)}


def peak_rss_kb() -> int:
    """Peak RSS of this process.  ``ru_maxrss`` would also count the parent's
    peak, which Linux carries across exec; VmHWM belongs to this image."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()
    if not Path(coxcascade.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"coxcascade imported from {coxcascade.__file__}, not {SRC}")

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    print("ready", flush=True)
    if args.probe:
        return 0
    oracle_text = sys.stdin.read()
    oracle = decode(oracle_text) if oracle_text.strip() != "null" else None
    if isinstance(workload, Tables):
        workload.oracle = oracle

    result: dict = {}
    if args.trace:
        tracer = Tracer()
        loop = drive(workload, args.seconds, tracer)
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        try:
            layers, layer_tracer, labels = layer_metrics(args.seed, oracle, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        loop.labels += labels
        stem = f"spans-{args.workload}-seed{args.seed}"
        write_spans(OUT / f"{stem}-loop.jsonl", tracer.spans)
        write_spans(OUT / f"{stem}-layers.jsonl", layer_tracer.spans)
        result["layers"] = layers
        result["traced_ns"] = loop.traced_ns
    else:
        loop = drive(workload, args.seconds)
    result.update(
        latencies_ns=loop.latencies_ns,
        reference_ns=loop.reference_ns,
        attempted=loop.attempted,
        failed=loop.failed,
        labels=sorted(set(loop.labels)),
        peak_rss_kb=peak_rss_kb(),
    )
    print(json.dumps(result), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
