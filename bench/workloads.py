"""The benchmark's workloads: seeded inputs, one op per input, output checks.

Every workload is driven by one closed-loop client in one thread: the next
op starts only after the previous one has returned and been checked.  An
op's latency covers only the calls into coxcascade; checks run between
ops, outside the timed region.  An op fails if it raises or if its check
reports a failure label; labels name the failing output so that known
evaluator defects can be told apart from new failures.

A run has a pool of inputs and makes whole passes over it, each pass in a
seeded order, until the ops have taken the run's seconds; every run of a
workload thus times the same mix of inputs.
"""

from __future__ import annotations

import filecmp
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coxcascade import (
    BBBSS,
    CASCADE,
    CascadeConfig,
    GammaIntensity,
    KeyPair,
    SeriesNonConvergence,
    TimeUnitLayout,
    Transcript,
    cdf,
    make_key_pair,
    p_odd_finite,
    reconcile,
    sample_error_pattern,
    sample_process,
    tail,
)
from coxcascade import cli
from coxcascade.reconciliation import COMPARE_BLOCK, COMPARE_SUBSET, PARITY_EVENT_KINDS

from calibration import reference_ns
from tracing import NO_TRACE, Tracer

VARIANTS = (BBBSS, CASCADE)

# a/b = 5 errors per time unit; at f = 250 bits per unit that is the ~2%
# QBER of the validate sweep, at f = 100 the validate sampler suite.
MODEL = GammaIntensity(10.0, 2.0)
SWEEP_LAYOUT = TimeUnitLayout(250)
SWEEP_N = 4096
SWEEP_POOL = 120
SAMPLER_LAYOUT = TimeUnitLayout(100)

TABLE_A = (0.5, 1.0, 10.0, 100.0)
TABLE_B = (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 2.0, 4.0)
TABLE_M = (0, 1, 3, 10, 30, 100)
TABLE_GRID = tuple((a, b) for a in TABLE_A for b in TABLE_B)
TABLE_FUNCS = (("tail", tail), ("cdf", cdf), ("p_odd_finite", p_odd_finite))
TABLE_REL_TOL = 1e-9


def protocol_failures(tag: str, n: int, variant: str, outcome: dict,
                      kinds: Counter) -> list[str]:
    """Success, leak ledger identity and BBBSS length accounting of one run.

    ``outcome`` holds the reconcile outcome fields; ``kinds`` counts the
    transcript's events by kind.
    """
    labels = []
    if not outcome["success"]:
        labels.append(f"{tag} {variant}: not reconciled")
    if outcome["leaked_parities"] != sum(kinds[k] for k in PARITY_EVENT_KINDS):
        labels.append(f"{tag} {variant}: leaked parities != parity events")
    if variant == BBBSS:
        comparisons = kinds[COMPARE_BLOCK] + kinds[COMPARE_SUBSET]
        if (outcome["final_length"] != n - comparisons
                or outcome["deleted_bits"] != comparisons):
            labels.append(f"{tag} {variant}: length accounting")
    return labels


class Workload:
    """A pool of op inputs; op ``i`` runs ``item(i)``.

    ``cycle`` ops make one pass over the pool, in a seeded order per pass.
    """

    name = ""

    def __init__(self, seed: int, pool: tuple) -> None:
        self.seed = seed
        self.pool = pool
        self.cycle = len(pool)
        self._orders: dict[int, np.ndarray] = {}

    def item(self, i: int):
        c, j = divmod(i, self.cycle)
        if c not in self._orders:
            self._orders[c] = np.random.default_rng([self.seed, c]).permutation(self.cycle)
        return self.pool[self._orders[c][j]]

    def warm_up(self) -> None:
        """Run the op's code paths once on a small input."""

    def op(self, x, tr=NO_TRACE):
        raise NotImplementedError

    def check(self, x, out) -> list[str]:
        raise NotImplementedError


class Sweep(Workload):
    """One trial of the validate reconciliation sweep: both variants.

    A pass of 120 trials takes about 5 s, so a run makes several passes.
    """

    name = "sweep-4096"

    def __init__(self, seed: int) -> None:
        # sub-seeds as in validation.check_reconciliation: s, s + 1, s + 2
        super().__init__(seed, tuple(seed + 3 * i for i in range(SWEEP_POOL)))

    def warm_up(self) -> None:
        self.op(self.seed)

    def op(self, s: int, tr=NO_TRACE):
        with tr.span("error_model.sample_error_pattern"):
            pattern = sample_error_pattern(SWEEP_N, SWEEP_LAYOUT, MODEL, s)
        with tr.span("reconciliation.make_key_pair"):
            pair = make_key_pair(SWEEP_N, pattern, s + 1)
        runs = {}
        for variant in VARIANTS:
            config = CascadeConfig(variant=variant, seed=s + 2).resolve(
                SWEEP_LAYOUT, MODEL)
            own = KeyPair(pair.alice.copy(), pair.bob.copy())
            transcript = Transcript()
            with tr.span(f"reconciliation.reconcile.{variant}"):
                outcome = reconcile(own, config, transcript)
            runs[variant] = (outcome, transcript)
        return len(pattern), runs

    def check(self, s: int, out) -> list[str]:
        labels = []
        for variant, (outcome, transcript) in out[1].items():
            kinds = Counter(e.kind for e in transcript.events)
            labels += protocol_failures(f"seed {s}", SWEEP_N, variant,
                                        vars(outcome), kinds)
        return labels


class Tables(Workload):
    """Table requests over a fixed (a, b) grid, checked against oracles.

    ``oracle[point][fn]`` holds the reference values over ``TABLE_M``.
    Every run times the same mix of typical points and stiff corners.
    """

    name = "tables"

    def __init__(self, seed: int, oracle: dict | None = None,
                 points: tuple = TABLE_GRID) -> None:
        super().__init__(seed, points)
        self.oracle = oracle

    def warm_up(self) -> None:
        self.op((10.0, 2.0))

    def op(self, point, tr=NO_TRACE) -> dict[str, tuple]:
        g = GammaIntensity(*point)
        out = {}
        for name, fn in TABLE_FUNCS:
            column = []
            for m in TABLE_M:
                # a refused point is a failed cell; the request goes on
                with tr.span(f"error_model.{name}"):
                    try:
                        column.append(fn(m, g))
                    except SeriesNonConvergence:
                        column.append(None)
            out[name] = tuple(column)
        return out

    def check(self, point, out) -> list[str]:
        a, b = point
        expected = self.oracle[point]
        labels = []
        for name, _ in TABLE_FUNCS:
            for m, got, ref in zip(TABLE_M, out[name], expected[name]):
                if got is None or not math.isclose(got, ref, rel_tol=TABLE_REL_TOL,
                                                   abs_tol=0.0):
                    labels.append(f"{name}(m={m}) a={a:g} b={b:g}")
        return labels


class Sampler(Workload):
    """One sampler call over whole time units, checked structurally.

    Not a workload: in a slow spell on a shared host it ran at 2.6x its
    usual time while the reference loop ran at 1.8x, so scaling by the
    loop cannot make it steady (see ``calibration.py``).  The traced pass over the layers runs
    it (see ``layers.py``).
    """

    name = "sampler"

    def __init__(self, seed: int, units: int = 10_000, size: int = 20) -> None:
        super().__init__(seed, tuple(seed + i for i in range(size)))
        self.units = units

    def op(self, s: int, tr=NO_TRACE):
        with tr.span("error_model.sample_process"):
            return sample_process(self.units * SAMPLER_LAYOUT.f, SAMPLER_LAYOUT,
                                  MODEL, s)

    def check(self, s: int, sample) -> list[str]:
        f = SAMPLER_LAYOUT.f
        n = self.units * f
        pos = np.asarray(sample.pattern.positions, dtype=np.int64)
        counts = np.asarray(sample.unit_counts)
        tag = f"seed {s}"
        if len(counts) != self.units or len(sample.unit_intensities) != self.units:
            return [f"{tag}: unit trace length"]
        labels = []
        if pos.size and (np.any(np.diff(pos) <= 0) or pos[0] < 0 or pos[-1] >= n):
            labels.append(f"{tag}: positions not sorted, distinct and in range")
        elif not np.array_equal(np.bincount(pos // f, minlength=self.units), counts):
            labels.append(f"{tag}: positions disagree with unit_counts")
        if np.any(counts > f) or np.any(counts < 0):
            labels.append(f"{tag}: unit count outside [0, unit size]")
        return labels


class LongKeyCli:
    """Two in-process ``coxcascade reconcile`` calls at n=32768, one per variant.

    Each call writes its outcome JSON and transcript into ``workdir``.  The
    check replays the op through the library calls the CLI makes and
    compares the files byte for byte.  This op is not a workload: at about
    2 s an op, a run fits too few of them to be steady on a shared host,
    so the traced pass over the layers runs it once (see ``layers.py``).
    """

    def __init__(self, workdir: Path, n: int = 32768) -> None:
        self.workdir = Path(workdir)
        self.n = n

    def _paths(self, variant: str, tag: str) -> tuple[Path, Path]:
        return (self.workdir / f"{tag}-{variant}.json",
                self.workdir / f"{tag}-{variant}.log")

    def op(self, s: int, tr=NO_TRACE) -> dict[str, tuple[Path, Path]]:
        for variant in VARIANTS:
            out, log = self._paths(variant, "cli")
            argv = ["reconcile", "--a", "10", "--b", "2", "--f", str(SWEEP_LAYOUT.f),
                    "--n", str(self.n), "--seed", str(s), "--variant", variant,
                    "--output", str(out), "--transcript-out", str(log)]
            with tr.span(f"cli.main.{variant}"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"coxcascade reconcile exited {code}")
        return {v: self._paths(v, "cli") for v in VARIANTS}

    def replay(self, s: int, variant: str, tr=NO_TRACE) -> tuple[Path, Path]:
        """The CLI op through the library: sample, pair, resolve, reconcile, write."""
        out, log = self._paths(variant, "replay")
        with tr.span("error_model.sample_error_pattern"):
            pattern = sample_error_pattern(self.n, SWEEP_LAYOUT, MODEL, s)
        with tr.span("reconciliation.make_key_pair"):
            pair = make_key_pair(self.n, pattern, s + 1)
        with tr.span("reconciliation.resolve"):
            config = CascadeConfig(variant=variant, seed=s + 2).resolve(
                SWEEP_LAYOUT, MODEL)
        transcript = Transcript()
        with tr.span(f"reconciliation.reconcile.{variant}"):
            outcome = reconcile(pair, config, transcript)
        with tr.span("reconciliation.render"):
            text = "".join(line + "\n" for line in transcript.to_lines())
            with open(log, "w", newline="\n") as fh:
                fh.write(text)
        payload = {
            "n": self.n, "planted_errors": len(pattern),
            "block_size": config.initial_block_size, "variant": variant, "seed": s,
            "final_length": outcome.final_length,
            "residual_error_count": outcome.residual_error_count,
            "leaked_parities": outcome.leaked_parities,
            "deleted_bits": outcome.deleted_bits,
            "corrections_made": transcript.corrections_made,
            "passes_executed": outcome.passes_executed,
            "subset_rounds": outcome.subset_rounds, "success": outcome.success,
        }
        with tr.span("reconciliation.write_outcome"):
            with open(out, "w", newline="\n") as fh:
                fh.write(json.dumps(payload) + "\n")
        return out, log

    def check(self, s: int, out, tr=NO_TRACE) -> list[str]:
        labels = []
        for variant, (cli_out, cli_log) in out.items():
            tag = f"long-key seed {s}"
            with tr.span(f"replay.{variant}"):
                rep_out, rep_log = self.replay(s, variant, tr)
            if not (filecmp.cmp(cli_out, rep_out, shallow=False)
                    and filecmp.cmp(cli_log, rep_log, shallow=False)):
                labels.append(f"{tag} {variant}: CLI output differs from library replay")
            with open(cli_out) as fh:
                outcome = json.load(fh)
            with open(cli_log) as fh:
                kinds = Counter(line.split(" ", 1)[0] for line in fh)
            labels += protocol_failures(tag, self.n, variant, outcome, kinds)
        return labels


@dataclass
class Loop:
    """Latencies and outcomes of one closed-loop run.

    ``reference_ns[k]`` is the reference loop timed right after the ops
    on input ``k``; an untraced run scales ``latencies_ns[k]`` by it (see
    ``calibration.py``).
    """

    latencies_ns: list[int] = field(default_factory=list)
    reference_ns: list[int] = field(default_factory=list)
    traced_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    labels: list[str] = field(default_factory=list)


def _timed_op(workload: Workload, x, tr, loop: Loop, sink: list[int]):
    tr.begin_op()
    t0 = time.perf_counter_ns()
    try:
        with tr.span(f"op.{workload.name}"):
            out = workload.op(x, tr)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        sink.append(time.perf_counter_ns() - t0)
        labels = [f"{workload.name} op on {x!r} raised {type(exc).__name__}: {exc}"]
    else:
        sink.append(time.perf_counter_ns() - t0)
        labels = workload.check(x, out)
    loop.attempted += 1
    if labels:
        loop.failed += 1
        loop.labels += labels


def drive(workload: Workload, seconds: float, tracer: Tracer | None = None) -> Loop:
    """Run ops back to back until ``seconds`` of op time, in whole passes.

    With a tracer, every input runs twice, untraced and traced, in an order
    that alternates between inputs; the two latency lists give the tracing
    overhead.
    """
    loop = Loop()
    budget = seconds * 1e9
    i = 0
    while True:
        x = workload.item(i)
        if tracer is None:
            _timed_op(workload, x, NO_TRACE, loop, loop.latencies_ns)
        else:
            runs = [(NO_TRACE, loop.latencies_ns), (tracer, loop.traced_ns)]
            for tr, sink in (runs if i % 2 == 0 else runs[::-1]):
                _timed_op(workload, x, tr, loop, sink)
        loop.reference_ns.append(reference_ns())
        i += 1
        busy = sum(loop.latencies_ns) + sum(loop.traced_ns)
        if busy >= budget and i % workload.cycle == 0:
            return loop
