"""In-memory spans recorded by the benchmark around calls into coxcascade.

A span is ``[op, id, parent, name, start_ns, end_ns]``.  Spans opened while
one op runs share its ``op`` id; ``parent`` is the id of the span that was
open when this one started.  Nothing is written until ``write_spans`` runs
at the end of the traced run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NoTrace:
    """Tracer stand-in for untraced runs: every span is a shared no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self) -> None:
        pass


NO_TRACE = NoTrace()


class Tracer:
    """Collects spans in memory for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def begin_op(self) -> None:
        """Start a new op id; spans opened from now on belong to it."""
        self.op += 1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [self.op, len(self.spans), parent, name, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._open.append(rec[1])
        try:
            yield
        finally:
            rec[5] = time.perf_counter_ns()
            self._open.pop()

    def durations_ns(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append((s[4], s[5]))
    out = []
    for s in spans:
        start, end = s[4], s[5]
        covered = 0
        reach = start
        for lo, hi in sorted(children.get(s[1], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def write_spans(path: Path, spans: list[list]) -> None:
    """Write one JSON object per span, with its self time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s, self_ns in zip(spans, self_times_ns(spans)):
            fh.write(json.dumps({
                "op": s[0], "id": s[1], "parent": s[2], "name": s[3],
                "start_ns": s[4], "end_ns": s[5], "self_ns": self_ns,
            }) + "\n")
