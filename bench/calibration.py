"""Reference work that measures how fast the host runs right now.

Co-tenants on a shared host slow this benchmark by up to 1.7x, in spells
from seconds to many minutes, and the slowdown shows in CPU time as much
as in wall time.  The benchmark therefore times reference work next to
what it measures and scales each time by nominal / measured reference: a
time reads as it would on a host where the reference takes its nominal
time.  The references are the benchmark's own, so no change to
coxcascade moves them.

- Ops are scaled by a pure-Python loop, timed right after each op: like
  the interpreter work that dominates coxcascade's ops.
- Set-ups are scaled by a fresh interpreter that imports numpy, timed
  right before each set-up: the start-up and import work that dominates
  a set-up, and that slows unlike the loop.
"""

from __future__ import annotations

import subprocess
import sys
import time

# nominal times on an unloaded 2-vCPU x86-64 host under CPython 3.11
REFERENCE_NS = 600_000
IMPORT_REFERENCE_S = 0.12
_STEPS = 6000


def reference_ns() -> int:
    """Time one run of the reference loop."""
    t0 = time.perf_counter_ns()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_STEPS):
        acc += (i * 7919) % 1013
        table[i & 255] = acc
    return time.perf_counter_ns() - t0


def import_reference_s(timeout: float) -> float:
    """Time a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=timeout)
    return time.perf_counter() - t0
