"""Reference values for the ``tables`` workload, from scipy's negative binomial.

The per-unit error count is negative binomial with ``n = a`` and
``p = b / (b + 1)``.  ``tail`` and ``cdf`` come from ``nbinom.sf`` and
``nbinom.cdf``; ``p_odd_finite(m)`` is the ``fsum`` of the odd-k pmf terms
up to ``2m + 1``.  None of it goes through coxcascade's series kernel.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import TABLE_GRID, TABLE_M

KNOWN_DEFECTS_PATH = Path(__file__).with_name("known_defects.json")


def table_oracle(points=TABLE_GRID) -> dict[tuple[float, float], dict[str, tuple[float, ...]]]:
    from scipy.stats import nbinom

    oracle = {}
    for a, b in points:
        p = b / (b + 1.0)
        oracle[(a, b)] = {
            "tail": tuple(float(nbinom.sf(m, a, p)) for m in TABLE_M),
            "cdf": tuple(float(nbinom.cdf(m, a, p)) for m in TABLE_M),
            "p_odd_finite": tuple(
                math.fsum(float(nbinom.pmf(k, a, p)) for k in range(1, 2 * m + 2, 2))
                for m in TABLE_M),
        }
    return oracle


def encode(oracle: dict) -> str:
    return json.dumps([[a, b, cols] for (a, b), cols in oracle.items()])


def decode(text: str) -> dict:
    return {(a, b): {k: tuple(v) for k, v in cols.items()}
            for a, b, cols in json.loads(text)}


def known_defects() -> frozenset[str]:
    """Failure labels of the evaluator defects present when the benchmark
    was defined.  They count as failed ops; any other failure makes the
    run incorrect."""
    with open(KNOWN_DEFECTS_PATH) as fh:
        return frozenset(json.load(fh))
