"""Log-Pochhammer symbols and truncated hypergeometric series.

Everything in this module is a pure function of its arguments, with no
caches or mutable globals, so concurrent callers are safe.  The series
evaluators only accept arguments in [0, 1), where the term ratio settles
below 1 and the partial sums converge at a geometric rate.  They share
one fixed stopping rule and refuse, with :class:`SeriesNonConvergence`,
a sum that does not settle within the term cap or that overflows.

Gamma-ratio prefactors elsewhere in the package are assembled from
``ln_pochhammer`` and ``math.lgamma`` and exponentiated once, because
the ratios overflow a naive gamma evaluation long before the quantities
of interest leave the representable range.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = [
    "SeriesNonConvergence",
    "SeriesSum",
    "hyp2f1_one_sum",
    "hyp3f2_sum",
    "ln_pochhammer",
]

# Stopping rule: summation stops once two consecutive terms are at most
# _REL_TOL times the running sum (two, so that a single accidentally small
# term cannot truncate the series early); _MAX_TERMS terms without that
# raise SeriesNonConvergence.
_REL_TOL = 1e-14
_MAX_TERMS = 100_000


class SeriesNonConvergence(ArithmeticError):
    """The term cap was reached before the tolerance was met, or the sum
    overflowed."""

    def __init__(self, name: str, terms_used: int, partial_sum: float):
        outcome = "overflowed after" if math.isinf(partial_sum) else "did not converge within"
        super().__init__(f"{name} {outcome} {terms_used} terms (partial sum {partial_sum!r})")
        self.terms_used = terms_used
        self.partial_sum = partial_sum


class SeriesSum(NamedTuple):
    """Partial sum with stopping diagnostics.

    ``terms_used`` counts the terms summed before the tolerance rule
    stopped the summation.  ``last_ratio`` is |term_k / term_{k-1}| at the
    stopping index; for arguments in [0, 1) it must be below 1 by then.
    """

    value: float
    terms_used: int
    last_ratio: float


def ln_pochhammer(x: float, n: int) -> float:
    """log of the rising factorial, for x > 0."""
    if x <= 0.0:
        raise ValueError(f"ln_pochhammer requires x > 0, got {x!r}")
    if n < 0:
        raise ValueError(f"ln_pochhammer order must be >= 0, got {n!r}")
    if n == 0:
        return 0.0
    return math.lgamma(x + n) - math.lgamma(x)


def _require_unit_interval(z: float) -> None:
    if not 0.0 <= z < 1.0:
        raise ValueError(f"series argument must lie in [0, 1), got {z!r}")


def _require_valid_denominator(c: float, name: str) -> None:
    # a nonpositive integer lower parameter puts a zero in some denominator
    if c <= 0.0 and c == math.floor(c):
        raise ValueError(f"{name} must not be a nonpositive integer, got {c!r}")


def _sum_series(name: str, ratio: Callable[[int], float], z: float) -> SeriesSum:
    """Sum 1 + t_1 + t_2 + ... with t_{k+1} = t_k * ratio(k) * z.

    Stops after two consecutive terms fall below ``_REL_TOL`` relative to
    the running sum.  Terms may grow at first (upper parameters larger
    than lower ones); the two-in-a-row rule keeps the growth phase from
    being confused with convergence.  A sum that overflowed meets that
    rule too (inf <= tol * inf), so a non-finite total is refused there.
    """
    rel_tol = _REL_TOL
    max_terms = _MAX_TERMS
    term = 1.0
    total = 1.0
    below = 0
    last_ratio = math.inf
    for k in range(1, max_terms + 1):
        step = ratio(k - 1) * z
        term *= step
        total += term
        last_ratio = abs(step)
        if abs(term) <= rel_tol * abs(total):
            below += 1
            if below >= 2:
                if not math.isfinite(total):
                    raise SeriesNonConvergence(name, k + 1, total)
                return SeriesSum(total, k + 1, last_ratio)
        else:
            below = 0
    raise SeriesNonConvergence(name, max_terms, total)


def hyp2f1_one_sum(a2: float, c1: float, z: float) -> SeriesSum:
    """2F1(1, a2; c1; z) for z in [0, 1), with stopping diagnostics.

    The leading parameter 1 makes the (1)_k / k! factor cancel, so the
    term recurrence is term_{k+1} = term_k * (a2+k)/(c1+k) * z.
    """
    _require_unit_interval(z)
    _require_valid_denominator(c1, "c1")
    return _sum_series("hyp2f1_one", lambda k: (a2 + k) / (c1 + k), z)


def hyp3f2_sum(a2: float, a3: float, c1: float, c2: float, z: float) -> SeriesSum:
    """3F2(1, a2, a3; c1, c2; z) for z in [0, 1), with stopping diagnostics."""
    _require_unit_interval(z)
    _require_valid_denominator(c1, "c1")
    _require_valid_denominator(c2, "c2")
    return _sum_series(
        "hyp3f2", lambda k: (a2 + k) * (a3 + k) / ((c1 + k) * (c2 + k)), z
    )
