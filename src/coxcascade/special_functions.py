"""Log-Pochhammer symbols and truncated hypergeometric series.

Everything in this module is a pure function of its arguments, with no
caches or mutable globals, so concurrent callers are safe.  The series
evaluators only accept arguments in [0, 1), where the term ratio settles
below 1 and the partial sums converge at a geometric rate.  They share
one fixed stopping rule and refuse, with :class:`SeriesNonConvergence`,
a sum that does not settle within the term cap, that overflows or that
turns ``nan``.

The series are summed in chunks of terms with numpy rather than one
Python iteration per term, which matters near z = 1, where a sum runs to
tens of thousands of terms.  Running products and running sums that
carry the previous chunk's last term and total in front accumulate
strictly left to right, so every term and every partial sum is the same
double that a term-by-term loop produces, and so is the result.  A
chunk's numpy calls cost far more than one more term in it (see
``_FIRST_CHUNK``), so chunks are long: 1024 terms at first, doubling up
to 4096.  A sum that stops after a few terms pays for the rest of its
first chunk.  A chunk after the first skips the element-wise test of the
stopping rule when its smallest term exceeds the tolerance times both its
first and its last partial sum: its terms are then all positive, so its
partial sums rise from the one to the other, and no term can meet the
rule.  Long sums, which spend nearly all their chunks far from the stop,
pay a minimum and two comparisons a chunk instead.

Gamma-ratio prefactors elsewhere in the package are assembled from
``ln_pochhammer`` and ``math.lgamma`` and exponentiated once, because
the ratios overflow a naive gamma evaluation long before the quantities
of interest leave the representable range.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

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
# Chunk sizes of the summation.  A chunk costs ~25 us of numpy calls plus
# ~14 ns a term (x86-64, numpy 2.4.6), so a 1024-term chunk costs about
# what two 32-term chunks do: the first chunk is long enough that most sums
# stop within it.  The first chunk always gets the full element-wise scan
# of the stopping rule, since most sums stop there; only later chunks are
# screened for a term that could stop.  Each next chunk doubles, up to a
# cap that keeps the chunk's arrays small; a 16384-term cap was slower in
# the benchmark.
_FIRST_CHUNK = 1024
_MAX_CHUNK = 4096


class SeriesNonConvergence(ArithmeticError):
    """The term cap was reached before the tolerance was met, or the sum
    overflowed or turned ``nan``."""

    def __init__(self, name: str, terms_used: int, partial_sum: float):
        outcome = ("turned nan after" if math.isnan(partial_sum)
                   else "overflowed after" if math.isinf(partial_sum)
                   else "did not converge within")
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


def _sum_series(name: str, ratio: Callable[[np.ndarray], np.ndarray], z: float) -> SeriesSum:
    """Sum 1 + t_1 + t_2 + ... with t_{k+1} = t_k * ratio(k) * z.

    Stops after two consecutive terms fall below ``_REL_TOL`` relative to
    the running sum.  Terms may grow at first (upper parameters larger
    than lower ones); the two-in-a-row rule keeps the growth phase from
    being confused with convergence.  A sum that overflowed meets that
    rule too (inf <= tol * inf), so a non-finite total is refused there.
    A ``nan`` total never meets it and stays ``nan``, so a chunk that ends
    on one is refused at once, at the term that made the total ``nan``.

    ``ratio`` maps an array of k (as floats) to the term ratios.  Each
    chunk computes its steps ``ratio(k) * z`` at once, then its terms as a
    running product of [carried term, *steps] and its partial sums as a
    running sum of [carried total, *terms].  ``np.cumprod`` and
    ``np.cumsum`` accumulate left to right, one rounding per element, as
    ``term *= step`` and ``total += term`` do, so the terms, partial sums,
    stopping index and refusals are those of the term-by-term loop.  The
    flag of the chunk's last term carries into the next chunk's rule.
    Chunks grow from ``_FIRST_CHUNK`` to ``_MAX_CHUNK`` terms; the cap
    bounds the memory of a long sum.  Overflow is silent, as it is for
    Python floats, and is refused through the non-finite total.

    A chunk after the first whose smallest term t exceeds the tolerance
    times |T_1| and times |T_n|, its first and last partial sums, skips
    the element-wise test of the rule.  That is exact: every term is then
    positive, so each partial sum T_i = fl(T_{i-1} + t_i) is at least the
    one before and lies in [T_1, T_n], where |T_i| <= max(|T_1|, |T_n|);
    correctly rounded multiplication is monotone, so each term is above
    ``_REL_TOL * |T_i|`` and the flag of the chunk's last term is false.
    A term that is not positive, a ``nan`` or an infinite sum fails the
    comparison and gets the full test.
    """
    term = 1.0
    total = 1.0
    below = False  # the last term so far met the tolerance
    start = 0  # the k of the chunk's first ratio
    size = _FIRST_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        while start < _MAX_TERMS:
            stop = min(start + size, _MAX_TERMS)
            ratios = ratio(np.arange(start, stop, dtype=float))
            terms = np.empty(stop - start + 1)
            terms[0] = term
            np.multiply(ratios, z, out=terms[1:])
            np.cumprod(terms, out=terms)
            term = float(terms[-1])
            terms[0] = total
            totals = np.cumsum(terms)
            if (start and (least := terms[1:].min()) > _REL_TOL * abs(totals[1])
                    and least > _REL_TOL * abs(totals[-1])):
                below = False  # no term of this chunk can meet the rule
            else:
                small = np.abs(terms[1:]) <= _REL_TOL * np.abs(totals[1:])
                # the first two small terms in a row, the carried flag in front
                j = (bytes([below]) + small.tobytes()).find(b"\x01\x01")
                if j >= 0:
                    value = float(totals[j + 1])
                    terms_used = start + j + 2
                    if not math.isfinite(value):
                        raise SeriesNonConvergence(name, terms_used, value)
                    return SeriesSum(value, terms_used, abs(float(ratios[j]) * z))
                below = bool(small[-1])
            total = float(totals[-1])
            if math.isnan(total):
                first = int(np.isnan(totals).argmax())  # totals[i] sums start + i + 1 terms
                raise SeriesNonConvergence(name, start + first + 1, total)
            start = stop
            size = min(2 * size, _MAX_CHUNK)
    raise SeriesNonConvergence(name, _MAX_TERMS, total)


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
    if c1 * c2 == 0.0:
        # the first ratio divides by (c1 + 0) * (c2 + 0), which underflowed:
        # a float division raises here, where numpy's would not
        raise ZeroDivisionError("float division by zero")
    return _sum_series(
        "hyp3f2", lambda k: (a2 + k) * (a3 + k) / ((c1 + k) * (c2 + k)), z
    )
