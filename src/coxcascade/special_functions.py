"""Log gamma ratios, truncated hypergeometric series and the continued
fraction of the incomplete beta function.

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

``incomplete_beta_cf`` evaluates the continued fraction of the
regularised incomplete beta function I_x(p, q) by the modified Lentz
method (Numerical Recipes, 3rd ed., section 6.4).  It converges fast for
x below about (p+1)/(p+q+2), in O(sqrt(max(p, q))) steps at worst, where
a series at x near 1 needs O(1/(1-x)) terms.  Above that bound the
symmetry I_x(p, q) = 1 - I_{1-x}(q, p) moves the argument below it, so a
caller evaluates the fraction on the side that usually holds the
smaller probability and takes the other side as 1 minus it (``error_model``'s
``cdf`` and ``tail``).  It stops on the same relative tolerance and term
cap as the series and refuses in the same way.

``ln_pochhammer`` is the package's one gamma-ratio routine:
log Gamma(x+h) / Gamma(x) for real h, with the Stirling-correction
difference of DiDonato and Morris (ACM TOMS 708) once both arguments
reach 15, so a ratio of huge gammas keeps the digits that a difference
of two lgamma values loses.  ``error_model`` builds its one log prefactor
from it and exponentiates once, because the ratios overflow a naive
gamma evaluation long before the quantities of interest leave the
representable range.
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
    "incomplete_beta_cf",
    "ln_pochhammer",
]

# Stopping rule: summation stops once two consecutive terms are at most
# _REL_TOL times the running sum (two, so that a single accidentally small
# term cannot truncate the series early), and the continued fraction once
# a step changes its value by at most _REL_TOL relative; _MAX_TERMS terms
# or steps without that raise SeriesNonConvergence.
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
    """The term cap was reached before the tolerance was met, or the sum or
    continued fraction overflowed or turned ``nan``."""

    def __init__(self, name: str, terms_used: int, partial_sum: float):
        outcome = ("turned nan after" if math.isnan(partial_sum)
                   else "overflowed after" if math.isinf(partial_sum)
                   else "did not converge within")
        super().__init__(f"{name} {outcome} {terms_used} terms (partial sum {partial_sum!r})")
        self.terms_used = terms_used
        self.partial_sum = partial_sum


class SeriesSum(NamedTuple):
    """A converged sum and its term count.

    ``terms_used`` counts the terms summed, the leading 1 included, before
    the tolerance rule stopped the summation.
    """

    value: float
    terms_used: int


# Stirling's series: log Gamma(x) = (x - 1/2) log x - x + log(2 pi)/2 plus a
# tail sum_j B_2j / (2j (2j-1)) x**(1-2j), here to j = 5: the first
# omitted term, 691/360360 x**-11, is below 2.3e-16 from x = 15 on.
_STIRLING_FROM = 15.0


def _stirling_tail(x: float) -> float:
    r = 1.0 / (x * x)
    return (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r / 1188)))) / x


def ln_pochhammer(x: float, h: float) -> float:
    """log Gamma(x+h) / Gamma(x), for x > 0 and x + h > 0; at an integer
    h = n >= 0 the log of the rising factorial (x)_n.

    Once x and x + h are both at least ``_STIRLING_FROM``, it is
    h log x + (x+h-1/2) log1p(h/x) - h plus the difference of the two
    Stirling tails (the ``bcorr`` and ``algdiv`` of DiDonato and Morris,
    ACM TOMS 708, 1992).  No term is much larger than |h| log x, so the
    rounding stays on the scale of the result, where
    lgamma(x+h) - lgamma(x) subtracts two numbers near x log x.  Below
    that bound it is that lgamma difference, whose terms are small.
    """
    y = x + h
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"ln_pochhammer requires x > 0 and x + h > 0, got x={x!r}, h={h!r}")
    if x < _STIRLING_FROM or y < _STIRLING_FROM:
        return math.lgamma(y) - math.lgamma(x)
    return (h * math.log(x) + (y - 0.5) * math.log1p(h / x) - h
            + _stirling_tail(y) - _stirling_tail(x))


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
                    return SeriesSum(value, terms_used)
                below = bool(small[-1])
            total = float(totals[-1])
            if math.isnan(total):
                first = int(np.isnan(totals).argmax())  # totals[i] sums start + i + 1 terms
                raise SeriesNonConvergence(name, start + first + 1, total)
            start = stop
            size = min(2 * size, _MAX_CHUNK)
    raise SeriesNonConvergence(name, _MAX_TERMS, total)


def hyp2f1_one_sum(a2: float, c1: float, z: float) -> SeriesSum:
    """2F1(1, a2; c1; z) for z in [0, 1), with its term count.

    The leading parameter 1 makes the (1)_k / k! factor cancel, so the
    term recurrence is term_{k+1} = term_k * (a2+k)/(c1+k) * z.
    """
    _require_unit_interval(z)
    _require_valid_denominator(c1, "c1")
    return _sum_series("hyp2f1_one", lambda k: (a2 + k) / (c1 + k), z)


def hyp3f2_sum(a2: float, a3: float, c1: float, c2: float, z: float) -> SeriesSum:
    """3F2(1, a2, a3; c1, c2; z) for z in [0, 1), with its term count."""
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


# Lentz's stand-in for a zero denominator of the continued fraction
_TINY = 1e-300


def incomplete_beta_cf(p: float, q: float, x: float) -> float:
    """The continued fraction of I_x(p, q), for p, q > 0 and x in
    [0, (p+1)/(p+q+2)].

    I_x(p, q) = x**p (1-x)**q / (p B(p, q)) * incomplete_beta_cf(p, q, x),
    where the fraction is 1/(1+ d_1/(1+ d_2/(1+ ...))) with

        d_{2k}   =  k (q-k) x / ((p+2k-1) (p+2k)),
        d_{2k+1} = -(p+k) (p+q+k) x / ((p+2k) (p+2k+1)).

    It is evaluated by the modified Lentz method, each coefficient as a
    product of ratios so that a huge p or q cannot overflow it, and stops
    once an odd step changes the value by at most ``_REL_TOL`` relative.
    Above (p+1)/(p+q+2) it loses accuracy fast (at p = 1, q = 200,
    x = 0.5 it comes out negative), so an x above that bound, by more
    than the rounding of a caller's own bound, raises ``ValueError``;
    there I_x(p, q) = 1 - I_{1-x}(q, p).  ``SeriesNonConvergence`` is
    raised after ``_MAX_TERMS`` pairs of steps, or at once if the value
    turns ``nan`` or infinite; its ``terms_used`` counts pairs of steps.
    """
    p, q = float(p), float(q)
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"incomplete_beta_cf requires p, q > 0, got {p!r}, {q!r}")
    bound = (p + 1.0) / (p + q + 2.0)
    if not 0.0 <= x <= bound * (1.0 + 1e-12):  # nan fails too
        raise ValueError(f"continued fraction argument must lie in [0, (p+1)/(p+q+2)] = "
                         f"[0, {bound!r}], got {x!r}")
    c = 1.0
    d = 1.0 - (p + q) / (p + 1.0) * x  # 1 + d_1
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for j in range(2, 2 * _MAX_TERMS + 2):
        k = j >> 1
        if j & 1:  # j = 2k + 1
            coefficient = -((p + k) / (p + j - 1)) * ((p + q + k) / (p + j)) * x
        else:  # j = 2k
            coefficient = k / (p + j - 1) * ((q - k) / (p + j)) * x
        d = 1.0 + coefficient * d
        if abs(d) < _TINY:
            d = _TINY
        d = 1.0 / d
        c = 1.0 + coefficient / c
        if abs(c) < _TINY:
            c = _TINY
        step = d * c
        h *= step
        if j & 1:
            if not math.isfinite(h):
                raise SeriesNonConvergence("incomplete_beta_cf", k, h)
            if abs(step - 1.0) <= _REL_TOL:
                return h
    raise SeriesNonConvergence("incomplete_beta_cf", _MAX_TERMS, h)
