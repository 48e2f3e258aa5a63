"""Gamma-mixed Poisson ("Cox process") model of error scattering.

Errors arrive as a Poisson process whose intensity is itself random: at
the start of every time unit a fresh intensity is drawn from a gamma law
with shape ``a`` and rate ``b``, held constant for that unit.  ``f`` raw
key bits arrive per time unit.  Marginally the error count per unit
follows a negative binomial law; the evaluators below give its pmf,
distribution function, tail, and the probability of an odd count (the
event a single parity check can detect), each in closed form.  Each
evaluator describes one time unit.  An ``n``-bit block inside one unit
spans ``n / f`` of it under one intensity, so its error count follows the
same law at rate ``b * f / n``: evaluate it with
``GammaIntensity(a, b * f / n)``.  That does not hold for a block over
several units, which draw their intensities independently: a block of
``u`` whole units holds the sum of ``u`` unit counts, the law
``GammaIntensity(u * a, b)``.

``pmf``, ``tail``, ``cdf`` and ``p_odd_finite`` take their
negative-binomial factor from one log formula, ``_log_unit_pmf``, and
exponentiate it once, so large shape parameters and long strings stay in
range.  Its gamma ratio is
``special_functions.ln_pochhammer``, Stirling-corrected, which keeps the
digits that a difference of two huge lgamma values loses.  The
distribution function and the tail are regularised incomplete beta
functions, evaluated together by one continued fraction.  The
probability of an odd count up to 2m+1 has two forms: below the mode
(a-1)/b of the law the sum of the odd pmf terms, which are positive and
rise towards 2m+1, so nothing cancels; at or above it the paper's
``p_odd`` minus a 3F2 correction.  An evaluator returns a finite float
or raises: ``ValueError`` for input outside its domain or a value lost
to float arithmetic (``nan``, ``inf``, or a probability more than 1e-9
outside [0, 1]), ``SeriesNonConvergence`` from the series kernel, the
continued fraction or the odd-term sum, ``OverflowError`` from
``math``.

Inputs follow two rules, each checked once where the value enters and
stored as a Python number, so NumPy scalars never reach the arithmetic.
A count or size (``k``, ``m``, ``n``, ``f``, a position, a seed) is an
integer, Python or NumPy, and is kept as an ``int`` (:func:`_count`); a
model parameter (``a`` or ``b``) is a finite real number > 0 and is kept
as a ``float`` (:func:`_positive`).  Both refuse bools, and a value that
breaks its rule raises ``ValueError`` naming the parameter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import lt

import numpy as np

from .special_functions import (
    _MAX_TERMS,
    SeriesNonConvergence,
    hyp3f2_sum,
    incomplete_beta_cf,
    ln_pochhammer,
)

__all__ = [
    "ErrorPattern",
    "GammaIntensity",
    "ScatterSample",
    "TimeUnitLayout",
    "cdf",
    "mean",
    "p_odd",
    "p_odd_finite",
    "pmf",
    "recommend_block_size",
    "sample_error_pattern",
    "sample_process",
    "tail",
]


def _count(value: object, name: str, least: int = 0) -> int:
    """A count or size as a Python int: an integer (Python or NumPy, not a
    bool) no smaller than ``least``; anything else raises ``ValueError``."""
    # a Python int skips the slower abstract-class check: ErrorPattern
    # makes this call once per position
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _positive(value: object, name: str) -> float:
    """A model parameter, the gamma shape ``a`` or rate ``b``, as a Python
    float: a real number (not a bool) that is finite and > 0; anything else
    raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return x


# How far outside [0, 1] a computed probability may land and still be
# returned: the rounding of the closed forms at stiff parameters (a few
# 1e-12 below 0 or above 1), never a value no probability is near.
_PROBABILITY_SLACK = 1e-9


def _probability(p: float, what: str, g: GammaIntensity) -> float:
    """``p`` if it is within ``_PROBABILITY_SLACK`` of [0, 1]; ``nan``,
    ``inf`` and anything farther off raise ``ValueError``, which reports
    ``what = p``."""
    if not -_PROBABILITY_SLACK <= p <= 1.0 + _PROBABILITY_SLACK:  # nan fails too
        raise ValueError(f"{what} = {p} at a={g.a!r}, b={g.b!r} is not a probability")
    return p


@dataclass(frozen=True)
class GammaIntensity:
    """Gamma law of the error intensity: shape ``a``, rate ``b`` (both finite, > 0)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _positive(self.a, "gamma shape a"))
        object.__setattr__(self, "b", _positive(self.b, "gamma rate b"))


@dataclass(frozen=True)
class TimeUnitLayout:
    """Bit arrival layout: ``f`` bits arrive per time unit."""

    f: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", _count(self.f, "bits per time unit f", 1))


@dataclass(frozen=True)
class ErrorPattern:
    """Sorted distinct error positions in an ``n``-bit raw key.

    Positions are integers in ``[0, n)``, stored as a tuple of Python ints.
    """

    n: int
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        n = _count(self.n, "key length n")
        positions = tuple([_count(p, "positions") for p in self.positions])
        if not all(map(lt, positions, positions[1:])):
            raise ValueError("positions must be strictly increasing")
        if positions and positions[-1] >= n:
            raise ValueError("positions must all be < n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ScatterSample:
    """One sampled realization: the pattern plus its per-unit trace.

    ``unit_intensities[u]`` is the intensity drawn for unit ``u``;
    ``unit_counts[u]`` is the number of errors actually placed there.
    """

    pattern: ErrorPattern
    unit_intensities: np.ndarray
    unit_counts: np.ndarray


def pmf(k: int, g: GammaIntensity) -> float:
    """Probability of exactly ``k`` errors in one time unit.

    Mixing a Poisson count of mean ``lambda`` over the gamma law of
    ``lambda`` gives the negative binomial law

        P(X = k) = Gamma(k+a) / (k! Gamma(a))
                   * (b / (b+1))**a * (1 / (b+1))**k.

    A span of ``dt <= 1`` time units inside one unit (an ``n``-bit block
    spans ``n / f``) is the same law at rate ``b / dt``:
    ``pmf(k, GammaIntensity(a, b * f / n))``.  ``u`` whole units, with
    their independent intensities, hold ``GammaIntensity(u * a, b)``.
    The value is ``exp(_log_unit_pmf(k))``, refused, as ``tail`` is, when it
    is not a probability.
    """
    k = _count(k, "k")
    return _probability(math.exp(_log_unit_pmf(k, g)), f"pmf(k={k})", g)


def tail(m: int, g: GammaIntensity) -> float:
    """Probability of seeing more than ``m`` errors in one time unit.

    The regularised incomplete beta function I_q(m+1, a) at
    q = 1/(b+1).  The paper's closed form,
    b**a (a)_{m+1} / ((m+1)! (b+1)**(a+m+1)) times
    2F1(1, m+a+1; m+2; 1/(b+1)), is the same function; validation checks
    the two against each other.  One continued fraction gives ``tail``
    where q < (m+2)/(m+a+3), and ``cdf`` elsewhere, usually the smaller of
    the two; the other is 1 minus it (see ``_cdf_tail``).
    """
    m = _count(m, "m")
    return _probability(_cdf_tail(m, g)[1], f"tail(m={m})", g)


def cdf(m: int, g: GammaIntensity) -> float:
    """Probability of at most ``m`` errors in one time unit.

    The regularised incomplete beta function I_p(a, m+1) at
    p = b/(b+1), which is 1 - ``tail``.  One continued fraction gives
    ``cdf`` where q = 1/(b+1) >= (m+2)/(m+a+3), and ``tail`` elsewhere,
    usually the smaller of the two; the other is 1 minus it (see
    ``_cdf_tail``).
    """
    m = _count(m, "m")
    return _probability(_cdf_tail(m, g)[0], f"cdf(m={m})", g)


def _cdf_tail(m: int, g: GammaIntensity) -> tuple[float, float]:
    """``(cdf(m), tail(m))`` for a checked ``m``, not yet checked themselves.

    The continued fraction CF(s, t, x) = ``incomplete_beta_cf`` of
    I_x(s, t) converges fast for x up to (s+1)/(s+t+2), about the mean of
    the beta law, so on the side that usually holds the smaller
    probability.  That side is computed directly and the other is 1 minus
    it, so a small value does not come from a cancellation.  With
    q = 1/(b+1) and p = b/(b+1) = 1 - q:

    - for q < (m+2)/(m+a+3), tail = pmf(m+1) * CF(m+1, a, q);
    - otherwise cdf = pmf(m+1) * (m+1)/a * CF(a, m+1, p).

    pmf(m+1) is the fraction's prefactor x**s (1-x)**t / (s B(s, t)), up
    to (m+1)/a.  For a well below 1 the computed side can be the larger
    one (the cdf is 0.998 at a = 0.01, b = 1e-4, m = 1e4), and the tail
    then carries its rounding.
    """
    a, b = g.a, g.b
    unit_pmf = math.exp(_log_unit_pmf(m + 1, g))
    q = 1.0 / (b + 1.0)
    if q < (m + 2) / (m + a + 3):
        tail_value = unit_pmf * incomplete_beta_cf(m + 1, a, q)
        return 1.0 - tail_value, tail_value
    cdf_value = unit_pmf * ((m + 1) / a) * incomplete_beta_cf(a, m + 1, b / (b + 1.0))
    return cdf_value, 1.0 - cdf_value


def _log_unit_pmf(k: int, g: GammaIntensity) -> float:
    """log P(X = k) for one time unit: b**a (a)_k / (k! (b+1)**(a+k)).

    ``pmf`` exponentiates it, and so do the prefactors of the continued
    fraction of ``tail`` and ``cdf`` (k = m+1) and of ``p_odd_finite``'s
    odd-term sum (k = 2m+1) and 3F2 correction (k = 2m+3).  It is

        log Gamma(a+k) / (Gamma(a) k!) - a log1p(1/b) - k log1p(b),

    and a + k = x + y - 1 for (x, y) = (a, k+1) or (k+1, a), so the gamma
    ratio is ``ln_pochhammer(x, y - 1)`` - lgamma(y).  x is a unless a is
    below k: the larger argument goes into the Stirling-corrected ratio,
    and a tiny a is never rounded by a - 1 where k = 0 would make that
    matter (Gamma(a) ~ 1/a).  log(1 + 1/b) is log1p(b) - log(b) below
    b = 1, where 1/b could overflow.
    """
    a, b = g.a, g.b
    x, y = (a, k + 1) if a >= k else (k + 1.0, a)
    return (ln_pochhammer(x, y - 1) - math.lgamma(y)
            - a * (math.log1p(1.0 / b) if b >= 1.0 else math.log1p(b) - math.log(b))
            - k * math.log1p(b))


def mean(g: GammaIntensity) -> float:
    """Expected number of errors per time unit: a / b."""
    return g.a / g.b


def p_odd(g: GammaIntensity) -> float:
    """Probability of an odd error count per time unit.

    Equals (1 - E[(-1)^X]) / 2 evaluated through the probability
    generating function of the mixture:

        p_odd = (1 - (b / (b+2))**a) / 2,

    always in [0, 1/2).  Note the ``b + 2``: halving the probability of a
    nonzero count (which would put ``b + 1`` here) over-counts even
    positive counts, and the odd-term sum of the pmf refutes it; the
    validation suite records that margin.
    """
    # log(b/(b+2)) as -log1p(2/b), which does not cancel at large b; below
    # b = 1, where 2/b could overflow, as log(b) - log(b+2)
    b = g.b
    log_ratio = -math.log1p(2.0 / b) if b >= 1.0 else math.log(b) - math.log(b + 2.0)
    return -0.5 * math.expm1(g.a * log_ratio)


def p_odd_finite(m: int, g: GammaIntensity) -> float:
    """Probability of an odd error count that is at most ``2m + 1``.

    Below the mode, where 2m+1 < (a-1)/b, the pmf rises up to 2m+1, and
    the value is the sum of its odd terms:

        pmf(2m+1) * sum_{j<=m} pmf(2j+1) / pmf(2m+1),

    with the term ratios of ``_odd_head_sum``, each at most 1, so nothing
    cancels.  Elsewhere it is the infinite-string value ``p_odd`` minus a
    correction term

        C(a, b, m) * 3F2(1, m+2+a/2, m+3/2+a/2; m+2, m+5/2; 1/(b+1)**2),
        C(a, b, m) = b**a Gamma(2m+3+a) / (Gamma(a) (2m+3)! (b+1)**(2m+3+a)).

    The correction vanishes as ``m`` grows (the 1/(b+1)**(2m+3) factor
    dominates since b > 0), so this increases to ``p_odd``.  For a <= 1
    the mode is 0, so every ``m`` takes the second form.
    """
    m = _count(m, "m")
    a, b = g.a, g.b
    if 2 * m + 1 < (a - 1.0) / b:
        value = math.exp(_log_unit_pmf(2 * m + 1, g)) * _odd_head_sum(m, a, b)
    else:
        z = (1.0 / (b + 1.0)) ** 2  # underflows to 0 above b ~ 1.34e154
        correction = math.exp(_log_unit_pmf(2 * m + 3, g)) * hyp3f2_sum(
            m + 2 + a / 2.0, m + 1.5 + a / 2.0, m + 2.0, m + 2.5, z
        ).value
        value = p_odd(g) - correction
    return _probability(value, f"p_odd_finite(m={m})", g)


def _odd_head_sum(m: int, a: float, b: float) -> float:
    """sum_{j<=m} pmf(2j+1) / pmf(2m+1), for 2m+1 below the mode (a-1)/b.

    Summed downward from the term 1 at j = m, each term the one above it
    times pmf(2j-1) / pmf(2j+1) = (2j)(2j+1)(b+1)**2 / ((a+2j-1)(a+2j)).
    That ratio is the product of 2j(b+1)/(a+2j-1) and (2j+1)(b+1)/(a+2j),
    each below 1 because (2j+1) b < a-1, and each is built as a ratio
    times b+1, so a huge a or b neither overflows nor turns it ``nan``.
    The terms fall, so the j terms left below the term u at j add at most
    j*u; the sum stops once that cannot change the total.  It refuses with
    ``SeriesNonConvergence`` after ``_MAX_TERMS`` terms.
    """
    term = total = 1.0
    for j in range(m, max(m - _MAX_TERMS, -1), -1):
        if total + j * term == total:  # always at j = 0
            return total
        term *= (2 * j / (a + 2 * j - 1) * (b + 1.0)) * ((2 * j + 1) / (a + 2 * j) * (b + 1.0))
        total += term
    raise SeriesNonConvergence("p_odd_finite", _MAX_TERMS, total)


def recommend_block_size(layout: TimeUnitLayout, g: GammaIntensity) -> int:
    """Block length (in bits) whose expected error count is closest to 1.

    Errors arrive at rate a/b per f bits, so n = f * b / a, rounded to the
    nearest integer and clamped to at least 1.  A non-finite f * b / a
    raises ``ValueError``.
    """
    size = layout.f * g.b / g.a
    if not math.isfinite(size):
        raise ValueError(
            f"f*b/a = {size} is not finite (f={layout.f}, a={g.a!r}, b={g.b!r})"
        )
    return max(1, int(math.floor(size + 0.5)))


def sample_process(
    n: int, layout: TimeUnitLayout, g: GammaIntensity, seed: int
) -> ScatterSample:
    """Draw an error pattern for an ``n``-bit key, keeping the unit trace.

    The key is split into consecutive time units of ``layout.f`` bits
    (the last may be partial).  Per unit: draw an intensity from the gamma
    law, draw a Poisson count with mean ``intensity * dt`` where ``dt`` is
    the unit's fraction of a full time unit, cap the count at the unit
    length, and place that many distinct positions uniformly inside the
    unit.  Deterministic for a fixed ``(n, layout, g, seed)``.
    """
    n = _count(n, "key length n", 1)
    rng = np.random.default_rng(_count(seed, "seed"))
    f = layout.f
    n_units = (n + f - 1) // f
    intensities = np.empty(n_units, dtype=np.float64)
    counts = np.empty(n_units, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for u in range(n_units):
        start = u * f
        size = min(f, n - start)
        lam = rng.gamma(g.a, 1.0 / g.b)
        k = min(int(rng.poisson(lam * (size / f))), size)
        intensities[u] = lam
        counts[u] = k
        if k:
            offsets = rng.choice(size, size=k, replace=False)
            offsets.sort()
            chunks.append(start + offsets)
    positions = np.concatenate(chunks).tolist() if chunks else ()
    return ScatterSample(ErrorPattern(n, positions), intensities, counts)


def sample_error_pattern(
    n: int, layout: TimeUnitLayout, g: GammaIntensity, seed: int
) -> ErrorPattern:
    """Draw an error pattern for an ``n``-bit key (see ``sample_process``)."""
    return sample_process(n, layout, g, seed).pattern
