"""Gamma-mixed Poisson ("Cox process") model of error scattering.

Errors arrive as a Poisson process whose intensity is itself random: at
the start of every time unit a fresh intensity is drawn from a gamma law
with shape ``a`` and rate ``b``, held constant for that unit.  ``f`` raw
key bits arrive per time unit, so an ``n``-bit block spans ``n / f`` of a
unit.  Marginally the error count per unit follows a negative binomial
law; the evaluators below give its pmf, distribution function, tail, and
the probability of an odd count (the event a single parity check can
detect), each in closed form.

All probabilities are assembled from log-gamma terms and exponentiated
once, so large shape parameters and long strings stay in range.  An
evaluator returns a finite float or raises: ``ValueError`` for input
outside its domain or a value lost to float arithmetic (``nan``, ``inf``,
or a ``tail`` or ``p_odd_finite`` more than 1e-9 outside [0, 1]),
``SeriesNonConvergence`` from the series kernel, ``OverflowError`` from
``math``.

Inputs follow two rules, each checked once where the value enters and
stored as a Python number, so NumPy scalars never reach the arithmetic.
A count or size (``k``, ``m``, ``n``, ``f``, a position, a seed) is an
integer, Python or NumPy, and is kept as an ``int`` (:func:`_count`); a
model parameter (``a``, ``b``, ``dt``) is a finite real number > 0 and is
kept as a ``float`` (:func:`_positive`).  Both refuse bools, and a value that
breaks its rule raises ``ValueError`` naming the parameter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import lt

import numpy as np

from .special_functions import hyp2f1_one_sum, hyp3f2_sum, ln_pochhammer

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
    """A model parameter as a Python float: a real number (not a bool) that
    is finite and > 0; anything else raises ``ValueError``."""
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


def _probability(p: float, what: str, g: GammaIntensity, shown: float | None = None) -> float:
    """``p`` if it is within ``_PROBABILITY_SLACK`` of [0, 1]; ``nan``,
    ``inf`` and anything farther off raise ``ValueError``, which reports
    ``what = shown`` (``p`` itself by default)."""
    if not -_PROBABILITY_SLACK <= p <= 1.0 + _PROBABILITY_SLACK:  # nan fails too
        shown = p if shown is None else shown
        raise ValueError(f"{what} = {shown} at a={g.a!r}, b={g.b!r} is not a probability")
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


def pmf(k: int, g: GammaIntensity, dt: float = 1.0) -> float:
    """Probability of exactly ``k`` errors within a span of ``dt`` time units.

    Mixing a Poisson count of mean ``lambda * dt`` over the gamma law of
    ``lambda`` gives

        P(X = k) = Gamma(k+a) / (k! Gamma(a))
                   * (b / (b+dt))**a * (dt / (b+dt))**k,

    a negative binomial law; ``dt = 1`` is the per-time-unit case.
    Refused, as ``tail`` is, when the value is not a probability.
    """
    k = _count(k, "k")
    dt = _positive(dt, "dt")
    a, b = g.a, g.b
    log_p = (
        ln_pochhammer(a, k)
        - math.lgamma(k + 1)
        + a * (math.log(b) - math.log(b + dt))
        + k * (math.log(dt) - math.log(b + dt))
    )
    return _probability(math.exp(log_p), f"pmf(k={k})", g)


def tail(m: int, g: GammaIntensity) -> float:
    """Probability of seeing more than ``m`` errors in one time unit.

    Closed form: b**a (a)_{m+1} / ((m+1)! (b+1)**(a+m+1))
    times 2F1(1, m+a+1; m+2; 1/(b+1)).
    """
    m = _count(m, "m")
    return _probability(_tail_sum(m, g), f"tail(m={m})", g)


def cdf(m: int, g: GammaIntensity) -> float:
    """Probability of at most ``m`` errors in one time unit (1 - tail).

    Refused where ``tail`` is; the refusal names ``cdf`` and its value.
    """
    m = _count(m, "m")
    p = _tail_sum(m, g)
    return 1.0 - _probability(p, f"cdf(m={m})", g, shown=1.0 - p)


def _tail_sum(m: int, g: GammaIntensity) -> float:
    """``tail``'s closed form for a checked ``m``, not yet checked itself."""
    a, b = g.a, g.b
    log_pref = (
        a * math.log(b)
        + ln_pochhammer(a, m + 1)
        - math.lgamma(m + 2)
        - (a + m + 1) * math.log(b + 1)
    )
    # a*log(b) overflows before lgamma(a) does, so the log prefactor can be
    # inf - inf (a ~ 2.5e305); at huge a and b its terms cancel to garbage
    return math.exp(log_pref) * hyp2f1_one_sum(m + a + 1, m + 2, 1.0 / (b + 1)).value


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
    # log(b/(b+2)) as -log1p(2/b), which does not cancel at large b
    return -0.5 * math.expm1(-g.a * math.log1p(2.0 / g.b))


def p_odd_finite(m: int, g: GammaIntensity) -> float:
    """Probability of an odd error count that is at most ``2m + 1``.

    The infinite-string value ``p_odd`` minus a correction term

        C(a, b, m) * 3F2(1, m+2+a/2, m+3/2+a/2; m+2, m+5/2; 1/(b+1)**2),
        C(a, b, m) = b**a Gamma(2m+3+a) / (Gamma(a) (2m+3)! (b+1)**(2m+3+a)).

    The correction vanishes as ``m`` grows (the 1/(b+1)**(2m+3) factor
    dominates since b > 0), so this increases to ``p_odd``.
    """
    m = _count(m, "m")
    a, b = g.a, g.b
    log_corr = (
        a * math.log(b)
        + ln_pochhammer(a, 2 * m + 3)
        - math.lgamma(2 * m + 4)
        - (2 * m + 3 + a) * math.log(b + 1)
    )
    try:
        z = 1.0 / (b + 1) ** 2
    except OverflowError:  # b above ~1.34e154: the argument underflows to 0
        z = 0.0
    correction = math.exp(log_corr) * hyp3f2_sum(
        m + 2 + a / 2.0, m + 1.5 + a / 2.0, m + 2.0, m + 2.5, z
    ).value
    return _probability(p_odd(g) - correction, f"p_odd_finite(m={m})", g)


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
