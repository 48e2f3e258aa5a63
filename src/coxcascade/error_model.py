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
outside its domain or a value lost to float arithmetic (``nan``/``inf``),
``SeriesNonConvergence`` from the series kernel, ``OverflowError`` from
``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class GammaIntensity:
    """Gamma law of the error intensity: shape ``a``, rate ``b`` (both finite, > 0)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"gamma shape a must be finite and > 0, got {self.a!r}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"gamma rate b must be finite and > 0, got {self.b!r}")


@dataclass(frozen=True)
class TimeUnitLayout:
    """Bit arrival layout: ``f`` bits arrive per time unit."""

    f: int

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError(f"bits per time unit f must be >= 1, got {self.f!r}")


@dataclass(frozen=True)
class ErrorPattern:
    """Sorted distinct error positions in an ``n``-bit raw key."""

    n: int
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"key length must be >= 0, got {self.n!r}")
        prev = -1
        for p in self.positions:
            if p <= prev:
                raise ValueError("positions must be strictly increasing")
            prev = p
        if self.positions and self.positions[-1] >= self.n:
            raise ValueError("positions must all be < n")

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


def _validate_count(k: int, name: str = "k") -> None:
    if k < 0:
        raise ValueError(f"{name} must be >= 0, got {k!r}")


def pmf(k: int, g: GammaIntensity, dt: float = 1.0) -> float:
    """Probability of exactly ``k`` errors within a span of ``dt`` time units.

    Mixing a Poisson count of mean ``lambda * dt`` over the gamma law of
    ``lambda`` gives

        P(X = k) = Gamma(k+a) / (k! Gamma(a))
                   * (b / (b+dt))**a * (dt / (b+dt))**k,

    a negative binomial law; ``dt = 1`` is the per-time-unit case.
    """
    _validate_count(k)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    a, b = g.a, g.b
    log_p = (
        ln_pochhammer(a, k)
        - math.lgamma(k + 1)
        + a * (math.log(b) - math.log(b + dt))
        + k * (math.log(dt) - math.log(b + dt))
    )
    return math.exp(log_p)


def tail(m: int, g: GammaIntensity) -> float:
    """Probability of seeing more than ``m`` errors in one time unit.

    Closed form: b**a (a)_{m+1} / ((m+1)! (b+1)**(a+m+1))
    times 2F1(1, m+a+1; m+2; 1/(b+1)).
    """
    _validate_count(m, "m")
    a, b = g.a, g.b
    log_pref = (
        a * math.log(b)
        + ln_pochhammer(a, m + 1)
        - math.lgamma(m + 2)
        - (a + m + 1) * math.log(b + 1)
    )
    p = math.exp(log_pref) * hyp2f1_one_sum(m + a + 1, m + 2, 1.0 / (b + 1)).value
    if not math.isfinite(p):
        # a*log(b) overflows before lgamma(a) does, so the log prefactor
        # can be inf - inf (a ~ 2.5e305)
        raise ValueError(f"tail(m={m}) = {p} at a={a!r}, b={b!r} is not a finite probability")
    return p


def cdf(m: int, g: GammaIntensity) -> float:
    """Probability of at most ``m`` errors in one time unit (1 - tail)."""
    return 1.0 - tail(m, g)


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
    a, b = g.a, g.b
    return -0.5 * math.expm1(a * (math.log(b) - math.log(b + 2.0)))


def p_odd_finite(m: int, g: GammaIntensity) -> float:
    """Probability of an odd error count that is at most ``2m + 1``.

    The infinite-string value ``p_odd`` minus a correction term

        C(a, b, m) * 3F2(1, m+2+a/2, m+3/2+a/2; m+2, m+5/2; 1/(b+1)**2),
        C(a, b, m) = b**a Gamma(2m+3+a) / (Gamma(a) (2m+3)! (b+1)**(2m+3+a)).

    The correction vanishes as ``m`` grows (the 1/(b+1)**(2m+3) factor
    dominates since b > 0), so this increases to ``p_odd``.
    """
    _validate_count(m, "m")
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
    return p_odd(g) - correction


def recommend_block_size(layout: TimeUnitLayout, g: GammaIntensity) -> int:
    """Block length (in bits) whose expected error count is closest to 1.

    Errors arrive at rate a/b per f bits, so n = f * b / a, rounded to the
    nearest integer and clamped to at least 1.
    """
    return max(1, int(math.floor(layout.f * g.b / g.a + 0.5)))


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
    if n < 1:
        raise ValueError(f"key length must be >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
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
    if chunks:
        positions = tuple(int(p) for p in np.concatenate(chunks))
    else:
        positions = ()
    return ScatterSample(ErrorPattern(n, positions), intensities, counts)


def sample_error_pattern(
    n: int, layout: TimeUnitLayout, g: GammaIntensity, seed: int
) -> ErrorPattern:
    """Draw an error pattern for an ``n``-bit key (see ``sample_process``)."""
    return sample_process(n, layout, g, seed).pattern
