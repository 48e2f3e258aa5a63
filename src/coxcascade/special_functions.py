"""Log-Pochhammer symbols and truncated hypergeometric series.

Everything in this module is a pure function of its arguments, with no
caches or globals, so concurrent callers are safe.  The series evaluators
only accept arguments in [0, 1), where the term ratio settles below 1 and
the partial sums converge at a geometric rate.

Gamma-ratio prefactors elsewhere in the package are assembled from
``ln_pochhammer`` and ``math.lgamma`` and exponentiated once, because
the ratios overflow a naive gamma evaluation long before the quantities
of interest leave the representable range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "DEFAULT_CONTROL",
    "SeriesControl",
    "SeriesNonConvergence",
    "SeriesSum",
    "hyp2f1_one",
    "hyp2f1_one_sum",
    "hyp3f2",
    "hyp3f2_sum",
    "ln_pochhammer",
]


@dataclass(frozen=True)
class SeriesControl:
    """Stopping policy for series summation.

    ``rel_tol`` is the relative term-size threshold: summation stops once
    two consecutive terms are at most ``rel_tol`` times the running sum
    (two, so that a single accidentally small term cannot truncate the
    series early).  ``max_terms`` caps the number of terms; hitting the
    cap raises :class:`SeriesNonConvergence`.
    """

    rel_tol: float = 1e-14
    max_terms: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms!r}")


DEFAULT_CONTROL = SeriesControl()


class SeriesNonConvergence(ArithmeticError):
    """The term cap was reached before the tolerance was met."""

    def __init__(self, name: str, terms_used: int, partial_sum: float):
        super().__init__(
            f"{name} did not converge within {terms_used} terms "
            f"(partial sum {partial_sum!r})"
        )
        self.terms_used = terms_used
        self.partial_sum = partial_sum


class SeriesSum(NamedTuple):
    """Partial sum with stopping diagnostics.

    ``terms_used < ctrl.max_terms`` means the tolerance rule stopped the
    summation.  ``last_ratio`` is |term_k / term_{k-1}| at the stopping
    index; for arguments in [0, 1) it must be below 1 by then.
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


def _sum_series(
    name: str, ratio: Callable[[int], float], z: float, ctrl: SeriesControl
) -> SeriesSum:
    """Sum 1 + t_1 + t_2 + ... with t_{k+1} = t_k * ratio(k) * z.

    Stops after two consecutive terms fall below ``ctrl.rel_tol`` relative
    to the running sum.  Terms may grow at first (upper parameters larger
    than lower ones); the two-in-a-row rule keeps the growth phase from
    being confused with convergence.
    """
    term = 1.0
    total = 1.0
    below = 0
    last_ratio = math.inf
    for k in range(1, ctrl.max_terms + 1):
        step = ratio(k - 1) * z
        term *= step
        total += term
        last_ratio = abs(step)
        if abs(term) <= ctrl.rel_tol * abs(total):
            below += 1
            if below >= 2:
                return SeriesSum(total, k + 1, last_ratio)
        else:
            below = 0
    raise SeriesNonConvergence(name, ctrl.max_terms, total)


def hyp2f1_one_sum(
    a2: float, c1: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> SeriesSum:
    """2F1(1, a2; c1; z) with stopping diagnostics.

    The leading parameter 1 makes the (1)_k / k! factor cancel, so the
    term recurrence is term_{k+1} = term_k * (a2+k)/(c1+k) * z.
    """
    _require_unit_interval(z)
    _require_valid_denominator(c1, "c1")
    return _sum_series("hyp2f1_one", lambda k: (a2 + k) / (c1 + k), z, ctrl)


def hyp2f1_one(a2: float, c1: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """2F1(1, a2; c1; z) for z in [0, 1)."""
    return hyp2f1_one_sum(a2, c1, z, ctrl).value


def hyp3f2_sum(
    a2: float,
    a3: float,
    c1: float,
    c2: float,
    z: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> SeriesSum:
    """3F2(1, a2, a3; c1, c2; z) with stopping diagnostics."""
    _require_unit_interval(z)
    _require_valid_denominator(c1, "c1")
    _require_valid_denominator(c2, "c2")
    return _sum_series(
        "hyp3f2", lambda k: (a2 + k) * (a3 + k) / ((c1 + k) * (c2 + k)), z, ctrl
    )


def hyp3f2(
    a2: float,
    a3: float,
    c1: float,
    c2: float,
    z: float,
    ctrl: SeriesControl = DEFAULT_CONTROL,
) -> float:
    """3F2(1, a2, a3; c1, c2; z) for z in [0, 1)."""
    return hyp3f2_sum(a2, a3, c1, c2, z, ctrl).value
