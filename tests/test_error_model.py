"""Error model tests.

Each closed-form evaluator is checked against an independent oracle:
numerical quadrature of the mixing integral for the pmf, truncated direct
summation for the distribution function / tail / mean / parity splits,
sums of the pmf in 256-bit fixed point with mpmath prefactors for
``cdf`` and ``tail`` over a wide grid, and seeded Monte Carlo for the
sampler.
"""

import functools
import math
import re
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxcascade import error_model
from coxcascade.error_model import (
    ErrorPattern,
    GammaIntensity,
    TimeUnitLayout,
    cdf,
    mean,
    p_odd,
    p_odd_finite,
    pmf,
    recommend_block_size,
    sample_error_pattern,
    sample_process,
    tail,
)
from coxcascade.reconciliation import make_key_pair
from coxcascade.special_functions import SeriesNonConvergence
from coxcascade.validation import check_reconciliation, check_simulator_statistics

G_MAIN = GammaIntensity(10.0, 2.0)
G_UNIT = GammaIntensity(1.0, 1.0)
GRID = [GammaIntensity(10, 2), GammaIntensity(1, 1),
        GammaIntensity(0.5, 4), GammaIntensity(25, 0.5)]


def pmf_quadrature(k, g, dt=1.0):
    """Mixing-integral oracle: integrate Poisson(k | x dt) over the gamma law."""

    def integrand(x):
        return (
            math.exp(-x * dt) * (x * dt) ** k / math.factorial(k)
            * g.b**g.a / math.gamma(g.a) * x ** (g.a - 1) * math.exp(-g.b * x)
        )

    val, err = scipy.integrate.quad(
        integrand, 0.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-12
    )
    assert err < 1e-10
    return val


def partial_sum(m, g):
    return math.fsum(pmf(k, g) for k in range(m + 1))


class TestTypes:
    @pytest.mark.parametrize("a,b", [(0, 1), (-1, 1), (1, 0), (1, -2),
                                     (math.inf, 1), (1, math.inf), (math.nan, 1)])
    def test_gamma_intensity_domain(self, a, b):
        with pytest.raises(ValueError):
            GammaIntensity(a, b)

    def test_layout_domain(self):
        with pytest.raises(ValueError):
            TimeUnitLayout(0)
        with pytest.raises(ValueError, match="f must be an integer"):
            TimeUnitLayout(2.5)
        assert TimeUnitLayout(np.int64(250)).f == 250

    def test_pattern_invariants(self):
        ErrorPattern(10, (0, 3, 9))
        with pytest.raises(ValueError):
            ErrorPattern(10, (3, 3))
        with pytest.raises(ValueError):
            ErrorPattern(10, (5, 2))
        with pytest.raises(ValueError):
            ErrorPattern(10, (0, 10))
        with pytest.raises(ValueError, match="key length n must be an integer, got 2.5"):
            ErrorPattern(2.5, ())

    @pytest.mark.parametrize("position, message", [
        pytest.param(1.5, "positions must be an integer, got 1.5", id="float"),
        pytest.param(True, "positions must be an integer, got True", id="bool"),
        pytest.param(np.float64(2.0), "positions must be an integer", id="numpy-float"),
        (-1, "positions must be >= 0, got -1"),
    ])
    def test_pattern_positions_refused(self, position, message):
        # refused with a message that says why, not coerced or left to a
        # later IndexError
        with pytest.raises(ValueError, match=re.escape(message)):
            ErrorPattern(5, (position,))

    def test_pattern_numpy_positions_accepted(self):
        pattern = ErrorPattern(5, (np.int64(1), np.int32(3), np.uint8(4)))
        assert pattern.positions == (1, 3, 4)

    @pytest.mark.parametrize("value", [True, "1", np.array([1.0]), None],
                             ids=["bool", "str", "array", "None"])
    def test_model_parameters_refuse_non_numbers(self, value):
        # refused with a message naming the parameter, not accepted or left
        # to a TypeError in later arithmetic
        with pytest.raises(ValueError, match="gamma shape a must be a real number"):
            GammaIntensity(value, 2)
        with pytest.raises(ValueError, match="gamma rate b must be a real number"):
            GammaIntensity(1, value)

    def test_model_parameters_stored_as_floats(self):
        g = GammaIntensity(np.int64(10), np.float32(2.0))
        assert type(g.a) is float and type(g.b) is float
        assert g == G_MAIN
        with pytest.raises(ValueError, match="gamma shape a must be finite"):
            GammaIntensity(10**400, 1)


class TestPmf:
    def test_geometric_case(self):
        # a = b = 1 collapses the mixture to P(X = k) = 2**-(k+1)
        assert pmf(3, G_UNIT) == pytest.approx(0.0625, rel=1e-13)
        for k in range(20):
            assert pmf(k, G_UNIT) == pytest.approx(2.0 ** -(k + 1), rel=1e-12)

    def test_quadrature_oracle(self):
        for k in (0, 3, 7):
            assert pmf(k, G_UNIT) == pytest.approx(pmf_quadrature(k, G_UNIT), rel=1e-9)
            assert pmf(k, G_MAIN) == pytest.approx(pmf_quadrature(k, G_MAIN), rel=1e-9)

    def test_zero_count_closed_form(self):
        assert pmf(0, G_MAIN) == pytest.approx((2.0 / 3.0) ** 10, rel=1e-13)

    def test_vanishing_dt(self):
        # a span of dt = 1e-12 units is the unit law at rate b / dt
        assert pmf(0, GammaIntensity(5, 3 / 1e-12)) == pytest.approx(1.0, abs=1e-11)

    def test_dt_scaling_against_quadrature(self):
        # the unit law at rate b / dt against Poisson(lambda dt) mixed over
        # the gamma law at rate b
        g = GammaIntensity(10, 2)
        for dt in (0.2, 1.7):
            for k in (0, 1, 4):
                assert pmf(k, GammaIntensity(g.a, g.b / dt)) == pytest.approx(
                    pmf_quadrature(k, g, dt), rel=1e-9
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pmf(-1, G_MAIN)
        for k in (2.5, 3.0, np.float64(3)):
            with pytest.raises(ValueError, match="k must be an integer"):
                pmf(k, G_MAIN)
        assert pmf(np.int64(3), G_MAIN) == pmf(3, G_MAIN)

    @pytest.mark.parametrize("g", GRID, ids=lambda g: f"a{g.a:g}b{g.b:g}")
    def test_normalization(self, g):
        total = 0.0
        k = 0
        while True:
            p = pmf(k, g)
            total += p
            if k > mean(g) and p < 1e-16 * total:
                break
            k += 1
        assert total == pytest.approx(1.0, abs=1e-10)


@given(
    a=st.floats(0.1, 20.0),
    b=st.floats(0.1, 20.0),
    k=st.integers(0, 50),
)
@settings(max_examples=300, deadline=None)
def test_negative_binomial_equivalence(a, b, k):
    # independent log-gamma path via scipy's negative binomial pmf
    g = GammaIntensity(a, b)
    reference = scipy.stats.nbinom.pmf(k, a, b / (b + 1.0))
    assert pmf(k, g) == pytest.approx(reference, rel=1e-12, abs=5e-300)


class TestCdfTail:
    def test_cdf_at_zero_is_first_term(self):
        assert cdf(0, G_MAIN) == pytest.approx(pmf(0, G_MAIN), rel=1e-12)

    def test_cdf_against_partial_sum(self):
        assert cdf(25, G_MAIN) == pytest.approx(partial_sum(25, G_MAIN), abs=1e-10)

    def test_cdf_saturates(self):
        assert cdf(500, G_MAIN) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_cdf(self):
        # sum of 2**-(k+1) for k <= 3 is 1 - 2**-4
        assert cdf(3, G_UNIT) == pytest.approx(1.0 - 2.0**-4, rel=1e-12)

    def test_tail_geometric(self):
        assert tail(0, G_UNIT) == pytest.approx(0.5, rel=1e-12)

    def test_complement_identity_exact(self):
        for m in range(51):
            assert tail(m, G_MAIN) + cdf(m, G_MAIN) == 1.0

    @pytest.mark.parametrize("g", GRID, ids=lambda g: f"a{g.a:g}b{g.b:g}")
    def test_tail_against_brute_force(self, g):
        for m in range(0, 51, 5):
            assert tail(m, g) == pytest.approx(1.0 - partial_sum(m, g), abs=1e-10)

    def test_tail_specific(self):
        assert tail(40, G_MAIN) == pytest.approx(1.0 - partial_sum(40, G_MAIN), abs=1e-10)

    def test_monotonicity(self):
        tails = [tail(m, G_MAIN) for m in range(40)]
        assert all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))
        cdfs = [cdf(m, G_MAIN) for m in range(40)]
        assert all(c1 <= c2 for c1, c2 in zip(cdfs, cdfs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            tail(-1, G_MAIN)
        for m in (2.5, 3.0):
            for fn in (tail, cdf, p_odd_finite):
                with pytest.raises(ValueError, match="m must be an integer"):
                    fn(m, G_MAIN)
        assert tail(np.int64(3), G_MAIN) == tail(3, G_MAIN)


# 256-bit fixed point for the oracle sums below: each step truncates by at
# most 2**-256 of the first term, far below the 50 digits asked of a value
_FIXED_ONE = 1 << 256


def _fixed_point_sum(ratio, count=None):
    """1 + r(0) + r(0) r(1) + ... with ``ratio(i)`` a (numerator,
    denominator) pair of positive ints: over ``count`` ratios, or, with
    ``count`` None, until a falling term drops below 2**-240 of the sum
    (the remainder is then below 2**-220 of it while 1/(1 - r) < 2**20).
    Returns an mpf, or None if 200000 terms do not settle."""
    term = total = _FIXED_ONE
    for i in range(200_000 if count is None else count):
        n, d = ratio(i)
        term = term * n // d
        total += term
        if count is None and n < d and term < total >> 240:
            break
    else:
        if count is None:
            return None
    return mpmath.mpf(total) / _FIXED_ONE


def negative_binomial_sides(m, a, b):
    """``(cdf(m), tail(m))`` of the per-unit count to 50 digits, from sums of
    pmf terms and nothing of the library.

    a and b are exact binary fractions, so each term ratio
    pmf(k+1)/pmf(k) = (a+k)/((k+1)(b+1)) is an exact fraction of ints; the
    first pmf term comes from mpmath at 80 digits.  The side that does not
    hold the mode is summed, so its terms fall: the cdf down from m (at
    most m+1 terms), or the tail up from m+1.  Where the tail falls too
    slowly the cdf is summed instead.  The other side is 1 minus the
    summed one, unless that leaves it below 1e-25; then it is summed too.
    """
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    with mpmath.workdps(80):
        A, B = mpmath.mpf(a), mpmath.mpf(b)

        def pmf_at(k):
            return mpmath.exp(mpmath.loggamma(k + A) - mpmath.loggamma(A)
                              - mpmath.loggamma(k + 1) + A * mpmath.log(B / (B + 1))
                              - k * mpmath.log(B + 1))

        def cdf_down():  # pmf(m) + pmf(m-1) + ... + pmf(0)
            return pmf_at(m) * _fixed_point_sum(
                lambda j: ((m - j) * da * (nb + db), (na + (m - 1 - j) * da) * db), m)

        def tail_up():  # pmf(m+1) + pmf(m+2) + ...
            rest = _fixed_point_sum(
                lambda i: ((na + (m + 1 + i) * da) * db, (m + 2 + i) * da * (nb + db)))
            return None if rest is None else pmf_at(m + 1) * rest

        rising = (na + m * da) * db >= (m + 1) * da * (nb + db)  # pmf(m+1) >= pmf(m)
        # the tail's terms end up falling by 1/(b+1) a step: ~170/b steps
        slow = 170 * (nb + db) >= (m + 1) * nb
        t = None if rising or slow else tail_up()
        if t is None:
            c = cdf_down()
            t = 1 - c
            if t < mpmath.mpf("1e-25"):
                t = tail_up()
        else:
            c = 1 - t
            if c < mpmath.mpf("1e-25"):
                c = cdf_down()
        return float(c), float(t)


ORACLE_A = tuple(10.0 ** e for e in range(-2, 7))
ORACLE_B = tuple(10.0 ** e for e in range(-6, 7))
ORACLE_M = (0, 1, 10, 100, 1000, 10_000)
def test_oracle_agrees_with_scipy():
    # the fixed-point oracle against scipy's negative binomial where scipy is
    # good to far better than the 1e-9 asked of the library
    for a, b in ((0.5, 1e-3), (10.0, 2.0), (100.0, 0.05), (1e3, 10.0)):
        p = b / (b + 1.0)
        for m in (0, 3, 40, 400):
            c, t = negative_binomial_sides(m, a, b)
            assert math.isclose(c, scipy.stats.nbinom.cdf(m, a, p), rel_tol=1e-11)
            assert math.isclose(t, scipy.stats.nbinom.sf(m, a, p), rel_tol=1e-11)


def test_cdf_tail_against_oracle_grid():
    # 702 cells, a in 1e-2..1e6, b in 1e-6..1e6, m in 0..1e4, both sides at
    # 1e-9 relative; a value that underflows matches only an oracle that does.
    # The lgamma differences of the former prefactor missed 11 cells at
    # a = 1e6 and at a = 0.01, b = 1e-4, m = 1e4
    misses = set()
    for a in ORACLE_A:
        for b in ORACLE_B:
            g = GammaIntensity(a, b)
            for m in ORACLE_M:
                c, t = negative_binomial_sides(m, a, b)
                for name, got, want in (("cdf", cdf(m, g), c), ("tail", tail(m, g), t)):
                    if not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0):
                        misses.add((name, m, a, b))
    assert misses == set()


@settings(max_examples=200, deadline=None)
@given(log_a=st.floats(-2.0, 6.0), log_b=st.floats(-6.0, 6.0),
       m=st.integers(0, 10_000))
def test_cdf_tail_properties(log_a, log_b, m):
    g = GammaIntensity(10.0 ** log_a, 10.0 ** log_b)
    c, t = cdf(m, g), tail(m, g)
    assert 0.0 <= c <= 1.0 and 0.0 <= t <= 1.0  # no slack
    assert c + t == 1.0  # one side is 1 minus the other
    assert cdf(m + 1, g) >= c


class TestMean:
    def test_values(self):
        assert mean(G_MAIN) == 5.0
        assert mean(GammaIntensity(3, 3)) == 1.0
        assert mean(G_UNIT) == 1.0

    def test_truncated_first_moment(self):
        est = math.fsum(k * pmf(k, G_MAIN) for k in range(401))
        assert est == pytest.approx(5.0, abs=1e-8)

    def test_geometric_first_moment(self):
        est = math.fsum(k * 2.0 ** -(k + 1) for k in range(200))
        assert mean(G_UNIT) == pytest.approx(est, abs=1e-12)


class TestParityProbabilities:
    def test_geometric_odd_sum(self):
        # odd-index geometric sum: 1/4 / (1 - 1/4) = 1/3
        oracle = math.fsum(2.0 ** -(k + 1) for k in range(1, 200, 2))
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert p_odd(G_UNIT) == pytest.approx(oracle, abs=1e-12)

    def test_rejected_variant_is_off(self):
        # halving P(X >= 1) would give 1/4 here; the oracle refutes it
        rejected = 0.5 * (1.0 - pmf(0, G_UNIT))
        assert rejected == pytest.approx(0.25, rel=1e-12)
        assert abs(rejected - 1.0 / 3.0) == pytest.approx(1.0 / 12.0, rel=1e-10)

    def test_main_parameters(self):
        assert p_odd(G_MAIN) == pytest.approx(0.49951171875, abs=1e-12)
        oracle = math.fsum(pmf(k, G_MAIN) for k in range(1, 400, 2))
        assert p_odd(G_MAIN) == pytest.approx(oracle, abs=1e-10)

    def test_vanishing_shape(self):
        assert p_odd(GammaIntensity(1e-12, 1.0)) == pytest.approx(0.0, abs=1e-11)

    def test_always_below_half(self):
        # strictly below 1/2 mathematically; the (b/(b+2))**a term can round
        # to zero in floats, landing exactly on the boundary
        for g in GRID:
            assert 0.0 < p_odd(g) <= 0.5

    def test_finite_at_zero_is_single_count(self):
        assert p_odd_finite(0, G_MAIN) == pytest.approx(pmf(1, G_MAIN), rel=1e-10)

    def test_finite_against_odd_sums(self):
        for m in range(21):
            oracle = math.fsum(pmf(2 * j + 1, G_MAIN) for j in range(m + 1))
            assert p_odd_finite(m, G_MAIN) == pytest.approx(oracle, abs=1e-10)

    def test_finite_converges_to_limit(self):
        assert p_odd_finite(200, G_MAIN) == pytest.approx(p_odd(G_MAIN), abs=1e-8)

    def test_finite_nondecreasing(self):
        vals = [p_odd_finite(m, G_MAIN) for m in range(30)]
        assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(vals, vals[1:]))

    def test_odd_even_split(self):
        # total mass below 2m+2 splits into the odd part and the even sums
        for m in (0, 3, 10):
            total = partial_sum(2 * m + 1, G_MAIN)
            evens = math.fsum(pmf(2 * j, G_MAIN) for j in range(m + 1))
            assert total == pytest.approx(p_odd_finite(m, G_MAIN) + evens, abs=1e-10)

    def test_large_m_prefactor_stays_in_range(self):
        # the correction prefactor would overflow a naive gamma evaluation
        assert p_odd_finite(500, G_MAIN) == pytest.approx(p_odd(G_MAIN), abs=1e-12)

    @pytest.mark.parametrize("b", [1e-3, 0.5, 1, 2, 4, 1e3, 1e8, 1e14, 1e15, 1e200])
    def test_large_rate_keeps_precision(self, b):
        # at a = 1, p_odd = 1/(b+2); one expression serves small and large
        # rates, where log(b) - log(b+2) would cancel
        assert math.isclose(p_odd(GammaIntensity(1, b)), 1.0 / (b + 2.0), rel_tol=1e-14)

    def test_subnormal_rate(self):
        # 2/b overflows below b ~ 1.1e-308, so log(b/(b+2)) is taken there as
        # log(b) - log(b+2); -log1p(2/b) was -inf and p_odd 0.5, not ~3.57e-298
        with mpmath.workdps(50):
            a, b = mpmath.mpf(1e-300), mpmath.mpf(1e-310)
            expected = float(-mpmath.expm1(a * mpmath.log(b / (b + 2))) / 2)
        assert math.isclose(p_odd(GammaIntensity(1e-300, 1e-310)), expected, rel_tol=1e-13)

    def test_finite_positive_at_large_rate(self):
        assert p_odd_finite(3, GammaIntensity(1, 1e15)) > 0.0


def test_finite_or_refused_over_stiff_grid():
    # a closed form either returns a finite number or refuses: at large a
    # and tiny b the 3F2 of p_odd - correction overflows while its
    # prefactor underflows, and that product (0 * inf) must never come back
    # as nan; below the mode (a-1)/b p_odd_finite sums its odd terms
    # instead, so only a <= 1 may refuse; above b ~ 1.34e154 the series
    # argument 1/(b+1)**2 underflows, which is no reason to refuse; tail
    # and cdf, from a continued fraction, never refuse
    points = [(a, b, m) for a in (0.5, 100.0)
              for b in (1e-6, 1e-4, 1e-2, 1.0, 100.0, 1e160, 1e300) for m in (0, 30)]
    # the mode is 1e100; (b+1)**2 overflows there and 1/a**2 underflows
    points += [(1e300, 1e200, m) for m in (0, 1, 30)]
    for a, b, m in points:
        g = GammaIntensity(a, b)
        for fn in (tail, cdf, p_odd_finite):
            try:
                value = fn(m, g)
            except SeriesNonConvergence:
                assert fn is p_odd_finite and a <= 1 and b < 1e160, (fn.__name__, a, b, m)
                continue
            assert isinstance(value, float) and math.isfinite(value), (
                fn.__name__, a, b, m, value)


def test_odd_term_sum_refused_past_the_term_cap():
    # 2m+1 = 1e14 - 1999 lies just below the mode (a-1)/b = 1e14 - 100, in
    # a pmf peak with a standard deviation of ~1e8, so the odd terms below
    # it stay near 1 far beyond the kernel's term cap
    g = GammaIntensity(1e12, 1e-2)
    with pytest.raises(SeriesNonConvergence) as refusal:
        p_odd_finite(5 * 10**13 - 1000, g)
    assert refusal.value.terms_used == 100_000
    assert str(refusal.value).startswith("p_odd_finite did not converge within 100000 terms")


def unit_pmf_mp(k, a, b):
    """P(X = k) from mpmath at 60 digits, (a)_k / k! times
    exp(-a log1p(1/b) - k log1p(b)), with its rising factorial as a product."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return +(mpmath.rf(a, k) / mpmath.factorial(k)
                 * mpmath.exp(-a * mpmath.log1p(1 / b) - k * mpmath.log1p(b)))


@settings(max_examples=300, deadline=None)
@given(log_a=st.floats(-3.0, 8.0), log_b=st.floats(-6.0, 8.0), k=st.integers(0, 300))
def test_pmf_against_mpmath(log_a, log_b, k):
    # one log prefactor for every evaluator; the lgamma differences it
    # replaced were up to 2.7e-7 off here, at a ~ 1e8
    a, b = 10.0 ** log_a, 10.0 ** log_b
    assert math.isclose(pmf(k, GammaIntensity(a, b)), float(unit_pmf_mp(k, a, b)),
                        rel_tol=1e-11, abs_tol=1e-300)


def test_pmf_at_a_subnormal_rate():
    # 1/b overflows below b ~ 5.6e-309, so log(1 + 1/b) is taken there as
    # log1p(b) - log(b): pmf(0) stays near 1 and pmf(1) near a (its log,
    # ~-691, carries ~1e-13 relative rounding)
    for k in (0, 1):
        assert math.isclose(pmf(k, GammaIntensity(1e-300, 1e-310)),
                            float(unit_pmf_mp(k, 1e-300, 1e-310)), rel_tol=1e-12)


def odd_sum_mp(m, a, b):
    """sum_{j<=m} P(X = 2j+1) from mpmath at 40 digits, upward from pmf(1)
    by the ratio pmf(k+2)/pmf(k) = (a+k)(a+k+1) / ((k+1)(k+2)(b+1)**2)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        term = total = a * mpmath.exp(-a * mpmath.log1p(1 / b) - mpmath.log1p(b))
        for k in range(1, 2 * m + 1, 2):
            term *= (a + k) * (a + k + 1) / ((k + 1) * (k + 2) * (b + 1) ** 2)
            total += term
        return +total


@settings(max_examples=300, deadline=None)
@given(log_a=st.floats(0.0, 4.0), log_b=st.floats(-4.0, 3.0), m=st.integers(0, 300))
def test_p_odd_finite_below_the_mode_against_mpmath(log_a, log_b, m):
    # 2m+1 below the mode (a-1)/b: the odd terms are summed, where
    # p_odd - correction cancelled (a negative value at a = 100, b = 1e-3)
    a, b = 10.0 ** log_a, 10.0 ** log_b
    assume((a - 1.0) / b > 1.0)
    m = min(m, math.ceil(((a - 1.0) / b - 1.0) / 2.0) - 1)
    assert 2 * m + 1 < (a - 1.0) / b
    assert math.isclose(p_odd_finite(m, GammaIntensity(a, b)), float(odd_sum_mp(m, a, b)),
                        rel_tol=1e-11, abs_tol=1e-300)


@settings(max_examples=300, deadline=None)
@given(log_a=st.floats(-3.0, 8.0), log_b=st.floats(-6.0, 8.0), k=st.integers(0, 300))
def test_evaluators_stay_in_the_unit_interval(log_a, log_b, k):
    # in [0, 1] itself, not only within _PROBABILITY_SLACK of it; only
    # p_odd - correction, at or above the mode, may still refuse
    g = GammaIntensity(10.0 ** log_a, 10.0 ** log_b)
    for fn in (pmf, tail, cdf, p_odd_finite):
        try:
            value = fn(k, g)
        except SeriesNonConvergence:
            assert fn is p_odd_finite and 2 * k + 1 >= (g.a - 1.0) / g.b, (fn.__name__, g, k)
            continue
        assert 0.0 <= value <= 1.0, (fn.__name__, g, k, value)


def prefactor_refusal(fn, m, g, monkeypatch, log_value):
    """The refusal of ``fn(m, g)`` once the log prefactor reads ``log_value``."""
    monkeypatch.setattr(error_model, "_log_unit_pmf", lambda k, g: log_value)
    with pytest.raises(ValueError, match="is not a probability") as refusal:
        fn(m, g)
    return str(refusal.value)


@pytest.mark.parametrize("fn", [tail, cdf])
def test_lost_prefactor_refused(fn, monkeypatch):
    # a*log(b) overflowed while lgamma(a) did not, so the former log
    # prefactor was inf - inf here; the tail is 1 - (b/(b+1))**a
    g = GammaIntensity(2.535e305, 1e308)
    expected = {tail: 1 - unit_pmf_mp(0, g.a, g.b), cdf: unit_pmf_mp(0, g.a, g.b)}[fn]
    assert math.isclose(fn(0, g), float(expected), rel_tol=1e-14)
    # a prefactor that is nan is refused, not returned
    assert prefactor_refusal(fn, 0, g, monkeypatch, math.nan) == (
        f"{fn.__name__}(m=0) = nan at a=2.535e+305, b=1e+308 is not a probability")


@pytest.mark.parametrize("fn, m, a, b, expected", [
    # the former log prefactors cancelled terms of size ~7e302 and ~2e102
    # here and came out about e times too large; the values are the
    # Poisson(1) limits
    (tail, 0, 1e300, 1e300, -math.expm1(-1.0)),
    (cdf, 0, 1e300, 1e300, math.exp(-1.0)),
    (tail, 0, 1e100, 1e100, -math.expm1(-1.0)),
    # p_odd_finite(0) is pmf(1), ~1e-54; the former prefactor gave -1.0
    (p_odd_finite, 0, 1e100, 1e154, float(unit_pmf_mp(1, 1e100, 1e154))),
    (pmf, 3, 1e16, 1e16, float(unit_pmf_mp(3, 1e16, 1e16))),
], ids=["tail-1e300", "cdf-1e300", "tail-1e100", "p_odd_finite-1e100-1e154", "pmf-1e16"])
def test_not_a_probability_refused(fn, m, a, b, expected, monkeypatch):
    g = GammaIntensity(a, b)
    assert math.isclose(fn(m, g), expected, rel_tol=1e-14)
    # a prefactor of e, far from any probability, is refused with the
    # evaluator's name, its argument and its own value
    what = f"{fn.__name__}({'k' if fn is pmf else 'm'}={m})"
    assert re.fullmatch(re.escape(what) + r" = -?[0-9.e+-]+ at " + re.escape(
        f"a={a!r}, b={b!r} is not a probability"),
        prefactor_refusal(fn, m, g, monkeypatch, 1.0))


def test_probability_slack_passes_rounding(monkeypatch):
    # closed forms a few 1e-12 outside [0, 1] are returned, not refused.  No
    # known input lands there now, so the prefactor is made a hair too large:
    # at a = b = 1, cdf(0) = pmf(1) * CF(1, 1, 1/2) = 1/4 * 2, and tail(0) is
    # 1 minus it
    monkeypatch.setattr(error_model, "_log_unit_pmf", lambda k, g: math.log(0.5) + 1e-12)
    assert 1.0 < cdf(0, G_UNIT) < 1.0 + 1e-11
    assert -1e-11 < tail(0, G_UNIT) < 0.0


class TestBlockSize:
    def test_main(self):
        assert recommend_block_size(TimeUnitLayout(1000), G_MAIN) == 200

    def test_unit_rate(self):
        assert recommend_block_size(TimeUnitLayout(64), G_UNIT) == 64

    def test_clamped_to_one(self):
        assert recommend_block_size(TimeUnitLayout(10), GammaIntensity(100, 1)) == 1

    def test_rounding(self):
        # f b / a = 12.5 rounds up
        assert recommend_block_size(TimeUnitLayout(25), GammaIntensity(2, 1)) == 13


class TestSampler:
    def test_determinism(self):
        layout = TimeUnitLayout(100)
        p1 = sample_error_pattern(5000, layout, G_MAIN, seed=99)
        p2 = sample_error_pattern(5000, layout, G_MAIN, seed=99)
        assert p1 == p2
        p3 = sample_error_pattern(5000, layout, G_MAIN, seed=100)
        assert p1 != p3

    def test_pattern_is_valid(self):
        pat = sample_error_pattern(1234, TimeUnitLayout(100), G_MAIN, seed=5)
        assert pat.n == 1234
        assert list(pat.positions) == sorted(set(pat.positions))
        assert all(0 <= p < 1234 for p in pat.positions)

    def test_empirical_mean_near_model_mean(self):
        # 2000 full units; gate at three standard errors of the model sd
        units = 2000
        layout = TimeUnitLayout(100)
        sample = sample_process(units * layout.f, layout, G_MAIN, seed=31)
        counts = sample.unit_counts
        sd = math.sqrt(mean(G_MAIN) * (1.0 + 1.0 / G_MAIN.b))
        assert abs(counts.mean() - 5.0) < 3.0 * sd / math.sqrt(units)

    def test_overdispersion(self):
        units = 5000
        layout = TimeUnitLayout(50)
        counts = sample_process(units * layout.f, layout, G_MAIN, seed=77).unit_counts
        assert counts.var(ddof=1) > counts.mean()

    def test_near_zero_intensity_gives_empty_pattern(self):
        pat = sample_error_pattern(10_000, TimeUnitLayout(100),
                                   GammaIntensity(1e-9, 1.0), seed=3)
        assert len(pat) == 0

    def test_partial_last_unit(self):
        # 250 bits at f = 100: two full units and one 50-bit tail
        sample = sample_process(250, TimeUnitLayout(100), G_MAIN, seed=8)
        assert len(sample.unit_counts) == 3
        tail_positions = [p for p in sample.pattern.positions if p >= 200]
        assert len(tail_positions) == sample.unit_counts[2]

    def test_counts_match_positions(self):
        sample = sample_process(3000, TimeUnitLayout(100), G_MAIN, seed=15)
        binned = np.bincount(
            np.array(sample.pattern.positions, dtype=np.int64) // 100, minlength=30
        )
        assert np.array_equal(binned, sample.unit_counts)

    def test_length_domain(self):
        with pytest.raises(ValueError):
            sample_error_pattern(0, TimeUnitLayout(10), G_MAIN, seed=1)
        for sample in (sample_process, sample_error_pattern):
            with pytest.raises(ValueError, match="key length n must be an integer, got 10.5"):
                sample(10.5, TimeUnitLayout(4), G_MAIN, seed=1)


def stored_pattern(pattern):
    return pattern, type(pattern.n), {type(p) for p in pattern.positions}


def sampled(n):
    s = sample_process(n, TimeUnitLayout(100), G_MAIN, 1)
    return s.pattern, s.unit_intensities.tolist(), s.unit_counts.tolist()


def key_bits(n):
    pair = make_key_pair(n, ErrorPattern(200, (3, 199)), 5)
    return pair.alice.tolist(), pair.bob.tolist()


def block_size(f):
    layout = TimeUnitLayout(f)
    return type(layout.f), recommend_block_size(layout, GammaIntensity(1, 2))


# entry point -> (a count it takes, the call); each value sits where NumPy
# arithmetic in the narrowest dtypes that hold it would wrap: k + 1, m + 2,
# 2m + 3, n + f - 1, f * b
COUNT_ENTRY_POINTS = {
    "pmf": (127, lambda k: pmf(k, G_MAIN)),
    "tail": (126, lambda m: tail(m, G_MAIN)),
    "cdf": (126, lambda m: cdf(m, G_MAIN)),
    "p_odd_finite": (127, lambda m: p_odd_finite(m, G_MAIN)),
    "sample_process": (250, sampled),
    "make_key_pair": (200, key_bits),
    "ErrorPattern.n": (200, lambda n: stored_pattern(ErrorPattern(n, (3, 199)))),
    "ErrorPattern.positions": (200, lambda p: stored_pattern(ErrorPattern(256, (3, p)))),
    "TimeUnitLayout": (250, block_size),
    "trials": (1000, lambda t: list(map(astuple, check_simulator_statistics(t, seed=3)))),
    "runs": (100, lambda r: list(map(astuple, check_reconciliation(r, seed=5)))),
}


def narrowest_and_64_bit(value):
    """The narrowest signed and unsigned NumPy dtypes that hold ``value``,
    where arithmetic wraps soonest, and the two 64-bit ones."""
    fits = [t for t in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32)
            if np.iinfo(t).max >= value]
    return [fits[0], fits[1], np.int64, np.uint64]


@functools.cache
def python_int_result(entry):
    value, call = COUNT_ENTRY_POINTS[entry]
    return call(value)


@pytest.mark.parametrize("entry, dtype", [
    (entry, dtype) for entry, (value, _) in COUNT_ENTRY_POINTS.items()
    for dtype in narrowest_and_64_bit(value)
], ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_numpy_counts_give_the_python_int_result(entry, dtype):
    value, call = COUNT_ENTRY_POINTS[entry]
    assert call(dtype(value)) == python_int_result(entry)


# entry point -> the call on a seed, as comparable values of its stream
SEED_ENTRY_POINTS = {
    "sample_process": lambda s: sample_process(500, TimeUnitLayout(100), G_MAIN,
                                               s).unit_intensities.tolist(),
    "sample_error_pattern": lambda s: sample_error_pattern(500, TimeUnitLayout(100), G_MAIN, s),
    "make_key_pair": lambda s: make_key_pair(200, ErrorPattern(200, (3, 199)), s).alice.tolist(),
}


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be >= 0, got -1"),
], ids=["bool", "float", "str", "negative"])
def test_seeds_follow_the_count_rule(entry, seed, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SEED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint64])
def test_numpy_seeds_give_the_python_int_stream(entry, dtype):
    call = SEED_ENTRY_POINTS[entry]
    assert call(dtype(200)) == call(200)
