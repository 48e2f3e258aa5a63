"""Error model tests.

Each closed-form evaluator is checked against an independent oracle:
numerical quadrature of the mixing integral for the pmf, truncated direct
summation for the distribution function / tail / mean / parity splits,
and seeded Monte Carlo for the sampler.
"""

import functools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

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


def partial_sum(m, g, dt=1.0):
    return math.fsum(pmf(k, g, dt) for k in range(m + 1))


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
        with pytest.raises(ValueError, match="dt must be a real number"):
            pmf(3, G_MAIN, dt=value)

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
        assert pmf(0, GammaIntensity(5, 3), dt=1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_dt_scaling_against_quadrature(self):
        g = GammaIntensity(10, 2)
        for dt in (0.2, 1.7):
            for k in (0, 1, 4):
                assert pmf(k, g, dt) == pytest.approx(
                    pmf_quadrature(k, g, dt), rel=1e-9
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pmf(-1, G_MAIN)
        with pytest.raises(ValueError):
            pmf(0, G_MAIN, dt=0.0)
        with pytest.raises(ValueError):
            pmf(0, G_MAIN, dt=-1.0)
        with pytest.raises(ValueError):
            pmf(1, G_MAIN, dt=math.inf)
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

    def test_finite_positive_at_large_rate(self):
        assert p_odd_finite(3, GammaIntensity(1, 1e15)) > 0.0


def test_finite_or_refused_over_stiff_grid():
    # a closed form either returns a finite number or refuses: at large a
    # and tiny b the series overflows while its prefactor underflows, and
    # that product (0 * inf) must never come back as nan; above b ~ 1.34e154
    # p_odd_finite's series argument 1/(b+1)**2 underflows, which is no
    # reason to refuse
    for a in (0.5, 100.0):
        for b in (1e-6, 1e-4, 1e-2, 1.0, 100.0, 1e160, 1e300):
            g = GammaIntensity(a, b)
            for m in (0, 30):
                for fn in (tail, cdf, p_odd_finite):
                    try:
                        value = fn(m, g)
                    except SeriesNonConvergence:
                        assert b < 1e160, (fn.__name__, a, b, m)
                        continue
                    assert isinstance(value, float) and math.isfinite(value), (
                        fn.__name__, a, b, m, value)


@pytest.mark.parametrize("fn", [tail, cdf])
def test_lost_prefactor_refused(fn):
    # a*log(b) overflows while lgamma(a) does not, so the log prefactor is
    # inf - inf; the evaluator refuses the nan instead of returning it
    with pytest.raises(ValueError, match=re.escape(
            f"{fn.__name__}(m=0) = nan at a=2.535e+305, b=1e+308 is not a probability")):
        fn(0, GammaIntensity(2.535e305, 1e308))


@pytest.mark.parametrize("fn, m, a, b, message", [
    # the log prefactors cancel terms of size ~7e302 and ~2e102
    (tail, 0, 1e300, 1e300, "tail(m=0) = 1.7182818284590455 at a=1e+300, b=1e+300"),
    # cdf is refused where tail is, and names itself and its own value
    (cdf, 0, 1e300, 1e300, "cdf(m=0) = -0.7182818284590455 at a=1e+300, b=1e+300"),
    (tail, 0, 1e100, 1e100, "tail(m=0) = 1.7182818284590455 at a=1e+100, b=1e+100"),
    (p_odd_finite, 0, 1e100, 1e154, "p_odd_finite(m=0) = -1.0 at a=1e+100, b=1e+154"),
    # a*(log b - log(b+1)) and the lgamma difference lose the log prefactor
    (pmf, 3, 1e16, 1e16, "pmf(k=3) = 6479514.009990928 at a=1e+16, b=1e+16"),
], ids=["tail-1e300", "cdf-1e300", "tail-1e100", "p_odd_finite-1e100-1e154", "pmf-1e16"])
def test_not_a_probability_refused(fn, m, a, b, message):
    with pytest.raises(ValueError, match=re.escape(f"{message} is not a probability")):
        fn(m, GammaIntensity(a, b))


def test_probability_slack_passes_rounding():
    # closed forms a few 1e-12 outside [0, 1] are returned, not refused
    assert -1e-11 < p_odd_finite(0, GammaIntensity(100, 1e-3)) < 0.0
    assert 1.0 < tail(30, GammaIntensity(100, 0.5)) < 1.0 + 1e-12


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
