"""Kernel tests: Pochhammer symbols and hypergeometric series.

Brute-force oracles are written out here independently of the library
paths they check: factorials and explicit products for Pochhammer
symbols (checked as ``exp(ln_pochhammer)``), and term-by-term summation
(no recurrence) for the series evaluators.  The chunked summation kernel
is held bit for bit to a plain term-by-term loop over the same term
ratios (``loop_sum``).
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcascade import special_functions
from coxcascade.special_functions import (
    SeriesNonConvergence,
    hyp2f1_one_sum,
    hyp3f2_sum,
    ln_pochhammer,
)


def poch_oracle(x, n):
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


def pochhammer(x, n):
    """Rising factorial (x)_n from the kernel's log route."""
    return math.exp(ln_pochhammer(x, n))


def hyp2f1_direct(a2, c1, z, terms):
    """Term-by-term oracle: every term rebuilt from scratch as a product of
    bounded factor ratios (no recurrence shared with the sum loop)."""
    total = 0.0
    for k in range(terms):
        term = z**k
        for i in range(k):
            term *= (a2 + i) / (c1 + i)
        total += term
    return total


def hyp3f2_direct(a2, a3, c1, c2, z, terms):
    total = 0.0
    for k in range(terms):
        term = z**k
        for i in range(k):
            term *= (a2 + i) * (a3 + i) / ((c1 + i) * (c2 + i))
        total += term
    return total


class TestPochhammer:
    def test_empty_product(self):
        for x in (1e-3, 0.5, 7.0):
            assert pochhammer(x, 0) == 1.0

    def test_one_rising_is_factorial(self):
        # exp of a log-gamma difference lands within a few ulps of k!
        assert pochhammer(1.0, 5) == pytest.approx(120.0, rel=1e-14)
        for k in range(10):
            assert pochhammer(1.0, k) == pytest.approx(math.factorial(k), rel=1e-14)

    def test_three_halves_example(self):
        # (3/2)_k = (2k+1)! / (k! 4**k) at k = 2 gives 3.75
        assert pochhammer(1.5, 2) == pytest.approx(3.75, rel=1e-15)

    def test_two_rising(self):
        # (2)_k = (k+1)!
        for k in range(8):
            assert pochhammer(2.0, k) == pytest.approx(math.factorial(k + 1), rel=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 7.3])
    @pytest.mark.parametrize("k", list(range(21)))
    def test_half_shift_identity(self, a, k):
        # (a)_k (a+1/2)_k = (2a)_{2k} / 4**k
        lhs = pochhammer(a, k) * pochhammer(a + 0.5, k)
        rhs = pochhammer(2 * a, 2 * k) / 4.0**k
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 7.3])
    @pytest.mark.parametrize("k", list(range(21)))
    def test_shift_by_one_identity(self, a, k):
        # (a+1)_k = ((a+k)/a) (a)_k
        lhs = pochhammer(a + 1.0, k)
        rhs = (a + k) / a * pochhammer(a, k)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("k", list(range(21)))
    def test_three_halves_closed_form(self, k):
        # (3/2)_k = (2k+1)! / (k! 4**k)
        rhs = math.factorial(2 * k + 1) / (math.factorial(k) * 4.0**k)
        assert pochhammer(1.5, k) == pytest.approx(rhs, rel=1e-12)

    def test_log_space_branch_agrees(self):
        # a tiny x keeps this 257-factor product inside float range on both
        # the lgamma route and the explicit product
        x, n = 1e-200, 257
        assert pochhammer(x, n) == pytest.approx(poch_oracle(x, n), rel=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ln_pochhammer(1.0, -1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_ln_pochhammer_domain(self, bad):
        with pytest.raises(ValueError):
            ln_pochhammer(bad, 1)

    def test_ln_pochhammer_matches_product(self):
        for x in (0.5, 3.0, 10.0):
            for n in (1, 2, 17):
                assert ln_pochhammer(x, n) == pytest.approx(
                    math.log(poch_oracle(x, n)), rel=1e-13
                )


class TestStoppingRule:
    def test_constants(self):
        assert special_functions._REL_TOL == 1e-14
        assert special_functions._MAX_TERMS == 100_000

    def test_overflow_refused(self):
        # the terms of 2F1(1, 101; 2; 1/(1 + 1e-4)) pass the float range
        # before they decay; the inf sum must not come back as a value
        with pytest.raises(SeriesNonConvergence) as err:
            hyp2f1_one_sum(101.0, 2.0, 1.0 / (1.0 + 1e-4))
        assert math.isinf(err.value.partial_sum)
        assert err.value.terms_used < special_functions._MAX_TERMS
        assert str(err.value) == (
            f"hyp2f1_one overflowed after {err.value.terms_used} terms (partial sum inf)"
        )


class TestHyp2F1One:
    def test_z_zero_is_one(self):
        for a2, c1 in ((2.0, 3.0), (0.5, 1.5), (40.0, 2.0)):
            assert hyp2f1_one_sum(a2, c1, 0.0).value == 1.0

    def test_geometric_reduction(self):
        # equal upper and lower parameter cancels: 1 / (1 - z)
        assert hyp2f1_one_sum(2.0, 2.0, 0.5).value == pytest.approx(2.0, rel=1e-13)
        assert hyp2f1_one_sum(7.3, 7.3, 0.25).value == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_binomial_closed_form(self):
        # a * 2F1(1, 1+a; 2; 1/c) = c ((1 - 1/c)**-a - 1) at a=2, c=3
        a, c = 2.0, 3.0
        lhs = a * hyp2f1_one_sum(1.0 + a, 2.0, 1.0 / c).value
        rhs = c * ((1.0 - 1.0 / c) ** -a - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_against_direct_summation(self):
        val = hyp2f1_one_sum(2.5, 4.0, 0.3).value
        oracle = hyp2f1_direct(2.5, 4.0, 0.3, 200)
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_growing_terms_still_converge(self):
        # upper parameter far above lower: terms grow before they decay
        res = hyp2f1_one_sum(26.0, 2.0, 2.0 / 3.0)
        assert res.terms_used < special_functions._MAX_TERMS
        assert res.last_ratio < 1.0
        assert math.isfinite(res.value)

    def test_stop_ratio_below_one(self):
        for a2, c1, z in ((2.0, 3.0, 0.9), (11.0, 2.0, 0.5), (0.3, 5.0, 0.1)):
            res = hyp2f1_one_sum(a2, c1, z)
            assert res.last_ratio < 1.0

    def test_non_convergence_signal(self):
        # the series behind tail(3) at a=10, b=1e-4: z is within 1e-4 of 1
        with pytest.raises(SeriesNonConvergence) as err:
            hyp2f1_one_sum(14.0, 5.0, 1.0 / (1.0 + 1e-4))
        assert err.value.terms_used == 100_000

    @pytest.mark.parametrize("z", [-0.1, 1.0, 1.5])
    def test_argument_domain(self, z):
        with pytest.raises(ValueError):
            hyp2f1_one_sum(2.0, 3.0, z)

    @pytest.mark.parametrize("c1", [0.0, -1.0, -7.0])
    def test_lower_parameter_domain(self, c1):
        with pytest.raises(ValueError):
            hyp2f1_one_sum(2.0, c1, 0.5)


class TestHyp3F2:
    def test_z_zero_is_one(self):
        assert hyp3f2_sum(2.0, 3.0, 4.0, 5.0, 0.0).value == 1.0

    def test_parameter_cancellation(self):
        # matching upper/lower parameter reduces to the 2F1 evaluator
        a2, a3, c2, z = 2.5, 6.0, 4.0, 0.3
        assert hyp3f2_sum(a2, a3, a3, c2, z).value == pytest.approx(
            hyp2f1_one_sum(a2, c2, z).value, rel=1e-12
        )

    def test_against_direct_summation(self):
        val = hyp3f2_sum(2.0, 1.5, 2.0, 2.5, 0.25).value
        oracle = hyp3f2_direct(2.0, 1.5, 2.0, 2.5, 0.25, 200)
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_stop_ratio_below_one(self):
        res = hyp3f2_sum(7.0, 6.5, 2.0, 2.5, 1.0 / 9.0)
        assert res.last_ratio < 1.0
        assert res.terms_used < special_functions._MAX_TERMS

    def test_non_convergence_signal(self):
        # the series behind p_odd_finite(3) at a=10, b=1e-4
        with pytest.raises(SeriesNonConvergence) as err:
            hyp3f2_sum(10.0, 9.5, 5.0, 5.5, 1.0 / (1.0 + 1e-4) ** 2)
        assert err.value.terms_used == 100_000

    def test_lower_parameter_domain(self):
        with pytest.raises(ValueError):
            hyp3f2_sum(2.0, 3.0, 4.0, -2.0, 0.5)


class TestClassicalIdentities:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_binomial_series(self, a, z):
        # sum_k (a)_k / k! z**k = (1 - z)**-a, 10^4-term partial sum
        term = 1.0
        total = 1.0
        for k in range(1, 10_000):
            term *= (a + k - 1) / k * z
            total += term
        assert total == pytest.approx((1.0 - z) ** -a, rel=1e-10)

    def test_forward_difference_of_constant(self):
        # alternating binomial sum of a constant sequence
        def delta(n):
            return sum((-1) ** i * math.comb(n, i) for i in range(n + 1))

        assert delta(0) == 1
        for n in range(1, 11):
            assert delta(n) == 0


@given(
    a2=st.floats(0.1, 20.0),
    c1=st.floats(0.1, 20.0),
    z=st.floats(0.0, 0.8),
)
@settings(max_examples=200, deadline=None)
def test_series_matches_direct_summation_property(a2, c1, z):
    val = hyp2f1_one_sum(a2, c1, z).value
    oracle = hyp2f1_direct(a2, c1, z, 400)
    assert val == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_thread_safety_smoke():
    # pure functions: concurrent evaluation must agree with serial results
    args = [(2.0 + i * 0.1, 3.0 + i * 0.05, 0.4) for i in range(64)]
    serial = [hyp2f1_one_sum(*a).value for a in args]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: hyp2f1_one_sum(*a).value, args))
    assert serial == parallel


def loop_sum(name, ratio, z):
    """The series kernel as one Python iteration per term: the reference
    the chunked kernel must reproduce bit for bit."""
    term = 1.0
    total = 1.0
    below = 0
    last_ratio = math.inf
    for k in range(1, special_functions._MAX_TERMS + 1):
        step = ratio(k - 1) * z
        term *= step
        total += term
        if math.isnan(total):  # a nan total stays nan: refused at once
            raise SeriesNonConvergence(name, k + 1, total)
        last_ratio = abs(step)
        if abs(term) <= special_functions._REL_TOL * abs(total):
            below += 1
            if below >= 2:
                if not math.isfinite(total):
                    raise SeriesNonConvergence(name, k + 1, total)
                return special_functions.SeriesSum(total, k + 1, last_ratio)
        else:
            below = 0
    raise SeriesNonConvergence(name, special_functions._MAX_TERMS, total)


def loop_hyp2f1(a2, c1, z):
    return loop_sum("hyp2f1_one", lambda k: (a2 + k) / (c1 + k), z)


def loop_hyp3f2(a2, a3, c1, c2, z):
    return loop_sum("hyp3f2", lambda k: (a2 + k) * (a3 + k) / ((c1 + k) * (c2 + k)), z)


def outcome(fn, *args):
    """Everything a caller can see of a call: exact value bits, stopping
    diagnostics, or the exception's type, message and fields, with the
    types of the float fields."""
    try:
        res = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        partial = getattr(exc, "partial_sum", None)
        return (type(exc), str(exc), getattr(exc, "terms_used", None),
                None if partial is None else (type(partial), partial.hex()))
    return (type(res.value), res.value.hex(), res.terms_used,
            type(res.last_ratio), res.last_ratio.hex())


def assert_matches_loop(args2=None, args3=None):
    if args2 is not None:
        assert outcome(hyp2f1_one_sum, *args2) == outcome(loop_hyp2f1, *args2)
    if args3 is not None:
        assert outcome(hyp3f2_sum, *args3) == outcome(loop_hyp3f2, *args3)


def model_arguments(a, b, m):
    """The 2F1 and 3F2 arguments of ``tail(m)`` and ``p_odd_finite(m)``."""
    c = b + 1.0
    return ((m + a + 1, m + 2, 1.0 / c),
            (m + 2 + a / 2, m + 1.5 + a / 2, m + 2, m + 2.5, 1.0 / c**2))


def chunk_edges(first, cap):
    """Term counts at which chunks of ``first`` terms, doubling up to
    ``cap``, end."""
    edges, stop, size = [], 0, first
    while stop < special_functions._MAX_TERMS:
        stop = min(stop + size, special_functions._MAX_TERMS)
        edges.append(stop)
        size = min(2 * size, cap)
    return edges


# Chunk sizes whose edges the edge tests cross: short chunks of 32 terms,
# whose edges fall inside sums of a few dozen terms, and the shipped sizes.
EDGE_SIZES = ((32, 4096), (special_functions._FIRST_CHUNK, special_functions._MAX_CHUNK))
# The edge sizes and odd ones, whose short chunks put sign changes and
# stops of short sums in chunks after the first.
CHUNK_SIZES = (*EDGE_SIZES, (7, 50))


def edge_params(pick):
    """(edge, first, cap) for the edges ``pick`` takes of each size pair."""
    return [pytest.param(edge, first, cap, id=str(edge))
            for first, cap in EDGE_SIZES for edge in pick(chunk_edges(first, cap))]


def set_chunks(monkeypatch, first, cap):
    monkeypatch.setattr(special_functions, "_FIRST_CHUNK", first)
    monkeypatch.setattr(special_functions, "_MAX_CHUNK", cap)


# (2F1 args, 3F2 args): the term cap, the overflow at 50530 terms, a nan at
# once, and the model arguments at the `tables` grid's corners
FIXED_CASES = [
    model_arguments(10.0, 1e-4, 3),
    ((101, 2, 1 / (1 + 1e-4)), None),
    (None, (5e299 + 2, 5e299 + 1.5, 2.0, 2.5, 0.0)),
    *(model_arguments(a, b, m)
      for a in (0.5, 100.0) for b in (1e-4, 4.0) for m in (0, 100)),
]


def geometric_z_stopping_at(terms_used):
    """A z whose geometric series 2F1(1, 1; 1; z) stops at ``terms_used``;
    the stopping index does not decrease as z grows."""
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        got = hyp2f1_one_sum(1.0, 1.0, mid).terms_used
        if got == terms_used:
            return mid
        lo, hi = (mid, hi) if got < terms_used else (lo, mid)
    raise AssertionError(f"no z stops at {terms_used} terms")


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# 2F1 and 3F2 arguments; a negative c1 makes the early terms change sign
FREE_ARGUMENTS = dict(
    a2=log_uniform(1e-2, 1e3), a3=log_uniform(1e-2, 1e3),
    c1=st.one_of(log_uniform(1e-2, 1e3),
                 st.floats(-30.0, -0.01).filter(lambda c: c != math.floor(c))),
    c2=log_uniform(1e-2, 1e3), z=st.floats(0.0, 0.99))


def stepwise(*pieces):
    """A term ratio that is ``value`` from k = ``start`` on, for each
    (start, value) of ``pieces`` (starts increasing from 0)."""
    starts = [start for start, _ in pieces]
    values = np.array([value for _, value in pieces])

    def ratio(k):
        got = values[np.searchsorted(starts, k, side="right") - 1]
        return got if isinstance(k, np.ndarray) else float(got)

    return ratio


def assert_sum_matches_loop(ratio):
    """The kernel's outcome for ``ratio`` at z = 1, checked against the
    loop's and returned."""
    got = outcome(special_functions._sum_series, "t", ratio, 1.0)
    assert got == outcome(loop_sum, "t", ratio, 1.0)
    return got


class TestChunkedKernelMatchesLoop:
    def test_z_zero(self):
        assert_matches_loop((2.0, 3.0, 0.0), (2.0, 3.0, 4.0, 5.0, 0.0))

    def test_term_cap(self):
        # tail(3) and p_odd_finite(3) at a=10, b=1e-4
        assert_matches_loop(*model_arguments(10.0, 1e-4, 3))
        assert outcome(hyp2f1_one_sum, 14.0, 5.0, 1.0 / (1.0 + 1e-4))[1] == (
            "hyp2f1_one did not converge within 100000 terms "
            "(partial sum 7.59281191280169e+36)"
        )

    def test_overflow(self):
        args = (101, 2, 1 / (1 + 1e-4))
        assert_matches_loop(args)
        assert outcome(hyp2f1_one_sum, *args)[1:3] == (
            "hyp2f1_one overflowed after 50530 terms (partial sum inf)", 50530)

    def test_nan_refused_at_once(self):
        # p_odd_finite(0) at a = b = 1e300: (a2 + k) * (a3 + k) overflows
        # and z is 0, so the first step is inf * 0
        args = (5e299 + 2, 5e299 + 1.5, 2.0, 2.5, 0.0)
        assert_matches_loop(args3=args)
        assert outcome(hyp3f2_sum, *args)[1:3] == (
            "hyp3f2 turned nan after 2 terms (partial sum nan)", 2)

    @pytest.mark.parametrize("edge, first, cap", edge_params(lambda e: e[:2]))
    @pytest.mark.parametrize("past", [0, 1])
    def test_nan_at_and_past_a_chunk_edge(self, monkeypatch, edge, first, cap, past):
        # term edge + past (term 0 is 1) is nan: the last term of a chunk,
        # then the first of the next; every other term is 1, so the sum
        # never settles before it
        set_chunks(monkeypatch, first, cap)
        bad = edge + past - 1  # the k of the step that makes it

        def ratio(k):
            if isinstance(k, np.ndarray):
                return np.where(k == bad, math.nan, 1.0)
            return math.nan if k == bad else 1.0

        got = outcome(special_functions._sum_series, "t", ratio, 1.0)
        assert got == outcome(loop_sum, "t", ratio, 1.0)
        assert got[2] == edge + past + 1

    @pytest.mark.parametrize("first, cap", CHUNK_SIZES)
    def test_chunk_sizes_never_show(self, monkeypatch, first, cap):
        # earlier, shipped and odd chunk sizes all give the loop's bits
        set_chunks(monkeypatch, first, cap)
        for args2, args3 in FIXED_CASES:
            assert_matches_loop(args2, args3)

    def test_denominator_underflow(self):
        # (c1 + 0) * (c2 + 0) is 0.0: the loop's first division raises
        assert_matches_loop(args3=(2.0, 3.0, 1e-170, 1e-170, 0.5))

    @pytest.mark.parametrize("edge, first, cap", edge_params(lambda e: e[:3] + e[6:8]))
    @pytest.mark.parametrize("past", [0, 1])
    def test_stop_at_and_past_a_chunk_edge(self, monkeypatch, edge, first, cap, past):
        # terms_used = edge + 1 stops on a chunk's last term; edge + 2 stops
        # on the next chunk's first term, after the carried small term
        set_chunks(monkeypatch, first, cap)
        z = geometric_z_stopping_at(edge + 1 + past)
        assert_matches_loop((1.0, 1.0, z), (2.0, 1.0, 2.0, 1.0, z))
        assert hyp2f1_one_sum(1.0, 1.0, z).terms_used == edge + 1 + past

    @given(a=log_uniform(1e-2, 1e6), b=log_uniform(1e-3, 1e4), m=st.integers(0, 5000))
    @settings(max_examples=100, deadline=None)
    def test_model_arguments(self, a, b, m):
        assert_matches_loop(*model_arguments(a, b, m))

    @given(**FREE_ARGUMENTS)
    @settings(max_examples=150, deadline=None)
    def test_free_arguments(self, a2, a3, c1, c2, z):
        assert_matches_loop((a2, c1, z), (a2, a3, c1, c2, z))

    @given(**FREE_ARGUMENTS)
    @settings(max_examples=150, deadline=None)
    def test_free_arguments_in_short_chunks(self, a2, a3, c1, c2, z):
        # chunks of 7 then 14 and 28 terms: the sign changes of a negative
        # c1 and the stops of short sums fall in chunks after the first
        with pytest.MonkeyPatch.context() as mp:
            set_chunks(mp, 7, 50)
            assert_matches_loop((a2, c1, z), (a2, a3, c1, c2, z))

    @pytest.mark.parametrize("first, cap", CHUNK_SIZES)
    def test_terms_turn_negative_in_a_later_chunk(self, monkeypatch, first, cap):
        # the term of step `flip`, in the second chunk, and all after it
        # are negative; the sum settles thousands of terms later
        set_chunks(monkeypatch, first, cap)
        flip = first + 3
        got = assert_sum_matches_loop(stepwise((0, 0.99), (flip, -0.99), (flip + 1, 0.99)))
        assert got[2] > flip + 2

    @pytest.mark.parametrize("first, cap", CHUNK_SIZES)
    def test_negative_total_crosses_zero_in_a_later_chunk(self, monkeypatch, first, cap):
        # the total is about -1e10 when the second chunk opens with two
        # terms of 1e-5, which stop the sum; a term of 1e10 then takes the
        # chunk's partial sums across zero to about 1, against which no
        # term of the chunk is small
        set_chunks(monkeypatch, first, cap)
        got = assert_sum_matches_loop(stepwise(
            (0, -1e10), (1, -1e-12), (2, 1.0), (first, 1e-3), (first + 1, 1.0),
            (first + 2, 1e15), (first + 3, 1e-15), (first + 4, 1.0)))
        assert got[2] == first + 3

    @pytest.mark.parametrize("first, cap", CHUNK_SIZES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_inside_a_later_chunk(self, monkeypatch, first, cap, bad):
        # every term is 1 up to the step `at`, in the middle of the second
        # chunk: a nan total is refused at that term, an infinite one at
        # the next, when two terms in a row are small against it
        set_chunks(monkeypatch, first, cap)
        at = first + first // 2 + 1
        got = assert_sum_matches_loop(stepwise((0, 1.0), (at, bad), (at + 1, 1.0)))
        assert got[2] == at + (2 if math.isnan(bad) else 3)

    @given(a2=log_uniform(1e-2, 1e3), c1=log_uniform(1e-2, 1e3),
           gap=log_uniform(1e-15, 1e-6))
    @settings(max_examples=8, deadline=None)
    def test_z_near_one(self, a2, c1, gap):
        z = 1.0 - gap
        assert_matches_loop((a2, c1, z), (a2, a2 + 0.5, c1, c1 + 0.5, z))
