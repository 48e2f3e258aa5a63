"""Protocol simulator tests.

The fixed 31-bit regression (six planted errors, five-bit blocks, second
and sixth block parities disagreeing) pins the block pass; bisection is
checked against a hand-simulated halving oracle and exhaustive error
placements; Cascade back-correction against a crafted two-pass scenario;
statistical behaviour against seeded Monte Carlo; one pinned digest per
variant over a seed × length × block-size grid keeps transcripts
byte-identical.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxcascade
from coxcascade.error_model import ErrorPattern, GammaIntensity, TimeUnitLayout, sample_error_pattern
from coxcascade.reconciliation import (
    BBBSS,
    BISECT,
    CASCADE,
    COMPARE_BLOCK,
    COMPARE_SUBSET,
    CORRECT,
    DELETE,
    PARITY_EVENT_KINDS,
    CascadeConfig,
    Event,
    KeyPair,
    ProtocolError,
    Transcript,
    _compare,
    _prefix_sums,
    bits_from_string,
    cascade_back_correction,
    make_key_pair,
    partition,
    random_subset_round,
    reconcile,
    run_pass,
    shared_permutation,
)
from coxcascade.validation import EXAMPLE_ERROR_POSITIONS, EXAMPLE_KEY_BITS


def example_pair() -> KeyPair:
    alice = bits_from_string(EXAMPLE_KEY_BITS)
    bob = alice.copy()
    bob[list(EXAMPLE_ERROR_POSITIONS)] ^= 1
    return KeyPair(alice, bob)


class TestKeyPair:
    def test_empty_pattern_gives_identical_keys(self):
        pair = make_key_pair(8, ErrorPattern(8, ()), seed=1)
        assert pair.residual_errors() == 0
        assert np.array_equal(pair.alice, pair.bob)

    def test_single_error_position(self):
        pair = make_key_pair(8, ErrorPattern(8, (3,)), seed=2)
        assert list(np.nonzero(pair.alice != pair.bob)[0]) == [3]

    def test_worked_example_has_six_differences(self):
        pattern = ErrorPattern(31, EXAMPLE_ERROR_POSITIONS)
        pair = make_key_pair(31, pattern, seed=3)
        assert list(np.nonzero(pair.alice != pair.bob)[0]) == list(EXAMPLE_ERROR_POSITIONS)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_key_pair(10, ErrorPattern(8, (1,)), seed=0)
        with pytest.raises(ValueError):
            KeyPair([0, 1], [0, 1, 1])

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError):
            KeyPair([0, 2], [0, 1])

    def test_determinism(self):
        pattern = ErrorPattern(64, (5, 9))
        p1 = make_key_pair(64, pattern, seed=7)
        p2 = make_key_pair(64, pattern, seed=7)
        assert np.array_equal(p1.alice, p2.alice)


class TestSharedPermutation:
    def test_roundtrip(self):
        perm = shared_permutation(100, 3, seed=42)
        x = np.arange(100)
        shuffled = x[perm]
        inv = np.empty_like(perm)
        inv[perm] = np.arange(100)
        assert np.array_equal(shuffled[inv], x)

    def test_determinism(self):
        a = shared_permutation(10, 0, seed=5)
        b = shared_permutation(10, 0, seed=5)
        assert np.array_equal(a, b)
        c = shared_permutation(10, 1, seed=5)
        assert not np.array_equal(a, c)

    def test_is_bijection(self):
        perm = shared_permutation(257, 2, seed=9)
        assert sorted(perm) == list(range(257))

    def test_uniformity(self):
        # 10^4 seeded draws over S_4: every permutation within 3 sigma of 1/24
        draws = 10_000
        counts: dict[tuple, int] = {}
        for seed in range(draws):
            key = tuple(shared_permutation(4, 0, seed))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        p = 1.0 / 24.0
        sigma = math.sqrt(draws * p * (1 - p))
        for key, count in counts.items():
            assert abs(count - draws * p) < 3.0 * sigma, (key, count)


class TestPartition:
    def test_worked_example_shape(self):
        spans = partition(31, 5)
        assert len(spans) == 7
        assert spans[-1] == (30, 31)
        assert all(hi - lo == 5 for lo, hi in spans[:-1])

    def test_single_block(self):
        assert partition(10, 10) == [(0, 10)]

    def test_remainder_sizes(self):
        assert [hi - lo for lo, hi in partition(10, 3)] == [3, 3, 3, 1]

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_domain(self, k):
        with pytest.raises(ValueError):
            partition(10, k)


def hand_bisect(alice, bob, lo, hi):
    """Independent halving oracle mirroring the protocol's published rule:
    compare the left (larger) half, descend into the mismatching side."""
    comparisons = 0
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        comparisons += 1
        if int(alice[lo:mid].sum()) % 2 != int(bob[lo:mid].sum()) % 2:
            hi = mid
        else:
            lo = mid
    return lo, comparisons


def locate(alice, bob, order, lo, hi, transcript, round_index=0, base=0):
    """Run ``_compare`` on order[lo:hi], its parities read from prefix sums
    gathered over order[base:] from copies of the keys; the range must hold
    an odd number of differences.  Check that it flipped Bob's bit at the
    returned position, and nothing else, and recorded that flip last."""
    pair = KeyPair(alice.copy(), bob.copy())
    ca = _prefix_sums(pair.alice, order[base:])
    cb = _prefix_sums(pair.bob, order[base:])
    event = Event(COMPARE_BLOCK, round_index, lo, hi,
                  int(ca[hi - base] - ca[lo - base]) & 1,
                  int(cb[hi - base] - cb[lo - base]) & 1)
    found = _compare(pair, transcript, event, lambda: (order, ca, cb, base))
    assert found >= 0
    assert np.flatnonzero(pair.bob != bob).tolist() == [found]
    assert np.array_equal(pair.alice, alice)
    assert transcript.events[-1] == Event(CORRECT, round_index, index=found)
    return found


class TestBisectError:
    def test_single_position_span(self):
        alice = bits_from_string("00000")
        bob = bits_from_string("00100")
        t = Transcript()
        found = locate(alice, bob, np.arange(5), 2, 3, t)
        assert found == 2
        assert t.parities_revealed == 1  # the comparison; no halvings needed

    def test_size_five_block_all_offsets(self):
        for offset in range(5):
            alice = np.zeros(5, dtype=np.uint8)
            bob = alice.copy()
            bob[offset] ^= 1
            t = Transcript()
            found = locate(alice, bob, np.arange(5), 0, 5, t)
            oracle_idx, oracle_comparisons = hand_bisect(alice, bob, 0, 5)
            assert found == offset == oracle_idx
            bisect_events = [e for e in t.events if e.kind == BISECT]
            assert len(bisect_events) == oracle_comparisons
            assert len(bisect_events) <= 3  # ceil(log2 5)

    def test_three_errors_exhaustive(self):
        # any odd placement: the returned index is always a true difference
        for placement in itertools.combinations(range(5), 3):
            alice = np.zeros(5, dtype=np.uint8)
            bob = alice.copy()
            bob[list(placement)] ^= 1
            found = locate(alice, bob, np.arange(5), 0, 5, Transcript())
            assert found in placement

    def test_even_count_precondition(self):
        # stale sums claim one difference where the keys now agree (an even
        # count): the search lands on an agreeing bit and corrects nothing
        pair = KeyPair(np.zeros(6, dtype=np.uint8), bits_from_string("000100"))
        order = np.arange(6)
        ca = _prefix_sums(pair.alice, order)
        cb = _prefix_sums(pair.bob, order)
        pair.bob[3] ^= 1
        t = Transcript()
        with pytest.raises(ProtocolError):
            _compare(pair, t, Event(COMPARE_BLOCK, 0, 0, 6, parity_a=0, parity_b=1),
                     lambda: (order, ca, cb, 0))
        assert t.corrections_made == 0
        assert pair.residual_errors() == 0
        assert t.events[0] == Event(COMPARE_BLOCK, 0, 0, 6, parity_a=0, parity_b=1)

    def test_agreeing_parities_return_minus_one(self):
        # two differences in range: the comparison agrees, nothing moves and
        # the sums for a bisection are never asked for
        alice = np.zeros(6, dtype=np.uint8)
        bob = bits_from_string("010010")
        pair = KeyPair(alice, bob.copy())
        t = Transcript()

        def no_sums():
            raise AssertionError("sums built for an agreeing comparison")

        found = _compare(pair, t, Event(COMPARE_BLOCK, 2, 0, 6, parity_a=0, parity_b=0),
                         no_sums)
        assert found == -1
        assert np.array_equal(pair.bob, bob)
        assert t.events == [Event(COMPARE_BLOCK, 2, 0, 6, parity_a=0, parity_b=0)]


def reference_bisect(alice, bob, order, lo, hi, transcript, round_index):
    """Per-halving reference: each halving sums its own left half afresh."""
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        pa = int(alice[order[lo:mid]].sum()) % 2
        pb = int(bob[order[lo:mid]].sum()) % 2
        transcript.add(Event(BISECT, round_index, lo=lo, hi=mid, parity_a=pa, parity_b=pb))
        if pa != pb:
            hi = mid
        else:
            lo = mid
    return int(order[lo])


@st.composite
def bisect_cases(draw):
    """Random keys, order, [lo, hi) with an odd number of differences in
    order[lo:hi], and the start ``base <= lo`` of the prefix sums; positions
    outside the range may differ too."""
    n = draw(st.integers(1, 80))
    alice = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.uint8)
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    m = draw(st.integers(1, n))  # orders may cover only part of the key
    order = order[:m]
    lo = draw(st.integers(0, m - 1))
    hi = draw(st.integers(lo + 1, m))
    inside = draw(st.sets(st.integers(lo, hi - 1), min_size=1))
    if len(inside) % 2 == 0:
        inside.discard(min(inside))
    outside = draw(st.sets(st.integers(0, n - 1)))
    outside -= set(order[lo:hi].tolist())
    bob = alice.copy()
    bob[order[sorted(inside)]] ^= 1
    bob[sorted(outside)] ^= 1
    base = draw(st.integers(0, lo))
    return alice, bob, order, lo, hi, base


class TestPrefixBisect:
    @settings(max_examples=300, deadline=None)
    @given(bisect_cases(), st.integers(0, 5))
    def test_matches_per_halving_reference(self, case, round_index):
        alice, bob, order, lo, hi, base = case
        t_new, t_ref = Transcript(), Transcript()
        found = locate(alice, bob, order, lo, hi, t_new, round_index, base)
        expected = reference_bisect(alice, bob, order, lo, hi, t_ref, round_index)
        assert found == expected
        assert alice[found] != bob[found]
        pa = int(alice[order[lo:hi]].sum()) % 2
        pb = int(bob[order[lo:hi]].sum()) % 2
        assert pa != pb
        assert t_new.events[0] == Event(COMPARE_BLOCK, round_index, lo, hi, pa, pb)
        assert t_new.events[1:-1] == t_ref.events


class TestRunPass:
    def config(self, k, variant=BBBSS, seed=0, passes=4):
        return CascadeConfig(initial_block_size=k, num_passes=passes,
                             variant=variant, seed=seed)

    def test_error_free_pass(self):
        pair = make_key_pair(64, ErrorPattern(64, ()), seed=4)
        t = Transcript()
        assert run_pass(pair, 0, self.config(8), t, []) is None
        assert t.corrections_made == 0
        assert all(e.parity_a == e.parity_b for e in t.events
                   if e.kind == COMPARE_BLOCK)

    def test_worked_example_pass(self):
        # 30-bit prefix, identity order, five-bit blocks: mismatches exactly
        # at the second and sixth block, two corrections, blocks 4/5 untouched
        pair = example_pair()
        pair.alice = pair.alice[:30]
        pair.bob = pair.bob[:30]
        t = Transcript()
        run_pass(pair, 0, self.config(5, variant=CASCADE), t, [])
        assert t.corrections_made == 2
        compares = [e for e in t.events if e.kind == COMPARE_BLOCK]
        mismatched = [i + 1 for i, e in enumerate(compares)
                      if e.parity_a != e.parity_b]
        assert mismatched == [2, 6]
        assert [(e.parity_a, e.parity_b) for e in compares[:6]] == [
            (0, 0), (0, 1), (1, 1), (0, 0), (0, 0), (0, 1)]
        corrected = sorted(e.index for e in t.events if e.kind == CORRECT)
        assert corrected == [6, 29]
        assert pair.residual_errors() == 4  # the two even blocks stay hidden

    def test_blocks_agree_after_pass(self):
        g = GammaIntensity(10, 2)
        for seed in range(5):
            pattern = sample_error_pattern(512, TimeUnitLayout(128), g, seed)
            pair = make_key_pair(512, pattern, seed + 100)
            history = []
            run_pass(pair, 1, self.config(16, variant=CASCADE, seed=seed), Transcript(), history)
            rec = history[-1]
            for lo, hi in partition(len(pair), rec.block_size):
                sel = rec.permutation[lo:hi]
                assert int(pair.alice[sel].sum()) % 2 == int(pair.bob[sel].sum()) % 2

    def test_bbbss_deletes_one_bit_per_block(self):
        pair = make_key_pair(64, ErrorPattern(64, (10,)), seed=4)
        t = Transcript()
        run_pass(pair, 0, self.config(8, variant=BBBSS), t, [])
        assert len(pair) == 64 - 8
        assert t.bits_deleted == 8

    def test_cascade_deletes_nothing(self):
        pair = make_key_pair(64, ErrorPattern(64, (10,)), seed=4)
        t = Transcript()
        run_pass(pair, 0, self.config(8, variant=CASCADE), t, [])
        assert len(pair) == 64
        assert t.bits_deleted == 0


class TestCascadeBackCorrection:
    def test_single_error_never_triggers(self):
        pair = make_key_pair(32, ErrorPattern(32, (7,)), seed=1)
        config = CascadeConfig(initial_block_size=4, num_passes=3,
                               variant=CASCADE, seed=11)
        t = Transcript()
        out = reconcile(pair, config, t)
        assert out.success
        # exactly one correction in total, so no back-correction re-checks:
        # after it the transcript never revisits an earlier pass
        assert t.corrections_made == 1

    def test_crafted_two_pass_scenario(self):
        # Two errors inside one pass-0 block (even, hidden).  Pick a seed
        # whose pass-1 shuffle separates them; correcting the first then
        # exposes the pass-0 block, which is re-bisected mid-pass.
        n, k = 16, 4
        seed = next(
            s for s in range(1000)
            if abs(int(np.where(shared_permutation(n, 1, s) == 0)[0][0]) // (2 * k)
                   - int(np.where(shared_permutation(n, 1, s) == 1)[0][0]) // (2 * k)) == 1
        )
        alice = np.zeros(n, dtype=np.uint8)
        bob = alice.copy()
        bob[[0, 1]] ^= 1
        pair = KeyPair(alice, bob)
        config = CascadeConfig(initial_block_size=k, num_passes=2,
                               variant=CASCADE, seed=seed)
        t = Transcript()
        history = []
        run_pass(pair, 0, config, t, history)
        assert t.corrections_made == 0  # both errors hidden
        run_pass(pair, 1, config, t, history)
        assert t.corrections_made == 2
        assert pair.residual_errors() == 0
        # the re-check of the pass-0 block happens after pass 1 started
        kinds = [(e.kind, e.round_index) for e in t.events]
        first_pass1 = kinds.index((COMPARE_BLOCK, 1))
        assert (COMPARE_BLOCK, 0) in kinds[first_pass1:]

    def test_corrections_always_flip_true_differences(self):
        # omniscient replay: every corrected index differed at flip time
        g = GammaIntensity(10, 2)
        for seed in range(20):
            pattern = sample_error_pattern(256, TimeUnitLayout(64), g, seed)
            pair = make_key_pair(256, pattern, seed + 50)
            alice0 = pair.alice.copy()
            bob0 = pair.bob.copy()
            config = CascadeConfig(initial_block_size=8, variant=CASCADE,
                                   seed=seed + 1000)
            t = Transcript()
            out = reconcile(pair, config, t)
            replay = bob0.copy()
            for e in t.events:
                if e.kind == CORRECT:
                    assert alice0[e.index] != replay[e.index]
                    replay[e.index] ^= 1
            assert np.array_equal(replay, pair.bob)
            assert np.array_equal(alice0, pair.alice)  # Alice never modified
            assert out.deleted_bits == 0

    def test_direct_call_with_empty_history(self):
        pair = make_key_pair(16, ErrorPattern(16, (2,)), seed=0)
        pair.bob[2] ^= 1  # clear the difference so nothing can be flipped
        assert cascade_back_correction(pair, [], 2, Transcript()) == 0


class TestRandomSubsetRound:
    def config(self, variant=CASCADE, seed=0):
        return CascadeConfig(initial_block_size=4, variant=variant, seed=seed)

    def test_zero_errors_always_agree(self):
        pair = make_key_pair(32, ErrorPattern(32, ()), seed=6)
        config = self.config()
        for r in range(50):
            assert random_subset_round(pair, config, r, Transcript(), []) is False

    def test_single_error_mismatch_probability(self):
        # the lone error joins the subset with probability 1/2 exactly
        pair = make_key_pair(12, ErrorPattern(12, (5,)), seed=8)
        config = self.config(seed=21)
        rounds = 10_000
        hits = 0
        for r in range(rounds):
            corrected = random_subset_round(pair, config, r, Transcript(), [])
            if corrected:
                hits += 1
                pair.bob[5] ^= 1  # restore the error for the next round
        p_hat = hits / rounds
        assert abs(p_hat - 0.5) < 3.0 * math.sqrt(0.25 / rounds)

    def test_bbbss_deletes_exactly_one_bit(self):
        pair = make_key_pair(12, ErrorPattern(12, (5,)), seed=8)
        t = Transcript()
        random_subset_round(pair, self.config(variant=BBBSS, seed=4), 0, t, [])
        assert len(pair) == 11
        assert t.bits_deleted == 1

    def test_correction_fixes_a_true_difference(self):
        pair = make_key_pair(16, ErrorPattern(16, (3,)), seed=2)
        config = self.config(seed=13)
        for r in range(64):
            if random_subset_round(pair, config, r, Transcript(), []):
                break
        assert pair.residual_errors() == 0

    def test_minimum_length(self):
        pair = make_key_pair(1, ErrorPattern(1, ()), seed=0)
        with pytest.raises(ValueError):
            random_subset_round(pair, self.config(), 0, Transcript(), [])

    @pytest.mark.parametrize("variant", [BBBSS, CASCADE])
    @pytest.mark.parametrize("n", [13, 24, 61])
    def test_event_keeps_packed_mask(self, n, variant):
        # the subset is n/8 packed bytes; the parities and the BBBSS
        # deletion agree with the positions it renders
        pair = make_key_pair(n, ErrorPattern(n, (0, n // 2, n - 1)), seed=n)
        alice, bob = pair.alice.copy(), pair.bob.copy()
        t = Transcript()
        random_subset_round(pair, self.config(variant=variant, seed=9), 3, t, [])
        event = t.events[0]
        assert event.kind == COMPARE_SUBSET
        assert type(event.subset) is bytes
        assert len(event.subset) == math.ceil(n / 8)
        subset = [int(i) for i in event.to_line().split("bits=")[1].split()[0].split(",")]
        assert (event.lo, event.hi) == (0, len(subset))
        assert event.parity_a == int(alice[subset].sum()) % 2
        assert event.parity_b == int(bob[subset].sum()) % 2
        if variant == BBBSS:
            assert t.events[-1] == Event(DELETE, 3, index=max(subset))

    def test_determinism_per_round(self):
        config = self.config(seed=33)
        t1, t2 = Transcript(), Transcript()
        pair1 = make_key_pair(24, ErrorPattern(24, (7,)), seed=1)
        pair2 = make_key_pair(24, ErrorPattern(24, (7,)), seed=1)
        random_subset_round(pair1, config, 5, t1, [])
        random_subset_round(pair2, config, 5, t2, [])
        assert t1.to_lines() == t2.to_lines()


class TestReconcile:
    def test_error_free_run(self):
        pair = make_key_pair(128, ErrorPattern(128, ()), seed=3)
        t = Transcript()
        out = reconcile(pair, CascadeConfig(initial_block_size=16, seed=5), t)
        assert out.success
        assert out.subset_rounds == 20
        assert t.corrections_made == 0
        assert out.residual_error_count == 0

    def test_custom_termination_threshold(self):
        pair = make_key_pair(128, ErrorPattern(128, ()), seed=3)
        config = CascadeConfig(initial_block_size=16, termination_successes=7, seed=5)
        out = reconcile(pair, config)
        assert out.subset_rounds == 7

    def test_auto_block_size_must_be_resolved(self):
        pair = make_key_pair(64, ErrorPattern(64, ()), seed=0)
        with pytest.raises(ValueError):
            reconcile(pair, CascadeConfig())

    def test_resolve(self):
        config = CascadeConfig().resolve(TimeUnitLayout(1000), GammaIntensity(10, 2))
        assert config.initial_block_size == 200

    def test_determinism(self):
        def run():
            pattern = sample_error_pattern(512, TimeUnitLayout(128),
                                           GammaIntensity(10, 2), seed=44)
            pair = make_key_pair(512, pattern, seed=45)
            t = Transcript()
            out = reconcile(pair, CascadeConfig(initial_block_size=25, seed=46), t)
            return out, t.to_lines()

        out1, lines1 = run()
        out2, lines2 = run()
        assert out1 == out2
        assert lines1 == lines2

    def test_bbbss_length_accounting(self):
        pattern = sample_error_pattern(512, TimeUnitLayout(128),
                                       GammaIntensity(10, 2), seed=9)
        pair = make_key_pair(512, pattern, seed=10)
        t = Transcript()
        out = reconcile(pair, CascadeConfig(initial_block_size=25, seed=11), t)
        comparisons = sum(1 for e in t.events
                          if e.kind in (COMPARE_BLOCK, COMPARE_SUBSET))
        assert out.final_length == 512 - comparisons
        assert out.deleted_bits == comparisons
        assert out.final_length == len(pair)

    def test_passes_stop_once_the_key_is_empty(self):
        # one-bit blocks: the first BBBSS pass deletes every bit
        pair = make_key_pair(3, ErrorPattern(3, (1,)), seed=2)
        t = Transcript()
        config = CascadeConfig(initial_block_size=1, num_passes=6, seed=3)
        out = reconcile(pair, config, t)
        assert out.passes_executed == 1
        assert out.final_length == 0
        assert out.subset_rounds == 0
        assert [e.kind for e in t.events].count(DELETE) == 3

    def test_leakage_identity(self):
        pattern = sample_error_pattern(256, TimeUnitLayout(64),
                                       GammaIntensity(10, 2), seed=20)
        pair = make_key_pair(256, pattern, seed=21)
        t = Transcript()
        out = reconcile(pair, CascadeConfig(initial_block_size=13, seed=22), t)
        parity_events = sum(1 for e in t.events if e.kind in PARITY_EVENT_KINDS)
        assert out.leaked_parities == parity_events == t.parities_revealed

    def test_leakage_monotone(self):
        # the running counter never decreases and ends at the ledger total
        pattern = sample_error_pattern(128, TimeUnitLayout(64),
                                       GammaIntensity(10, 2), seed=1)
        pair = make_key_pair(128, pattern, seed=2)
        t = Transcript()
        reconcile(pair, CascadeConfig(initial_block_size=8, seed=3), t)
        running = 0
        for e in t.events:
            if e.kind in PARITY_EVENT_KINDS:
                running += 1
        assert running == t.parities_revealed

    def test_deletions_follow_comparisons(self):
        pattern = sample_error_pattern(128, TimeUnitLayout(64),
                                       GammaIntensity(10, 2), seed=5)
        pair = make_key_pair(128, pattern, seed=6)
        t = Transcript()
        reconcile(pair, CascadeConfig(initial_block_size=8, seed=7), t)
        seen_comparison = False
        for e in t.events:
            if e.kind in (COMPARE_BLOCK, COMPARE_SUBSET):
                seen_comparison = True
            if e.kind == DELETE:
                assert seen_comparison

    def test_cascade_has_no_deletions(self):
        pattern = sample_error_pattern(128, TimeUnitLayout(64),
                                       GammaIntensity(10, 2), seed=5)
        pair = make_key_pair(128, pattern, seed=6)
        t = Transcript()
        out = reconcile(pair, CascadeConfig(initial_block_size=8,
                                            variant=CASCADE, seed=7), t)
        assert out.deleted_bits == 0
        assert out.final_length == 128
        assert not any(e.kind == DELETE for e in t.events)


# A BBBSS run at n = 131072 needs ~870 subset rounds.  It runs in a fresh
# interpreter, whose own high-water mark (VmHWM) is its peak resident memory:
# the transcript must keep each round's subset in n/8 bytes, not n/2 ints.
LONG_KEY_RUN = """
from coxcascade.error_model import GammaIntensity, TimeUnitLayout, sample_error_pattern
from coxcascade.reconciliation import BBBSS, CascadeConfig, Transcript, make_key_pair, reconcile
g, layout, n = GammaIntensity(10.0, 2.0), TimeUnitLayout(250), 131072
pair = make_key_pair(n, sample_error_pattern(n, layout, g, 1), 2)
t = Transcript()
out = reconcile(pair, CascadeConfig(variant=BBBSS, seed=3).resolve(layout, g), t)
assert out.subset_rounds > 500 and len(t.events) > out.subset_rounds
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


class TestLongKeyMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs VmHWM from /proc/self/status")
    def test_bbbss_peak_rss_at_n_131072(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(coxcascade.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", LONG_KEY_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout) / 1024
        assert peak_mb < 256


# SHA-256 per variant over every transcript line and outcome repr of the
# grid below, computed with one fresh gather per block and per halving: how
# parities are computed must not change a byte of the public channel.
# Block size 3 makes Cascade back-corrections flip bits in later blocks of
# the pass in progress.
GOLDEN_DIGESTS = {
    BBBSS: "e08812a6712b9bfba30275a59ad880754ab704b5df8769a2916edde55565cd73",
    CASCADE: "6ff31f6754e051af5f2ca28ab5a9c77b18716d121f7b70f889e6e2c8b6148d51",
}


class TestGoldenTranscripts:
    def test_grid_digest(self):
        g = GammaIntensity(10.0, 2.0)
        layout = TimeUnitLayout(250)
        hashes = {variant: hashlib.sha256() for variant in GOLDEN_DIGESTS}
        for seed in range(4):
            for n in (64, 1000, 4096):
                pattern = sample_error_pattern(n, layout, g, seed)
                for variant, h in hashes.items():
                    for k in ("auto", 3, 17):
                        pair = make_key_pair(n, pattern, seed + 1)
                        config = CascadeConfig(
                            initial_block_size=k, variant=variant, seed=seed + 2
                        ).resolve(layout, g)
                        t = Transcript()
                        out = reconcile(pair, config, t)
                        for line in t.to_lines():
                            h.update(line.encode() + b"\n")
                        h.update(repr(out).encode() + b"\n")
        assert {v: h.hexdigest() for v, h in hashes.items()} == GOLDEN_DIGESTS


class TestTranscriptSerialization:
    def test_event_line_forms(self):
        # one event of each kind, rendered as in the README's transcript block
        events = [
            Event(COMPARE_BLOCK, 0, lo=5, hi=10, parity_a=0, parity_b=1),
            Event(BISECT, 0, lo=5, hi=8, parity_a=1, parity_b=0),
            Event(COMPARE_SUBSET, 3, parity_a=0, parity_b=0,
                  subset=np.packbits(np.isin(np.arange(9), [1, 4, 7])).tobytes()),
            Event(CORRECT, 0, index=6),
            Event(DELETE, 0, index=9),
        ]
        t = Transcript()
        for e in events:
            t.add(e)
        assert t.to_lines() == [
            "compare-block round=0 range=5:10 a=0 b=1",
            "bisect round=0 range=5:8 a=1 b=0",
            "compare-subset round=3 bits=1,4,7 a=0 b=0",
            "correct round=0 index=6",
            "delete round=0 index=9",
        ]
        assert (t.parities_revealed, t.corrections_made, t.bits_deleted) == (3, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.booleans(), min_size=1, max_size=70),
        st.integers(1, 70).flatmap(lambda n: st.sampled_from([
            [True] * n,                                  # all ones
            [False] * (n - 1) + [True],                  # only the last bit
            [i == n // 2 for i in range(n)],             # one bit inside
        ])),
    ))
    def test_packed_subset_renders_its_positions(self, bits):
        mask = np.array(bits, dtype=np.uint8)
        line = Event(COMPARE_SUBSET, 0, parity_a=1, parity_b=0,
                     subset=np.packbits(mask).tobytes()).to_line()
        positions = ",".join(str(i) for i in np.flatnonzero(mask))
        assert line == f"compare-subset round=0 bits={positions} a=1 b=0"


class TestConfigValidation:
    def test_defaults(self):
        config = CascadeConfig(initial_block_size=10)
        assert config.num_passes == 4
        assert config.block_growth == 2
        assert config.termination_successes == 20
        assert config.variant == BBBSS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_block_size": 0},
            {"initial_block_size": "anything"},
            {"initial_block_size": 4, "num_passes": 0},
            {"initial_block_size": 4, "block_growth": 1},
            {"initial_block_size": 4, "termination_successes": 0},
            {"initial_block_size": 4, "variant": "other"},
            {"initial_block_size": 4, "seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CascadeConfig(**kwargs)
