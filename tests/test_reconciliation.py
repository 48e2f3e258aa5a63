"""Protocol simulator tests.

The fixed 31-bit regression (six planted errors, five-bit blocks, second
and sixth block parities disagreeing) pins the block pass; bisection is
checked against a hand-simulated halving oracle and exhaustive error
placements, and a batch of ranges against the same ranges one at a time;
Cascade back-correction against a crafted two-pass scenario and its
parity ledger against fresh gathers after every pass; statistical
behaviour against seeded Monte Carlo; subset rounds against an oracle
that reads PCG64's raw words bit by bit, and their packed halving against
the block bisection over the subset's positions.  One pinned digest per
variant over a seed × length × block-size grid keeps transcripts
byte-identical, a second one over the lines before the first subset
comparison pins the block passes on their own, a third pins every line up
to each run's first mismatching subset comparison, and a fourth pins
Cascade's pass 0.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
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
    PackedKeys,
    ProtocolError,
    Transcript,
    _bisect,
    _bisect_subset,
    _disclose,
    _prefix_parities,
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


def locate(alice, bob, order, lo, hi, transcript, round_index=0):
    """Run ``_disclose`` on a batch of one, order[lo:hi], its parities read
    from prefix parities gathered over the order from copies of the keys; the
    range must hold an odd number of differences.  Check that it flipped
    Bob's bit at the returned position, and nothing else, and recorded that
    flip last."""
    pair = KeyPair(alice.copy(), bob.copy())
    ca = _prefix_parities(pair.alice, order)
    cb = _prefix_parities(pair.bob, order)
    flipped = _disclose(transcript, round_index, [lo], [hi],
                        [int(ca[hi] ^ ca[lo])], [int(cb[hi] ^ cb[lo])], pair, order, ca, cb)
    assert len(flipped) == 1
    found = flipped[0]
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
        # stale prefixes claim one difference where the keys now agree (an
        # even count): the search lands on an agreeing bit and corrects nothing
        pair = KeyPair(np.zeros(6, dtype=np.uint8), bits_from_string("000100"))
        order = np.arange(6)
        ca = _prefix_parities(pair.alice, order)
        cb = _prefix_parities(pair.bob, order)
        pair.bob[3] ^= 1
        t = Transcript()
        with pytest.raises(ProtocolError):
            _disclose(t, 0, [0], [6], [0], [1], pair, order, ca, cb)
        assert t.corrections_made == 0
        assert pair.residual_errors() == 0
        assert t.events[0] == Event(COMPARE_BLOCK, 0, 0, 6, parity_a=0, parity_b=1)

    def test_agreeing_parities_flip_nothing(self):
        # two differences in range: the comparison agrees and nothing moves
        alice = np.zeros(6, dtype=np.uint8)
        bob = bits_from_string("010010")
        pair = KeyPair(alice, bob.copy())
        order = np.arange(6)
        t = Transcript()
        flipped = _disclose(t, 2, [0], [6], [0], [0], pair, order,
                            _prefix_parities(pair.alice, order), _prefix_parities(pair.bob, order))
        assert flipped == []
        assert np.array_equal(pair.bob, bob)
        assert t.events == [Event(COMPARE_BLOCK, 2, 0, 6, parity_a=0, parity_b=0)]


def reference_bisect(alice, bob, order, lo, hi, events, round_index):
    """Per-halving reference: each halving sums its own left half afresh."""
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        pa = int(alice[order[lo:mid]].sum()) % 2
        pb = int(bob[order[lo:mid]].sum()) % 2
        events.append(Event(BISECT, round_index, lo=lo, hi=mid, parity_a=pa, parity_b=pb))
        if pa != pb:
            hi = mid
        else:
            lo = mid
    return int(order[lo])


@st.composite
def bisect_cases(draw):
    """Random keys, order, [lo, hi) with an odd number of differences in
    order[lo:hi], and a start ``base <= lo`` for prefix parities over
    order[base:hi], as back-correction gathers them; positions outside the
    range may differ too."""
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
        t_new, ref_events = Transcript(), []
        found = locate(alice, bob, order, lo, hi, t_new, round_index)
        expected = reference_bisect(alice, bob, order, lo, hi, ref_events, round_index)
        assert found == expected
        assert alice[found] != bob[found]
        pa = int(alice[order[lo:hi]].sum()) % 2
        pb = int(bob[order[lo:hi]].sum()) % 2
        assert pa != pb
        assert t_new.events[0] == Event(COMPARE_BLOCK, round_index, lo, hi, pa, pb)
        assert t_new.events[1:-1] == ref_events
        # back-correction's form: prefixes over order[base:hi] alone, no comparison
        pair, t_base = KeyPair(alice.copy(), bob.copy()), Transcript()
        assert _bisect(pair, t_base, round_index, lo, hi, order,
                       _prefix_parities(pair.alice, order[base:hi]),
                       _prefix_parities(pair.bob, order[base:hi]), base) == found
        assert t_base.events == t_new.events[1:]
        assert t_base.parities_revealed == len(ref_events)
        assert np.flatnonzero(pair.bob != bob).tolist() == [found]


def bit_arrays(n: int):
    """Uniform n-bit uint8 arrays, drawn as packed bytes."""
    return st.binary(min_size=-(-n // 8), max_size=-(-n // 8)).map(
        lambda b: np.unpackbits(np.frombuffer(b, dtype=np.uint8), count=n))


class TestPrefixParities:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 300).flatmap(lambda n: st.tuples(
        bit_arrays(n), st.integers(0, 2**32 - 1), st.integers(0, n))))
    def test_equals_the_running_count_mod_2(self, case):
        # orders may repeat no position and cover only part of the bits
        bits, seed, m = case
        order = np.random.default_rng(seed).permutation(len(bits))[:m]
        c = _prefix_parities(bits, order)
        assert c.dtype == np.uint8 and c[0] == 0
        assert np.array_equal(c[1:], np.cumsum(bits[order], dtype=np.int64) & 1)


@st.composite
def batch_cases(draw):
    """Random keys and order, and a block size partitioning the order."""
    n = draw(st.integers(1, 80))
    alice = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.uint8)
    bob = alice.copy()
    bob[sorted(draw(st.sets(st.integers(0, n - 1))))] ^= 1
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return alice, bob, order, draw(st.integers(1, n))


class TestDiscloseBatch:
    @settings(max_examples=200, deadline=None)
    @given(batch_cases(), st.integers(0, 5))
    def test_batch_matches_ranges_one_at_a_time(self, case, round_index):
        # every block in one batch, then each block in a batch of its own
        alice, bob, order, k = case
        lo, hi = zip(*partition(len(order), k))
        runs = []
        for batches in ([range(len(lo))], [[j] for j in range(len(lo))]):
            pair = KeyPair(alice.copy(), bob.copy())
            ca = _prefix_parities(pair.alice, order)
            cb = _prefix_parities(pair.bob, order)
            pa = [int(ca[h] ^ ca[l]) for l, h in zip(lo, hi)]
            pb = [int(cb[h] ^ cb[l]) for l, h in zip(lo, hi)]
            t = Transcript()
            flipped = []
            for batch in batches:
                flipped += _disclose(t, round_index,
                                     [lo[j] for j in batch], [hi[j] for j in batch],
                                     [pa[j] for j in batch], [pb[j] for j in batch],
                                     pair, order, ca, cb)
            assert len(flipped) == sum(a != b for a, b in zip(pa, pb))
            for l, h in zip(lo, hi):
                sel = order[l:h]
                assert int(pair.alice[sel].sum()) % 2 == int(pair.bob[sel].sum()) % 2
            runs.append((t.events, flipped, pair.bob.tolist(),
                         (t.parities_revealed, t.corrections_made, t.bits_deleted)))
        assert runs[0] == runs[1]

    def test_agreeing_bit_inside_a_batch_raises(self):
        # three four-bit blocks: the first holds one difference; the second's
        # prefixes are stale and claim one where the keys now agree, so its
        # search lands on an agreeing bit; the third is never compared
        alice = np.zeros(12, dtype=np.uint8)
        pair = KeyPair(alice, bits_from_string("010000100000"))
        order = np.arange(12)
        ca = _prefix_parities(pair.alice, order)
        cb = _prefix_parities(pair.bob, order)
        pair.bob[6] ^= 1
        t = Transcript()
        with pytest.raises(ProtocolError):
            _disclose(t, 1, [0, 4, 8], [4, 8, 12], [0, 0, 0], [1, 1, 0],
                      pair, order, ca, cb)
        assert t.to_lines() == [
            "compare-block round=1 range=0:4 a=0 b=1",
            "bisect round=1 range=0:2 a=0 b=1",
            "bisect round=1 range=0:1 a=0 b=0",
            "correct round=1 index=1",
            "compare-block round=1 range=4:8 a=0 b=1",
            "bisect round=1 range=4:6 a=0 b=0",
            "bisect round=1 range=6:7 a=0 b=1",
        ]
        assert (t.parities_revealed, t.corrections_made, t.bits_deleted) == (6, 1, 0)
        assert pair.residual_errors() == 0


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
        # after every pass of a Cascade run, every block of every recorded
        # pass agrees, and each record's parities are those of fresh gathers
        g = GammaIntensity(10, 2)
        back_corrections = 0
        for seed in range(5):
            pattern = sample_error_pattern(512, TimeUnitLayout(128), g, seed)
            pair = make_key_pair(512, pattern, seed + 100)
            config = self.config(8, variant=CASCADE, seed=seed)
            t, history = Transcript(), []
            for p in range(config.num_passes):
                run_pass(pair, p, config, t, history)
                assert [rec.pass_index for rec in history] == list(range(p + 1))
                for rec in history:
                    spans = partition(len(pair), rec.block_size)
                    fresh = [[int(bits[rec.permutation[lo:hi]].sum()) & 1 for lo, hi in spans]
                             for bits in (pair.alice, pair.bob)]
                    assert rec.parity_a == fresh[0]
                    assert rec.parity_b == fresh[1] == fresh[0]
            current = 0  # the pass whose comparisons an event follows
            for e in t.events:
                if e.kind == COMPARE_BLOCK:
                    current = e.round_index
                back_corrections += e.kind == CORRECT and e.round_index < current
        assert back_corrections > 0

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
        # Two pairs of errors, {0, 1} and {4, 5}, each inside one pass-0
        # block (even, hidden).  Pick a seed whose three pass-1 blocks hold
        # one error of each pair alone and the other two together: pass 1
        # corrects the lone two and leaves the pair hidden, which opens both
        # pass-0 blocks.  Back-correction bisects them after pass 1's
        # comparisons, from the ledger, with no second comparison.
        n, k = 24, 4

        def pass1_blocks(s):
            inverse = np.argsort(shared_permutation(n, 1, s))
            return [int(inverse[p]) // (2 * k) for p in (0, 1, 4, 5)]

        seed = next(s for s in range(1000)
                    if (b := pass1_blocks(s))[0] != b[1] and b[2] != b[3] and len(set(b)) == 3)
        alice = np.zeros(n, dtype=np.uint8)
        bob = alice.copy()
        bob[[0, 1, 4, 5]] ^= 1
        pair = KeyPair(alice, bob)
        config = CascadeConfig(initial_block_size=k, num_passes=2,
                               variant=CASCADE, seed=seed)
        t = Transcript()
        history = []
        run_pass(pair, 0, config, t, history)
        assert t.corrections_made == 0  # all four errors hidden
        run_pass(pair, 1, config, t, history)
        assert t.corrections_made == 4
        assert pair.residual_errors() == 0
        kinds = [(e.kind, e.round_index) for e in t.events]
        assert kinds.count((COMPARE_BLOCK, 0)) == n // k  # each block compared once
        assert kinds.count((COMPARE_BLOCK, 1)) == n // (2 * k)
        # two four-bit pass-0 blocks, each two halvings and a correction
        first_back = kinds.index((BISECT, 0))
        assert first_back > kinds.index((COMPARE_BLOCK, 1))
        assert kinds[first_back:] == [(BISECT, 0), (BISECT, 0), (CORRECT, 0)] * 2

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
        assert cascade_back_correction(pair, [], [2], Transcript()) == 0


def subset_stream(seed: int) -> np.random.Generator:
    """The subset stream a run with this seed draws from."""
    return np.random.default_rng(np.random.SeedSequence([seed, 2]))


class TestRandomSubsetRound:
    def config(self, variant=CASCADE, seed=0):
        return CascadeConfig(initial_block_size=4, variant=variant, seed=seed)

    def test_zero_errors_always_agree(self):
        keys = PackedKeys(make_key_pair(32, ErrorPattern(32, ()), seed=6))
        config = self.config()
        rng = subset_stream(0)
        for r in range(50):
            assert random_subset_round(keys, config, r, Transcript(), [], rng) is False

    def test_single_error_mismatch_probability(self):
        # the lone error joins the subset with probability 1/2 exactly
        keys = PackedKeys(make_key_pair(12, ErrorPattern(12, (5,)), seed=8))
        config = self.config(seed=21)
        rng = subset_stream(21)
        rounds = 10_000
        hits = 0
        for r in range(rounds):
            corrected = random_subset_round(keys, config, r, Transcript(), [], rng)
            if corrected:
                hits += 1
                keys.bob ^= 1 << 5  # restore the error for the next round
        p_hat = hits / rounds
        assert abs(p_hat - 0.5) < 3.0 * math.sqrt(0.25 / rounds)

    def test_bbbss_deletes_exactly_one_bit(self):
        keys = PackedKeys(make_key_pair(12, ErrorPattern(12, (5,)), seed=8))
        t = Transcript()
        random_subset_round(keys, self.config(variant=BBBSS, seed=4), 0, t, [],
                            subset_stream(4))
        assert keys.n == 11
        assert t.bits_deleted == 1

    def test_correction_fixes_a_true_difference(self):
        keys = PackedKeys(make_key_pair(16, ErrorPattern(16, (3,)), seed=2))
        config = self.config(seed=13)
        rng = subset_stream(13)
        for r in range(64):
            if random_subset_round(keys, config, r, Transcript(), [], rng):
                break
        assert KeyPair(*keys.unpack()).residual_errors() == 0

    def test_minimum_length(self):
        keys = PackedKeys(make_key_pair(1, ErrorPattern(1, ()), seed=0))
        with pytest.raises(ValueError):
            random_subset_round(keys, self.config(), 0, Transcript(), [], subset_stream(0))

    @pytest.mark.parametrize("variant", [BBBSS, CASCADE])
    @pytest.mark.parametrize("n", [13, 24, 61])
    def test_event_keeps_packed_mask(self, n, variant):
        # the subset is n/8 packed bytes; the parities and the BBBSS
        # deletion agree with the positions it renders
        pair = make_key_pair(n, ErrorPattern(n, (0, n // 2, n - 1)), seed=n)
        alice, bob = pair.alice.copy(), pair.bob.copy()
        t = Transcript()
        random_subset_round(PackedKeys(pair), self.config(variant=variant, seed=9), 3, t, [],
                            subset_stream(9))
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

    def test_same_stream_seed_same_lines(self):
        config = self.config(seed=33)
        lines = []
        for _ in range(2):
            keys = PackedKeys(make_key_pair(24, ErrorPattern(24, (7, 11)), seed=1))
            rng = subset_stream(33)
            t = Transcript()
            for r in range(30):
                random_subset_round(keys, config, r, t, [], rng)
            lines.append(t.to_lines())
        assert lines[0] == lines[1]
        assert any(line.startswith("correct ") for line in lines[0])


def oracle_subset_rounds(alice, bob, variant, seed, rounds):
    """Expected transcript lines of ``rounds`` subset rounds, and the redraws.

    Written without the simulator's helpers: the masks are read bit by bit
    from PCG64's raw words with integer shifts (word i covers positions
    64i..64i+63, its bytes least significant first, each byte's bits most
    significant first), and a mismatch is bisected by hand over the
    subset's positions in ascending key order; nothing else is drawn.
    """
    bit_gen = np.random.PCG64(np.random.SeedSequence([seed, 2]))
    alice, bob = list(alice), list(bob)
    lines, redraws = [], 0
    for r in range(rounds):
        n = len(alice)
        while True:
            words = [int(w) for w in bit_gen.random_raw(-(-n // 64))]
            subset = [p for p in range(n)
                      if words[p // 64] >> (8 * (p % 64 // 8) + 7 - p % 8) & 1]
            if subset:
                break
            redraws += 1
        pa = sum(alice[p] for p in subset) % 2
        pb = sum(bob[p] for p in subset) % 2
        lines.append(f"compare-subset round={r} bits={','.join(map(str, subset))} "
                     f"a={pa} b={pb}")
        if pa != pb:
            order = subset
            lo, hi = 0, len(order)
            while hi - lo > 1:
                mid = lo + (hi - lo + 1) // 2
                qa = sum(alice[p] for p in order[lo:mid]) % 2
                qb = sum(bob[p] for p in order[lo:mid]) % 2
                lines.append(f"bisect round={r} range={lo}:{mid} a={qa} b={qb}")
                lo, hi = (lo, mid) if qa != qb else (mid, hi)
            bob[order[lo]] ^= 1
            lines.append(f"correct round={r} index={order[lo]}")
        if variant == BBBSS:
            lines.append(f"delete round={r} index={subset[-1]}")
            del alice[subset[-1]], bob[subset[-1]]
    return lines, redraws


class TestSubsetStream:
    """The subset rounds of a run draw from one PCG64 stream seeded (seed, 2)."""

    @pytest.mark.parametrize("n, errors, variant, rounds", [
        (130, (), BBBSS, 80),                # shrinks across 128, 64 and odd n
        (203, (0, 9, 77, 150, 202), BBBSS, 60),
        (100, (1, 2, 40, 63, 64, 99), CASCADE, 60),
        (2, (), CASCADE, 40),                # a quarter of its masks are empty
        (3, (1,), CASCADE, 40),
    ])
    def test_rounds_match_the_raw_stream_oracle(self, n, errors, variant, rounds):
        pair = make_key_pair(n, ErrorPattern(n, errors), seed=n)
        expected, redraws = oracle_subset_rounds(pair.alice, pair.bob, variant, 57, rounds)
        config = CascadeConfig(initial_block_size=4, variant=variant, seed=57)
        keys = PackedKeys(pair)
        rng = subset_stream(57)
        t = Transcript()
        for r in range(rounds):
            random_subset_round(keys, config, r, t, [], rng)
        assert t.to_lines() == expected
        if n <= 3:
            assert redraws > 0
        if errors:
            assert any(line.startswith("bisect ") for line in expected)

    def test_reconcile_draws_from_the_oracle_stream(self):
        # an error-free run: 20 agreeing rounds, each the next raw words
        pair = make_key_pair(150, ErrorPattern(150, ()), seed=4)
        expected, _ = oracle_subset_rounds(pair.alice, pair.bob, CASCADE, 8, 20)
        t = Transcript()
        reconcile(pair, CascadeConfig(initial_block_size=10, variant=CASCADE, seed=8), t)
        assert [line for line in t.to_lines() if "subset" in line] == expected

    def test_mean_subset_size_is_half_the_key(self):
        n, rounds = 61, 4000
        keys = PackedKeys(make_key_pair(n, ErrorPattern(n, ()), seed=3))
        config = CascadeConfig(initial_block_size=4, variant=CASCADE, seed=12)
        rng = subset_stream(12)
        t = Transcript()
        for r in range(rounds):
            random_subset_round(keys, config, r, t, [], rng)
        sizes = np.array([e.hi for e in t.events], dtype=np.float64)
        assert len(sizes) == rounds
        # each position joins with probability 1/2: variance n/4 per round
        assert abs(sizes.mean() - n / 2) < 3.0 * math.sqrt(n / 4 / rounds)


def replay_subset_round(alice, bob, variant, gen):
    """One subset round replayed on numpy arrays, from ``gen``'s raw words.

    Written without the simulator's packing: the mask is ``unpackbits`` of
    the raw words' little-endian bytes cut to n bits, the parities are
    ``count_nonzero`` over the unpacked keys, and a mismatch is bisected in
    ascending key order by summing each left half afresh.  Returns the
    accepted draw's raw bytes (uint8), the mask, both parities, the keys
    after the round and the number of empty masks redrawn.
    """
    n = len(alice)
    redraws = 0
    while True:
        raw = gen.bit_generator.random_raw(-(-n // 64)).astype("<u8").view(np.uint8)
        mask = np.unpackbits(raw)[:n]
        if np.count_nonzero(mask):
            break
        redraws += 1
    pa = int(np.count_nonzero(alice & mask)) % 2
    pb = int(np.count_nonzero(bob & mask)) % 2
    alice, bob = alice.copy(), bob.copy()
    positions = np.flatnonzero(mask)
    if pa != pb:
        order = positions
        lo, hi = 0, len(order)
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            if int(alice[order[lo:mid]].sum()) % 2 != int(bob[order[lo:mid]].sum()) % 2:
                hi = mid
            else:
                lo = mid
        bob[order[lo]] ^= 1
    if variant == BBBSS:
        alice, bob = np.delete(alice, positions.max()), np.delete(bob, positions.max())
    return raw, mask, pa, pb, alice, bob, redraws


def check_packed_round(alice, bob, variant, seed):
    """Run one packed subset round from ``default_rng(seed)`` and check it
    against :func:`replay_subset_round` on a twin generator; returns the
    replay's redraw count."""
    n = len(alice)
    raw, mask, pa, pb, alice_after, bob_after, redraws = replay_subset_round(
        alice, bob, variant, np.random.default_rng(seed))
    keys = PackedKeys(KeyPair(alice.copy(), bob.copy()))
    t = Transcript()
    corrected = random_subset_round(keys, CascadeConfig(initial_block_size=4, variant=variant),
                                    5, t, [], np.random.default_rng(seed))
    events = t.events
    assert events[0] == Event(COMPARE_SUBSET, 5, 0, int(np.count_nonzero(mask)), pa, pb,
                              subset=np.packbits(np.unpackbits(raw)[:n]).tobytes())
    assert corrected == (pa != pb)
    if variant == BBBSS:
        # the subset's highest position
        assert events[-1] == Event(DELETE, 5, index=int(np.flatnonzero(mask)[-1]))
    assert not any(e.kind == DELETE for e in events[:-1])
    # position i of a packed key is bit i
    assert keys.n == len(alice_after)
    assert keys.alice == sum(1 << int(i) for i in np.flatnonzero(alice_after))
    assert keys.bob == sum(1 << int(i) for i in np.flatnonzero(bob_after))
    a, b = keys.unpack()
    assert np.array_equal(a, alice_after) and np.array_equal(b, bob_after)
    return redraws


@st.composite
def packed_round_cases(draw):
    """Keys of n in 2..300 bits, word and byte boundaries drawn often, with
    any set of differences."""
    n = draw(st.one_of(st.integers(2, 300),
                       st.sampled_from([2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129, 257, 300])))
    alice = draw(bit_arrays(n))
    bob = alice.copy()
    bob[sorted(draw(st.sets(st.integers(0, n - 1), max_size=8)))] ^= 1
    return alice, bob


class TestPackedSubsetRound:
    """A round on packed keys against a numpy replay of the same stream."""

    @settings(max_examples=300, deadline=None)
    @given(packed_round_cases(), st.sampled_from([BBBSS, CASCADE]), st.integers(0, 2**32 - 1))
    def test_matches_the_numpy_replay(self, case, variant, seed):
        alice, bob = case
        check_packed_round(alice, bob, variant, seed)

    @pytest.mark.parametrize("variant", [BBBSS, CASCADE])
    def test_empty_mask_is_redrawn_at_n_2(self, variant):
        # default_rng(9)'s first two raw words each start with two zero bits
        assert check_packed_round(bits_from_string("01"), bits_from_string("11"),
                                  variant, 9) == 2


@st.composite
def subset_bisect_cases(draw):
    """Keys of n in 1..300 bits, a subset's ascending positions holding an
    odd number of differences, and any differences outside the subset."""
    n = draw(st.integers(1, 300))
    alice = draw(bit_arrays(n))
    subset = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    inside = draw(st.sets(st.sampled_from(subset), min_size=1))
    if len(inside) % 2 == 0:
        inside.discard(min(inside))
    outside = draw(st.sets(st.integers(0, n - 1))) - set(subset)
    bob = alice.copy()
    bob[sorted(inside | outside)] ^= 1
    return alice, bob, np.array(subset, dtype=np.int64)


class TestSubsetBisect:
    """The packed halving of a subset round against the block bisection."""

    @settings(max_examples=300, deadline=None)
    @given(subset_bisect_cases(), st.integers(0, 5))
    def test_matches_bisect_over_the_positions(self, case, round_index):
        # one halving rule: _bisect over the subset's positions, read from
        # XOR prefix parities, writes the same rows and flips the same bit
        alice, bob, positions = case
        mask = sum(1 << int(p) for p in positions)
        keys = PackedKeys(KeyPair(alice, bob))
        t_packed = Transcript()
        found = _bisect_subset(keys, t_packed, round_index, positions,
                               keys.alice & mask, keys.bob & mask)
        pair, t_block = KeyPair(alice.copy(), bob.copy()), Transcript()
        assert _bisect(pair, t_block, round_index, 0, len(positions), positions,
                       _prefix_parities(pair.alice, positions),
                       _prefix_parities(pair.bob, positions)) == found
        assert alice[found] != bob[found]
        assert t_packed.events == t_block.events
        assert (t_packed.parities_revealed, t_packed.corrections_made) == (
            t_block.parities_revealed, t_block.corrections_made)
        a, b = keys.unpack()
        assert np.array_equal(a, alice) and np.array_equal(b, pair.bob)

    def test_even_differences_raise(self):
        # the subset {0, 2, 3, 5} holds two differences, at 0 and 2: the
        # first half agrees and the search lands on the agreeing bit 5
        keys = PackedKeys(KeyPair(np.zeros(6, dtype=np.uint8), bits_from_string("101000")))
        mask = 0b101101
        t = Transcript()
        with pytest.raises(ProtocolError):
            _bisect_subset(keys, t, 4, np.array([0, 2, 3, 5]), keys.alice & mask,
                           keys.bob & mask)
        assert t.to_lines() == ["bisect round=4 range=0:2 a=0 b=0",
                                "bisect round=4 range=2:3 a=0 b=0"]
        assert (t.parities_revealed, t.corrections_made) == (2, 0)
        assert keys.bob == 0b101


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

    @pytest.mark.parametrize("variant", [BBBSS, CASCADE])
    def test_counters_equal_the_ledger_kind_counts(self, variant):
        g, layout = GammaIntensity(10, 2), TimeUnitLayout(64)
        corrections = 0
        for seed in range(20):
            pattern = sample_error_pattern(512, layout, g, seed)
            pair = make_key_pair(512, pattern, seed + 1)
            t = Transcript()
            out = reconcile(pair, CascadeConfig(initial_block_size=8, variant=variant,
                                                seed=seed + 2), t)
            kinds = Counter(e.kind for e in t.events)
            assert sum(kinds[k] for k in PARITY_EVENT_KINDS) == t.parities_revealed
            assert out.leaked_parities == t.parities_revealed
            assert kinds[DELETE] == t.bits_deleted == out.deleted_bits
            assert kinds[CORRECT] == t.corrections_made
            corrections += t.corrections_made
        assert corrections > 0

    def test_cascade_sweep_runs(self):
        # 100 runs shaped like the n=4096 sweep (sub-seeds s, s + 1, s + 2):
        # every one reconciles, deletes nothing, and leaks one parity per
        # parity event
        g, layout, n = GammaIntensity(10.0, 2.0), TimeUnitLayout(250), 4096
        config = CascadeConfig(variant=CASCADE).resolve(layout, g)
        for r in range(100):
            s = 1001 + 3 * r
            pair = make_key_pair(n, sample_error_pattern(n, layout, g, s), s + 1)
            t = Transcript()
            out = reconcile(pair, replace(config, seed=s + 2), t)
            events = t.events
            assert out.success and out.residual_error_count == 0, r
            assert out.deleted_bits == 0 and out.final_length == n
            assert out.leaked_parities == sum(e.kind in PARITY_EVENT_KINDS for e in events)

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


# A BBBSS run at n = 131072 needs ~900 subset rounds.  It runs in a fresh
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
# grid below, with subset bisections in ascending key order.  The Cascade
# digest is that of back-correction from the per-pass parity ledger, which
# compares no block twice.  Block size 3 makes Cascade back-corrections
# flip bits in blocks of the pass just run.
GOLDEN_DIGESTS = {
    BBBSS: "71c476e491d54d2e8aa97e932f05ae1642de52d3df98c3ebe70a05af9eb01050",
    CASCADE: "6a9623110ea0f403d226a6671c1f276cd0ab06057ef723746e737631faefea9b",
}

# SHA-256 per variant over the lines of the same grid that come before each
# run's first compare-subset: the block passes, their bisections and
# back-corrections.  The BBBSS digest predates the per-run subset stream and
# holds across it.
PASS_PHASE_DIGESTS = {
    BBBSS: "2f4e08bc0dc0f34cfa4d041284babbb82ae3b3a50298edd3c65b3867b6ce355e",
    CASCADE: "71c6113ddb27894133c280d962e77639d477fadcbe24ffdf94abc530dd794ed8",
}

# SHA-256 per variant over the lines of the same grid up to and including
# each run's first mismatching compare-subset (all lines of a run with
# none), computed while subset bisections still ran in a permuted order:
# the order a subset is halved in may move only the lines after it.
SUBSET_PREFIX_DIGESTS = {
    BBBSS: "af12e5ebe790d77624e4456cb2cc927b7269579be8661cb5ece3a3c6e3c03015",
    CASCADE: "aa844b83bf91771ae0be04adcb4884a07081596add4fca83379982005ad1213c",
}

# SHA-256 over the Cascade lines of the same grid that come before each
# run's first pass-1 comparison: pass 0, which has no earlier pass to
# back-correct, so no change to back-correction may move this digest.
CASCADE_PASS_ZERO_DIGEST = "606840005b321958ee79b50554f9a8e16b2320b9644cd14ac568535662d04349"

# SHA-256 over the lines and outcome repr of one Cascade run at n = 4099,
# seed 17, its sub-seeds derived as the CLI derives them; computed before
# the subset phase ran on packed keys.
CASCADE_ODD_LENGTH_DIGEST = "4ea9ad1dd606945366a9e130b52a0e42f9a70afaac321b6ceae7f082ac1577c0"


@pytest.fixture(scope="module")
def golden_grid():
    """(variant, transcript lines, outcome) for every run of the grid."""
    g = GammaIntensity(10.0, 2.0)
    layout = TimeUnitLayout(250)
    runs = []
    for seed in range(4):
        for n in (64, 1000, 4096):
            pattern = sample_error_pattern(n, layout, g, seed)
            for variant in (BBBSS, CASCADE):
                for k in ("auto", 3, 17):
                    pair = make_key_pair(n, pattern, seed + 1)
                    config = CascadeConfig(
                        initial_block_size=k, variant=variant, seed=seed + 2
                    ).resolve(layout, g)
                    t = Transcript()
                    out = reconcile(pair, config, t)
                    runs.append((variant, t.to_lines(), out))
    return runs


class TestGoldenTranscripts:
    def test_grid_digest(self, golden_grid):
        hashes = {variant: hashlib.sha256() for variant in GOLDEN_DIGESTS}
        for variant, lines, out in golden_grid:
            for line in lines:
                hashes[variant].update(line.encode() + b"\n")
            hashes[variant].update(repr(out).encode() + b"\n")
        assert {v: h.hexdigest() for v, h in hashes.items()} == GOLDEN_DIGESTS

    def test_pass_phase_digest(self, golden_grid):
        hashes = {variant: hashlib.sha256() for variant in PASS_PHASE_DIGESTS}
        for variant, lines, _ in golden_grid:
            for line in itertools.takewhile(
                    lambda line: not line.startswith(COMPARE_SUBSET + " "), lines):
                hashes[variant].update(line.encode() + b"\n")
        assert {v: h.hexdigest() for v, h in hashes.items()} == PASS_PHASE_DIGESTS

    def test_subset_prefix_digest(self, golden_grid):
        hashes = {variant: hashlib.sha256() for variant in SUBSET_PREFIX_DIGESTS}
        for variant, lines, _ in golden_grid:
            for line in lines:
                hashes[variant].update(line.encode() + b"\n")
                if line.startswith(COMPARE_SUBSET + " ") and line.endswith(("a=0 b=1", "a=1 b=0")):
                    break
        assert {v: h.hexdigest() for v, h in hashes.items()} == SUBSET_PREFIX_DIGESTS

    def test_cascade_pass_zero_digest(self, golden_grid):
        h = hashlib.sha256()
        for variant, lines, _ in golden_grid:
            if variant == CASCADE:
                for line in itertools.takewhile(
                        lambda line: not line.startswith(COMPARE_BLOCK + " round=1 "), lines):
                    h.update(line.encode() + b"\n")
        assert h.hexdigest() == CASCADE_PASS_ZERO_DIGEST

    def test_cascade_odd_length_digest(self):
        # Cascade never changes length, and the grid's lengths are multiples
        # of 8: this run's subset masks end in a partial byte
        g, layout, n, seed = GammaIntensity(10.0, 2.0), TimeUnitLayout(250), 4099, 17
        pair = make_key_pair(n, sample_error_pattern(n, layout, g, seed), seed + 1)
        t = Transcript()
        out = reconcile(pair, CascadeConfig(variant=CASCADE, seed=seed + 2).resolve(layout, g), t)
        h = hashlib.sha256()
        for line in t.to_lines():
            h.update(line.encode() + b"\n")
        h.update(repr(out).encode() + b"\n")
        assert h.hexdigest() == CASCADE_ODD_LENGTH_DIGEST

    def test_no_block_compared_twice(self, golden_grid):
        # every block parity goes public once: no (round, range) repeats
        for variant, lines, _ in golden_grid:
            blocks = Counter(tuple(line.split()[1:3]) for line in lines
                             if line.startswith(COMPARE_BLOCK + " "))
            assert blocks and max(blocks.values()) == 1, variant


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
        assert [e.to_line() for e in events] == [
            "compare-block round=0 range=5:10 a=0 b=1",
            "bisect round=0 range=5:8 a=1 b=0",
            "compare-subset round=3 bits=1,4,7 a=0 b=0",
            "correct round=0 index=6",
            "delete round=0 index=9",
        ]

    def test_events_are_built_afresh_on_each_read(self):
        pair = make_key_pair(40, ErrorPattern(40, (3, 17)), seed=5)
        t = Transcript()
        reconcile(pair, CascadeConfig(initial_block_size=5, seed=6), t)
        lines = t.to_lines()
        events = t.events
        assert events == t.events and events is not t.events
        events.clear()
        assert t.to_lines() == lines and len(t.events) == len(lines)
        assert any(line.startswith("compare-subset ") for line in lines)

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
            {"initial_block_size": 4, "termination_successes": 2.5},
            {"initial_block_size": 2.5},
            {"initial_block_size": 4, "num_passes": 2.5},
            {"initial_block_size": 4, "block_growth": 2.5},
            {"initial_block_size": 4, "seed": 1.5},
            {"initial_block_size": np.float64(4.0)},
        ],
    )
    def test_invalid(self, kwargs):
        # the error names the field at fault
        with pytest.raises(ValueError, match=next(k for k in reversed(kwargs))):
            CascadeConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = CascadeConfig(initial_block_size=np.int64(4), num_passes=np.int32(2),
                               block_growth=np.uint8(3), termination_successes=np.int16(5),
                               seed=np.int64(7))
        pair = make_key_pair(64, ErrorPattern(64, (3, 40)), seed=1)
        assert reconcile(pair, config).subset_rounds >= 5
        assert CascadeConfig(initial_block_size="auto").initial_block_size == "auto"
