"""Protocol simulator tests.

The protocol's rules are checked by one executable spec.
:func:`spec_reconcile` runs a whole reconciliation as the README's output
contracts state it, on plain lists of bits: block passes and their
shuffles, the halving rule, BBBSS deletions, Cascade's parity records
and first-in-first-out back-correction, the subset stream's masks and the
termination rule.  ``TestProtocolSpec`` runs it against ``reconcile`` on
random runs and asserts the same transcript lines, outcome and keys.

The other tests pin what a run's lines cannot show:

- the omniscient checks: a halving fed stale packed bytes lands on an
  agreeing bit and raises ``ProtocolError`` (``TestBisectError``,
  ``TestSubsetBisect``, ``TestDiscloseBatch``), and a halving always
  lands on a true difference (``TestBisectError``);
- each Cascade pass record's parities and packed keys, against fresh
  gathers after every pass and after the subset phase (``check_records``
  in ``TestRunPass`` and ``TestCascadeBackCorrection``), and the fixed
  31-bit worked example's pass (``TestRunPass``);
- the step functions' own contracts: a pass's block shapes, BBBSS
  deletions replayed, an empty history, an event's packed subset mask (``TestPartition``, ``TestRunPass``,
  ``TestCascadeBackCorrection``, ``TestRandomSubsetRound``,
  ``TestTranscriptSerialization``);
- statistics: the shuffle's uniformity, a subset's mean size and the
  chance that a lone error joins a subset;
- refusals of bad keys, configs and a used transcript; the ledger's
  counters against its rows (``TestReconcile``); the peak memory of a
  BBBSS run at n = 131072 (``TestLongKeyMemory``);
- byte identity (``TestGoldenTranscripts``): ``GOLDEN_DIGESTS`` over
  every line and outcome of a seed × length × block-size grid, and four
  partial digests, each added to show what one contract change kept:
  ``PASS_PHASE_DIGESTS`` (the lines before each run's first subset
  comparison), ``SUBSET_PREFIX_DIGESTS`` (up to and including its first
  mismatching one), ``CASCADE_PASS_ZERO_DIGEST`` (Cascade's pass 0) and
  ``CASCADE_ODD_LENGTH_DIGEST`` (a Cascade run whose masks end in a
  partial byte).
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
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ReconcileOutcome,
    Transcript,
    _bisect,
    _cascade_back_correction,
    _correct,
    _disclose,
    _PackedKeys,
    _PassRecord,
    _random_subset_round,
    _run_pass,
    _shared_permutation,
    bits_from_string,
    make_key_pair,
    reconcile,
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
        assert np.count_nonzero(pair.alice != pair.bob) == 0
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
        with pytest.raises(ValueError, match="key length n must be an integer"):
            make_key_pair(4.0, ErrorPattern(4, ()), seed=1)
        with pytest.raises(ValueError):
            KeyPair([0, 1], [0, 1, 1])

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError):
            KeyPair([0, 2], [0, 1])

    @pytest.mark.parametrize("key", [[0.7, 1.2], [0.0, 1.0], np.array(["0", "1"])])
    def test_non_integer_keys_refused(self, key):
        # not rounded or cast to bits: [0.7, 1.2] once became [0, 1]
        with pytest.raises(ValueError, match="integers or bools"):
            KeyPair(key, [0, 1])
        with pytest.raises(ValueError, match="integers or bools"):
            KeyPair([0, 1], key)

    @pytest.mark.parametrize("key", [[False, True], np.array([0, 1], dtype=np.int8),
                                     np.array([0, 1], dtype=np.uint64)])
    def test_integer_and_bool_keys_accepted(self, key):
        pair = KeyPair(key, [1, 1])
        assert pair.alice.dtype == np.uint8 and pair.alice.tolist() == [0, 1]
        assert np.count_nonzero(pair.alice != pair.bob) == 1

    def test_determinism(self):
        pattern = ErrorPattern(64, (5, 9))
        p1 = make_key_pair(64, pattern, seed=7)
        p2 = make_key_pair(64, pattern, seed=7)
        assert np.array_equal(p1.alice, p2.alice)


class TestSharedPermutation:
    def test_roundtrip(self):
        perm = _shared_permutation(100, 3, seed=42)
        x = np.arange(100)
        shuffled = x[perm]
        inv = np.empty_like(perm)
        inv[perm] = np.arange(100)
        assert np.array_equal(shuffled[inv], x)

    def test_determinism(self):
        a = _shared_permutation(10, 0, seed=5)
        b = _shared_permutation(10, 0, seed=5)
        assert np.array_equal(a, b)
        c = _shared_permutation(10, 1, seed=5)
        assert not np.array_equal(a, c)

    def test_is_bijection(self):
        perm = _shared_permutation(257, 2, seed=9)
        assert sorted(perm) == list(range(257))

    def test_uniformity(self):
        # 10^4 seeded draws over S_4: every permutation within 3 sigma of 1/24
        draws = 10_000
        counts: dict[tuple, int] = {}
        for seed in range(draws):
            key = tuple(_shared_permutation(4, 0, seed))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        p = 1.0 / 24.0
        sigma = math.sqrt(draws * p * (1 - p))
        for key, count in counts.items():
            assert abs(count - draws * p) < 3.0 * sigma, (key, count)


class TestPartition:
    """The blocks a pass compares: consecutive ranges of its order, each of
    the block size but the last, which may be short."""

    @staticmethod
    def spans(n, k):
        keys = _PackedKeys(make_key_pair(n, ErrorPattern(n, ()), seed=n))
        t = Transcript()
        _run_pass(keys, 0, CascadeConfig(initial_block_size=k, variant=CASCADE), t, [])
        return [(e.lo, e.hi) for e in t.events]

    def test_worked_example_shape(self):
        spans = self.spans(31, 5)
        assert len(spans) == 7
        assert spans[-1] == (30, 31)
        assert all(hi - lo == 5 for lo, hi in spans[:-1])

    def test_single_block(self):
        assert self.spans(10, 10) == [(0, 10)]
        assert self.spans(10, 11) == [(0, 10)]  # capped at the key length

    def test_remainder_sizes(self):
        assert [hi - lo for lo, hi in self.spans(10, 3)] == [3, 3, 3, 1]


def packed(bits) -> bytes:
    """Bits packed eight to a byte, bit i at bit i % 8 of byte i // 8."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def parity(bits) -> int:
    return int(np.sum(bits)) % 2


def residual(keys: _PackedKeys) -> int:
    return (keys.alice ^ keys.bob).bit_count()


def locate(alice, bob, order, lo, hi, transcript, round_index=0):
    """Run ``_disclose`` on a record of one block, order[lo:hi], with its
    parities and packed bits gathered over that order from copies of the
    keys; the block must hold an odd number of differences.  Check that it
    flipped Bob's bit at the returned position, and nothing else, and
    recorded that flip last."""
    keys = _PackedKeys(KeyPair(alice.copy(), bob.copy()))
    ga, gb = alice[order[lo:hi]], bob[order[lo:hi]]
    flipped = _disclose(keys, transcript, _PassRecord(
        round_index, order[lo:hi], hi - lo, [parity(ga)], [parity(gb)], packed(ga),
        bytearray(packed(gb))))
    assert len(flipped) == 1
    found = flipped[0]
    a, b = keys.unpack()
    assert np.flatnonzero(b != bob).tolist() == [found]
    assert np.array_equal(a, alice)
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
        # five five-bit blocks, one error at each offset: each is found where
        # it is, in the rule's 3, 3, 2, 2 and 2 halvings (at most ceil(log2 5))
        lines = check_against_spec(Run(25, (0, 6, 12, 18, 24), CASCADE, 5, passes=1,
                                       key_seed=25))
        assert [line for line in lines if line.startswith("correct ")] == [
            f"correct round=0 index={i}" for i in (0, 6, 12, 18, 24)]
        kinds = " ".join(line.split()[0] for line in lines)
        blocks = kinds.split("compare-subset")[0].split("compare-block")[1:]
        assert [block.split().count("bisect") for block in blocks] == [3, 3, 2, 2, 2]

    def test_three_errors_exhaustive(self):
        # any odd placement: the returned index is always a true difference
        for placement in itertools.combinations(range(5), 3):
            alice = np.zeros(5, dtype=np.uint8)
            bob = alice.copy()
            bob[list(placement)] ^= 1
            found = locate(alice, bob, np.arange(5), 0, 5, Transcript())
            assert found in placement

    def test_even_count_precondition(self):
        # stale packed bits claim one difference where the keys now agree (an
        # even count): the search lands on an agreeing bit and corrects nothing
        pair = KeyPair(np.zeros(6, dtype=np.uint8), bits_from_string("000100"))
        stale_a, stale_b = packed(pair.alice), packed(pair.bob)
        keys = _PackedKeys(pair)
        keys.bob ^= 1 << 3
        t = Transcript()
        with pytest.raises(ProtocolError):
            _disclose(keys, t, _PassRecord(0, np.arange(6), 6, [0], [1], stale_a,
                                           bytearray(stale_b)))
        assert t.corrections_made == 0
        assert residual(keys) == 0
        assert t.events[0] == Event(COMPARE_BLOCK, 0, 0, 6, parity_a=0, parity_b=1)

    def test_agreeing_parities_flip_nothing(self):
        # two differences in range: the comparison agrees and nothing moves
        alice = np.zeros(6, dtype=np.uint8)
        bob = bits_from_string("010010")
        keys = _PackedKeys(KeyPair(alice, bob))
        before = keys.bob
        t = Transcript()
        flipped = _disclose(keys, t, _PassRecord(2, np.arange(6), 6, [0], [0], packed(alice),
                                                 bytearray(packed(bob))))
        assert flipped == []
        assert keys.bob == before
        assert t.events == [Event(COMPARE_BLOCK, 2, 0, 6, parity_a=0, parity_b=0)]


class TestSubsetBisect:
    """The same halving step on a random subset, in key order."""

    def test_even_differences_raise(self):
        # the subset {0, 2, 3, 5} holds two differences, at 0 and 2: the
        # first half agrees and the search lands on the agreeing bit 5,
        # which the correction refuses
        keys = _PackedKeys(KeyPair(np.zeros(6, dtype=np.uint8), bits_from_string("101000")))
        mask = 0b101101
        t = Transcript()
        found = _bisect(t, 4, [0, 2, 3, 5], 0, 4, keys.alice & mask, keys.bob & mask)
        assert found == 5
        with pytest.raises(ProtocolError):
            _correct(keys, t, 4, found)
        assert t.to_lines() == ["bisect round=4 range=0:2 a=0 b=0",
                                "bisect round=4 range=2:3 a=0 b=0"]
        assert (t.parities_revealed, t.corrections_made) == (2, 0)
        assert keys.bob == 0b101


class TestDiscloseBatch:
    def test_agreeing_bit_inside_a_batch_raises(self):
        # three four-bit blocks: the first holds one difference; the second's
        # packed bits are stale and claim one where the keys now agree, so its
        # search lands on an agreeing bit; the third is never compared
        alice = np.zeros(12, dtype=np.uint8)
        bob = bits_from_string("010000100000")
        keys = _PackedKeys(KeyPair(alice, bob))
        keys.bob ^= 1 << 6
        t = Transcript()
        with pytest.raises(ProtocolError):
            _disclose(keys, t, _PassRecord(1, np.arange(12), 4, [0, 0, 0], [1, 1, 0],
                                           packed(alice), bytearray(packed(bob))))
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
        assert residual(keys) == 0


def check_records(keys: _PackedKeys, history) -> None:
    """Each record's parities are those of fresh gathers, every recorded
    block agrees, and its packed keys are the keys gathered in its pass's
    order."""
    alice, bob = keys.unpack()
    for rec in history:
        blocks = [rec.permutation[lo:lo + rec.block_size]
                  for lo in range(0, keys.n, rec.block_size)]
        fresh = [[parity(bits[block]) for block in blocks] for bits in (alice, bob)]
        assert rec.parity_a == fresh[0]
        assert rec.parity_b == fresh[1] == fresh[0]
        assert rec.alice == packed(alice[rec.permutation])
        assert rec.bob == packed(bob[rec.permutation])


class TestRunPass:
    def config(self, k, variant=BBBSS, seed=0, passes=4):
        return CascadeConfig(initial_block_size=k, num_passes=passes,
                             variant=variant, seed=seed)

    def test_error_free_pass(self):
        keys = _PackedKeys(make_key_pair(64, ErrorPattern(64, ()), seed=4))
        t = Transcript()
        assert _run_pass(keys, 0, self.config(8), t, []) is None
        assert t.corrections_made == 0
        assert all(e.parity_a == e.parity_b for e in t.events
                   if e.kind == COMPARE_BLOCK)

    def test_worked_example_pass(self):
        # 30-bit prefix, identity order, five-bit blocks: mismatches exactly
        # at the second and sixth block, two corrections, blocks 4/5 untouched
        pair = example_pair()
        keys = _PackedKeys(KeyPair(pair.alice[:30], pair.bob[:30]))
        t = Transcript()
        _run_pass(keys, 0, self.config(5, variant=CASCADE), t, [])
        assert t.corrections_made == 2
        compares = [e for e in t.events if e.kind == COMPARE_BLOCK]
        mismatched = [i + 1 for i, e in enumerate(compares)
                      if e.parity_a != e.parity_b]
        assert mismatched == [2, 6]
        assert [(e.parity_a, e.parity_b) for e in compares[:6]] == [
            (0, 0), (0, 1), (1, 1), (0, 0), (0, 0), (0, 1)]
        corrected = sorted(e.index for e in t.events if e.kind == CORRECT)
        assert corrected == [6, 29]
        assert residual(keys) == 4  # the two even blocks stay hidden

    def test_blocks_agree_after_pass(self):
        # after every pass of a Cascade run, every block of every recorded
        # pass agrees, and each record's parities and packed keys are those
        # of fresh gathers
        g = GammaIntensity(10, 2)
        back_corrections = 0
        for seed in range(5):
            pattern = sample_error_pattern(512, TimeUnitLayout(128), g, seed)
            keys = _PackedKeys(make_key_pair(512, pattern, seed + 100))
            config = self.config(8, variant=CASCADE, seed=seed)
            t, history = Transcript(), []
            for p in range(config.num_passes):
                _run_pass(keys, p, config, t, history)
                assert [rec.pass_index for rec in history] == list(range(p + 1))
                check_records(keys, history)
            current = 0  # the pass whose comparisons an event follows
            for e in t.events:
                if e.kind == COMPARE_BLOCK:
                    current = e.round_index
                back_corrections += e.kind == CORRECT and e.round_index < current
        assert back_corrections > 0

    def test_bbbss_deletes_one_bit_per_block(self):
        # the keys left are the corrected keys less the deleted positions
        pair = make_key_pair(64, ErrorPattern(64, (10,)), seed=4)
        keys = _PackedKeys(pair)
        t = Transcript()
        _run_pass(keys, 0, self.config(8, variant=BBBSS), t, [])
        assert keys.n == 64 - 8
        assert t.bits_deleted == 8
        bob = pair.bob.copy()
        bob[[e.index for e in t.events if e.kind == CORRECT]] ^= 1
        kept = np.delete(np.arange(64), [e.index for e in t.events if e.kind == DELETE])
        a, b = keys.unpack()
        assert t.corrections_made == 1
        assert np.array_equal(a, pair.alice[kept]) and np.array_equal(b, bob[kept])

    def test_cascade_deletes_nothing(self):
        keys = _PackedKeys(make_key_pair(64, ErrorPattern(64, (10,)), seed=4))
        t = Transcript()
        _run_pass(keys, 0, self.config(8, variant=CASCADE), t, [])
        assert keys.n == 64
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
            inverse = np.argsort(_shared_permutation(n, 1, s))
            return [int(inverse[p]) // (2 * k) for p in (0, 1, 4, 5)]

        seed = next(s for s in range(1000)
                    if (b := pass1_blocks(s))[0] != b[1] and b[2] != b[3] and len(set(b)) == 3)
        alice = np.zeros(n, dtype=np.uint8)
        bob = alice.copy()
        bob[[0, 1, 4, 5]] ^= 1
        keys = _PackedKeys(KeyPair(alice, bob))
        config = CascadeConfig(initial_block_size=k, num_passes=2,
                               variant=CASCADE, seed=seed)
        t = Transcript()
        history = []
        _run_pass(keys, 0, config, t, history)
        assert t.corrections_made == 0  # all four errors hidden
        _run_pass(keys, 1, config, t, history)
        assert t.corrections_made == 4
        assert residual(keys) == 0
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
        assert _cascade_back_correction(_PackedKeys(pair), [], [2], Transcript()) == 0

    def test_subset_phase_back_correction_keeps_the_records(self):
        # one Cascade pass of large blocks leaves errors for the subset
        # rounds; each subset correction reopens a recorded block, which is
        # bisected from the record's packed keys.  After the subset phase
        # every record still matches fresh gathers and every block agrees.
        g = GammaIntensity(10, 2)
        subset_back_corrections = 0
        for seed in range(6):
            pattern = sample_error_pattern(512, TimeUnitLayout(128), g, seed)
            keys = _PackedKeys(make_key_pair(512, pattern, seed + 100))
            config = CascadeConfig(initial_block_size=64, num_passes=2,
                                   variant=CASCADE, seed=seed)
            t, history = Transcript(), []
            for p in range(config.num_passes):
                _run_pass(keys, p, config, t, history)
            check_records(keys, history)
            rng = subset_stream(config.seed)
            successes = rounds = 0
            while successes < config.termination_successes:
                corrected = _random_subset_round(keys, config, rounds, t, history, rng)
                rounds += 1
                successes = 0 if corrected else successes + 1
            check_records(keys, history)
            assert residual(keys) == 0
            # each mismatching subset round corrects one bit itself; every
            # further correction after the first subset comparison came from
            # bisecting a record's block
            subset_events = list(itertools.dropwhile(
                lambda e: e.kind != COMPARE_SUBSET, t.events))
            direct = sum(e.kind == COMPARE_SUBSET and e.parity_a != e.parity_b
                         for e in subset_events)
            subset_back_corrections += sum(e.kind == CORRECT for e in subset_events) - direct
        assert subset_back_corrections > 0


def subset_stream(seed: int) -> np.random.Generator:
    """The subset stream a run with this seed draws from."""
    return np.random.default_rng(np.random.SeedSequence([seed, 2]))


class TestRandomSubsetRound:
    def config(self, variant=CASCADE, seed=0):
        return CascadeConfig(initial_block_size=4, variant=variant, seed=seed)

    def test_zero_errors_always_agree(self):
        keys = _PackedKeys(make_key_pair(32, ErrorPattern(32, ()), seed=6))
        config = self.config()
        rng = subset_stream(0)
        for r in range(50):
            assert _random_subset_round(keys, config, r, Transcript(), [], rng) is False

    def test_single_error_mismatch_probability(self):
        # the lone error joins the subset with probability 1/2 exactly
        keys = _PackedKeys(make_key_pair(12, ErrorPattern(12, (5,)), seed=8))
        config = self.config(seed=21)
        rng = subset_stream(21)
        rounds = 10_000
        hits = 0
        for r in range(rounds):
            corrected = _random_subset_round(keys, config, r, Transcript(), [], rng)
            if corrected:
                hits += 1
                keys.bob ^= 1 << 5  # restore the error for the next round
        p_hat = hits / rounds
        assert abs(p_hat - 0.5) < 3.0 * math.sqrt(0.25 / rounds)

    def test_bbbss_deletes_exactly_one_bit(self):
        keys = _PackedKeys(make_key_pair(12, ErrorPattern(12, (5,)), seed=8))
        t = Transcript()
        _random_subset_round(keys, self.config(variant=BBBSS, seed=4), 0, t, [],
                            subset_stream(4))
        assert keys.n == 11
        assert t.bits_deleted == 1

    def test_correction_fixes_a_true_difference(self):
        keys = _PackedKeys(make_key_pair(16, ErrorPattern(16, (3,)), seed=2))
        config = self.config(seed=13)
        rng = subset_stream(13)
        for r in range(64):
            if _random_subset_round(keys, config, r, Transcript(), [], rng):
                break
        pair = KeyPair(*keys.unpack())
        assert np.count_nonzero(pair.alice != pair.bob) == 0

    @pytest.mark.parametrize("variant", [BBBSS, CASCADE])
    @pytest.mark.parametrize("n", [13, 24, 61])
    def test_event_keeps_packed_mask(self, n, variant):
        # the subset is n/8 packed bytes; the parities and the BBBSS
        # deletion agree with the positions it renders
        pair = make_key_pair(n, ErrorPattern(n, (0, n // 2, n - 1)), seed=n)
        alice, bob = pair.alice.copy(), pair.bob.copy()
        t = Transcript()
        _random_subset_round(_PackedKeys(pair), self.config(variant=variant, seed=9), 3, t, [],
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
            keys = _PackedKeys(make_key_pair(24, ErrorPattern(24, (7, 11)), seed=1))
            rng = subset_stream(33)
            t = Transcript()
            for r in range(30):
                _random_subset_round(keys, config, r, t, [], rng)
            lines.append(t.to_lines())
        assert lines[0] == lines[1]
        assert any(line.startswith("correct ") for line in lines[0])


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
        # round by round on the key as drawn, against the spec's subset phase
        pair = make_key_pair(n, ErrorPattern(n, errors), seed=n)
        alice, bob = pair.alice.tolist(), pair.bob.tolist()
        config = CascadeConfig(initial_block_size=4, variant=variant, seed=57)
        expected, _ = spec_reconcile(alice, bob, config, rounds=rounds)
        keys = _PackedKeys(pair)
        rng = subset_stream(57)
        t = Transcript()
        for r in range(rounds):
            _random_subset_round(keys, config, r, t, [], rng)
        assert t.to_lines() == expected
        assert [k.tolist() for k in keys.unpack()] == [alice, bob]
        if n <= 3:
            # an empty mask among the first words: the spec redrew it
            words = np.random.PCG64(np.random.SeedSequence([57, 2])).random_raw(rounds)
            assert any(int(w) >> (8 - n) & ((1 << n) - 1) == 0 for w in words)
        if errors:
            assert any(line.startswith("bisect ") for line in expected)

    def test_reconcile_draws_from_the_oracle_stream(self):
        # an error-free run: 20 agreeing rounds, each the stream's next words
        lines = check_against_spec(Run(150, (), CASCADE, 10, seed=8, key_seed=4))
        assert sum(line.startswith("compare-subset ") for line in lines) == 20

    def test_mean_subset_size_is_half_the_key(self):
        n, rounds = 61, 4000
        keys = _PackedKeys(make_key_pair(n, ErrorPattern(n, ()), seed=3))
        config = CascadeConfig(initial_block_size=4, variant=CASCADE, seed=12)
        rng = subset_stream(12)
        t = Transcript()
        for r in range(rounds):
            _random_subset_round(keys, config, r, t, [], rng)
        sizes = np.array([e.hi for e in t.events], dtype=np.float64)
        assert len(sizes) == rounds
        # each position joins with probability 1/2: variance n/4 per round
        assert abs(sizes.mean() - n / 2) < 3.0 * math.sqrt(n / 4 / rounds)


def spec_reconcile(alice: list, bob: list, config: CascadeConfig, rounds: int | None = None):
    """The whole protocol as the README's output contracts state it, on
    plain lists of bits, which it corrects and (BBBSS) shortens in place as
    ``reconcile`` does the pair.  Returns the transcript lines and the
    outcome.  Written from the stated rules alone, not from the simulator;
    every correction must land on a true difference.  Given ``rounds``, it
    runs no block pass and exactly that many subset rounds, whatever they
    find.
    """
    lines = []
    records = []  # Cascade: (round, order, block size, Alice's and Bob's parities)
    queue = []  # recorded blocks in the order they turned odd

    def parity(key, positions):
        return sum(key[i] for i in positions) % 2

    def bisect(round_index, order, lo, hi):
        # left half first, the larger when odd; keep the mismatching half
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            a, b = parity(alice, order[lo:mid]), parity(bob, order[lo:mid])
            lines.append(f"bisect round={round_index} range={lo}:{mid} a={a} b={b}")
            lo, hi = (lo, mid) if a != b else (mid, hi)
        index = order[lo]
        assert alice[index] != bob[index]
        bob[index] ^= 1
        lines.append(f"correct round={round_index} index={index}")
        return index

    def toggle(index):
        # a flip toggles Bob's recorded parity of its block in every pass
        for rec in records:
            _, order, k, pa, pb = rec
            j = order.index(index) // k
            pb[j] ^= 1
            if pa[j] != pb[j]:
                queue.append((rec, j))

    def back_correct(flipped):
        for index in flipped:
            toggle(index)
        while queue:
            (round_index, order, k, pa, pb), j = queue.pop(0)
            if pa[j] != pb[j]:
                toggle(bisect(round_index, order, j * k, min(j * k + k, len(order))))

    passes = 0
    for p in range(config.num_passes if rounds is None else 0):
        n = len(alice)
        if n == 0:
            break
        k = min(config.initial_block_size * config.block_growth**p, n)
        order = list(range(n)) if p == 0 else [int(i) for i in np.random.default_rng(
            np.random.SeedSequence([config.seed, 1, p])).permutation(n)]
        blocks = [(lo, min(lo + k, n)) for lo in range(0, n, k)]
        pa = [parity(alice, order[lo:hi]) for lo, hi in blocks]
        pb = [parity(bob, order[lo:hi]) for lo, hi in blocks]
        flipped = []
        for (lo, hi), a, b in zip(blocks, pa, pb):
            lines.append(f"compare-block round={p} range={lo}:{hi} a={a} b={b}")
            if a != b:
                flipped.append(bisect(p, order, lo, hi))
        if config.variant == BBBSS:
            gone = [order[hi - 1] for _, hi in blocks]
            lines += [f"delete round={p} index={i}" for i in gone]
            for i in sorted(gone, reverse=True):
                del alice[i], bob[i]
        else:
            records.append((p, order, k, pa, pb))
            back_correct(flipped)
        passes += 1

    stream = np.random.PCG64(np.random.SeedSequence([config.seed, 2]))
    limit, rounds, successes = rounds, 0, 0
    while (successes < config.termination_successes if limit is None else rounds < limit) \
            and len(alice) >= 2:
        n = len(alice)
        subset = []
        while not subset:
            # word w holds positions 64w..64w+63: its bytes least significant
            # first, each byte's bits most significant first
            words = [int(w) for w in stream.random_raw(-(-n // 64))]
            subset = [i for i in range(n) if words[i // 64] >> (i % 64 // 8 * 8 + 7 - i % 8) & 1]
        a, b = parity(alice, subset), parity(bob, subset)
        lines.append(f"compare-subset round={rounds} bits={','.join(map(str, subset))} "
                     f"a={a} b={b}")
        if a != b:
            found = bisect(rounds, subset, 0, len(subset))
            if config.variant == CASCADE:
                back_correct([found])
        if config.variant == BBBSS:
            lines.append(f"delete round={rounds} index={subset[-1]}")
            del alice[subset[-1]], bob[subset[-1]]
        rounds += 1
        successes = 0 if a != b else successes + 1

    kinds = Counter(line.split(" ", 1)[0] for line in lines)
    residual = sum(x != y for x, y in zip(alice, bob))
    return lines, ReconcileOutcome(
        final_length=len(alice),
        residual_error_count=residual,
        leaked_parities=kinds["compare-block"] + kinds["compare-subset"] + kinds["bisect"],
        deleted_bits=kinds["delete"],
        corrections_made=kinds["correct"],
        passes_executed=passes,
        subset_rounds=rounds,
        success=residual == 0,
    )


class Run(NamedTuple):
    """One reconciliation: an n-bit key pair from ``make_key_pair`` with
    the given errors and key seed, and the protocol's parameters."""

    n: int
    errors: tuple[int, ...]
    variant: str
    block_size: int
    growth: int = 2
    passes: int = 4
    termination: int = 20
    seed: int = 0
    key_seed: int = 0


@st.composite
def runs(draw):
    n = draw(st.integers(1, 300))
    count = draw(st.integers(0, n // 10 + 1))  # up to a tenth of the key in error
    errors = draw(st.sets(st.integers(0, n - 1), min_size=count, max_size=count))
    return Run(n, tuple(sorted(errors)),
               draw(st.sampled_from([BBBSS, CASCADE])), draw(st.integers(1, n)),
               draw(st.integers(2, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 20)),
               draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)))


def check_against_spec(run: Run) -> list[str]:
    """``reconcile`` and :func:`spec_reconcile` on the same pair: the same
    lines, outcome and keys left.  Returns the lines."""
    pair = make_key_pair(run.n, ErrorPattern(run.n, run.errors), run.key_seed)
    alice, bob = pair.alice.tolist(), pair.bob.tolist()
    config = CascadeConfig(initial_block_size=run.block_size, num_passes=run.passes,
                           block_growth=run.growth, termination_successes=run.termination,
                           variant=run.variant, seed=run.seed)
    t = Transcript()
    out = reconcile(pair, config, t)
    lines, expected = spec_reconcile(alice, bob, config)
    assert t.to_lines() == lines
    assert out == expected
    assert pair.alice.tolist() == alice and pair.bob.tolist() == bob
    return lines


class TestProtocolSpec:
    @settings(max_examples=400, deadline=None)
    @given(runs())
    # one pass of one block, then subset rounds on (almost) the key as drawn:
    # BBBSS shrinking across 64 and through odd lengths, and with errors;
    # Cascade with errors, at n = 2 (two empty masks redrawn), and at n = 3
    @example(Run(130, (), BBBSS, 2, passes=1, seed=57, key_seed=130))
    @example(Run(203, (0, 9, 77, 150, 202), BBBSS, 203, passes=1, seed=57, key_seed=203))
    @example(Run(100, (1, 2, 40, 63, 64, 99), CASCADE, 100, passes=1, seed=57, key_seed=100))
    @example(Run(2, (), CASCADE, 2, passes=1, seed=57, key_seed=2))
    @example(Run(3, (1,), CASCADE, 3, passes=1, seed=57, key_seed=3))
    # a 1-bit key: pass 0 corrects it and no subset round runs
    @example(Run(1, (0,), CASCADE, 1, passes=1))
    # back-correction queues more than one block: the order they run in shows
    @example(Run(76, (0, 1, 2, 3), CASCADE, 2, passes=2, termination=1))
    # the splice points of a pass's comparison rows: mismatching blocks 0
    # and 1 side by side, two agreeing blocks, then a mismatching short last
    # block; BBBSS's subset rounds then delete a bit each
    @example(Run(23, (0, 5, 21), BBBSS, 5, passes=1))
    @example(Run(23, (0, 5, 21), CASCADE, 5, passes=1))
    def test_reconcile_follows_the_spec(self, run):
        check_against_spec(run)


class TestPackedSubsetRound:
    """The smallest key subset rounds run on."""

    @pytest.mark.parametrize("variant", [BBBSS, CASCADE])
    def test_empty_mask_is_redrawn_at_n_2(self, variant):
        # the first two raw words of seed 57's subset stream give n = 2 an
        # empty mask each; the third gives both positions.  BBBSS's pass of
        # one 3-bit block leaves 2 bits, Cascade's of one 2-bit block all 2
        words = np.random.PCG64(np.random.SeedSequence([57, 2])).random_raw(3)
        assert [int(w) >> 6 & 3 for w in words] == [0, 0, 3]
        n = 3 if variant == BBBSS else 2
        lines = check_against_spec(Run(n, (1,), variant, n, passes=1, seed=57, key_seed=n))
        first = next(line for line in lines if line.startswith(COMPARE_SUBSET + " "))
        assert first.startswith("compare-subset round=0 bits=0,1 ")


class TestReconcile:
    def test_error_free_run(self):
        pair = make_key_pair(128, ErrorPattern(128, ()), seed=3)
        t = Transcript()
        out = reconcile(pair, CascadeConfig(initial_block_size=16, seed=5), t)
        assert out.success
        assert out.subset_rounds == 20
        assert t.corrections_made == 0
        assert out.residual_error_count == 0

    def test_a_used_transcript_is_refused(self):
        # a second run into this transcript once reported leak 326 and 158
        # deleted bits, the first run's 163 and 79 counted twice
        pattern = sample_error_pattern(256, TimeUnitLayout(64), GammaIntensity(10, 2), seed=1)
        config = CascadeConfig(initial_block_size=8, seed=3)
        t = Transcript()
        out = reconcile(make_key_pair(256, pattern, seed=2), config, t)
        assert (out.leaked_parities, out.deleted_bits) == (163, 79)
        lines = t.to_lines()
        pair = make_key_pair(256, pattern, seed=2)
        with pytest.raises(ValueError, match="transcript already holds rows"):
            reconcile(pair, config, t)
        assert t.to_lines() == lines
        assert np.count_nonzero(pair.alice != pair.bob) == len(pattern)

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
            assert kinds[CORRECT] == t.corrections_made == out.corrections_made
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
# flip bits in blocks of the pass just run.  The repr holds
# ``corrections_made``; without it the digests were 71c476e4… and 6a962311….
GOLDEN_DIGESTS = {
    BBBSS: "2a92ed7012ff6f3c1073b778339fb5fd83ad82542b72e3f2cb9ac8e8813c80fd",
    CASCADE: "3511dc70fee9d2e1cba4c6b9e8ab1752bc15a0420e322ac12b8686449355edfb",
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
# the subset phase ran on packed keys (4ea9ad1d… while the repr had no
# ``corrections_made``).
CASCADE_ODD_LENGTH_DIGEST = "faa5964ae093971ff47a50f041a08444530d29b73301fd9c3909216f43548609"


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
        # stored as Python ints: in uint8 arithmetic pass 5's block size
        # 4 * 3**5 = 972 wraps to 204
        fields = dict(initial_block_size=np.int64(4), num_passes=np.int32(7),
                      block_growth=np.uint8(3), termination_successes=np.int16(5),
                      seed=np.int64(7))
        config = CascadeConfig(variant=CASCADE, **fields)
        assert all(type(getattr(config, name)) is int for name in fields)
        plain = CascadeConfig(variant=CASCADE, **{name: int(v) for name, v in fields.items()})
        pattern = sample_error_pattern(5000, TimeUnitLayout(250), GammaIntensity(10, 2), seed=3)
        lines = []
        for c in (config, plain):
            t = Transcript()
            reconcile(make_key_pair(5000, pattern, seed=1), c, t)
            lines.append(t.to_lines())
        assert lines[0] == lines[1]
        assert any(line.startswith("compare-block round=5 range=0:972 ") for line in lines[0])
        assert CascadeConfig(initial_block_size="auto").initial_block_size == "auto"
