"""Two-party simulator of interactive parity-exchange reconciliation.

Alice and Bob hold equal-length bit strings differing at unknown
positions.  They repeatedly shuffle with a shared permutation, partition
into blocks, and compare block parities over a public channel; a
mismatched block is bisected to locate and flip one of Bob's bits.  After
the block passes, parities of random subsets are compared until enough
consecutive agreements have accumulated.

Two variants are simulated.  In the original protocol (``BBBSS``) the
last bit of every compared block and subset is discarded to pay for the
disclosed parity.  In the ``CASCADE`` variant nothing is discarded;
instead, every correction triggers re-checks of the earlier passes'
blocks that contain the flipped bit, which can expose errors those passes
missed ("back-correction").

Both parties live in one process.  Every publicly exchanged parity,
deletion, and correction is appended to a :class:`Transcript`, so the
information leaked to an eavesdropper is exactly the transcript ledger.
The simulator is omniscient (it can compare the two strings directly) but
only uses that power for outcome metrics and internal sanity checks,
never to steer the protocol.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .error_model import ErrorPattern, GammaIntensity, TimeUnitLayout, recommend_block_size

__all__ = [
    "AUTO_BLOCK_SIZE",
    "BBBSS",
    "CASCADE",
    "CascadeConfig",
    "Event",
    "KeyPair",
    "PassRecord",
    "ProtocolError",
    "ReconcileOutcome",
    "Transcript",
    "bits_from_string",
    "cascade_back_correction",
    "make_key_pair",
    "partition",
    "random_subset_round",
    "reconcile",
    "run_pass",
    "shared_permutation",
]

BBBSS = "bbbss"
CASCADE = "cascade"
AUTO_BLOCK_SIZE = "auto"

# Event kinds.  Comparison and bisection events each disclose one parity.
COMPARE_BLOCK = "compare-block"
COMPARE_SUBSET = "compare-subset"
BISECT = "bisect"
CORRECT = "correct"
DELETE = "delete"
PARITY_EVENT_KINDS = frozenset({COMPARE_BLOCK, COMPARE_SUBSET, BISECT})

# Independent deterministic substreams derived from the session seed.
_PERM_STREAM = 1
_SUBSET_STREAM = 2


class ProtocolError(RuntimeError):
    """An internal protocol invariant was violated (simulator bug)."""


class KeyPair:
    """Alice's and Bob's equal-length bit arrays.

    Corrections flip Bob's bits only; deletions shorten both arrays.
    """

    __slots__ = ("alice", "bob")

    def __init__(self, alice, bob):
        alice = np.asarray(alice, dtype=np.uint8)
        bob = np.asarray(bob, dtype=np.uint8)
        if alice.ndim != 1 or bob.ndim != 1:
            raise ValueError("keys must be one-dimensional bit arrays")
        if alice.shape != bob.shape:
            raise ValueError(
                f"key lengths differ: {alice.shape[0]} vs {bob.shape[0]}"
            )
        if alice.size and (alice.max() > 1 or bob.max() > 1):
            raise ValueError("keys must contain only bits 0 and 1")
        self.alice = alice
        self.bob = bob

    def __len__(self) -> int:
        return int(self.alice.shape[0])

    def residual_errors(self) -> int:
        return int(np.count_nonzero(self.alice != self.bob))


def bits_from_string(s: str) -> np.ndarray:
    """'0011...' -> uint8 array."""
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


@dataclass(frozen=True)
class CascadeConfig:
    """Protocol parameters.

    ``initial_block_size`` may be the string ``"auto"``, to be resolved
    against a model via :meth:`resolve`; ``reconcile`` requires a concrete
    integer.  ``block_growth`` multiplies the block size every pass.
    ``termination_successes`` is the number of consecutive agreeing subset
    comparisons, counted since the last correction, that ends the run.
    """

    initial_block_size: int | str = AUTO_BLOCK_SIZE
    num_passes: int = 4
    block_growth: int = 2
    termination_successes: int = 20
    variant: str = BBBSS
    seed: int = 0

    def __post_init__(self) -> None:
        k = self.initial_block_size
        if isinstance(k, str):
            if k != AUTO_BLOCK_SIZE:
                raise ValueError(f"initial_block_size must be an int or 'auto', got {k!r}")
        elif k < 1:
            raise ValueError(f"initial_block_size must be >= 1, got {k!r}")
        if self.num_passes < 1:
            raise ValueError(f"num_passes must be >= 1, got {self.num_passes!r}")
        if self.block_growth < 2:
            raise ValueError(f"block_growth must be >= 2, got {self.block_growth!r}")
        if self.termination_successes < 1:
            raise ValueError(
                f"termination_successes must be >= 1, got {self.termination_successes!r}"
            )
        if self.variant not in (BBBSS, CASCADE):
            raise ValueError(f"variant must be {BBBSS!r} or {CASCADE!r}, got {self.variant!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def resolve(self, layout: TimeUnitLayout, g: GammaIntensity) -> "CascadeConfig":
        """Return a copy with ``"auto"`` replaced by the recommended size."""
        if self.initial_block_size == AUTO_BLOCK_SIZE:
            return replace(self, initial_block_size=recommend_block_size(layout, g))
        return self


class Event(NamedTuple):
    """One public-channel event.

    ``round_index`` is the block pass for pass events and the subset round
    otherwise.  ``lo:hi`` ranges are positions in the round's shuffled
    order; a subset comparison spans ``0:hi``, ``hi`` being the subset's
    size, and its bisections are ordinal ranges within the subset's shared
    random order.  ``subset`` is a subset comparison's mask over the key,
    packed as ``np.packbits(mask).tobytes()`` (n/8 bytes, zero padding
    bits); :meth:`to_line` unpacks it and renders the positions it holds.
    ``index`` for corrections and deletions is a position in the current
    key coordinates at event time; deletions recorded within one block
    pass are applied together once the pass completes.  The field
    ``index`` shadows ``tuple.index``.
    """

    kind: str
    round_index: int
    lo: int = -1
    hi: int = -1
    parity_a: int = -1
    parity_b: int = -1
    index: int = -1
    subset: bytes = b""

    def to_line(self) -> str:
        if self.kind in (COMPARE_BLOCK, BISECT):
            return (
                f"{self.kind} round={self.round_index} range={self.lo}:{self.hi} "
                f"a={self.parity_a} b={self.parity_b}"
            )
        if self.kind == COMPARE_SUBSET:
            mask = np.unpackbits(np.frombuffer(self.subset, dtype=np.uint8)).view(bool)
            # the positions' list repr without brackets and spaces: the same
            # text as joining str(i) with commas, built in C
            bits = repr(np.flatnonzero(mask).tolist())[1:-1].replace(", ", ",")
            return (
                f"{self.kind} round={self.round_index} bits={bits} "
                f"a={self.parity_a} b={self.parity_b}"
            )
        return f"{self.kind} round={self.round_index} index={self.index}"


class Transcript:
    """Ordered public-channel ledger with running leak counters."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.parities_revealed = 0
        self.bits_deleted = 0
        self.corrections_made = 0

    def add(self, event: Event) -> None:
        self.events.append(event)
        if event.kind in PARITY_EVENT_KINDS:
            self.parities_revealed += 1
        elif event.kind == DELETE:
            self.bits_deleted += 1
        elif event.kind == CORRECT:
            self.corrections_made += 1

    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self.events]


@dataclass(frozen=True)
class ReconcileOutcome:
    final_length: int
    residual_error_count: int
    leaked_parities: int
    deleted_bits: int
    passes_executed: int
    subset_rounds: int
    success: bool


@dataclass
class PassRecord:
    """Partition of one completed pass, kept for Cascade back-correction."""

    pass_index: int
    permutation: np.ndarray
    inverse: np.ndarray
    block_size: int

    def block_span(self, orig_index: int) -> tuple[int, int]:
        """Shuffled-order span of the block containing an original position."""
        pos = int(self.inverse[orig_index])
        lo = (pos // self.block_size) * self.block_size
        return lo, min(lo + self.block_size, len(self.permutation))


def make_key_pair(n: int, pattern: ErrorPattern, seed: int) -> KeyPair:
    """Uniform random bits for Alice; Bob differs exactly at the pattern."""
    if pattern.n != n:
        raise ValueError(f"pattern is for a {pattern.n}-bit key, expected {n}")
    rng = np.random.default_rng(seed)
    alice = rng.integers(0, 2, size=n, dtype=np.uint8)
    bob = alice.copy()
    if pattern.positions:
        bob[list(pattern.positions)] ^= 1
    return KeyPair(alice, bob)


def shared_permutation(n: int, round_index: int, seed: int) -> np.ndarray:
    """Deterministic unbiased shuffle of [0, n) shared by both parties."""
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _PERM_STREAM, round_index]))
    return rng.permutation(n)


def partition(n: int, k: int) -> list[tuple[int, int]]:
    """Consecutive ranges of size ``k`` covering [0, n); the last may be short."""
    if k < 1 or k > n:
        raise ValueError(f"block size must satisfy 1 <= k <= {n}, got {k!r}")
    return [(lo, min(lo + k, n)) for lo in range(0, n, k)]


def _prefix_sums(bits: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Prefix sums of ``bits[order]``: ``c[i]`` counts the ones in order[:i].

    This is the simulator's one gather for block and bisection parities:
    the parity of order[lo:hi] is ``int(c[hi] - c[lo]) & 1``.  One gather
    per party serves a pass's block comparisons and every halving of the
    bisections that follow them.
    """
    c = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(bits[order], out=c[1:])
    return c


def _compare(
    pair: KeyPair,
    transcript: Transcript,
    event: Event,
    sums: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray, int]],
) -> int:
    """Disclose one comparison; on a mismatch, locate and correct one bit.

    The simulator's one disclosure step: only it records comparison,
    bisection and correction events.  ``event`` compares
    order[event.lo:event.hi] and carries both parties' parities; it is
    recorded as given, and -1 is returned if they agree.  Otherwise
    ``sums()`` is called once for ``(order, ca, cb, base)``: the order the
    event's range indexes, and Alice's and Bob's prefix sums over
    order[base:].  Each halving publicly compares the left half's parities
    (one event) and descends into the mismatching half (left first), which
    keeps an odd difference count.  The bit it ends on is flipped on Bob's
    side and recorded, and its position returned, in the coordinates
    ``order`` maps into.
    """
    transcript.add(event)
    if event.parity_a == event.parity_b:
        return -1
    order, ca, cb, base = sums()
    lo, hi = event.lo, event.hi
    round_index = event.round_index
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        pa = int(ca[mid - base] - ca[lo - base]) & 1
        pb = int(cb[mid - base] - cb[lo - base]) & 1
        transcript.add(Event(BISECT, round_index, lo, mid, pa, pb))
        if pa != pb:
            hi = mid
        else:
            lo = mid
    found = int(order[lo])
    if pair.alice[found] == pair.bob[found]:
        raise ProtocolError(
            "bisection landed on an agreeing bit; the searched range had an "
            "even number of differences"
        )
    pair.bob[found] ^= 1
    transcript.add(Event(CORRECT, round_index, index=found))
    return found


def _apply_deletions(
    pair: KeyPair, indices: Sequence[int], transcript: Transcript, round_index: int
) -> None:
    """Record and apply deletions; indices are pre-deletion coordinates."""
    keep = np.ones(len(pair), dtype=bool)
    for idx in indices:
        transcript.add(Event(DELETE, round_index, index=int(idx)))
        keep[idx] = False
    pair.alice = pair.alice[keep]
    pair.bob = pair.bob[keep]


def cascade_back_correction(
    pair: KeyPair,
    history: list[PassRecord],
    new_index: int,
    transcript: Transcript,
) -> int:
    """Re-check earlier passes' blocks around a freshly flipped bit.

    Every recorded block containing the flipped position gets its parities
    re-compared; a mismatch is bisected and the resulting flip recurses
    into the other recorded passes.  Returns the number of additional
    corrections.  Only meaningful for the Cascade variant, where no bits
    are ever deleted and recorded partitions stay valid.
    """
    corrections = 0
    queue: deque[tuple[PassRecord, int, int]] = deque(
        (rec, *rec.block_span(new_index)) for rec in history
    )
    while queue:
        rec, lo, hi = queue.popleft()
        ca = _prefix_sums(pair.alice, rec.permutation[lo:hi])
        cb = _prefix_sums(pair.bob, rec.permutation[lo:hi])
        event = Event(COMPARE_BLOCK, rec.pass_index, lo, hi, int(ca[-1]) & 1, int(cb[-1]) & 1)
        found = _compare(pair, transcript, event, lambda: (rec.permutation, ca, cb, lo))
        if found >= 0:
            corrections += 1
            queue.extend((other, *other.block_span(found)) for other in history
                         if other is not rec)
    return corrections


def run_pass(
    pair: KeyPair,
    pass_index: int,
    config: CascadeConfig,
    transcript: Transcript,
    history: list[PassRecord],
) -> None:
    """One block pass: shuffle, partition, compare, bisect mismatches.

    Pass 0 runs on the raw bit order; later passes use the shared
    shuffle for their round.  The block size is the configured initial
    size grown by ``block_growth ** pass_index`` (capped at the current
    key length).  In BBBSS mode the last bit of every compared block is
    deleted once the whole pass has completed; in Cascade mode corrections
    are back-corrected against ``history`` and the pass is appended to it.

    Every block comparison and bisection halving of the pass reads its
    parities from one prefix-sum gather per party over the pass's order.
    Alice's key is fixed during a pass, and a block's own correction shifts
    both ends of every later block's range alike, so later parities stay
    valid.  A Cascade back-correction may flip bits in later blocks of this
    pass, so it is followed by a fresh gather of Bob's sums.
    """
    n = len(pair)
    if n == 0:
        return
    cascade = config.variant == CASCADE
    k = _concrete_block_size(config) * config.block_growth**pass_index
    k = min(k, n)
    if pass_index == 0:
        perm = np.arange(n)
    else:
        perm = shared_permutation(n, pass_index, config.seed)
    doomed: list[int] = []
    ca = _prefix_sums(pair.alice, perm)
    cb = _prefix_sums(pair.bob, perm)
    for lo, hi in partition(n, k):
        event = Event(COMPARE_BLOCK, pass_index, lo, hi,
                      int(ca[hi] - ca[lo]) & 1, int(cb[hi] - cb[lo]) & 1)
        found = _compare(pair, transcript, event, lambda: (perm, ca, cb, 0))
        if cascade:
            if found >= 0 and cascade_back_correction(pair, history, found, transcript):
                cb = _prefix_sums(pair.bob, perm)
        else:
            doomed.append(int(perm[hi - 1]))
    if cascade:
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n)
        history.append(PassRecord(pass_index, perm, inverse, k))
    else:
        _apply_deletions(pair, doomed, transcript, pass_index)


def random_subset_round(
    pair: KeyPair,
    config: CascadeConfig,
    round_index: int,
    transcript: Transcript,
    history: list[PassRecord],
) -> bool:
    """One random-subset comparison; returns True if a bit was corrected.

    The subset includes each position independently with probability 1/2,
    drawn from the shared per-round stream as a mask over the key (an
    empty draw is redrawn).  Both parities are read straight from the
    mask, and the event keeps it packed.  On a parity mismatch the subset
    is bisected like a block, in a shared random order, and only then are
    that order and the prefix sums over it built.  The order is the
    round's last draw from its stream, so skipping it when the parities
    agree leaves every later draw unchanged.  In BBBSS mode the subset's
    last bit (its highest position) is deleted after the round; in Cascade
    mode a correction is back-corrected.
    """
    n = len(pair)
    if n < 2:
        raise ValueError(f"subset rounds need a key of length >= 2, got {n}")
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _SUBSET_STREAM, round_index])
    )
    while True:
        mask = rng.integers(0, 2, size=n, dtype=np.uint8)
        if mask.any():
            break

    def shuffled_sums():
        subset = np.flatnonzero(mask)
        order = subset[rng.permutation(len(subset))]
        return order, _prefix_sums(pair.alice, order), _prefix_sums(pair.bob, order), 0

    event = Event(COMPARE_SUBSET, round_index, 0, int(np.count_nonzero(mask)),
                  int(np.count_nonzero(pair.alice & mask)) & 1,
                  int(np.count_nonzero(pair.bob & mask)) & 1,
                  subset=np.packbits(mask).tobytes())
    found = _compare(pair, transcript, event, shuffled_sums)
    if found >= 0 and config.variant == CASCADE:
        cascade_back_correction(pair, history, found, transcript)
    if config.variant == BBBSS:
        last = n - 1 - int(mask[::-1].argmax())
        _apply_deletions(pair, [last], transcript, round_index)
    return found >= 0


def _concrete_block_size(config: CascadeConfig) -> int:
    k = config.initial_block_size
    if isinstance(k, str):
        raise ValueError(
            "initial_block_size is 'auto'; resolve the config against a model "
            "(CascadeConfig.resolve) before reconciling"
        )
    return k


def reconcile(
    pair: KeyPair, config: CascadeConfig, transcript: Transcript | None = None
) -> ReconcileOutcome:
    """Run the full protocol on ``pair`` (mutated in place).

    Executes ``num_passes`` block passes, then random-subset rounds until
    ``termination_successes`` consecutive comparisons have agreed since
    the last correction (or the key becomes too short for subsets).  Pass
    a :class:`Transcript` to capture the public-channel ledger.
    Deterministic given the pair and the config.
    """
    _concrete_block_size(config)
    t = transcript if transcript is not None else Transcript()
    history: list[PassRecord] = []
    passes_executed = 0
    for p in range(config.num_passes):
        if len(pair) == 0:
            break
        run_pass(pair, p, config, t, history)
        passes_executed += 1
    successes = 0
    rounds = 0
    while successes < config.termination_successes and len(pair) >= 2:
        corrected = random_subset_round(pair, config, rounds, t, history)
        rounds += 1
        successes = 0 if corrected else successes + 1
    residual = pair.residual_errors()
    return ReconcileOutcome(
        final_length=len(pair),
        residual_error_count=residual,
        leaked_parities=t.parities_revealed,
        deleted_bits=t.bits_deleted,
        passes_executed=passes_executed,
        subset_rounds=rounds,
        success=residual == 0,
    )
