"""Two-party simulator of interactive parity-exchange reconciliation.

Alice and Bob hold equal-length bit strings differing at unknown
positions.  They repeatedly shuffle with a shared permutation, partition
into blocks, and compare block parities over a public channel; a
mismatched block is bisected to locate and flip one of Bob's bits.  After
the block passes, parities of random subsets are compared until enough
consecutive agreements have accumulated.  Each later pass seeds its own
shuffle from the session seed and its index; the subset rounds of a run
share one stream, seeded once, whose raw 64-bit words are the subset masks.

Two variants are simulated.  In the original protocol (``BBBSS``) the
last bit of every compared block and subset is discarded to pay for the
disclosed parity.  In the ``CASCADE`` variant nothing is discarded;
instead every pass keeps a ledger of its block parities: Alice's, public
once compared and fixed because her key never changes, and Bob's, which
every correction updates.  A correction leaves the block holding the
flipped bit odd in each other recorded pass, and those blocks are
bisected in turn, which can expose errors their passes missed
("back-correction").  No block parity is disclosed twice.

Both parties live in one process.  Every publicly exchanged parity,
deletion, and correction is appended to a :class:`Transcript`, so the
information leaked to an eavesdropper is exactly the transcript ledger.
One disclosure routine writes every comparison: it takes a batch of
ranges with their parities, records each stretch of agreeing ones in one
step and bisects each mismatch.  A block pass hands it all its blocks at
once and a subset round its one subset.  Back-correction bisects with
the same halving step but writes no comparison, since both parities of
the block are already known.  The ledger holds plain integer rows, from
which each read of ``Transcript.events`` builds the events afresh.
The simulator is omniscient (it can compare the two strings directly) but
only uses that power for outcome metrics and internal sanity checks,
never to steer the protocol.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import compress, repeat
from operator import ne
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .error_model import (
    ErrorPattern, GammaIntensity, TimeUnitLayout, _require_int, recommend_block_size,
)

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
# A ledger row's kind is its index here.
_KINDS = (COMPARE_BLOCK, COMPARE_SUBSET, BISECT, CORRECT, DELETE)
_BLOCK_ROW, _SUBSET_ROW, _BISECT_ROW, _CORRECT_ROW, _DELETE_ROW = range(len(_KINDS))

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

    Every field but ``variant`` is an integer (Python or NumPy), except
    that ``initial_block_size`` may be the string ``"auto"``, to be
    resolved against a model via :meth:`resolve`; ``reconcile`` requires a
    concrete integer.  ``block_growth`` multiplies the block size every pass.
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
        least = {"initial_block_size": 1, "num_passes": 1, "block_growth": 2,
                 "termination_successes": 1, "seed": 0}
        if self.initial_block_size == AUTO_BLOCK_SIZE:
            del least["initial_block_size"]
        for name, bound in least.items():
            value = getattr(self, name)
            _require_int(value, name)
            if value < bound:
                raise ValueError(f"{name} must be >= {bound}, got {value!r}")
        if self.variant not in (BBBSS, CASCADE):
            raise ValueError(f"variant must be {BBBSS!r} or {CASCADE!r}, got {self.variant!r}")

    def resolve(self, layout: TimeUnitLayout, g: GammaIntensity) -> "CascadeConfig":
        """Return a copy with ``"auto"`` replaced by the recommended size."""
        if self.initial_block_size == AUTO_BLOCK_SIZE:
            return replace(self, initial_block_size=recommend_block_size(layout, g))
        return self


class Event(NamedTuple):
    """One public-channel event.

    ``round_index`` is the block pass for pass events, back-correction's
    bisections and corrections included (they carry the round of the pass
    whose block they search), and the subset round otherwise.  ``lo:hi``
    ranges are positions in the round's shuffled order; a subset
    comparison spans ``0:hi``, ``hi`` being the subset's size, and its
    bisections are ordinal ranges within the subset's shared random order.
    ``subset`` is a subset comparison's mask over the key, packed as
    ``np.packbits(mask).tobytes()`` (n/8 bytes, zero padding bits);
    :meth:`to_line` unpacks it and renders the positions it holds.
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
    """Ordered public-channel ledger with running leak counters.

    The ledger is a list of plain integer rows ``(kind, round_index, lo,
    hi, parity_a, parity_b, index)``, ``kind`` indexing :data:`_KINDS` and
    unused fields -1, with each subset comparison's packed mask kept on the
    side in row order.  :func:`_disclose` writes the comparison rows,
    :func:`_bisect` the bisection and correction rows and
    :func:`_apply_deletions` the deletions; each bumps the counters in bulk.  :attr:`events` builds its :class:`Event` list
    afresh on every read, so changing the list it returns leaves the
    transcript as it was.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, int, int, int, int, int, int]] = []
        self._masks: list[bytes] = []
        self.parities_revealed = 0
        self.bits_deleted = 0
        self.corrections_made = 0

    @property
    def events(self) -> list[Event]:
        masks = iter(self._masks)
        return [Event(_KINDS[k], r, lo, hi, a, b, i,
                      next(masks) if k == _SUBSET_ROW else b"")
                for k, r, lo, hi, a, b, i in self._rows]

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
    """One Cascade pass's partition and block parity ledger.

    Block ``j`` is permutation[j * block_size:(j + 1) * block_size], and
    ``inverse`` maps a key position to its slot in that order.
    ``parity_a[j]`` is Alice's parity of block ``j``: public once the pass
    compared it, and fixed for the run.  ``parity_b[j]`` is Bob's, which
    :func:`cascade_back_correction` toggles on every flip inside the block.
    """

    pass_index: int
    permutation: np.ndarray
    inverse: np.ndarray
    block_size: int
    parity_a: list[int]
    parity_b: list[int]


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
    bisections that follow them; back-correction gathers only the block it
    bisects.
    """
    c = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(bits[order], out=c[1:])
    return c


def _bisect(
    pair: KeyPair, transcript: Transcript, round_index: int, left: int, right: int,
    order: np.ndarray, ca: np.ndarray, cb: np.ndarray, base: int = 0,
) -> int:
    """Find and correct one differing bit of order[left:right].

    ``ca`` and ``cb`` are Alice's and Bob's prefix sums over order[base:],
    and the range must hold an odd number of differences.  Each halving
    publicly compares the left half's parities (one row) and descends into
    the mismatching half (left first), which keeps the count odd.  The bit
    it ends on is flipped on Bob's side and recorded; returns its position.
    """
    # Python ints from the sums' buffers: no NumPy scalar per halving
    ca, cb = memoryview(ca), memoryview(cb)
    rows = transcript._rows
    first = len(rows)
    while right - left > 1:
        mid = left + (right - left + 1) // 2
        pa = (ca[mid - base] - ca[left - base]) & 1
        pb = (cb[mid - base] - cb[left - base]) & 1
        rows.append((_BISECT_ROW, round_index, left, mid, pa, pb, -1))
        if pa != pb:
            right = mid
        else:
            left = mid
    transcript.parities_revealed += len(rows) - first
    found = int(order[left])
    if pair.alice[found] == pair.bob[found]:
        raise ProtocolError("bisection landed on an agreeing bit; the searched range "
                            "had an even number of differences")
    pair.bob[found] ^= 1
    rows.append((_CORRECT_ROW, round_index, -1, -1, -1, -1, found))
    transcript.corrections_made += 1
    return found


def _disclose(
    pair: KeyPair,
    transcript: Transcript,
    kind: int,
    round_index: int,
    lo: Sequence[int],
    hi: Sequence[int],
    parity_a: Sequence[int],
    parity_b: Sequence[int],
    sums: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> list[int]:
    """Disclose a batch of comparisons; correct one bit per mismatch.

    The simulator's one disclosure step: only it writes comparison rows.
    Comparison ``j`` of the batch covers order[lo[j]:hi[j]] and carries
    Alice's and Bob's parities ``parity_a[j]`` and ``parity_b[j]``; every
    one is recorded as given, in batch order, a stretch of agreeing ones in
    one step.  On the first mismatch ``sums()`` is called once for
    ``(order, ca, cb)``: the order the ranges index, and Alice's and Bob's
    prefix sums over it.  Each mismatch is bisected by :func:`_bisect`
    before the next comparison's row.  A flip inside one range shifts both
    ends of every later range alike, so the sums serve the whole batch.
    Returns the flipped positions, one per mismatch in batch order, in the
    coordinates ``order`` maps into.
    """
    rows = transcript._rows
    flipped: list[int] = []
    start = 0
    for j in compress(range(len(lo)), map(ne, parity_a, parity_b)):
        stop = j + 1
        rows.extend(zip(repeat(kind), repeat(round_index), lo[start:stop], hi[start:stop],
                        parity_a[start:stop], parity_b[start:stop], repeat(-1)))
        transcript.parities_revealed += stop - start
        if not flipped:
            order, ca, cb = sums()
        flipped.append(_bisect(pair, transcript, round_index, lo[j], hi[j], order, ca, cb))
        start = stop
    rows.extend(zip(repeat(kind), repeat(round_index), lo[start:], hi[start:],
                    parity_a[start:], parity_b[start:], repeat(-1)))
    transcript.parities_revealed += len(lo) - start
    return flipped


def _apply_deletions(
    pair: KeyPair, indices: Sequence[int], transcript: Transcript, round_index: int
) -> None:
    """Record and apply deletions; indices are pre-deletion coordinates."""
    transcript._rows.extend(zip(repeat(_DELETE_ROW), repeat(round_index), repeat(-1),
                                repeat(-1), repeat(-1), repeat(-1), indices))
    transcript.bits_deleted += len(indices)
    if len(indices) == 1:
        # a subset round's one bit: two slices, no n-byte keep mask
        i = indices[0]
        pair.alice = np.concatenate((pair.alice[:i], pair.alice[i + 1:]))
        pair.bob = np.concatenate((pair.bob[:i], pair.bob[i + 1:]))
    else:
        keep = np.ones(len(pair), dtype=bool)
        keep[indices] = False
        pair.alice = pair.alice[keep]
        pair.bob = pair.bob[keep]


def cascade_back_correction(
    pair: KeyPair, history: list[PassRecord], flipped: Sequence[int], transcript: Transcript
) -> int:
    """Bisect the recorded blocks that corrections have left odd.

    Every flip in ``flipped``, and every flip made here, toggles Bob's
    parity of the one block holding that bit in each record of
    ``history``.  A block whose two recorded parities then differ holds an
    odd number of differences; blocks are bisected in the order they turn
    odd, under their own pass's round, from a gather of that block alone.
    A block that a later flip has evened again is skipped.  Nothing is
    compared: Alice's block parity is public since its pass, and Bob holds
    his.  Returns the number of additional corrections.  Only meaningful
    for the Cascade variant, where no bits are ever deleted and recorded
    partitions stay valid.
    """
    queue: deque[tuple[PassRecord, int]] = deque()

    def toggle(index: int) -> None:
        for rec in history:
            j = int(rec.inverse[index]) // rec.block_size
            rec.parity_b[j] ^= 1
            if rec.parity_b[j] != rec.parity_a[j]:
                queue.append((rec, j))

    for index in flipped:
        toggle(index)
    corrections = 0
    while queue:
        rec, j = queue.popleft()
        if rec.parity_a[j] == rec.parity_b[j]:
            continue
        lo = j * rec.block_size
        block = rec.permutation[lo:lo + rec.block_size]
        toggle(_bisect(pair, transcript, rec.pass_index, lo, lo + len(block), rec.permutation,
                       _prefix_sums(pair.alice, block), _prefix_sums(pair.bob, block), lo))
        corrections += 1
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
    key length).  One prefix-sum gather per party over the pass's order
    gives every block parity and every halving of the pass, and the blocks
    go to :func:`_disclose` as one batch.  In BBBSS mode the last bit of
    every compared block is then deleted.  In Cascade mode the pass joins
    ``history`` with its block parities as compared, and its corrections
    go to :func:`cascade_back_correction`, which also bisects any block of
    this pass that a later flip leaves odd.
    """
    n = len(pair)
    if n == 0:
        return
    k = min(_concrete_block_size(config) * config.block_growth**pass_index, n)
    perm = np.arange(n) if pass_index == 0 else shared_permutation(n, pass_index, config.seed)
    ca = _prefix_sums(pair.alice, perm)
    cb = _prefix_sums(pair.bob, perm)
    lo, hi = zip(*partition(n, k))
    starts, ends = np.array(lo), np.array(hi)
    pa = ((ca[ends] - ca[starts]) & 1).tolist()
    pb = ((cb[ends] - cb[starts]) & 1).tolist()
    flipped = _disclose(pair, transcript, _BLOCK_ROW, pass_index, lo, hi, pa, pb,
                        lambda: (perm, ca, cb))
    if config.variant == BBBSS:
        _apply_deletions(pair, perm[ends - 1].tolist(), transcript, pass_index)
        return
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(n)
    history.append(PassRecord(pass_index, perm, inverse, k, pa, pb))
    cascade_back_correction(pair, history, flipped, transcript)


def random_subset_round(
    pair: KeyPair,
    config: CascadeConfig,
    round_index: int,
    transcript: Transcript,
    history: list[PassRecord],
    rng: np.random.Generator,
) -> bool:
    """One random-subset comparison; returns True if a bit was corrected.

    ``rng`` is the run's one shared subset stream, which :func:`reconcile`
    seeds once from ``(config.seed, 2)``; ``round_index`` only labels the
    events.  The subset includes each position independently with
    probability 1/2: its mask is the bits of ``ceil(n/64)`` raw 64-bit
    words of the stream, each word's bytes little-endian and each byte
    most significant bit first, cut to n bits; an empty mask is redrawn
    from the same stream.  Both parities are read straight from the mask,
    and the event keeps it packed.  On a parity mismatch the subset is
    bisected like a block, in a shared random order, the stream's next
    permutation of the subset; only then are that order and the prefix
    sums over it built.  In BBBSS mode the subset's last bit (its highest
    position) is deleted after the round; in Cascade mode a correction is
    back-corrected.
    """
    n = len(pair)
    if n < 2:
        raise ValueError(f"subset rounds need a key of length >= 2, got {n}")
    words = -(-n // 64)
    while True:
        raw = rng.bit_generator.random_raw(words).astype("<u8", copy=False)
        mask = np.unpackbits(raw.view(np.uint8), count=n)
        size = int(np.count_nonzero(mask))
        if size:
            break
    bits = mask.view(bool)

    def shuffled_sums():
        order = np.flatnonzero(bits)[rng.permutation(size)]
        return order, _prefix_sums(pair.alice, order), _prefix_sums(pair.bob, order)

    transcript._masks.append(np.packbits(mask).tobytes())
    flipped = _disclose(pair, transcript, _SUBSET_ROW, round_index, [0], [size],
                        [int(np.count_nonzero(pair.alice & mask)) & 1],
                        [int(np.count_nonzero(pair.bob & mask)) & 1], shuffled_sums)
    if config.variant == CASCADE:
        cascade_back_correction(pair, history, flipped, transcript)
    else:
        _apply_deletions(pair, [n - 1 - int(bits[::-1].argmax())], transcript, round_index)
    return bool(flipped)


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
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SUBSET_STREAM]))
    successes = 0
    rounds = 0
    while successes < config.termination_successes and len(pair) >= 2:
        corrected = random_subset_round(pair, config, rounds, t, history, rng)
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
