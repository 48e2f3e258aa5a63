"""Two-party simulator of interactive parity-exchange reconciliation.

Alice and Bob hold equal-length bit strings differing at unknown
positions.  They repeatedly shuffle with a shared permutation, partition
into blocks, and compare block parities over a public channel; a
mismatched block is bisected to locate and flip one of Bob's bits.  After
the block passes, parities of random subsets are compared until enough
consecutive agreements have accumulated; a mismatched subset is bisected
over its positions in ascending key order.  Each later pass seeds its own
shuffle from the session seed and its index; the subset rounds of a run
share one stream, seeded once, whose raw 64-bit words are the subset masks
and which supplies nothing else.

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
A block pass first builds its record (:class:`_PassRecord`: order, block
size, both parties' block parities and pass-order packed keys) and hands
it to one disclosure routine, which builds the pass's comparison rows
once and splices them into the ledger one slice per mismatching block,
bisecting each such block from the record before the next slice.
Back-correction bisects blocks of the same records with the same step
but writes no comparison, since both parities of the block are already
known.  A BBBSS pass records its deletions in one step once it is done.
A subset round records its one comparison, and in BBBSS mode its one
deletion, itself and bisects a mismatch with the same halving step.
The ledger holds plain rows in :class:`Event` field order, from which
each read of ``Transcript.events`` builds the events afresh.  The leak
is read off the rows: each one that is not a correction or a deletion
discloses one parity.
The simulator is omniscient (it can compare the two strings directly) but
only uses that power for outcome metrics and internal sanity checks,
never to steer the protocol.

Only parities are ever published, so only parities are computed, on one
key form: both keys packed into Python ints for the whole run
(:class:`_PackedKeys`), where a parity is the bit count of an AND.  One
halving step, :func:`_bisect`, serves block passes, back-correction and
subset rounds.  NumPy only shuffles a pass (unpack, gather, block
parities by ``bitwise_xor.reduceat``, pass-order bits packed into bytes),
applies a BBBSS pass's deletions with one keep mask, and lists a
mismatching subset's positions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import compress, repeat
from operator import ne
from typing import NamedTuple, Sequence

import numpy as np

from .error_model import (
    ErrorPattern, GammaIntensity, TimeUnitLayout, _count, recommend_block_size,
)

__all__ = [
    "AUTO_BLOCK_SIZE",
    "BBBSS",
    "CASCADE",
    "CascadeConfig",
    "Event",
    "KeyPair",
    "ProtocolError",
    "ReconcileOutcome",
    "Transcript",
    "bits_from_string",
    "make_key_pair",
    "reconcile",
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

    Corrections flip Bob's bits only; deletions shorten both arrays.  Each
    key is a one-dimensional array of integers or bools holding only 0 and
    1, kept as uint8; any other element type is refused, not rounded.
    """

    __slots__ = ("alice", "bob")

    def __init__(self, alice, bob):
        alice, bob = np.asarray(alice), np.asarray(bob)
        if alice.ndim != 1 or bob.ndim != 1:
            raise ValueError("keys must be one-dimensional bit arrays")
        if alice.shape != bob.shape:
            raise ValueError(
                f"key lengths differ: {alice.shape[0]} vs {bob.shape[0]}"
            )
        for key in (alice, bob):
            if key.size and key.dtype.kind not in "biu":
                raise ValueError(f"keys must hold integers or bools, got dtype {key.dtype}")
            if key.size and (key.min() < 0 or key.max() > 1):
                raise ValueError("keys must contain only bits 0 and 1")
        self.alice = alice.astype(np.uint8, copy=False)
        self.bob = bob.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return int(self.alice.shape[0])


def bits_from_string(s: str) -> np.ndarray:
    """'0011...' -> uint8 array."""
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def _packed(bits: np.ndarray) -> bytes:
    """Bits eight to a byte, bit i at bit i % 8 of byte i // 8."""
    return np.packbits(bits, bitorder="little").tobytes()


def _pack(bits: np.ndarray) -> int:
    return int.from_bytes(_packed(bits), "little")


class _PackedKeys:
    """Alice's and Bob's keys packed into Python ints, position i at bit i.

    Every phase of a run works on this form: the parity of a key over a
    mask ``m`` is ``(key & m).bit_count() & 1``.  :func:`reconcile` packs
    its pair once before the first pass and unpacks it once after the last
    subset round; :func:`_run_pass`, :func:`_cascade_back_correction` and
    :func:`_random_subset_round` correct and delete bits in place.
    """

    __slots__ = ("alice", "bob", "n")

    def __init__(self, pair: KeyPair) -> None:
        self.alice = _pack(pair.alice)
        self.bob = _pack(pair.bob)
        self.n = len(pair)

    def unpack(self) -> tuple[np.ndarray, np.ndarray]:
        """Alice's and Bob's keys as uint8 bit arrays (views of one buffer)."""
        n, size = self.n, -(-self.n // 8)
        raw = self.alice.to_bytes(size, "little") + self.bob.to_bytes(size, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits[:n], bits[8 * size:8 * size + n]

    def delete(self, i: int) -> None:
        """Delete position ``i`` from both keys: the bits above it move down one."""
        low = (1 << i) - 1
        self.alice = self.alice >> (i + 1) << i | self.alice & low
        self.bob = self.bob >> (i + 1) << i | self.bob & low
        self.n -= 1


@dataclass(frozen=True)
class CascadeConfig:
    """Protocol parameters.

    Every field but ``variant`` takes an integer (Python or NumPy, not a
    bool) and is stored as a Python int, except that
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
        least = {"initial_block_size": 1, "num_passes": 1, "block_growth": 2,
                 "termination_successes": 1, "seed": 0}
        if self.initial_block_size == AUTO_BLOCK_SIZE:
            del least["initial_block_size"]
        for name, bound in least.items():
            object.__setattr__(self, name, _count(getattr(self, name), name, bound))
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
    bisections are ordinal ranges within the subset's positions in
    ascending key order.
    ``subset`` is a subset comparison's mask over the key, packed as
    ``np.packbits(mask).tobytes()`` (n/8 bytes, zero padding bits): the
    round's raw stream bytes, cut to n bits.  :meth:`to_line` unpacks it
    and renders the positions it holds.
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
    """Ordered public-channel ledger; the leak is read off its rows.

    The ledger is a list of plain rows in :class:`Event` field order,
    unused fields -1 and ``b""``; a subset comparison's row ends with its
    packed mask, the round's stream bytes as drawn once the padding bits
    are cleared.  :func:`_disclose` writes the block comparison rows and
    :func:`_random_subset_round` the subset comparison rows with their
    masks; :func:`_bisect` writes every bisection row, of block passes,
    back-correction and subset rounds alike, and :func:`_correct` every
    correction row.  :func:`_run_pass` writes a BBBSS pass's deletion
    rows and :func:`_random_subset_round` a BBBSS round's one.  Only the
    writers of corrections and deletions keep counts, ``corrections_made``
    and ``bits_deleted``.
    Every other row discloses one parity, so :attr:`parities_revealed` is
    the rows less those two counts, and no writer of a parity row keeps
    the leak.  :attr:`events` builds its :class:`Event` list afresh on
    every read, so changing the list it returns leaves the transcript as
    it was.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[str, int, int, int, int, int, int, bytes]] = []
        self.bits_deleted = 0
        self.corrections_made = 0

    @property
    def parities_revealed(self) -> int:
        """The leak: every row that is not a correction or a deletion."""
        return len(self._rows) - self.corrections_made - self.bits_deleted

    @property
    def events(self) -> list[Event]:
        return list(map(Event._make, self._rows))

    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self.events]


@dataclass(frozen=True)
class ReconcileOutcome:
    final_length: int
    residual_error_count: int
    leaked_parities: int
    deleted_bits: int
    corrections_made: int
    passes_executed: int
    subset_rounds: int
    success: bool


@dataclass
class _PassRecord:
    """One block pass's partition, block parity ledger and packed keys.

    :func:`_run_pass` builds it, for both variants, before the pass
    discloses anything; :func:`_disclose` compares its blocks and every
    block is bisected from it, in the pass and in back-correction alike.
    Block ``j`` is permutation[j * block_size:(j + 1) * block_size] (the
    last may be short).  ``parity_a[j]`` is Alice's parity of block ``j``:
    public once the pass compared it, and fixed for the run.
    ``parity_b[j]`` is Bob's as the pass took it, which
    :func:`_cascade_back_correction` toggles on every later flip inside the
    block.  ``alice`` and ``bob`` are the two keys gathered in the pass's
    order and packed eight bits to a byte, slot s at bit s % 8 of byte
    s // 8: Alice's is fixed, and Bob's bit is toggled with ``parity_b``,
    so a block is bisected from these bytes with no gather.  A BBBSS pass
    drops its record after its deletions.  A Cascade pass sets ``inverse``,
    which maps a key position to its slot in the pass's order (a
    memoryview of the inverse permutation, so a lookup is a Python int),
    and keeps the record for the run.
    """

    pass_index: int
    permutation: np.ndarray
    block_size: int
    parity_a: list[int]
    parity_b: list[int]
    alice: bytes
    bob: bytearray
    inverse: memoryview | None = None


def make_key_pair(n: int, pattern: ErrorPattern, seed: int) -> KeyPair:
    """Uniform random bits for Alice; Bob differs exactly at the pattern."""
    n = _count(n, "key length n")
    if pattern.n != n:
        raise ValueError(f"pattern is for a {pattern.n}-bit key, expected {n}")
    rng = np.random.default_rng(_count(seed, "seed"))
    alice = rng.integers(0, 2, size=n, dtype=np.uint8)
    bob = alice.copy()
    if pattern.positions:
        bob[list(pattern.positions)] ^= 1
    return KeyPair(alice, bob)


def _shared_permutation(n: int, round_index: int, seed: int) -> np.ndarray:
    """Deterministic unbiased shuffle of [0, n) shared by both parties."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _PERM_STREAM, round_index]))
    return rng.permutation(n)


def _bisect(
    transcript: Transcript, round_index: int, pos: Sequence[int], left: int, right: int,
    va: int, vb: int,
) -> int:
    """Halve the ordinals left:right down to one; return its position.

    ``pos`` maps ordinals to ascending positions: a block's slots in its
    pass's order (a ``range``), or a subset's key positions.  ``va`` and
    ``vb`` are Alice's and Bob's bits from ``pos[left]`` upwards, that
    position at bit 0; the range holds an odd number of differences, and
    bits from ``pos[right]`` upwards are never read.  Each halving publicly
    compares the parities of the left half, the low ``pos[mid] -
    pos[left]`` bits (one row), and keeps the mismatching half (left
    first) by a mask, or the right by a shift.  The caller corrects the
    position returned (:func:`_correct`).
    """
    rows = transcript._rows
    base = pos[left]
    while right - left > 1:
        mid = left + (right - left + 1) // 2
        top = pos[mid]
        low = (1 << (top - base)) - 1
        a = va & low
        b = vb & low
        pa = a.bit_count() & 1
        pb = b.bit_count() & 1
        rows.append((BISECT, round_index, left, mid, pa, pb, -1, b""))
        if pa != pb:
            right = mid
            va = a
            vb = b
        else:
            va >>= top - base
            vb >>= top - base
            left = mid
            base = top
    return base


def _correct(keys: _PackedKeys, transcript: Transcript, round_index: int, index: int) -> None:
    """Flip Bob's bit at key position ``index`` and record the correction.

    The omniscient check: the bit must differ between the keys, or the
    range bisected onto it held an even number of differences.
    """
    bit = 1 << index
    if not (keys.alice ^ keys.bob) & bit:
        raise ProtocolError("bisection landed on an agreeing bit; the searched range "
                            "had an even number of differences")
    keys.bob ^= bit
    transcript._rows.append((CORRECT, round_index, -1, -1, -1, -1, index, b""))
    transcript.corrections_made += 1


def _bisect_block(keys: _PackedKeys, transcript: Transcript, rec: _PassRecord, j: int) -> int:
    """Bisect block ``j`` of ``rec`` and correct the bit found; return its position.

    The halving reads the record's packed keys, only the bytes holding the
    block, and writes its rows under the record's pass.
    """
    lo = j * rec.block_size
    hi = min(lo + rec.block_size, len(rec.permutation))
    first, last, shift = lo >> 3, (hi + 7) >> 3, lo & 7
    slot = _bisect(transcript, rec.pass_index, range(hi), lo, hi,
                   int.from_bytes(rec.alice[first:last], "little") >> shift,
                   int.from_bytes(rec.bob[first:last], "little") >> shift)
    index = rec.permutation.item(slot)
    _correct(keys, transcript, rec.pass_index, index)
    return index


def _disclose(keys: _PackedKeys, transcript: Transcript, rec: _PassRecord) -> list[int]:
    """Disclose every block comparison of a pass; correct one bit per mismatch.

    Only it writes ``compare-block`` rows.  Block ``j`` of ``rec`` is
    compared with Alice's and Bob's parities ``rec.parity_a[j]`` and
    ``rec.parity_b[j]``, recorded as given, in block order.  The pass's
    comparison rows are built once, as one list, and enter the ledger one
    slice per mismatching block: the rows up to and including that block's,
    then the rows after the last mismatch.  Each mismatch is bisected and
    corrected on ``keys`` by :func:`_bisect_block` before the next slice; a
    correction changes no other block's bits, so the record's packed keys,
    gathered when the parities were taken, serve the whole pass.  Returns
    the flipped key positions, one per mismatch in block order.
    """
    rows = transcript._rows
    pa, pb = rec.parity_a, rec.parity_b
    lo = range(0, len(rec.permutation), rec.block_size)
    compares = list(zip(repeat(COMPARE_BLOCK), repeat(rec.pass_index), lo,
                        [*lo[1:], len(rec.permutation)], pa, pb, repeat(-1), repeat(b"")))
    flipped: list[int] = []
    start = 0
    for j in compress(range(len(lo)), map(ne, pa, pb)):
        rows += compares[start:j + 1]
        flipped.append(_bisect_block(keys, transcript, rec, j))
        start = j + 1
    rows += compares[start:]
    return flipped


def _cascade_back_correction(
    keys: _PackedKeys, history: list[_PassRecord], flipped: Sequence[int], transcript: Transcript
) -> int:
    """Bisect the recorded blocks that corrections have left odd.

    ``flipped`` are key positions already corrected on ``keys`` that the
    records of ``history`` have not yet seen.  Every one of them, and every
    flip made here, toggles Bob's bit and parity of the one block holding
    that bit in each record.  A block whose two recorded parities then
    differ holds an odd number of differences; blocks are bisected in the
    order they turn odd, under their own pass's round, from the record's
    packed keys, and the bit found is corrected on ``keys``.  A block that
    a later flip has evened again is skipped.  Nothing is compared: Alice's
    block parity is public since its pass, and Bob holds his.  Returns the
    number of additional corrections.  Only meaningful for the Cascade
    variant, where no bits are ever deleted and recorded partitions stay
    valid.
    """
    queue: deque[tuple[_PassRecord, int]] = deque()

    def toggle(index: int) -> None:
        for rec in history:
            slot = rec.inverse[index]
            j = slot // rec.block_size
            rec.bob[slot >> 3] ^= 1 << (slot & 7)
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
        toggle(_bisect_block(keys, transcript, rec, j))
        corrections += 1
    return corrections


def _run_pass(
    keys: _PackedKeys,
    pass_index: int,
    config: CascadeConfig,
    transcript: Transcript,
    history: list[_PassRecord],
) -> None:
    """One block pass: shuffle, partition, compare, bisect mismatches.

    Pass 0 runs on the raw bit order; later passes use the shared
    shuffle for their round.  The block size is the configured initial
    size grown by ``block_growth ** pass_index`` (capped at the current
    key length).  The keys are unpacked and gathered in the pass's order
    once; one ``bitwise_xor.reduceat`` per party gives every block parity,
    and the gathered bits are packed into bytes.  These make the pass's
    :class:`_PassRecord`, which goes to :func:`_disclose`.  In BBBSS mode
    the last bit of every compared block is then recorded as deleted, in
    one step, and deleted from both keys with one keep mask, and the
    record is dropped.  In Cascade mode the
    record joins ``history`` with its block parities as compared, and the
    pass's corrections go to :func:`_cascade_back_correction`, which
    updates every record, this one included, and bisects any recorded
    block they leave odd.
    """
    n = keys.n
    k = min(config.initial_block_size * config.block_growth**pass_index, n)
    perm = np.arange(n) if pass_index == 0 else _shared_permutation(n, pass_index, config.seed)
    alice, bob = keys.unpack()
    ga, gb = alice[perm], bob[perm]
    starts = np.arange(0, n, k)
    rec = _PassRecord(pass_index, perm, k, np.bitwise_xor.reduceat(ga, starts).tolist(),
                      np.bitwise_xor.reduceat(gb, starts).tolist(), _packed(ga),
                      bytearray(_packed(gb)))
    flipped = _disclose(keys, transcript, rec)
    if config.variant == BBBSS:
        deleted = perm[np.minimum(starts + k, n) - 1]
        transcript._rows += zip(repeat(DELETE), repeat(pass_index), repeat(-1), repeat(-1),
                                repeat(-1), repeat(-1), deleted.tolist(), repeat(b""))
        transcript.bits_deleted += len(deleted)
        keep = np.ones(n, dtype=bool)
        keep[deleted] = False
        bob[flipped] ^= 1  # Bob's bits as the pass corrected them
        keys.alice, keys.bob, keys.n = _pack(alice[keep]), _pack(bob[keep]), n - len(deleted)
        return
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(n)
    rec.inverse = memoryview(inverse)
    history.append(rec)
    _cascade_back_correction(keys, history, flipped, transcript)


# Byte b with its bits in reverse order: the stream's mask bytes hold
# their positions most significant bit first, the packed keys least first.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _random_subset_round(
    keys: _PackedKeys,
    config: CascadeConfig,
    round_index: int,
    transcript: Transcript,
    history: list[_PassRecord],
    rng: np.random.Generator,
) -> bool:
    """One random-subset comparison; returns True if a bit was corrected.

    ``keys`` is the run's packed pair of at least two bits (:func:`reconcile`
    runs no round on a shorter key), which the round corrects and, in
    BBBSS mode, shortens in place.  ``rng`` is the run's one shared subset
    stream, which :func:`reconcile` seeds once from ``(config.seed, 2)``;
    ``round_index`` only labels the events.  The subset includes each
    position independently with probability 1/2: its mask is the bits of
    ``ceil(n/64)`` raw 64-bit words of the stream, each word's bytes
    little-endian and each byte most significant bit first, cut to n bits;
    an empty mask is redrawn from the same stream.  Those bytes with the
    padding bits cleared are the event's packed mask, and bit-reversed byte
    by byte they are the mask as one int, whose AND with each key gives
    that party's parity.  On a parity mismatch the subset's positions are
    listed in ascending key order and bisected by :func:`_bisect` from the
    masked keys; the stream supplies nothing but masks.  In BBBSS mode the
    subset's last bit (its highest position) is recorded and deleted after
    the round.
    In Cascade mode a correction goes to :func:`_cascade_back_correction`
    on the same packed keys.
    """
    n = keys.n
    words, size_bytes = -(-n // 64), -(-n // 8)
    last_byte = 0xFF << (8 * size_bytes - n) & 0xFF  # the last byte's positions below n
    while True:
        raw = rng.bit_generator.random_raw(words).astype("<u8", copy=False).tobytes()
        packed = raw[:size_bytes - 1] + bytes((raw[size_bytes - 1] & last_byte,))
        mask = int.from_bytes(packed.translate(_BIT_REVERSED), "little")
        if mask:
            break
    am, bm = keys.alice & mask, keys.bob & mask
    pa, pb = am.bit_count() & 1, bm.bit_count() & 1
    transcript._rows.append((COMPARE_SUBSET, round_index, 0, mask.bit_count(), pa, pb, -1,
                             packed))
    if pa != pb:
        subset = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n).view(bool)
        # Python ints from the positions' buffer: no NumPy scalar per halving
        pos = memoryview(np.flatnonzero(subset))
        found = _bisect(transcript, round_index, pos, 0, len(pos), am >> pos[0], bm >> pos[0])
        _correct(keys, transcript, round_index, found)
        if config.variant == CASCADE:
            _cascade_back_correction(keys, history, [found], transcript)
    if config.variant == BBBSS:
        highest = mask.bit_length() - 1
        transcript._rows.append((DELETE, round_index, -1, -1, -1, -1, highest, b""))
        transcript.bits_deleted += 1
        keys.delete(highest)
    return pa != pb


def reconcile(
    pair: KeyPair, config: CascadeConfig, transcript: Transcript | None = None
) -> ReconcileOutcome:
    """Run the full protocol on ``pair`` (mutated in place).

    Executes ``num_passes`` block passes, then random-subset rounds until
    ``termination_successes`` consecutive comparisons have agreed since
    the last correction (or the key becomes too short for subsets).  Every
    phase runs on the pair packed once into a :class:`_PackedKeys`, unpacked
    into ``pair`` after the last round.  Pass an empty :class:`Transcript`
    to capture the public-channel ledger; one that already holds rows is
    refused, since the outcome's leak and deletion counts are the
    transcript's.  Deterministic given the pair and the config.
    """
    if isinstance(config.initial_block_size, str):
        raise ValueError(
            "initial_block_size is 'auto'; resolve the config against a model "
            "(CascadeConfig.resolve) before reconciling"
        )
    t = transcript if transcript is not None else Transcript()
    if t._rows:
        raise ValueError("transcript already holds rows; pass an empty Transcript")
    history: list[_PassRecord] = []
    keys = _PackedKeys(pair)
    passes_executed = 0
    for p in range(config.num_passes):
        if keys.n == 0:
            break
        _run_pass(keys, p, config, t, history)
        passes_executed += 1
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SUBSET_STREAM]))
    successes = 0
    rounds = 0
    while successes < config.termination_successes and keys.n >= 2:
        corrected = _random_subset_round(keys, config, rounds, t, history, rng)
        rounds += 1
        successes = 0 if corrected else successes + 1
    pair.alice, pair.bob = keys.unpack()
    residual = (keys.alice ^ keys.bob).bit_count()
    return ReconcileOutcome(
        final_length=len(pair),
        residual_error_count=residual,
        leaked_parities=t.parities_revealed,
        deleted_bits=t.bits_deleted,
        corrections_made=t.corrections_made,
        passes_executed=passes_executed,
        subset_rounds=rounds,
        success=residual == 0,
    )
