"""Chain state: validation, storage, and accumulated-work fork choice.

Design notes:

* The *block id* is double-SHA-256 of the header — cheap, unique, and
  independent of the PoW function, so chains secured by HashCore (whose
  evaluation costs ~0.1 s) can still be indexed instantly.
* The *PoW check* runs the chain's PoW function over the same header bytes
  and compares against the target encoded in ``bits``.
* ``bits`` itself is consensus-checked against the retarget schedule, so a
  miner cannot grant itself an easy target.
* Fork choice is accumulated expected work (Σ difficulty), ties broken by
  arrival order.
* With a :class:`~repro.blockchain.store.BlockStore` attached, the chain
  is durable: every accepted block is appended to the log, opening over a
  non-empty log replays it (full consensus checks minus per-block PoW,
  tip PoW verified), and entries keep only the 88-byte *header* in RAM —
  bodies are fetched lazily from disk — so chain memory stays O(headers)
  no matter how many transactions the blocks carry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.blockchain.block import GENESIS_PREV_HASH, Block, BlockHeader
from repro.blockchain.difficulty import RetargetSchedule, next_compact_target
from repro.core.pow import PowFunction, compact_to_target, meets_target, target_to_difficulty
from repro.errors import ChainError, StoreError, ValidationError


def block_id(block: Block) -> bytes:
    """Identity hash of a block (double SHA-256 of the header)."""
    return header_id(block.header)


def header_id(header: BlockHeader) -> bytes:
    """Identity hash of a header (double SHA-256 of its 88 bytes)."""
    data = header.serialize()
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


@dataclass(slots=True)
class _Entry:
    """Per-block chain state.  ``block`` is ``None`` for store-backed
    entries — the body lives on disk and :meth:`Blockchain.get` reads it
    back on demand; only the header stays resident."""

    header: BlockHeader
    height: int
    total_work: float
    arrival: int
    block: Block | None = None


class Blockchain:
    """A validating block store with fork choice.

    ``store`` (optional) makes the chain durable: an empty log is bound to
    this chain's genesis, a non-empty one is replayed into memory before
    the constructor returns.  ``verify`` controls replay paranoia —
    ``"tip"`` (default) re-runs PoW on the replayed tip only, ``"full"``
    on every replayed block, ``"none"`` trusts the log's checksums.
    """

    def __init__(
        self,
        pow_fn: PowFunction,
        schedule: RetargetSchedule | None = None,
        genesis_bits: int = 0x207FFFFF,
        genesis_time: int = 0,
        store=None,
        verify: str = "tip",
    ) -> None:
        if verify not in ("tip", "full", "none"):
            raise ChainError(f"unknown replay verify mode {verify!r}")
        self.pow_fn = pow_fn
        self.schedule = schedule or RetargetSchedule()
        genesis = Block.build(
            prev_hash=GENESIS_PREV_HASH,
            transactions=[b"genesis"],
            timestamp=genesis_time,
            bits=genesis_bits,
        )
        self._entries: dict[bytes, _Entry] = {}
        self._arrivals = 0
        gid = block_id(genesis)
        self._entries[gid] = _Entry(
            header=genesis.header, height=0, total_work=0.0, arrival=0, block=genesis
        )
        self._tip = gid
        self.genesis_id = gid
        self.store = store
        self.replayed = 0
        if store is not None:
            store.bind(gid)
            self._replay(verify)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _replay(self, verify: str) -> None:
        """Rebuild in-memory chain state from the attached store's log.

        The log is in acceptance order, so parents always precede
        children; every consensus rule re-runs except per-block PoW
        (``verify="full"`` re-runs that too).  The tip's PoW is always
        checked under ``verify="tip"`` — a log that replays to an unmined
        tip is corrupt in a way checksums can't see."""
        check_pow = verify == "full"
        for bid, block in self.store.iter_blocks():
            entry = self.validate_block(block, check_pow=check_pow)
            self._arrivals += 1
            entry.arrival = self._arrivals
            entry.block = None  # body stays on disk
            self._entries[bid] = entry
            if entry.total_work > self._entries[self._tip].total_work:
                self._tip = bid
            self.replayed += 1
        if verify == "tip" and self._tip != self.genesis_id:
            header = self._entries[self._tip].header
            target = compact_to_target(header.bits)
            if not meets_target(self.pow_fn.hash(header.serialize()), target):
                raise StoreError("replayed tip fails proof-of-work verification")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def tip_id(self) -> bytes:
        return self._tip

    def tip(self) -> Block:
        return self.get(self._tip)

    def tip_header(self) -> BlockHeader:
        return self._entries[self._tip].header

    def height(self) -> int:
        return self._entries[self._tip].height

    def total_work(self) -> float:
        return self._entries[self._tip].total_work

    def get(self, bid: bytes) -> Block:
        """Full block by id — from memory, or lazily from the store for
        durable chains (checksum re-verified on every disk read)."""
        try:
            entry = self._entries[bid]
        except KeyError:
            raise ChainError(f"unknown block {bid.hex()[:16]}") from None
        if entry.block is not None:
            return entry.block
        return self.store.get(bid)

    def height_of(self, bid: bytes) -> int:
        return self._entries[bid].height

    def work_of(self, bid: bytes) -> float:
        """Accumulated work at a known block (raises ``KeyError`` if absent)."""
        return self._entries[bid].total_work

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bid: bytes) -> bool:
        return bid in self._entries

    def main_chain(self) -> list[Block]:
        """Blocks from genesis to tip, inclusive."""
        out = []
        cursor = self._tip
        while True:
            entry = self._entries[cursor]
            out.append(self.get(cursor))
            if entry.height == 0:
                break
            cursor = entry.header.prev_hash
        out.reverse()
        return out

    # ------------------------------------------------------------------
    # consensus rules
    # ------------------------------------------------------------------
    def expected_bits(self, parent_id: bytes) -> int:
        """Compact target a child of ``parent_id`` must carry."""
        parent = self._entries[parent_id]
        child_height = parent.height + 1
        if child_height % self.schedule.interval != 0:
            return parent.header.bits
        # Walk back to the start of the parent's window.
        cursor = parent_id
        for _ in range(self.schedule.interval - 1):
            entry = self._entries[cursor]
            if entry.height == 0:
                break
            cursor = entry.header.prev_hash
        window_start = self._entries[cursor].header.timestamp
        return next_compact_target(
            self.schedule,
            parent.header.bits,
            window_start,
            parent.header.timestamp,
        )

    def validate_block(self, block: Block, *, check_pow: bool = True) -> _Entry:
        """Run all consensus checks; returns the prospective entry.

        ``check_pow=False`` skips only the PoW evaluation (for replaying a
        log this process already validated) — the work *credit* is still
        computed from ``bits``, so fork choice is identical either way."""
        header = block.header
        parent = self._entries.get(header.prev_hash)
        if parent is None:
            raise ValidationError("unknown-parent", "unknown parent block")
        if header.timestamp < parent.header.timestamp:
            raise ValidationError("bad-timestamp", "timestamp precedes parent")
        expected = self.expected_bits(header.prev_hash)
        if header.bits != expected:
            raise ValidationError(
                "bad-bits",
                f"wrong difficulty bits {header.bits:#x}, expected {expected:#x}",
            )
        block.validate_merkle()
        target = compact_to_target(header.bits)
        if check_pow:
            digest = self.pow_fn.hash(header.serialize())
            if not meets_target(digest, target):
                raise ValidationError("bad-pow", "proof of work does not meet target")
        work = target_to_difficulty(target)
        return _Entry(
            header=header,
            height=parent.height + 1,
            total_work=parent.total_work + work,
            arrival=0,
            block=block,
        )

    def add_block(self, block: Block) -> bytes:
        """Validate and store a block; returns its id.

        Fork choice moves the tip only when the new block's accumulated
        work strictly exceeds the current tip's.  On a durable chain the
        block is logged *after* validation and indexed before the tip
        moves, and the in-memory entry drops the body (disk is the copy
        of record).  A block already stored is refused by its id before
        any validation, so a re-delivery costs no PoW evaluation.
        """
        bid = block_id(block)
        if bid in self._entries:
            raise ValidationError("duplicate-block", "duplicate block")
        entry = self.validate_block(block)
        self._arrivals += 1
        entry.arrival = self._arrivals
        if self.store is not None:
            self.store.append(block)
            entry.block = None
        self._entries[bid] = entry
        if entry.total_work > self._entries[self._tip].total_work:
            self._tip = bid
        return bid
