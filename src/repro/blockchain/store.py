"""Durable chain state: an append-only block log.

Everything above this module (chain, node, chaos simulator, pool) used to
live entirely in process memory, so no scenario could outlive a process or
exceed RAM.  :class:`BlockStore` is the persistence layer underneath: an
append-only log of length-prefixed, checksummed block records with an
in-memory index (file offset + height + hash) rebuilt on open.  Recovery
truncates a torn tail: the first record that is incomplete, fails its
checksum, or does not connect to an indexed parent invalidates itself and
everything after it (record boundaries cannot be trusted past a bad length
prefix), so a reopened store is always the longest verifiable prefix of
what was written.  Nothing partial is ever accepted, and nothing dropped is
silent — see :attr:`BlockStore.recovery`.

On-disk record format (all integers little-endian)::

    file      := header record*
    header    := magic[8]="HCSTORE1" genesis_id[32]
    record    := len:u32 payload[len] checksum[8]
    checksum  := sha256(payload)[:8]
    payload   := block_header[88] ntx:u32 (txlen:u32 tx[txlen])*

The genesis block is *not* logged — it is deterministic from the chain
parameters, and the file header's ``genesis_id`` refuses replay into a
mismatched chain.  Appends flush to the OS on every record (a process
crash loses nothing already acknowledged); ``sync=True`` adds an fsync
per append for machine-crash durability at a heavy cost.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.blockchain.block import HEADER_BYTES, Block, BlockHeader
from repro.errors import ChainError, StoreError

_FILE_MAGIC = b"HCSTORE1"
_FILE_HEADER_BYTES = len(_FILE_MAGIC) + 32

_LEN = struct.Struct("<I")
_U32 = struct.Struct("<I")

#: Checksum bytes per record (sha256 prefix — 2^-64 per-record collision).
CHECKSUM_BYTES = 8

#: Sanity cap on one record's payload; a length prefix beyond this is
#: treated as corruption, not as a 4 GB allocation request.
MAX_RECORD_BYTES = 1 << 26


def encode_block(block: Block) -> bytes:
    """Canonical record payload for one block."""
    parts = [block.header.serialize(), _U32.pack(len(block.transactions))]
    for tx in block.transactions:
        parts.append(_U32.pack(len(tx)))
        parts.append(tx)
    return b"".join(parts)


def decode_block(payload: bytes) -> Block:
    """Inverse of :func:`encode_block`; raises :class:`StoreError` on any
    structural mismatch (the checksum makes this unreachable for disk
    corruption — it guards programming errors)."""
    try:
        header = BlockHeader.deserialize(payload[:HEADER_BYTES])
        (ntx,) = _U32.unpack_from(payload, HEADER_BYTES)
        offset = HEADER_BYTES + _U32.size
        transactions = []
        for _ in range(ntx):
            (txlen,) = _U32.unpack_from(payload, offset)
            offset += _U32.size
            if offset + txlen > len(payload):
                raise StoreError("transaction runs past record payload")
            transactions.append(payload[offset : offset + txlen])
            offset += txlen
        if offset != len(payload):
            raise StoreError("trailing bytes in block record")
    except (struct.error, ChainError) as exc:
        raise StoreError(f"undecodable block record: {exc}") from None
    return Block(header=header, transactions=tuple(transactions))


@dataclass(slots=True)
class StoreEntry:
    """Index entry for one logged block: where it lives and where it sits."""

    offset: int
    length: int  # full record length (prefix + payload + checksum)
    height: int


class BlockStore:
    """Append-only block log with an index rebuilt on open.

    A store can be constructed *unbound* (``genesis_id=None`` over a path
    with no file yet): the first :class:`~repro.blockchain.chain.Blockchain`
    to attach calls :meth:`bind` with its genesis id, which creates the
    file header.  Opening an existing file scans and verifies every
    record, truncates any unverifiable tail in place, and records what was
    dropped in :attr:`recovery`.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        genesis_id: bytes | None = None,
        *,
        sync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.sync = sync
        self.genesis_id: bytes | None = None
        self._index: dict[bytes, StoreEntry] = {}
        self._order: list[bytes] = []
        self._fh = None
        self._end = 0
        #: What the last open had to discard to recover a consistent
        #: prefix: ``{"dropped_bytes": n, "reason": slug | None}``.
        self.recovery: dict = {"dropped_bytes": 0, "reason": None}
        if self.path.exists() and self.path.stat().st_size > 0:
            self._scan()
            if genesis_id is not None and genesis_id != self.genesis_id:
                self.close()
                raise StoreError(
                    f"store {self.path} belongs to a different genesis"
                )
        elif genesis_id is not None:
            self.bind(genesis_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, genesis_id: bytes) -> None:
        """Anchor the store to a chain's genesis (creates the file header
        on first bind; verifies the match on every later one)."""
        if len(genesis_id) != 32:
            raise StoreError("genesis id must be 32 bytes")
        if self.genesis_id is not None:
            if genesis_id != self.genesis_id:
                raise StoreError(
                    f"store {self.path} belongs to a different genesis"
                )
            return
        self.genesis_id = genesis_id
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a+b")
        self._fh.write(_FILE_MAGIC + genesis_id)
        self._fh.flush()
        self._end = _FILE_HEADER_BYTES

    def reopen(self) -> None:
        """Drop all in-memory state and rebuild it from disk — the restart
        path.  Exercises exactly what a fresh process would see."""
        self.close()
        self._index.clear()
        self._order.clear()
        self.genesis_id = None
        self._end = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._scan()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    # ------------------------------------------------------------------
    # recovery scan
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        data = self.path.read_bytes()
        if len(data) < _FILE_HEADER_BYTES or not data.startswith(_FILE_MAGIC):
            raise StoreError(f"{self.path} is not a block store")
        self.genesis_id = data[len(_FILE_MAGIC) : _FILE_HEADER_BYTES]
        heights: dict[bytes, int] = {self.genesis_id: 0}
        offset = _FILE_HEADER_BYTES
        valid_end = offset
        reason = None
        from repro.blockchain.chain import block_id  # cycle-free at call time

        while offset < len(data):
            if offset + _LEN.size > len(data):
                reason = "torn-length"
                break
            (length,) = _LEN.unpack_from(data, offset)
            if length == 0 or length > MAX_RECORD_BYTES:
                reason = "bad-length"
                break
            end = offset + _LEN.size + length + CHECKSUM_BYTES
            if end > len(data):
                reason = "torn-record"
                break
            payload = data[offset + _LEN.size : offset + _LEN.size + length]
            checksum = data[offset + _LEN.size + length : end]
            if hashlib.sha256(payload).digest()[:CHECKSUM_BYTES] != checksum:
                reason = "bad-checksum"
                break
            try:
                block = decode_block(payload)
            except StoreError:
                reason = "undecodable"
                break
            parent = block.header.prev_hash
            if parent not in heights:
                reason = "unknown-parent"
                break
            bid = block_id(block)
            if bid in self._index:
                reason = "duplicate-record"
                break
            height = heights[parent] + 1
            heights[bid] = height
            self._index[bid] = StoreEntry(
                offset=offset, length=end - offset, height=height
            )
            self._order.append(bid)
            offset = end
            valid_end = end
        dropped = len(data) - valid_end
        self.recovery = {"dropped_bytes": dropped, "reason": reason}
        if dropped:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
        self._fh = open(self.path, "a+b")
        self._end = valid_end

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, bid: bytes) -> bool:
        return bid in self._index

    def height_of(self, bid: bytes) -> int:
        return self._index[bid].height

    def entry(self, bid: bytes) -> StoreEntry:
        return self._index[bid]

    def ids(self) -> list[bytes]:
        """Block ids in log (= acceptance) order."""
        return list(self._order)

    def get(self, bid: bytes) -> Block:
        """Read one block back from disk, re-verifying its checksum."""
        try:
            entry = self._index[bid]
        except KeyError:
            raise StoreError(f"block {bid.hex()[:16]} not in store") from None
        return self._read_record(entry.offset)

    def _read_record(self, offset: int) -> Block:
        if self._fh is None:
            raise StoreError("store is closed")
        self._fh.flush()
        self._fh.seek(offset)
        (length,) = _LEN.unpack(self._fh.read(_LEN.size))
        payload = self._fh.read(length)
        checksum = self._fh.read(CHECKSUM_BYTES)
        if hashlib.sha256(payload).digest()[:CHECKSUM_BYTES] != checksum:
            raise StoreError(f"checksum mismatch at offset {offset}")
        return decode_block(payload)

    def iter_blocks(self) -> Iterator[tuple[bytes, Block]]:
        """Yield ``(block_id, block)`` in log order (replay order: every
        parent precedes its children, because acceptance required it)."""
        for bid in self._order:
            yield bid, self._read_record(self._index[bid].offset)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, block: Block) -> int:
        """Log one accepted block; returns its file offset.

        The caller (:meth:`Blockchain.add_block
        <repro.blockchain.chain.Blockchain.add_block>`) has already
        validated consensus; the store only enforces log consistency —
        bound, connected, and not a duplicate."""
        if self._fh is None or self.genesis_id is None:
            raise StoreError("store is closed or unbound")
        from repro.blockchain.chain import block_id

        bid = block_id(block)
        if bid in self._index:
            raise StoreError("duplicate block append")
        parent = block.header.prev_hash
        if parent == self.genesis_id:
            height = 1
        elif parent in self._index:
            height = self._index[parent].height + 1
        else:
            raise StoreError("append does not connect to the stored chain")
        payload = encode_block(block)
        record = (
            _LEN.pack(len(payload))
            + payload
            + hashlib.sha256(payload).digest()[:CHECKSUM_BYTES]
        )
        offset = self._end
        self._fh.seek(offset)
        self._fh.write(record)
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._end = offset + len(record)
        self._index[bid] = StoreEntry(
            offset=offset, length=len(record), height=height
        )
        self._order.append(bid)
        return offset

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "blocks": len(self._index),
            "bytes": self._end,
            "recovery": dict(self.recovery),
        }
