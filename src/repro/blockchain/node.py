"""One network participant: a validating chain replica with an orphan buffer.

A :class:`Node` wraps its own
:class:`~repro.blockchain.chain.Blockchain` replica.  Blocks that arrive
before their parent park in a bounded, FIFO-evicted orphan buffer and
connect once the parent shows up; :meth:`Node.receive` reports each
outcome as a :class:`ReceiveResult` carrying the
:class:`~repro.errors.ValidationError` slug of a rejection.  Nodes also
crash and restart, from a durable block log when one is attached.

The message-level network that moves blocks between nodes is
:class:`~repro.blockchain.sim.ChaosNetwork`: with an empty
:class:`~repro.blockchain.faults.Scenario` it is a fault-free flood
network, and everything a node records here — rejection reasons, orphan
evictions, crash counts — feeds directly into its chaos reports.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain, block_id
from repro.blockchain.difficulty import RetargetSchedule
from repro.blockchain.gossip import CompactBlock, TxPool
from repro.core.pow import PowFunction
from repro.errors import ChainError, ValidationError

#: Default orphan-buffer capacity.  Bounded so a peer spamming unconnectable
#: blocks (a trivial memory DoS) evicts old orphans instead of growing RAM.
DEFAULT_MAX_ORPHANS = 512


@dataclass(frozen=True, slots=True)
class ReceiveResult:
    """Outcome of :meth:`Node.receive`, truthy iff the block entered the chain.

    ``status`` is one of ``accepted``, ``orphaned``, ``rejected`` or
    ``offline``; for rejections ``code`` carries the
    :class:`~repro.errors.ValidationError` slug (``bad-pow``,
    ``bad-merkle``, …) so callers can tell *why* consensus refused the
    block.
    """

    accepted: bool
    status: str
    code: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


class Node:
    """One network participant: a chain replica plus a bounded orphan buffer."""

    def __init__(
        self,
        name: str,
        pow_fn: PowFunction,
        schedule: RetargetSchedule | None = None,
        genesis_bits: int = 0x207FFFFF,
        max_orphans: int = DEFAULT_MAX_ORPHANS,
        store=None,
    ) -> None:
        if max_orphans < 1:
            raise ChainError("max_orphans must be >= 1")
        self.name = name
        # Chain construction parameters are kept so restart() can rebuild
        # the replica from the durable log with identical consensus rules.
        self._pow_fn = pow_fn
        self._schedule = schedule
        self._genesis_bits = genesis_bits
        self.store = store
        self.chain = Blockchain(
            pow_fn, schedule=schedule, genesis_bits=genesis_bits, store=store
        )
        self.max_orphans = max_orphans
        self._orphans: dict[bytes, list[Block]] = {}  # parent id -> children
        self._orphan_fifo: deque[tuple[bytes, Block]] = deque()
        self._orphan_ids: set[bytes] = set()
        self._orphan_total = 0
        #: Number of times the tip switched to a block that does not extend
        #: the previous tip (observable reorgs).
        self.reorgs = 0
        #: Blocks that entered the chain (including drained orphans).
        self.accepted = 0
        #: Orphans discarded because the buffer was full (FIFO eviction).
        self.orphans_evicted = 0
        #: Rejection counts keyed by :class:`ValidationError` code.
        self.rejections: Counter[str] = Counter()
        #: False while the node is crashed; a crashed node drops all traffic.
        self.alive = True
        self.crashes = 0
        #: Transaction inventory for compact-block relay (in-memory: a
        #: crash wipes it and reconstruction falls back to ``gettxn``).
        self.txpool = TxPool()

    def tip_id(self) -> bytes:
        return self.chain.tip_id

    # ------------------------------------------------------------------
    # block intake
    # ------------------------------------------------------------------
    def receive(self, block: Block) -> ReceiveResult:
        """Accept a gossiped block; truthy when it (eventually) entered the
        chain.  Unknown-parent blocks are buffered (bounded, FIFO-evicted)."""
        if not self.alive:
            return ReceiveResult(False, "offline")
        parent = block.header.prev_hash
        if parent not in self.chain:
            bucket = self._orphans.setdefault(parent, [])
            if block in bucket:
                return ReceiveResult(False, "orphaned", "already-buffered")
            bucket.append(block)
            self._orphan_fifo.append((parent, block))
            self._orphan_ids.add(block_id(block))
            self._orphan_total += 1
            self._evict_orphans()
            return ReceiveResult(False, "orphaned", "unknown-parent")
        code = self._add(block)
        if code is None:
            self._drain_orphans(block_id(block))
            return ReceiveResult(True, "accepted")
        return ReceiveResult(False, "rejected", code)

    def _add(self, block: Block) -> str | None:
        """Try to append ``block``; returns ``None`` on success or the
        rejection code."""
        old_tip = self.chain.tip_id
        try:
            bid = self.chain.add_block(block)
        except ValidationError as exc:
            self.rejections[exc.code] += 1
            return exc.code
        except ChainError:
            self.rejections["invalid"] += 1
            return "invalid"
        self.accepted += 1
        if self.chain.tip_id == bid and block.header.prev_hash != old_tip:
            self.reorgs += 1
        return None

    def _drain_orphans(self, parent_id: bytes) -> None:
        """Connect buffered descendants of ``parent_id``.

        Iterative worklist rather than recursion: a long-buffered orphan
        chain (thousands of blocks) must not hit the interpreter's
        recursion limit.
        """
        worklist = deque([parent_id])
        while worklist:
            pid = worklist.popleft()
            for child in self._orphans.pop(pid, []):
                cid = block_id(child)
                self._orphan_total -= 1
                self._orphan_ids.discard(cid)
                if self._add(child) is None:
                    worklist.append(cid)

    def _evict_orphans(self) -> None:
        while self._orphan_total > self.max_orphans and self._orphan_fifo:
            parent, block = self._orphan_fifo.popleft()
            bucket = self._orphans.get(parent)
            if bucket is None or block not in bucket:
                continue  # stale FIFO entry: already drained
            bucket.remove(block)
            if not bucket:
                del self._orphans[parent]
            self._orphan_ids.discard(block_id(block))
            self._orphan_total -= 1
            self.orphans_evicted += 1

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node offline; volatile state is lost.

        Without a store the chain object survives as a *fiction* ('it is
        on disk') so amnesia-free restart stays available to the legacy
        chaos scenarios.  With a store attached the fiction becomes fact:
        the log's file handle is closed (as a dead process would), the
        chain object is kept only as a post-mortem view for stats — a
        subsequent :meth:`restart` discards it entirely and replays the
        log from disk.  Orphan buffer and tx inventory — in-memory state
        either way — are lost in both modes."""
        self.alive = False
        self.crashes += 1
        self._orphans.clear()
        self._orphan_fifo.clear()
        self._orphan_ids.clear()
        self._orphan_total = 0
        self.txpool.clear()
        if self.store is not None:
            self.store.close()

    def restart(self, store=None) -> None:
        """Bring a crashed node back; it resyncs via normal gossip plus the
        chaos layer's parent-request protocol.

        With a store (the argument, or the one the node was built with)
        this is the real recovery path: the log is rescanned from disk —
        torn tail truncated — and a fresh :class:`Blockchain` replays it
        (full consensus checks minus per-block PoW, tip PoW verified).
        Replay does not count toward :attr:`accepted`/:attr:`reorgs`:
        those meter *network* events, and recovering your own blocks is
        not one."""
        store = store if store is not None else self.store
        if store is not None:
            store.reopen()
            self.chain = Blockchain(
                self._pow_fn,
                schedule=self._schedule,
                genesis_bits=self._genesis_bits,
                store=store,
            )
            self.store = store
        self.alive = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def orphan_count(self) -> int:
        return self._orphan_total

    def knows(self, bid: bytes) -> bool:
        """True when ``bid`` is in the chain or already orphan-buffered —
        i.e. re-requesting it from a peer would be wasted bandwidth."""
        return bid in self.chain or bid in self._orphan_ids

    def missing_parents(self) -> list[bytes]:
        """Parent ids the orphan buffer is waiting on (resync targets)."""
        return [p for p in self._orphans if p not in self.chain]

    def reconstruct_compact(
        self, compact: CompactBlock, extra: dict[int, bytes] | None = None
    ) -> Block | None:
        """Rebuild a compact body from this node's transaction pool (plus
        a ``gettxn`` response); None when a slot is unresolved or the
        merkle root disagrees (short-id collision)."""
        return compact.reconstruct(self.txpool, extra)

    def stats(self) -> dict:
        """Structured per-node counters (chaos reports, debugging)."""
        return {
            "name": self.name,
            "alive": self.alive,
            "height": self.chain.height(),
            "tip": self.chain.tip_id.hex()[:16],
            "total_work": self.chain.total_work(),
            "reorgs": self.reorgs,
            "accepted": self.accepted,
            "orphans": self._orphan_total,
            "orphans_evicted": self.orphans_evicted,
            "rejections": dict(sorted(self.rejections.items())),
            "crashes": self.crashes,
        }
