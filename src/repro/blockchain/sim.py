"""Chaos-test harness: fault-injected gossip, invariants, replayable reports.

This is the execution half of the fault model in
:mod:`repro.blockchain.faults`.  A :class:`ChaosNetwork` runs real
:class:`~repro.blockchain.node.Node` replicas (full consensus validation)
under seeded link faults (drop / duplicate / latency jitter), scheduled
partitions, node crash/restart, and byzantine peers that forge invalid
blocks.  Recovery uses a batched backward block sync: a node that sees an
unknown tip (via gossip or periodic tip announcements) requests the
missing parent from a peer, which answers with the block plus a batch of
its ancestors; retries are capped, with linear backoff.

Block propagation speaks one of three relay protocols
(:mod:`repro.blockchain.gossip`): ``flood`` — epidemic full-block
forwarding, every node re-broadcasts a newly accepted block to every
peer (O(n²) messages per block, the baseline the paper-scale experiments
cannot afford); ``gossip`` — header-first announcements to ~√N seeded
peers with the body pulled exactly once from the first announcer
(alternate announcers, then random peers, serve as fallbacks through the
standard retry machinery); ``compact`` — gossip whose bodies travel as
header + short tx ids and are reconstructed from the receiver's tx pool,
with a ``gettxn`` round trip for misses.  A per-node seen-inventory
(:meth:`Node.knows`) drops duplicate bodies and announcements at the
edge instead of re-flooding them, and every message kind is metered
(count and modelled wire bytes) so propagation efficiency is observable
per run.

:class:`ChaosRunner` drives a :class:`~repro.blockchain.faults.Scenario`
tick by tick, checks invariants every tick —

1. no forged/invalid block ever enters any node's chain,
2. every node's tip cumulative work is monotone non-decreasing,
3. the orphan buffer never exceeds its cap,

— plus the end-of-run convergence invariant (all live honest nodes share
one tip after the quiet window), and emits a :class:`ChaosReport` whose
JSON rendering is byte-identical when the same scenario + seed is
replayed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import Blockchain, block_id
from repro.blockchain.difficulty import RetargetSchedule
from repro.blockchain.faults import Scenario
from repro.blockchain.gossip import (
    BLOCK_RELAY_KINDS,
    CompactBlock,
    FanoutSampler,
    KIND_CATEGORY,
    message_wire_bytes,
    resolve_fanout,
)
from repro.blockchain.miner import mine_block
from repro.blockchain.node import Node
from repro.core.pow import (
    MAX_TARGET,
    PowFunction,
    compact_to_target,
    difficulty_to_target,
    meets_target,
    target_to_compact,
)
from repro.errors import ChainError, PowError
from repro.rng import Xoshiro256, splitmix64

#: Ancestors a peer sends along with a requested block (batched backward
#: sync — one round trip heals several blocks of lag).
SYNC_BATCH = 8

#: Nonce budget when forging/mining a chaos block, per unit of difficulty.
_ATTEMPTS_PER_DIFFICULTY = 64


def _stream(seed: int, salt: int) -> Xoshiro256:
    """Independent deterministic RNG stream for one chaos subsystem."""
    return Xoshiro256(splitmix64((seed & (2**64 - 1)) ^ salt))


@dataclass(slots=True)
class _Msg:
    deliver_at: int
    seq: int
    origin: int
    target: int
    #: "block" | "get" | "inv" | "ann" | "getblk" | "getfull" | "cmpct"
    #: | "gettxn" | "txn" | "tx" — see the schema table in
    #: :func:`repro.blockchain.gossip.message_wire_bytes`.
    kind: str
    block: Block | None = None
    ref: bytes | None = None
    header: BlockHeader | None = None
    compact: CompactBlock | None = None
    txs: tuple[bytes, ...] = ()
    indices: tuple[int, ...] = ()


@dataclass(slots=True)
class _Request:
    """One node's outstanding pull for a block id, with capped linear
    backoff.  ``kind`` is ``sync`` (batched backward ``get``) or ``body``
    (header-first single pull: ``getblk``, or ``getfull`` once ``full``
    is set after a failed compact reconstruction).  ``alternates`` are
    later announcers of the same block — the drop/timeout fallbacks."""

    attempts: int
    next_retry: int
    source: int
    kind: str = "sync"
    alternates: list[int] = field(default_factory=list)
    full: bool = False


@dataclass(slots=True)
class _PendingCompact:
    """Compact body awaiting a ``gettxn`` round trip."""

    compact: CompactBlock
    server: int


class ChaosNetwork:
    """Gossip fabric with seeded fault injection, relay protocols, resync.

    Sync kinds ``block`` / ``inv`` / ``get`` are joined by the relay
    kinds ``ann`` / ``getblk`` / ``getfull`` / ``cmpct`` / ``gettxn`` /
    ``txn`` / ``tx`` (schema table in
    :func:`repro.blockchain.gossip.message_wire_bytes`).  All of them
    ride the same faulty links.  Byzantine origins (index >=
    ``n_nodes``) bypass partitions — the adversary is assumed well
    connected.  With no faults scheduled (the :class:`Scenario`
    defaults) it is a fault-free network for scripted fork and reorg
    scenarios, driven by :meth:`mine_on` and :meth:`tick`.
    """

    def __init__(
        self,
        scenario: Scenario,
        pow_fn: PowFunction,
        node_factory=None,
        store_dir=None,
    ) -> None:
        factory = node_factory or Node
        self.scenario = scenario
        self.pow_fn = pow_fn
        self.genesis_bits = target_to_compact(
            difficulty_to_target(scenario.difficulty)
        )
        schedule = RetargetSchedule(
            block_time=float(scenario.block_time),
            interval=scenario.retarget_interval,
        )
        # ``store_dir`` is harness configuration, not part of the fault
        # model: it lives here (and on ChaosRunner) rather than in
        # Scenario, so scenario dicts — and therefore report bytes — are
        # identical between in-memory and durable runs of the same seed.
        def _build(i: int) -> Node:
            kwargs = dict(
                schedule=schedule,
                genesis_bits=self.genesis_bits,
                max_orphans=scenario.max_orphans,
            )
            if store_dir is not None:
                from pathlib import Path

                from repro.blockchain.store import BlockStore

                kwargs["store"] = BlockStore(Path(store_dir) / f"node{i}.log")
            return factory(f"node{i}", pow_fn, **kwargs)

        self.nodes: list[Node] = [
            _build(i) for i in range(scenario.n_nodes)
        ]
        self.relay = scenario.relay
        self.fanout = resolve_fanout(scenario.fanout, scenario.n_nodes)
        self.counters: Counter[str] = Counter()
        #: Optional delivery observer ``(tick, msg, outcome)`` — the
        #: gossip determinism golden vector pins the trace through it.
        self.on_deliver: Callable[[int, _Msg, str], None] | None = None
        self._queue: list[_Msg] = []
        self._requests: dict[tuple[int, bytes], _Request] = {}
        self._given_up: set[tuple[int, bytes]] = set()
        self._pending_cmpct: dict[tuple[int, bytes], _PendingCompact] = {}
        self._seq = 0
        self._tick = 0
        self._link_rng = _stream(scenario.seed, 0x11AC)
        self._peer_rng = _stream(scenario.seed, 0x4EEF)
        #: Dedicated stream for relay-fanout sampling, so gossip target
        #: choice never perturbs link-fault or peer-choice replay.
        self._fanout_sampler = FanoutSampler(_stream(scenario.seed, 0x6A55))

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _severed(self, a: int, b: int, tick: int) -> bool:
        return any(p.severed(a, b, tick) for p in self.scenario.partitions)

    def _post(
        self,
        origin: int,
        target: int,
        kind: str,
        block: Block | None = None,
        ref: bytes | None = None,
        header: BlockHeader | None = None,
        compact: CompactBlock | None = None,
        txs: tuple[bytes, ...] = (),
        indices: tuple[int, ...] = (),
    ) -> None:
        link = self.scenario.link
        size = message_wire_bytes(kind, block=block, compact=compact,
                                  txs=txs, indices=indices)
        self.counters["sent"] += 1
        self.counters["sent_" + kind] += 1
        self.counters["bytes_sent"] += size
        self.counters["bytes_" + kind] += size
        if self._severed(origin, target, self._tick):
            self.counters["cut_at_send"] += 1
            return
        if link.drop > 0.0 and self._link_rng.random() < link.drop:
            self.counters["dropped"] += 1
            return
        copies = 1
        if link.duplicate > 0.0 and self._link_rng.random() < link.duplicate:
            copies = 2
            self.counters["duplicated"] += 1
        for _ in range(copies):
            delay = link.delay
            if link.jitter > 0:
                delay += self._link_rng.randint(0, link.jitter)
            self._seq += 1
            self._queue.append(
                _Msg(deliver_at=self._tick + delay, seq=self._seq,
                     origin=origin, target=target, kind=kind,
                     block=block, ref=ref, header=header, compact=compact,
                     txs=txs, indices=indices)
            )

    # ------------------------------------------------------------------
    # relay protocols
    # ------------------------------------------------------------------
    def _flood(self, origin: int, block: Block, exclude: int | None = None) -> None:
        """Post the full body to every node except ``origin`` and
        ``exclude``, in index order."""
        for target in range(len(self.nodes)):
            if target != origin and target != exclude:
                self._post(origin, target, "block", block=block)

    def _relay_block(self, me: int, block: Block, exclude: int | None) -> None:
        """Forward a newly accepted block per the scenario's relay mode:
        full-body flood to every peer, or a header-first announce to a
        seeded ~√N sample (gossip/compact)."""
        if self.relay == "flood":
            self._flood(me, block, exclude)
            return
        bid = block_id(block)
        skip = (me,) if exclude is None else (me, exclude)
        for target in self._fanout_sampler.sample(
            len(self.nodes), self.fanout, exclude=skip
        ):
            self._post(me, target, "ann", ref=bid, header=block.header)

    def relay_tx(self, origin: int, tx: bytes, exclude: int | None = None) -> None:
        """Gossip one transaction.  Transaction relay is fanout-sampled
        in *every* mode — it exists so compact-block mempools warm up,
        and flooding it would drown the block-relay comparison the modes
        exist to make."""
        skip = (origin,) if exclude is None else (origin, exclude)
        for target in self._fanout_sampler.sample(
            len(self.nodes), self.fanout, exclude=skip
        ):
            self._post(origin, target, "tx", txs=(tx,))

    def broadcast_from(self, origin: int, block: Block, eager: bool = False) -> None:
        """Relay an honest node's freshly mined block to its peers.

        ``eager`` forces a full-block flood regardless of relay mode.
        The runner uses it for quiet-window *resolution* blocks: they
        exist to terminate the run by breaking an equal-work tie, they
        are rare by construction, and their multi-hop pull latency would
        otherwise have to fit inside the convergence margin.  Their
        traffic is still metered like everything else.
        """
        if eager:
            self._flood(origin, block)
            return
        self._relay_block(origin, block, exclude=None)

    def accept_local(self, miner: int, block: Block, eager: bool = False) -> None:
        """A node mined ``block`` itself: accept, pool its transactions,
        and start the relay."""
        node = self.nodes[miner]
        if node.receive(block):
            node.txpool.mark_mined(block.transactions)
        self.broadcast_from(miner, block, eager=eager)

    def mine_on(
        self,
        miner: int,
        transactions: list[bytes],
        timestamp: int,
        start_nonce: int = 0,
        eager: bool = False,
    ) -> Block:
        """Mine a block on node ``miner``'s tip and relay it.

        The nonce search uses the network's ``pow_fn`` with a budget that
        scales with the tip's expected difficulty; running out raises
        :class:`~repro.errors.PowError`.  The block then goes through
        :meth:`accept_local`, so ``eager`` floods it in any relay mode."""
        node = self.nodes[miner]
        tip = node.tip_id()
        bits = node.chain.expected_bits(tip)
        template = Block.build(
            prev_hash=tip, transactions=transactions, timestamp=timestamp,
            bits=bits,
        )
        difficulty = max(1.0, MAX_TARGET / compact_to_target(bits))
        block = mine_block(
            template,
            self.pow_fn,
            max_attempts=max(64, int(_ATTEMPTS_PER_DIFFICULTY * difficulty)),
            start_nonce=start_nonce,
        ).block
        self.accept_local(miner, block, eager=eager)
        return block

    def inject(self, byz_origin: int, block: Block) -> None:
        """Byzantine broadcast of a forged block to every honest node.

        Deliberately a full-block flood in every relay mode: the
        adversary does not cooperate with the bandwidth protocol, and
        honest nodes must refuse the forgery at *every* edge (a rejected
        block is never relayed onward, so gossip also contains it).  The
        origin is ``>= n_nodes``, so the flood skips no honest node."""
        self._flood(byz_origin, block)

    def crash_node(self, index: int) -> None:
        self.nodes[index].crash()
        # Partially reconstructed compact bodies are in-memory state.
        for key in [k for k in self._pending_cmpct if k[0] == index]:
            del self._pending_cmpct[key]

    # ------------------------------------------------------------------
    # per-tick phases
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Deliver due messages, announce tips, drive resync — one tick."""
        self._tick += 1
        due = [m for m in self._queue if m.deliver_at <= self._tick]
        self._queue = [m for m in self._queue if m.deliver_at > self._tick]
        due.sort(key=lambda m: (m.deliver_at, m.seq))
        for message in due:
            self._deliver(message)
        if self._tick % self.scenario.announce_every == 0:
            self._announce()
        self._resync()

    def _deliver(self, msg: _Msg) -> None:
        outcome = self._dispatch(msg)
        if self.on_deliver is not None:
            self.on_deliver(self._tick, msg, outcome)

    def _dispatch(self, msg: _Msg) -> str:
        if self._severed(msg.origin, msg.target, self._tick):
            self.counters["cut_in_flight"] += 1
            return "cut"
        node = self.nodes[msg.target]
        if not node.alive:
            self.counters["dropped_offline"] += 1
            return "offline"
        if msg.kind == "block":
            if node.knows(block_id(msg.block)):
                # Seen-inventory dedup at the edge: an epidemic re-flood
                # (or a duplicated link) re-delivers bodies constantly;
                # dropping them here keeps duplicates out of the consensus
                # layer and stops the relay from echoing forever.
                self.counters["block_duplicate"] += 1
                return "duplicate"
            return self._accept_body(msg.target, msg.block, msg.origin)
        if msg.kind == "ann":
            self.counters["ann_delivered"] += 1
            if node.knows(msg.ref):
                self.counters["ann_duplicate"] += 1
                return "duplicate"
            self._want(msg.target, msg.ref, msg.origin, kind="body")
            return "want-body"
        if msg.kind == "inv":
            self.counters["inv_delivered"] += 1
            if not node.knows(msg.ref):
                self._want(msg.target, msg.ref, msg.origin)
                return "want-sync"
            if (
                msg.ref in node.chain
                and self._honest_peer(msg.origin, msg.target)
                and node.chain.work_of(msg.ref) < node.chain.total_work()
            ):
                # The announcer's tip is a known, strictly lighter block:
                # answer with our heavier tip so laggards hear about newer
                # work from their *own* announcements too (bidirectional
                # tip gossip — no ping-pong once both sides agree).
                self.counters["inv_replies"] += 1
                self._post(msg.target, msg.origin, "inv", ref=node.tip_id())
                return "inv-reply"
            return "inv-known"
        if msg.kind == "get":
            self.counters["get_delivered"] += 1
            self._serve(msg.target, msg.origin, msg.ref)
            return "served"
        if msg.kind in ("getblk", "getfull"):
            self.counters["body_request_delivered"] += 1
            self._serve_body(msg.target, msg.origin, msg.ref,
                             full=msg.kind == "getfull")
            return "served"
        if msg.kind == "cmpct":
            return self._on_compact(msg)
        if msg.kind == "gettxn":
            return self._on_gettxn(msg)
        if msg.kind == "txn":
            return self._on_txn(msg)
        if msg.kind == "tx":
            if node.txpool.add(msg.txs[0]):
                # First sight: keep the epidemic going with our own fanout.
                self.relay_tx(msg.target, msg.txs[0], exclude=msg.origin)
                return "tx-pooled"
            self.counters["tx_duplicate"] += 1
            return "duplicate"
        raise ChainError(f"unroutable message kind {msg.kind!r}")

    def _accept_body(self, target: int, block: Block, origin: int) -> str:
        """A full body reached ``target`` for the first time: validate,
        and on acceptance continue the relay (the epidemic step)."""
        node = self.nodes[target]
        self.counters["delivered"] += 1
        result = node.receive(block)
        if result:
            node.txpool.mark_mined(block.transactions)
            self._pending_cmpct.pop((target, block_id(block)), None)
            self._relay_block(target, block, exclude=origin)
        elif result.status == "orphaned" and result.code == "unknown-parent":
            self._want(target, block.header.prev_hash, origin)
        elif result.status == "rejected":
            self.counters["rejected_deliveries"] += 1
        return result.status

    def _on_compact(self, msg: _Msg) -> str:
        node = self.nodes[msg.target]
        self.counters["cmpct_delivered"] += 1
        if node.knows(msg.ref):
            self.counters["cmpct_duplicate"] += 1
            return "duplicate"
        missing = msg.compact.missing_indices(node.txpool)
        if missing:
            # Pool misses cost one gettxn/txn round trip to the sender.
            self.counters["cmpct_miss"] += 1
            self._pending_cmpct[(msg.target, msg.ref)] = _PendingCompact(
                compact=msg.compact, server=msg.origin
            )
            self._post(msg.target, msg.origin, "gettxn", ref=msg.ref,
                       indices=tuple(missing))
            return "cmpct-roundtrip"
        block = node.reconstruct_compact(msg.compact)
        if block is None:
            # Short-id collision or stale pool: the merkle root disagreed.
            self.counters["cmpct_mismatch"] += 1
            self._fallback_full(msg.target, msg.ref, msg.origin)
            return "cmpct-mismatch"
        self.counters["cmpct_reconstructed"] += 1
        return self._accept_body(msg.target, block, msg.origin)

    def _on_gettxn(self, msg: _Msg) -> str:
        chain = self.nodes[msg.target].chain
        self.counters["gettxn_delivered"] += 1
        if msg.ref not in chain:
            self.counters["gettxn_unserved"] += 1
            return "unserved"
        block = chain.get(msg.ref)
        txs = tuple(
            block.transactions[i]
            for i in msg.indices
            if 0 <= i < len(block.transactions)
        )
        self._post(msg.target, msg.origin, "txn", ref=msg.ref,
                   indices=msg.indices, txs=txs)
        return "served"

    def _on_txn(self, msg: _Msg) -> str:
        node = self.nodes[msg.target]
        self.counters["txn_delivered"] += 1
        pending = self._pending_cmpct.pop((msg.target, msg.ref), None)
        if pending is None:
            # Duplicate/late response, or a crash wiped the pending slot.
            self.counters["txn_stale"] += 1
            return "stale"
        extra = dict(zip(msg.indices, msg.txs))
        block = node.reconstruct_compact(pending.compact, extra)
        if block is None:
            self.counters["cmpct_mismatch"] += 1
            self._fallback_full(msg.target, msg.ref, pending.server)
            return "cmpct-mismatch"
        self.counters["cmpct_reconstructed"] += 1
        return self._accept_body(msg.target, block, msg.origin)

    def _fallback_full(self, target: int, wanted: bytes, source: int) -> None:
        """Compact reconstruction failed: demote this body fetch to a full
        ``getfull`` pull with a fresh retry budget."""
        key = (target, wanted)
        self._given_up.discard(key)
        request = self._requests.get(key)
        if request is None:
            request = _Request(attempts=0, next_retry=self._tick,
                               source=source, kind="body")
            self._requests[key] = request
        request.kind = "body"
        request.full = True
        request.source = source
        request.attempts = 0
        request.next_retry = self._tick

    def _serve(self, server: int, requester: int, wanted: bytes) -> None:
        """Answer a sync request with the block plus a batch of ancestors.

        Sync responses are always full bodies, even in compact mode: a
        node this far behind has no pool state for old transactions, so
        compact bodies would only add a guaranteed round trip per block.
        """
        chain = self.nodes[server].chain
        if wanted not in chain:
            self.counters["get_unserved"] += 1
            return
        self.counters["resp_sent"] += 1
        cursor = wanted
        for _ in range(1 + SYNC_BATCH):
            block = chain.get(cursor)
            if chain.height_of(cursor) == 0:
                break  # everyone has genesis
            self._post(server, requester, "block", block=block)
            cursor = block.header.prev_hash

    def _serve_body(
        self, server: int, requester: int, wanted: bytes, full: bool
    ) -> None:
        """Answer a header-first body pull: one compact body in compact
        mode (unless the requester demanded ``full``), else one full
        block."""
        chain = self.nodes[server].chain
        if wanted not in chain:
            self.counters["body_unserved"] += 1
            return
        block = chain.get(wanted)
        if self.relay == "compact" and not full:
            self._post(server, requester, "cmpct", ref=wanted,
                       compact=CompactBlock.from_block(block))
        else:
            self._post(server, requester, "block", block=block)

    def _announce(self) -> None:
        # Each announce round also re-arms given-up requests: periodic tip
        # gossip is the standing recovery signal, so retry caps bound each
        # burst rather than permanently abandoning a hole.
        self._given_up.clear()
        for i, node in enumerate(self.nodes):
            if not node.alive:
                continue
            self.counters["inv_sent"] += 1
            self._post(i, self._random_peer(i), "inv", ref=node.tip_id())

    def _want(
        self, node_index: int, wanted: bytes, source: int, kind: str = "sync"
    ) -> None:
        key = (node_index, wanted)
        if key in self._given_up:
            if kind != "body":
                return
            # A fresh announce re-arms a given-up body fetch: someone new
            # is offering the block, so the retry budget starts over.
            self._given_up.discard(key)
        if key in self._requests:
            request = self._requests[key]
            if (
                kind == "body"
                and self._honest_peer(source, node_index)
                and source != request.source
                and source not in request.alternates
            ):
                # A later announcer of the same block becomes the
                # drop/timeout fallback for the single body pull.
                request.alternates.append(source)
            return
        if self.nodes[node_index].knows(wanted):
            return
        self._requests[key] = _Request(
            attempts=0, next_retry=self._tick, source=source, kind=kind
        )

    def _resync(self) -> None:
        scenario = self.scenario
        # Keep every orphan hole armed: the deepest missing parent of each
        # buffered chain always has an active (or recently given-up)
        # request, regardless of how the orphan got here.
        for i, node in enumerate(self.nodes):
            if node.alive:
                for parent in node.missing_parents():
                    self._want(i, parent, source=-1)
        for key in sorted(self._requests, key=lambda k: (k[0], k[1])):
            request = self._requests[key]
            node_index, wanted = key
            node = self.nodes[node_index]
            if not node.alive:
                del self._requests[key]  # crash wiped the orphan buffer
                continue
            if node.knows(wanted):
                del self._requests[key]
                self.counters["requests_satisfied"] += 1
                continue
            if self._tick < request.next_retry:
                continue
            if request.attempts >= scenario.request_retries:
                del self._requests[key]
                self._given_up.add(key)
                self.counters["requests_expired"] += 1
                continue
            # First attempt goes to whoever told us about the block; retries
            # drain alternate announcers (body fetches), then fan out to
            # seeded random peers (the source may be byzantine, crashed, or
            # behind a partition).
            if request.attempts == 0 and self._honest_peer(request.source, node_index):
                peer = request.source
            elif request.alternates:
                peer = request.alternates.pop(0)
            else:
                peer = self._random_peer(node_index)
            if request.kind == "body":
                self.counters["body_fetch_sent"] += 1
                self._post(node_index, peer,
                           "getfull" if request.full else "getblk", ref=wanted)
            else:
                self.counters["get_sent"] += 1
                self._post(node_index, peer, "get", ref=wanted)
            request.attempts += 1
            # Linear backoff: request_backoff * attempts ticks until the
            # next try, so a full retry burst fits inside one quiet window.
            request.next_retry = self._tick + scenario.request_backoff * request.attempts

    def _honest_peer(self, peer: int, me: int) -> bool:
        return 0 <= peer < len(self.nodes) and peer != me

    def _random_peer(self, me: int) -> int:
        return self._peer_rng.choice(
            [i for i in range(len(self.nodes)) if i != me]
        )

    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """True when every live node agrees on the tip."""
        tips = {node.tip_id() for node in self.nodes if node.alive}
        return len(tips) <= 1


# ----------------------------------------------------------------------
# byzantine forgery
# ----------------------------------------------------------------------
def forge_block(
    kind: str,
    chain: Blockchain,
    pow_fn: PowFunction,
    rng: Xoshiro256,
    timestamp: int,
) -> tuple[Block, str] | None:
    """Craft an invalid block of ``kind`` on top of ``chain``'s tip.

    Returns ``(block, actual_kind)`` — the kind can degrade (e.g. to
    ``bad-merkle``) when the requested one is impossible in the current
    state: ``bad-pow``/``bad-bits`` cannot exist at the maximum target,
    ``bad-timestamp`` cannot undercut a genesis parent at time zero.
    Returns ``None`` when the nonce budget runs out.
    """
    tip = chain.tip_id
    bits = chain.expected_bits(tip)
    target = compact_to_target(bits)
    budget = max(64, int(_ATTEMPTS_PER_DIFFICULTY * (MAX_TARGET / target)))
    salt = rng.next_u64() >> 32
    transactions = [b"byz-" + rng.next_u64().to_bytes(8, "little")]

    if kind == "bad-timestamp" and chain.tip().header.timestamp == 0:
        kind = "bad-pow"
    if kind == "bad-bits":
        easy_bits = target_to_compact(min(MAX_TARGET, target * 4))
        if easy_bits == bits:
            kind = "bad-merkle"  # already at the floor: bad-bits impossible
    if kind == "bad-pow" and target * 2 > MAX_TARGET:
        # Near the maximum target almost every digest meets PoW (compact
        # encoding rounds MAX_TARGET down, so equality never triggers);
        # a failing nonce is not reliably findable — forge the body instead.
        kind = "bad-merkle"

    try:
        if kind == "bad-pow":
            template = Block.build(tip, transactions, timestamp, bits)
            for attempt in range(budget):
                candidate = template.with_nonce(salt + attempt)
                digest = pow_fn.hash(candidate.header.serialize())
                if not meets_target(digest, target):
                    return candidate, kind
            return None
        if kind == "bad-bits":
            template = Block.build(tip, transactions, timestamp, easy_bits)
            mined = mine_block(template, pow_fn, max_attempts=budget,
                               start_nonce=salt)
            return mined.block, kind
        if kind == "bad-timestamp":
            skewed = chain.tip().header.timestamp - 1
            template = Block.build(tip, transactions, skewed, bits)
            mined = mine_block(template, pow_fn, max_attempts=budget,
                               start_nonce=salt)
            return mined.block, kind
        # bad-merkle: a validly mined header over a swapped-out body.
        template = Block.build(tip, transactions, timestamp, bits)
        mined = mine_block(template, pow_fn, max_attempts=budget,
                           start_nonce=salt)
        forged = Block(header=mined.block.header,
                       transactions=(b"byz-forged-body",))
        return forged, "bad-merkle"
    except PowError:
        return None


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
class InvariantChecker:
    """Tick-by-tick consensus invariants over all node replicas."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self._last_work: dict[str, float] = {}
        self._flagged: set[tuple[str, bytes]] = set()

    def check_tick(
        self, tick: int, nodes: list[Node], invalid_ids: dict[bytes, str]
    ) -> None:
        for node in nodes:
            for bid, kind in invalid_ids.items():
                if bid in node.chain and (node.name, bid) not in self._flagged:
                    self._flagged.add((node.name, bid))
                    self.violations.append(
                        f"invalid-block: {kind} block {bid.hex()[:16]} entered "
                        f"chain of {node.name} at tick {tick}"
                    )
            work = node.chain.total_work()
            previous = self._last_work.get(node.name, 0.0)
            if work < previous - 1e-9:
                self.violations.append(
                    f"work-regression: {node.name} tip work fell "
                    f"{previous:.3f} -> {work:.3f} at tick {tick}"
                )
            self._last_work[node.name] = work
            if node.orphan_count() > node.max_orphans:
                self.violations.append(
                    f"orphan-overflow: {node.name} buffers "
                    f"{node.orphan_count()} > cap {node.max_orphans} "
                    f"at tick {tick}"
                )

    def check_final(self, nodes: list[Node]) -> bool:
        """Convergence invariant after the quiet window."""
        tips = {node.tip_id() for node in nodes if node.alive}
        if len(tips) > 1:
            self.violations.append(
                f"non-convergence: {len(tips)} distinct tips among live "
                "nodes after the quiet window"
            )
            return False
        return True


# ----------------------------------------------------------------------
# runner + report
# ----------------------------------------------------------------------
def _padded_tx(tick: int, origin: int, size: int, rng: Xoshiro256) -> bytes:
    """One deterministic synthetic transaction, padded to ``size`` bytes."""
    body = bytearray(f"tx-{tick}-{origin}-".encode())
    while len(body) < size:
        body += rng.next_u64().to_bytes(8, "little")
    return bytes(body[:size])


def traffic_summary(
    counters: Counter[str], relay: str, fanout: int, blocks_mined: int
) -> dict:
    """Per-run propagation-efficiency rollup from the message counters.

    ``messages_per_block`` / ``bytes_per_block`` cover only the
    block-relay kinds (:data:`~repro.blockchain.gossip.BLOCK_RELAY_KINDS`)
    — transaction gossip exists in every relay mode and is reported under
    its own category instead of diluting the comparison.
    """
    relay_msgs = sum(counters.get("sent_" + k, 0) for k in BLOCK_RELAY_KINDS)
    relay_bytes = sum(counters.get("bytes_" + k, 0) for k in BLOCK_RELAY_KINDS)
    by_category: dict[str, dict[str, int]] = {}
    for kind, category in KIND_CATEGORY.items():
        count = counters.get("sent_" + kind, 0)
        if not count:
            continue
        entry = by_category.setdefault(category, {"messages": 0, "bytes": 0})
        entry["messages"] += count
        entry["bytes"] += counters.get("bytes_" + kind, 0)
    blocks = max(1, blocks_mined)
    return {
        "relay": relay,
        "fanout": fanout,
        "block_relay_messages": relay_msgs,
        "block_relay_bytes": relay_bytes,
        "messages_per_block": round(relay_msgs / blocks, 3),
        "bytes_per_block": round(relay_bytes / blocks, 3),
        "by_category": {k: by_category[k] for k in sorted(by_category)},
    }


@dataclass(slots=True)
class ChaosReport:
    """Structured outcome of one chaos run.  ``to_json()`` is byte-stable:
    replaying the same scenario (same seed) yields identical bytes."""

    scenario: dict
    ticks: int
    blocks_mined: int
    resolution_blocks: int
    mining_failures: int
    forged: dict[str, int]
    messages: dict[str, int]
    #: Propagation-efficiency rollup (see :func:`traffic_summary`).
    traffic: dict
    #: First tick from which every live tip stayed in agreement through
    #: the end of the run (None when the run did not converge).
    converged_tick: int | None
    nodes: list[dict]
    violations: list[str]
    converged: bool

    def ok(self) -> bool:
        return self.converged and not self.violations

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=indent)


class ChaosRunner:
    """Executes one :class:`Scenario` tick by tick and reports.

    ``pow_fn`` defaults to SHA-256d (chaos runs mine hundreds of real
    blocks; HashCore at ~0.1 s/hash would take hours).  ``node_factory``
    lets tests substitute doubles — e.g. a node whose chain skips PoW
    validation, to prove the invariant checker catches the forgery.
    """

    def __init__(
        self,
        scenario: Scenario,
        pow_fn: PowFunction | None = None,
        node_factory=None,
        on_deliver: Callable[[int, _Msg, str], None] | None = None,
        store_dir=None,
    ) -> None:
        self.scenario = scenario
        self.pow_fn = pow_fn or Sha256d()
        self.node_factory = node_factory
        #: Forwarded to :attr:`ChaosNetwork.on_deliver` — the gossip
        #: determinism golden test pins the delivery trace through it.
        self.on_deliver = on_deliver
        #: When set, every node persists its chain to
        #: ``store_dir/node{i}.log`` and scheduled crash/restart faults
        #: exercise the real close-handle → rescan → replay recovery path
        #: instead of the in-memory fiction.
        self.store_dir = store_dir

    def run(self) -> ChaosReport:
        scenario = self.scenario
        net = ChaosNetwork(
            scenario, self.pow_fn, self.node_factory, store_dir=self.store_dir
        )
        net.on_deliver = self.on_deliver
        mine_rng = _stream(scenario.seed, 0x2B0B)
        byz_rng = _stream(scenario.seed, 0x3CDE)
        tx_rng = _stream(scenario.seed, 0x7A57)
        checker = InvariantChecker()
        invalid_ids: dict[bytes, str] = {}
        forged: Counter[str] = Counter()
        mined = 0
        resolution_blocks = 0
        mining_failures = 0
        last_diverged = 0
        mine_until = scenario.effective_mine_until()

        for tick in range(1, scenario.ticks + 1):
            # 0. transaction load (feeds block templates + compact pools)
            if scenario.txs_per_block > 0 and tick % scenario.tx_every == 0:
                alive = [i for i, n in enumerate(net.nodes) if n.alive]
                if alive:
                    origin = alive[tx_rng.randint(0, len(alive) - 1)]
                    tx = _padded_tx(tick, origin, scenario.tx_size, tx_rng)
                    if net.nodes[origin].txpool.add(tx):
                        net.relay_tx(origin, tx)
            # 1. scheduled crash / restart events
            for crash in scenario.crashes:
                if crash.at == tick:
                    net.crash_node(crash.node)
                elif crash.restart_at == tick:
                    net.nodes[crash.node].restart()
            # 2. byzantine injections
            for offset, byz in enumerate(scenario.byzantine):
                until = byz.until if byz.until is not None else scenario.ticks
                if byz.start <= tick <= until and (tick - byz.start) % byz.every == 0:
                    victim = net.nodes[byz_rng.randint(0, scenario.n_nodes - 1)]
                    wanted_kind = byz_rng.choice(list(byz.kinds))
                    result = forge_block(
                        wanted_kind, victim.chain, self.pow_fn, byz_rng,
                        tick * scenario.block_time,
                    )
                    if result is not None:
                        block, kind = result
                        invalid_ids[block_id(block)] = kind
                        forged[kind] += 1
                        net.inject(scenario.n_nodes + offset, block)
            # 3. honest mining (one seeded Bernoulli roll per tick)
            miner: int | None = None
            resolution = False
            if tick <= mine_until and mine_rng.random() < scenario.mine_prob:
                weights = [
                    (scenario.hashrates[i] if scenario.hashrates else 1.0)
                    if node.alive else 0.0
                    for i, node in enumerate(net.nodes)
                ]
                if sum(weights) > 0.0:
                    miner = mine_rng.sample_weighted(weights)
            elif (
                tick > mine_until
                and tick <= scenario.ticks - 3 * scenario.announce_every
                and tick % (2 * scenario.announce_every) == 0
                and not net.converged()
            ):
                # Resolution mining: PoW convergence is a *liveness*
                # property — an equal-work fork persists until some miner
                # extends one branch.  During the quiet window the heaviest
                # live node mines at a slow cadence until tips agree,
                # exactly the mechanism that resolves ties in a real
                # network.  It stops three announce rounds before the end
                # so laggards chase a static tip, not a moving one.
                live = [
                    (node.chain.total_work(), -i)
                    for i, node in enumerate(net.nodes) if node.alive
                ]
                if live:
                    miner = -max(live)[1]
                    resolution = True
                    resolution_blocks += 1
            if miner is not None:
                transactions = [f"cb-{tick}-{miner}".encode()]
                transactions += net.nodes[miner].txpool.pending(
                    scenario.txs_per_block
                )
                try:
                    net.mine_on(
                        miner,
                        transactions,
                        tick * scenario.block_time,
                        start_nonce=mine_rng.next_u64() >> 32,
                        eager=resolution,
                    )
                except PowError:
                    mining_failures += 1
                else:
                    mined += 1
            # 4. network phases: delivery, announcements, resync
            net.tick()
            # 5. invariants
            checker.check_tick(tick, net.nodes, invalid_ids)
            if not net.converged():
                last_diverged = tick

        converged = checker.check_final(net.nodes)
        return ChaosReport(
            scenario=scenario.to_dict(),
            ticks=scenario.ticks,
            blocks_mined=mined,
            resolution_blocks=resolution_blocks,
            mining_failures=mining_failures,
            forged=dict(sorted(forged.items())),
            messages=dict(sorted(net.counters.items())),
            traffic=traffic_summary(net.counters, net.relay, net.fanout, mined),
            converged_tick=min(last_diverged + 1, scenario.ticks)
            if converged else None,
            nodes=[node.stats() for node in net.nodes],
            violations=list(checker.violations),
            converged=converged,
        )
