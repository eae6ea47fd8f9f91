"""Gossip propagation layer: primitives, relay protocols, determinism.

Three layers of coverage:

1. unit tests for the :mod:`repro.blockchain.gossip` primitives (fanout
   policy, seeded sampling, tx pool, compact blocks, the wire-cost
   model) and :class:`~repro.blockchain.sim.ChaosNetwork`'s receiver-side
   drop of duplicate flooded bodies;
2. a 100-node golden determinism vector: the complete chaos delivery
   trace and the report JSON are pinned by hash, so any change to relay
   ordering, RNG stream consumption, or report shape is caught loudly;
3. hypothesis fuzzing over fanout × link loss asserting the convergence
   liveness property holds across the gossip parameter space.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import Block
from repro.blockchain.chain import block_id
from repro.blockchain.faults import LinkFaults, Scenario
from repro.blockchain.gossip import (
    BLOCK_RELAY_KINDS,
    CompactBlock,
    FanoutSampler,
    KIND_CATEGORY,
    MESSAGE_OVERHEAD,
    SHORT_ID_BYTES,
    TxPool,
    block_wire_bytes,
    default_fanout,
    message_wire_bytes,
    resolve_fanout,
    short_tx_id,
)
from repro.blockchain.miner import mine_block
from repro.blockchain.network import relay_traffic_model
from repro.blockchain.sim import ChaosNetwork, ChaosRunner, _stream
from repro.errors import ChainError

pytestmark = pytest.mark.chaos


# ----------------------------------------------------------------------
# fanout policy
# ----------------------------------------------------------------------
class TestFanoutPolicy:
    def test_default_is_sqrt_of_peers(self):
        assert default_fanout(101) == 10  # isqrt(100)
        assert default_fanout(1000) == 31

    def test_default_floor_of_two(self):
        # Fanout 1 degenerates the relay tree into a chain.
        assert default_fanout(3) == 2
        assert default_fanout(5) == 2

    def test_default_clamped_to_peer_count(self):
        assert default_fanout(2) == 1
        assert default_fanout(1) == 1

    def test_resolve_auto(self):
        assert resolve_fanout(0, 101) == 10
        assert resolve_fanout(-3, 101) == 10

    def test_resolve_explicit_clamped(self):
        assert resolve_fanout(8, 101) == 8
        assert resolve_fanout(500, 101) == 100
        # An explicit fanout of 1 is a liveness hazard and is not honored.
        assert resolve_fanout(1, 10) == 2
        assert resolve_fanout(1, 2) == 1  # ...except with a single peer


class TestFanoutSampler:
    def test_deterministic(self):
        a = FanoutSampler(_stream(7, 0x6A55))
        b = FanoutSampler(_stream(7, 0x6A55))
        for _ in range(50):
            assert a.sample(100, 9, exclude=(3,)) == b.sample(100, 9, exclude=(3,))

    def test_no_replacement_and_exclusion(self):
        sampler = FanoutSampler(_stream(1, 2))
        for _ in range(200):
            picks = sampler.sample(20, 6, exclude=(0, 19))
            assert len(picks) == len(set(picks)) == 6
            assert 0 not in picks and 19 not in picks

    def test_small_pool_returns_everyone(self):
        sampler = FanoutSampler(_stream(1, 2))
        assert sorted(sampler.sample(3, 10, exclude=(1,))) == [0, 2]


# ----------------------------------------------------------------------
# tx pool
# ----------------------------------------------------------------------
class TestTxPool:
    def test_add_and_duplicate(self):
        pool = TxPool()
        assert pool.add(b"tx-a")
        assert not pool.add(b"tx-a")
        assert len(pool) == 1
        assert pool.get(short_tx_id(b"tx-a")) == b"tx-a"

    def test_pending_arrival_order_and_limit(self):
        pool = TxPool()
        for i in range(5):
            pool.add(b"tx-%d" % i)
        assert pool.pending(3) == [b"tx-0", b"tx-1", b"tx-2"]
        assert pool.pending(99) == [b"tx-%d" % i for i in range(5)]

    def test_mark_mined_keeps_known(self):
        pool = TxPool()
        pool.add(b"tx-a")
        pool.mark_mined((b"tx-a", b"tx-new"))
        # Neither is a template candidate any more...
        assert pool.pending(10) == []
        # ...but both still resolve for compact reconstruction.
        assert pool.get(short_tx_id(b"tx-a")) == b"tx-a"
        assert pool.get(short_tx_id(b"tx-new")) == b"tx-new"

    def test_fifo_eviction_at_capacity(self):
        pool = TxPool(capacity=3)
        for i in range(5):
            pool.add(b"tx-%d" % i)
        assert len(pool) == 3
        assert pool.get(short_tx_id(b"tx-0")) is None
        assert pool.get(short_tx_id(b"tx-4")) == b"tx-4"

    def test_crash_clear(self):
        pool = TxPool()
        pool.add(b"tx-a")
        pool.clear()
        assert len(pool) == 0 and pool.pending(10) == []

    def test_capacity_validated(self):
        with pytest.raises(ChainError):
            TxPool(capacity=0)


# ----------------------------------------------------------------------
# compact blocks
# ----------------------------------------------------------------------
def _mined_block(transactions: list[bytes]) -> Block:
    template = Block.build(
        prev_hash=bytes(32), transactions=transactions, timestamp=30,
        bits=0x207FFFFF,
    )
    return mine_block(template, Sha256d(), max_attempts=10_000).block


class TestCompactBlock:
    def test_roundtrip_from_warm_pool(self):
        txs = [b"coinbase", b"tx-a", b"tx-b"]
        block = _mined_block(txs)
        compact = CompactBlock.from_block(block)
        assert compact.prefilled == ((0, b"coinbase"),)
        assert compact.short_ids[0] == b""
        pool = TxPool()
        pool.add(b"tx-a")
        pool.add(b"tx-b")
        assert compact.missing_indices(pool) == []
        assert compact.reconstruct(pool) == block

    def test_missing_indices_and_gettxn_completion(self):
        block = _mined_block([b"coinbase", b"tx-a", b"tx-b"])
        compact = CompactBlock.from_block(block)
        pool = TxPool()
        pool.add(b"tx-b")
        assert compact.missing_indices(pool) == [1]
        assert compact.reconstruct(pool) is None
        assert compact.reconstruct(pool, extra={1: b"tx-a"}) == block

    def test_merkle_mismatch_returns_none(self):
        block = _mined_block([b"coinbase", b"tx-a"])
        compact = CompactBlock.from_block(block)
        pool = TxPool()
        # Poison the pool: same short id cannot happen by construction,
        # so fake a stale/wrong body via the extra map instead.
        assert compact.reconstruct(pool, extra={1: b"tx-wrong"}) is None

    def test_compact_smaller_than_full_body(self):
        txs = [b"coinbase"] + [b"tx-%d" % i + bytes(90) for i in range(20)]
        block = _mined_block(txs)
        compact = CompactBlock.from_block(block)
        assert compact.wire_bytes() < block_wire_bytes(block) / 4


class TestWireModel:
    def test_kind_table_complete(self):
        assert set(KIND_CATEGORY) == set(BLOCK_RELAY_KINDS) | {"tx"}

    def test_reference_kinds_cost_hash(self):
        for kind in ("inv", "get", "getblk", "getfull"):
            assert message_wire_bytes(kind) == MESSAGE_OVERHEAD + 32

    def test_tx_and_txn_scale_with_payload(self):
        tx = bytes(96)
        assert message_wire_bytes("tx", txs=(tx,)) == MESSAGE_OVERHEAD + 98
        assert message_wire_bytes(
            "gettxn", indices=(1, 2, 3)
        ) == MESSAGE_OVERHEAD + 32 + 12

    def test_unknown_kind_raises(self):
        with pytest.raises(ChainError):
            message_wire_bytes("bogus")

    def test_short_id_width(self):
        assert len(short_tx_id(b"anything")) == SHORT_ID_BYTES


# ----------------------------------------------------------------------
# receiver-side duplicate drop (flood relay)
# ----------------------------------------------------------------------
class TestReceiverDedup:
    def test_reflooded_bodies_dropped_at_the_edge(self):
        net = ChaosNetwork(
            Scenario(n_nodes=4, relay="flood", link=LinkFaults(delay=1)),
            Sha256d(),
        )
        net.mine_on(0, [b"a1"], timestamp=30)
        for _ in range(3):
            net.tick()
        # The miner floods 3 bodies; each receiver accepts once and
        # re-floods to the 2 peers other than its sender (6 more).  Those
        # 6 reach nodes that already hold the block and stop there: they
        # never reach the consensus layer and are never relayed onward.
        assert net.counters["sent_block"] == 9
        assert net.counters["block_duplicate"] == 6
        assert [node.accepted for node in net.nodes] == [1, 1, 1, 1]
        assert not any(node.rejections for node in net.nodes)


# ----------------------------------------------------------------------
# golden determinism vector: 100-node gossip chaos run
# ----------------------------------------------------------------------
#: Scenario for the pinned run: 100 nodes, gossip relay, light faults,
#: transactions flowing.  Changing *any* relay decision, RNG stream
#: consumption order, or message schema shifts these hashes.
def _golden_scenario() -> Scenario:
    return Scenario(
        seed=1234,
        n_nodes=100,
        ticks=150,
        mine_prob=0.12,
        mine_until=70,
        convergence_ticks=80,
        link=LinkFaults(delay=1, jitter=1, drop=0.02, duplicate=0.01),
        txs_per_block=2,
        tx_every=3,
        announce_every=8,
    ).with_relay("gossip")


GOLDEN_TRACE_SHA256 = (
    "007d8450fe8e7f18bb78ea39f9151d7914cc275dc77595523d2b8c5110ed3595"
)
GOLDEN_REPORT_SHA256 = (
    "577535301b746ce4295908e0171e1f4809267c67a9d99dbceab93b6179737374"
)


class TestGossipGoldenDeterminism:
    def _run(self):
        events: list[str] = []
        runner = ChaosRunner(
            _golden_scenario(),
            on_deliver=lambda tick, msg, outcome: events.append(
                f"{tick}:{msg.origin}->{msg.target}:{msg.kind}:{outcome}"
            ),
        )
        return runner.run(), events

    def test_delivery_trace_pinned(self):
        report, events = self._run()
        assert report.ok(), report.violations
        assert report.traffic["relay"] == "gossip"
        assert report.traffic["fanout"] == 9
        trace = hashlib.sha256("\n".join(events).encode()).hexdigest()
        assert trace == GOLDEN_TRACE_SHA256

    def test_replay_byte_identical(self):
        first, _ = self._run()
        second, _ = self._run()
        assert first.to_json() == second.to_json()
        digest = hashlib.sha256(first.to_json().encode()).hexdigest()
        assert digest == GOLDEN_REPORT_SHA256


# ----------------------------------------------------------------------
# relay efficiency + analytic model
# ----------------------------------------------------------------------
class TestRelayEfficiency:
    def test_gossip_beats_flood_on_messages(self):
        base = Scenario(
            seed=9, n_nodes=40, ticks=180, mine_prob=0.15, mine_until=100,
            convergence_ticks=80,
            link=LinkFaults(delay=1, jitter=1, drop=0.01),
        )
        flood = ChaosRunner(base).run()
        gossip = ChaosRunner(base.with_relay("gossip")).run()
        assert flood.ok() and gossip.ok()
        assert (
            gossip.traffic["messages_per_block"]
            < flood.traffic["messages_per_block"] / 3
        )

    def test_compact_beats_gossip_on_bytes(self):
        base = Scenario(
            seed=9, n_nodes=40, ticks=180, mine_prob=0.15, mine_until=100,
            convergence_ticks=80,
            link=LinkFaults(delay=1, jitter=1, drop=0.01),
            txs_per_block=3, tx_every=2, tx_size=256,
        )
        gossip = ChaosRunner(base.with_relay("gossip")).run()
        compact = ChaosRunner(base.with_relay("compact")).run()
        assert gossip.ok() and compact.ok()
        assert (
            compact.traffic["bytes_per_block"]
            < gossip.traffic["bytes_per_block"]
        )
        assert compact.messages.get("cmpct_reconstructed", 0) > 0

    def test_analytic_model_tracks_measurement(self):
        base = Scenario(
            seed=21, n_nodes=50, ticks=180, mine_prob=0.15, mine_until=100,
            convergence_ticks=80,
            link=LinkFaults(delay=1),
        ).with_relay("gossip")
        report = ChaosRunner(base).run()
        model = relay_traffic_model(50, "gossip")
        # Measured traffic adds inv/sync overhead on top of the modelled
        # announce+pull floor; both must sit in the same complexity class.
        assert model.messages_per_block <= report.traffic[
            "messages_per_block"
        ] <= 3 * model.messages_per_block

    def test_flood_model_exact(self):
        model = relay_traffic_model(100, "flood")
        assert model.messages_per_block == 9900 and model.hops == 1

    def test_model_rejects_unknown_relay(self):
        with pytest.raises(ChainError):
            relay_traffic_model(10, "carrier-pigeon")


# ----------------------------------------------------------------------
# hypothesis: convergence across the gossip parameter space
# ----------------------------------------------------------------------
class TestGossipConvergenceFuzz:
    @settings(max_examples=20, deadline=None)
    @given(
        fanout=st.integers(min_value=0, max_value=6),
        drop=st.floats(min_value=0.0, max_value=0.12),
        relay=st.sampled_from(["gossip", "compact"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_eventual_convergence(self, fanout, drop, relay, seed):
        scenario = Scenario(
            seed=seed, n_nodes=10, ticks=180, mine_prob=0.2, mine_until=80,
            convergence_ticks=100,
            link=LinkFaults(delay=1, jitter=2, drop=drop, duplicate=0.03),
            txs_per_block=1, tx_every=4,
            relay=relay, fanout=fanout,
        )
        report = ChaosRunner(scenario).run()
        assert report.ok(), (fanout, drop, relay, seed, report.violations)
        assert report.converged_tick is not None
