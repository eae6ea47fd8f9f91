"""Multi-node propagation tests: forks, orphans, reorgs, convergence.

The network is a :class:`~repro.blockchain.sim.ChaosNetwork` whose
scenario injects no faults — flood relay over links with a fixed delay —
so every outcome here is plain consensus behaviour.
"""

import pytest

from repro.baselines.sha256d import Sha256d
from repro.blockchain.difficulty import RetargetSchedule
from repro.blockchain.faults import LinkFaults, Scenario
from repro.blockchain.node import Node
from repro.blockchain.sim import ChaosNetwork
from repro.core.pow import difficulty_to_target, target_to_compact
from repro.errors import ChainError

# The network's genesis bits and retarget schedule, for standalone nodes
# that must accept the blocks it mines.
EASY = target_to_compact(difficulty_to_target(16.0))
SCHEDULE = RetargetSchedule(interval=10_000)  # retargeting out of the way


def network(n=3, delay=1):
    return ChaosNetwork(
        Scenario(n_nodes=n, relay="flood", link=LinkFaults(delay=delay),
                 difficulty=16.0, retarget_interval=10_000),
        Sha256d(),
    )


def settle(net):
    """Tick long enough for every block to arrive and be re-flooded."""
    for _ in range(2 * net.scenario.link.delay):
        net.tick()


def heights(net):
    return [node.chain.height() for node in net.nodes]


def mined_chain(n):
    """``n`` consecutive blocks mined on node 0 of a two-node network."""
    net = network(2)
    return [net.mine_on(0, [f"b{i}".encode()], timestamp=30 * (i + 1))
            for i in range(n)]


class TestBasicGossip:
    def test_block_propagates_after_delay(self):
        net = network(3, delay=2)
        net.mine_on(0, [b"tx"], timestamp=30)
        assert heights(net) == [1, 0, 0]
        net.tick()
        assert heights(net) == [1, 0, 0]  # still in flight
        net.tick()
        assert heights(net) == [1, 1, 1]
        assert net.converged()

    def test_sequential_blocks_converge(self):
        net = network(3)
        for height in range(1, 5):
            net.mine_on(height % 3, [b"tx"], timestamp=30 * height)
            settle(net)
        assert net.converged()
        assert heights(net) == [4, 4, 4]


class TestForksAndReorgs:
    def test_concurrent_blocks_fork_then_resolve(self):
        net = network(2, delay=3)
        # Both nodes mine on genesis before hearing from each other.
        net.mine_on(0, [b"from-0"], timestamp=30, start_nonce=0)
        net.mine_on(1, [b"from-1"], timestamp=31, start_nonce=10**6)
        settle(net)
        # Equal work: each keeps its own tip (first seen) — a live fork.
        assert not net.converged()
        # Node 1 extends its branch; node 0 must reorg onto it.
        net.mine_on(1, [b"extend"], timestamp=60)
        settle(net)
        assert net.converged()
        assert [node.reorgs for node in net.nodes] == [1, 0]
        assert heights(net) == [2, 2]

    def test_reorg_counter_counts_tip_switches(self):
        net = network(2, delay=10)  # long partition
        net.mine_on(0, [b"a1"], timestamp=30)
        net.mine_on(1, [b"b1"], timestamp=31, start_nonce=10**6)
        net.mine_on(1, [b"b2"], timestamp=60, start_nonce=10**6)
        settle(net)
        assert net.converged()
        # Node 0 had height 1 on branch A, then adopted branch B (height 2).
        assert net.nodes[0].reorgs == 1
        assert net.nodes[1].reorgs == 0

    def test_losing_branch_blocks_retained(self):
        net = network(2, delay=10)
        net.mine_on(0, [b"a1"], timestamp=30)
        net.mine_on(1, [b"b1"], timestamp=31, start_nonce=10**6)
        net.mine_on(1, [b"b2"], timestamp=60, start_nonce=10**6)
        settle(net)
        # All four blocks (genesis + a1 + b1 + b2) known to both nodes.
        assert len(net.nodes[0].chain) == 4
        assert len(net.nodes[1].chain) == 4


class TestOrphanBuffer:
    def test_out_of_order_delivery_buffers_and_drains(self):
        # Deliver a child before its parent.
        first, second = mined_chain(2)
        fresh = Node("late", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        assert not fresh.receive(second)       # parent unknown: buffered
        assert fresh.orphan_count() == 1
        assert fresh.receive(first)            # parent arrives...
        assert fresh.orphan_count() == 0       # ...child drained
        assert fresh.chain.height() == 2

    def test_grandchild_chain_drains_recursively(self):
        blocks = mined_chain(3)
        late = Node("late", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        assert not late.receive(blocks[2])
        assert not late.receive(blocks[1])
        assert late.receive(blocks[0])
        assert late.chain.height() == 3

    def test_invalid_block_rejected_quietly(self):
        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        from repro.blockchain.block import Block

        bogus = Block.build(node.tip_id(), [b"x"], 30, EASY)  # unmined
        assert not node.receive(bogus)
        assert node.chain.height() == 0


class TestNetworkConstruction:
    def test_nodes_named(self):
        net = network(3)
        assert [n.name for n in net.nodes] == ["node0", "node1", "node2"]


class TestReceiveResult:
    def test_accepted_result_truthy_with_status(self):
        (block,) = mined_chain(1)
        fresh = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        result = fresh.receive(block)
        assert result
        assert result.status == "accepted"
        assert result.code is None

    def test_orphan_result_reports_unknown_parent(self):
        _, child = mined_chain(2)
        fresh = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        result = fresh.receive(child)
        assert not result
        assert (result.status, result.code) == ("orphaned", "unknown-parent")
        # Same block again: deduplicated, not double-buffered.
        again = fresh.receive(child)
        assert (again.status, again.code) == ("orphaned", "already-buffered")
        assert fresh.orphan_count() == 1

    def test_rejection_carries_validation_code(self):
        from repro.blockchain.block import Block

        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        bogus = Block.build(node.tip_id(), [b"x"], 30, EASY)  # unmined
        result = node.receive(bogus)
        assert (result.status, result.code) == ("rejected", "bad-pow")
        assert node.rejections["bad-pow"] == 1


class TestOrphanCap:
    def test_fifo_eviction_beyond_cap(self):
        blocks = mined_chain(6)
        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY,
                    max_orphans=3)
        for block in blocks[1:]:  # five orphans into a three-slot buffer
            node.receive(block)
        assert node.orphan_count() == 3
        assert node.orphans_evicted == 2
        # The two oldest (blocks[1], blocks[2]) were evicted, so delivering
        # the root connects only itself — the chain is broken at the hole.
        assert node.receive(blocks[0])
        assert node.chain.height() == 1
        assert node.orphan_count() == 3
        assert node.stats()["orphans_evicted"] == 2

    def test_cap_validates(self):
        with pytest.raises(ChainError):
            Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY,
                 max_orphans=0)

    def test_missing_parents_lists_resync_targets(self):
        blocks = mined_chain(3)
        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        node.receive(blocks[2])
        node.receive(blocks[1])
        from repro.blockchain.chain import block_id

        # Both buffered blocks wait on parents outside the chain: blocks[2]
        # on the (merely buffered) blocks[1], blocks[1] on blocks[0].
        assert set(node.missing_parents()) == {block_id(blocks[1]),
                                               block_id(blocks[0])}
        assert node.knows(block_id(blocks[1]))      # buffered counts
        assert not node.knows(block_id(blocks[0]))  # truly missing

    def test_two_thousand_block_orphan_chain_drains_iteratively(self):
        # Regression: _drain_orphans used to recurse per connected child;
        # a deep buffered chain overflowed the interpreter stack near the
        # default recursion limit (~1000).  The worklist version must chew
        # through 2000 blocks flat.
        blocks = mined_chain(2000)
        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY,
                    max_orphans=2500)
        for block in reversed(blocks[1:]):
            node.receive(block)
        assert node.orphan_count() == 1999
        assert node.receive(blocks[0])
        assert node.chain.height() == 2000
        assert node.orphan_count() == 0
        assert node.accepted == 2000


class TestCrashRestart:
    def test_crash_drops_traffic_and_orphans(self):
        _, child = mined_chain(2)
        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        node.receive(child)
        assert node.orphan_count() == 1
        node.crash()
        assert not node.alive
        assert node.orphan_count() == 0  # in-memory buffer lost
        result = node.receive(child)
        assert (result.status, result.accepted) == ("offline", False)
        node.restart()
        assert node.alive
        assert node.receive(child).status == "orphaned"
        assert node.stats()["crashes"] == 1

    def test_chain_survives_crash(self):
        (block,) = mined_chain(1)
        node = Node("n", Sha256d(), schedule=SCHEDULE, genesis_bits=EASY)
        node.receive(block)
        node.crash()
        node.restart()
        assert node.chain.height() == 1  # the chain is "on disk"
