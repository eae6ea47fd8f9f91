"""Differential durability: the same chaos schedule, run in memory and
run through the on-disk block store, is *indistinguishable* — byte-equal
reports and equal tips.

The store wiring must be a pure persistence layer: it consumes no RNG,
bumps no counters, and its crash/restart path (close handle → rescan →
replay) must land each node in exactly the state the in-memory fiction
("keep the chain, lose the orphans") produces.  Any divergence — an
extra message, a replay that double-counts, a recovery that drops a
block — shows up as a report diff.

After the durable run, the left-behind ``node*.log`` files are reopened
cold (a fresh :class:`Blockchain` over each) and must replay to the
reported tips.
"""

from __future__ import annotations

import pytest

from repro.baselines.sha256d import Sha256d
from repro.blockchain import BlockStore, Blockchain
from repro.blockchain.difficulty import RetargetSchedule
from repro.blockchain.faults import Crash, LinkFaults, Partition, Scenario
from repro.blockchain.sim import ChaosRunner
from repro.core.pow import difficulty_to_target, target_to_compact

pytestmark = [pytest.mark.store, pytest.mark.chaos]

#: ~200 honest blocks (0.3/tick over 660 mining ticks), three staggered
#: crash/restart faults, one partition, lossy jittered links.
DURABILITY = Scenario(
    n_nodes=4,
    seed=20,
    ticks=760,
    link=LinkFaults(delay=1, jitter=2, drop=0.05, duplicate=0.02),
    partitions=(Partition(start=120, end=170, groups=((0, 1), (2, 3))),),
    crashes=(
        Crash(node=1, at=60, restart_at=110),
        Crash(node=3, at=300, restart_at=360),
        Crash(node=2, at=500, restart_at=560),
    ),
    mine_prob=0.3,
    convergence_ticks=100,
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The scenario executed twice: volatile, then store-backed."""
    store_dir = tmp_path_factory.mktemp("durability")
    baseline = ChaosRunner(DURABILITY).run()
    durable = ChaosRunner(DURABILITY, store_dir=store_dir).run()
    return baseline, durable, store_dir


def replayed_chain(store_dir, index: int) -> Blockchain:
    """Cold-open one node's log exactly as the chaos net built it."""
    store = BlockStore(store_dir / f"node{index}.log")
    store.reopen()
    assert store.recovery == {"dropped_bytes": 0, "reason": None}
    return Blockchain(
        Sha256d(),
        RetargetSchedule(
            block_time=float(DURABILITY.block_time),
            interval=DURABILITY.retarget_interval,
        ),
        genesis_bits=target_to_compact(
            difficulty_to_target(DURABILITY.difficulty)
        ),
        store=store,
    )


class TestDifferentialDurability:
    def test_reports_are_byte_identical(self, runs):
        baseline, durable, _ = runs
        assert baseline.ok() and durable.ok()
        assert baseline.to_json() == durable.to_json()

    def test_scenario_is_substantial(self, runs):
        baseline, _, _ = runs
        # The schedule actually stresses the store: a real chain (~200
        # blocks), every scheduled crash taken, full convergence.
        assert baseline.blocks_mined >= 150
        assert [n["crashes"] for n in baseline.nodes] == [0, 1, 1, 1]
        assert baseline.converged_tick is not None

    def test_stores_replay_to_reported_tips(self, runs):
        _, durable, store_dir = runs
        for i, stats in enumerate(durable.nodes):
            chain = replayed_chain(store_dir, i)
            assert chain.tip_id.hex()[:16] == stats["tip"]
            assert chain.height() == stats["height"]
            assert chain.total_work() == stats["total_work"]

