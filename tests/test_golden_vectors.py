"""Consensus golden vectors.

A PoW function is a consensus rule: *any* behavioural change to the seed
split, generator, code generator, memory initialisation, or simulator
semantics forks the chain.  These vectors pin the complete pipeline at
test-scale parameters, and the population pin covers the generator at
default scale too; if one fails, the change is consensus-breaking and
must be treated as a new network version (regenerate deliberately with
the printed values).
"""

import dataclasses
import hashlib

import pytest

from repro.core.default_profile import default_profile
from repro.core.hashcore import HashCore
from repro.core.rotation import RotatingHashCore, SelectionHashCore
from repro.core.suite_profiles import suite_profiles
from repro.machine.config import PRESETS, preset
from repro.machine.cpu import EXECUTION_MODES
from repro.widgetgen.codegen import compile_spec
from repro.widgetgen.generator import generate_spec
from repro.widgetgen.params import GeneratorParams
from repro.widgetgen.pool import WidgetPool

from tests.conftest import seed_of

GOLDEN = {
    b"": "eb6b97e8ae7fd0ed53ea8733b51b32137747a6fcc4fb4f46cb98d19dd9ae999b",
    b"abc": "00710c0ed82c0a52bb4858655829ca9b77e9cb50a8880efeae2ea5c8e0fbf1a1",
    b"hashcore golden vector":
        "9d8846ed4542a238ebc7872389ad6d216568a4a9d7a8ff74e4b12d2c8e3878a2",
    bytes(range(64)):
        "18d4a0db9892034ad50c61f0f0d87a5cb58c22414c20c92482b9a41c497e4d74",
}

GOLDEN_MULTI_ABC = "3b46df741d0268eabb17c006830fc34a21d6f5fa375fd6880942a81f68d4a5ae"

#: ``H(b"abc")`` for the two HashCore variants at test scale: rotation over
#: the consensus suite profiles, and selection of 2 widgets from an 8-member
#: pool built against the default profile.
GOLDEN_ROTATING_ABC = (
    "676aba709facfdb13e0b7bd4fab3da03a923edfbfd58f66967aee454dd15d577"
)
GOLDEN_SELECTION_ABC = (
    "c3c89d8d02c8cd60188d40763c782ab56ddfcd2e88d64056dbbb0fca0e2ef944"
)

#: One SHA-256 over every generated widget's program fingerprint, outer
#: trips and fuse: 32 seeds × (each suite profile, plus the default with an
#: all-zero stride histogram and with an all-zero dependency histogram) ×
#: (default, test scale).  Pins the generator itself across profiles,
#: scales and its zero-histogram branches, not just the four inputs above.
GOLDEN_POPULATION = (
    "9914c6fb0330d25f083cd4ea63036704d25992e0c5fd54c3c9b78de4841049e8"
)


@pytest.fixture(scope="module")
def cores():
    """One test-scale HashCore per execution tier."""
    return {
        mode: HashCore(params=GeneratorParams.test_scale(), mode=mode)
        for mode in EXECUTION_MODES
    }


class TestGoldenVectors:
    # Every tier must reproduce every vector.  The tiers are looped inside
    # each test (the failing tier is named in the assertion) so the test
    # ids stay the same whatever the ladder holds.
    @pytest.mark.parametrize("data", list(GOLDEN))
    def test_digest_pinned(self, cores, data):
        for mode, hashcore in cores.items():
            assert hashcore.hash(data).hex() == GOLDEN[data], mode

    def test_multi_widget_pinned(self):
        for mode in EXECUTION_MODES:
            hashcore = HashCore(params=GeneratorParams.test_scale(),
                                widgets_per_hash=2, mode=mode)
            assert hashcore.hash(b"abc").hex() == GOLDEN_MULTI_ABC, mode

    def test_hash_batch_dedups_in_input_order(self):
        hashcore = HashCore(params=GeneratorParams.test_scale())
        digests = hashcore.hash_batch([b"abc", b"", b"abc"])
        assert [digest.hex() for digest in digests] == [
            GOLDEN[b"abc"], GOLDEN[b""], GOLDEN[b"abc"],
        ]
        # The repeated input is hashed once: two widgets generated, and
        # no second lookup of b"abc"'s widget.
        widget_cache = hashcore.cache_stats()["widget_cache"]
        assert (widget_cache["misses"], widget_cache["hits"]) == (2, 0)

    def test_vectors_distinct(self):
        assert len(set(GOLDEN.values())) == len(GOLDEN)


class TestConformanceMatrix:
    """Microarchitecture never changes ``H(x)``: every machine preset on
    every tier, and every HashCore variant on every tier, reproduces one
    pinned digest per input.  Memory size is consensus (addresses wrap
    modulo it), yet the presets' 2^20 and 2^21 words agree at test scale."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_reproduces_golden(self, name):
        params = GeneratorParams.test_scale()
        for mode in EXECUTION_MODES:
            hashcore = HashCore(machine=preset(name), params=params, mode=mode)
            for data, digest in GOLDEN.items():
                assert hashcore.hash(data).hex() == digest, (mode, data)
            multi = HashCore(machine=preset(name), params=params,
                             widgets_per_hash=2, mode=mode)
            assert multi.hash(b"abc").hex() == GOLDEN_MULTI_ABC, mode

    def test_rotating_pinned(self):
        for mode in EXECUTION_MODES:
            rotating = RotatingHashCore(
                suite_profiles(), params=GeneratorParams.test_scale(),
                mode=mode,
            )
            assert rotating.hash(b"abc").hex() == GOLDEN_ROTATING_ABC, mode

    def test_selection_pinned(self):
        pool = WidgetPool(
            default_profile(), GeneratorParams.test_scale(), pool_size=8
        )
        for mode in EXECUTION_MODES:
            selection = SelectionHashCore(pool, widgets_per_hash=2, mode=mode)
            assert selection.hash(b"abc").hex() == GOLDEN_SELECTION_ABC, mode


class TestGeneratorPopulation:
    def test_population_pinned(self):
        base = default_profile()
        no_strides = dataclasses.replace(
            base, stride_hist=[0.0] * len(base.stride_hist)
        )
        no_deps = dataclasses.replace(
            base, dep_distance_hist=[0.0] * len(base.dep_distance_hist)
        )
        digest = hashlib.sha256()
        for params in (GeneratorParams(), GeneratorParams.test_scale()):
            for profile in suite_profiles() + (no_strides, no_deps):
                for n in range(32):
                    spec = generate_spec(profile, seed_of(f"population-{n}"), params)
                    fingerprint = compile_spec(spec).fingerprint()
                    digest.update(
                        f"{fingerprint}:{spec.outer_trips}:{spec.meta['fuse']}\n"
                        .encode()
                    )
                    if profile is no_strides:
                        # The zero-total draw yields stride 0: no hot bumps.
                        assert not any(
                            token[:2] == ("bump", "hot")
                            for block in spec.blocks for token in block.pre
                        )
        assert digest.hexdigest() == GOLDEN_POPULATION


# ----------------------------------------------------------------------
# Gossip-layer golden vector.  The chaos harness replays entire fault
# schedules from one seed, which is only sound if the underlying P2P
# delivery order is itself deterministic.  This pins the complete delivery
# trace (tick, origin, target, message kind, block id, outcome) plus the
# resulting reorg counts for a fixed 3-node, delay=2 flood fork scenario on
# a fault-free ChaosNetwork — including the first-seen tie-break that
# leaves node2 on its own equal-work branch.
GOLDEN_GOSSIP_TRACE = (
    "af38eb66767f2227113d43905f2eed79e81904bc0066fc84975505afee436bb9"
)
GOLDEN_GOSSIP_REORGS = [1, 0, 0]
GOLDEN_GOSSIP_TIPS = ["025a0dcd3926d697", "025a0dcd3926d697", "04a6638aab1f5e44"]


class TestGossipGoldenVector:
    def _run(self):
        from repro.baselines.sha256d import Sha256d
        from repro.blockchain.chain import block_id
        from repro.blockchain.faults import LinkFaults, Scenario
        from repro.blockchain.sim import ChaosNetwork

        net = ChaosNetwork(
            Scenario(n_nodes=3, relay="flood", link=LinkFaults(delay=2),
                     difficulty=16.0, retarget_interval=10_000),
            Sha256d(),
        )
        events = []
        net.on_deliver = lambda tick, msg, outcome: events.append(
            f"{tick}:{msg.origin}->{msg.target}:{msg.kind}:"
            f"{block_id(msg.block).hex()[:12]}:{outcome}"
        )
        net.mine_on(0, [b"a1"], timestamp=30, start_nonce=0)
        net.mine_on(1, [b"b1"], timestamp=31, start_nonce=10**6)
        net.tick()
        net.mine_on(1, [b"b2"], timestamp=60, start_nonce=10**6)
        net.tick()
        net.mine_on(2, [b"c3"], timestamp=90, start_nonce=5 * 10**5)
        for _ in range(4):  # twice the link delay: arrive, then re-flood
            net.tick()
        trace = hashlib.sha256("\n".join(events).encode()).hexdigest()
        return net, events, trace

    def test_delivery_order_pinned(self):
        net, events, trace = self._run()
        assert len(events) == 16
        assert trace == GOLDEN_GOSSIP_TRACE

    def test_reorgs_and_tips_pinned(self):
        net, _, _ = self._run()
        assert [n.reorgs for n in net.nodes] == GOLDEN_GOSSIP_REORGS
        assert [n.chain.tip_id.hex()[:16] for n in net.nodes] == GOLDEN_GOSSIP_TIPS
        assert [n.chain.height() for n in net.nodes] == [2, 2, 2]
