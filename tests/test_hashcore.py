"""HashCore end-to-end tests: determinism, structure, avalanche,
irreducibility — the §IV/§V properties."""

import hashlib

import pytest

from repro.core.hash_gate import HashGate, hash_gate
from repro.core.hashcore import HashCore
from repro.core.seed import HashSeed
from repro.machine.cpu import Machine
from repro.widgetgen.params import GeneratorParams

from tests.conftest import seed_of


@pytest.fixture(scope="module")
def hashcore(leela_profile, test_params):
    return HashCore(profile=leela_profile, params=test_params)


class TestHashGate:
    def test_default_is_sha256(self):
        assert hash_gate(b"abc") == hashlib.sha256(b"abc").digest()

    def test_gate_wrapper_checks_size(self):
        bad = HashGate(fn=lambda data: b"short", digest_size=32, name="bad")
        with pytest.raises(ValueError):
            bad(b"x")

    def test_custom_gate(self):
        gate = HashGate(fn=lambda d: hashlib.sha256(d).digest()[:16], digest_size=16)
        assert len(gate(b"x")) == 16


class TestComposition:
    """H(x) = G(s || W(s)) with s = G(x) — the Figure 1 dataflow."""

    def test_seed_is_first_gate_output(self, hashcore):
        assert hashcore.seed_of(b"input").raw == hash_gate(b"input")

    def test_digest_is_second_gate_over_seed_and_output(self, hashcore):
        trace = hashcore.hash_with_trace(b"input")
        expected = hash_gate(trace.seed.raw + trace.result.output)
        assert trace.digest == expected

    def test_digest_is_32_bytes(self, hashcore):
        assert len(hashcore.hash(b"abc")) == 32

    def test_widget_determined_by_seed(self, hashcore):
        seed = hashcore.seed_of(b"payload")
        w1 = hashcore.widget_for(seed)
        w2 = hashcore.widget_for(seed)
        assert w1.fingerprint() == w2.fingerprint()


class TestCacheStats:
    def test_programs_sum_the_jit_counter_pair(self, leela_profile,
                                              test_params):
        core = HashCore(profile=leela_profile, params=test_params)
        core.hash(b"cache-stats")
        core.hash(b"cache-stats")  # a widget-cache hit reuses the artifact
        stats = core.cache_stats()
        assert set(stats) == {
            "widget_cache", "programs", "tiers", "jit_templates",
        }
        assert stats["programs"] == {"jit_builds": 1, "jit_hits": 1}


class TestDeterminismAndVerification:
    def test_hash_is_deterministic(self, hashcore):
        assert hashcore.hash(b"block") == hashcore.hash(b"block")

    def test_verify_accepts_correct_digest(self, hashcore):
        digest = hashcore.hash(b"block")
        assert hashcore.verify(b"block", digest)

    def test_verify_rejects_wrong_digest(self, hashcore):
        digest = bytearray(hashcore.hash(b"block"))
        digest[0] ^= 1
        assert not hashcore.verify(b"block", bytes(digest))

    def test_independent_instances_agree(self, leela_profile, test_params):
        # Two "miners" with the same consensus parameters.
        a = HashCore(profile=leela_profile, params=test_params)
        b = HashCore(profile=leela_profile, params=test_params)
        assert a.hash(b"consensus") == b.hash(b"consensus")

    def test_different_params_change_hash(self, leela_profile, test_params):
        a = HashCore(profile=leela_profile, params=test_params)
        other = GeneratorParams(
            target_instructions=test_params.target_instructions * 2,
            snapshot_interval=test_params.snapshot_interval,
        )
        b = HashCore(profile=leela_profile, params=other)
        assert a.hash(b"x") != b.hash(b"x")


class TestAvalanche:
    def test_input_bit_flip_decorrelates_output(self, hashcore):
        base = hashcore.hash(b"avalanche-test")
        flipped = hashcore.hash(b"avalanche-tesu")  # one bit differs
        distance = bin(
            int.from_bytes(base, "big") ^ int.from_bytes(flipped, "big")
        ).count("1")
        assert 80 <= distance <= 176  # ~128 expected for 256-bit output

    def test_distinct_inputs_distinct_digests(self, hashcore):
        digests = {hashcore.hash(str(i).encode()) for i in range(8)}
        assert len(digests) == 8


class TestIrreducibility:
    """§IV-A: the output must depend on *complete* widget execution."""

    def test_truncated_execution_changes_output(self, hashcore):
        trace = hashcore.hash_with_trace(b"irreducible")
        widget = trace.widget
        # Re-run the same widget but stop the outer loop one trip early by
        # regenerating with fewer trips — the cheapest imaginable shortcut.
        spec = widget.spec
        spec_short = type(spec)(
            name=spec.name,
            seed_hex=spec.seed_hex,
            blocks=spec.blocks,
            loops=spec.loops,
            outer_trips=spec.outer_trips - 1,
            plan=spec.plan,
            snapshot_interval=spec.snapshot_interval,
            meta=dict(spec.meta),
        )
        from repro.core.widget import Widget
        from repro.widgetgen.codegen import compile_spec

        short = Widget(spec=spec_short, program=compile_spec(spec_short))
        machine = Machine()
        assert short.execute(machine).output != trace.result.output

    def test_output_covers_register_state_evolution(self, hashcore):
        trace = hashcore.hash_with_trace(b"snapshots")
        result = trace.result
        assert result.snapshots >= 2
        size = 256  # 16 int + 16 fp registers, 8 bytes each
        first = result.output[:size]
        last = result.output[-size:]
        assert first != last  # state evolves between snapshots

    def test_output_size_in_paper_band_at_full_ratio(self, leela_profile):
        # At default (60k-instruction) scale the output lands in the
        # paper's 20-38 KB band; test scale shrinks proportionally.
        hc = HashCore(profile=leela_profile)  # default params
        trace = hc.hash_with_trace(b"size-check")
        assert 15_000 <= trace.result.output_size <= 45_000


class TestWidgetAccessors:
    def test_code_bytes_positive(self, hashcore):
        widget = hashcore.widget_for(seed_of("w"))
        assert widget.code_bytes() > 100

    def test_widget_name_carries_seed(self, hashcore):
        seed = seed_of("w")
        widget = hashcore.widget_for(seed)
        assert seed.hex[:12] in widget.name


class TestIrreducibilityPerBlock:
    """§IV-A: "certain code segments cannot be skipped and the output
    cannot be predicted without full execution" — dropping any single
    always-executed block's body must change the widget output."""

    def test_skipping_any_unguarded_block_changes_output(self, hashcore):
        from repro.core.widget import Widget
        from repro.widgetgen.codegen import compile_spec
        from repro.widgetgen.ir import BlockSpec, WidgetSpec

        trace = hashcore.hash_with_trace(b"block-skip")
        spec = trace.widget.spec
        machine = hashcore.machine
        baseline = trace.result.output

        checked = 0
        for index, block in enumerate(spec.blocks):
            if block.guard is not None or not block.body:
                continue  # guarded bodies may legitimately not execute
            mutated_blocks = list(spec.blocks)
            mutated_blocks[index] = BlockSpec(
                pre=list(block.pre), guard=None, body=[]
            )
            mutated = WidgetSpec(
                name=spec.name,
                seed_hex=spec.seed_hex,
                blocks=mutated_blocks,
                loops=spec.loops,
                outer_trips=spec.outer_trips,
                plan=spec.plan,
                snapshot_interval=spec.snapshot_interval,
                meta=dict(spec.meta),
            )
            widget = Widget(spec=mutated, program=compile_spec(mutated))
            assert widget.execute(machine).output != baseline, f"block {index}"
            checked += 1
        assert checked >= 1
