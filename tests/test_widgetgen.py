"""Widget generator tests: determinism, Table I field isolation, structure."""

import pytest

from repro.core.seed import HashSeed, SeedField
from repro.errors import ConfigError, GenerationError
from repro.isa.opcodes import OpClass, Opcode
from repro.rng import Xoshiro256
from repro.widgetgen.generator import generate_spec
from repro.widgetgen.ir import BlockSpec, GuardSpec, LoopSpec, WidgetSpec
from repro.widgetgen.memstream import plan_memory
from repro.widgetgen.params import GeneratorParams

from tests.conftest import seed_of


class TestParams:
    def test_defaults_valid(self):
        GeneratorParams()

    def test_test_scale_smaller_than_default(self):
        assert GeneratorParams.test_scale().target_instructions < GeneratorParams().target_instructions

    def test_full_scale_is_paper_scale(self):
        assert GeneratorParams.full_scale().target_instructions >= 1_000_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_instructions=10),
            dict(noise_fraction=1.5),
            dict(snapshot_interval=0),
            dict(mean_blocks=1),
            dict(size_jitter=(0.0, 1.0)),
            dict(size_jitter=(2.0, 1.0)),
            dict(inner_trips=(0, 4)),
            dict(guard_fraction=-0.1),
            dict(fuse_factor=1.0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorParams(**kwargs)


class TestMemoryPlan:
    def test_plan_deterministic_in_rng(self, leela_profile):
        a = plan_memory(leela_profile, Xoshiro256(1), 0.3)
        b = plan_memory(leela_profile, Xoshiro256(1), 0.3)
        assert a == b

    def test_regions_power_of_two(self, leela_profile):
        plan = plan_memory(leela_profile, Xoshiro256(1), 0.3)
        for words in (plan.hot_words, plan.cold_words, plan.ring_words):
            assert words == 0 or (words & (words - 1)) == 0

    def test_probabilities_sane(self, leela_profile):
        plan = plan_memory(leela_profile, Xoshiro256(1), 0.3)
        assert 0 <= plan.p_cold <= 0.6
        assert 0 <= plan.p_ring <= 0.3
        assert plan.p_cold + plan.p_ring <= 0.85

    def test_footprint_scales_with_duration(self, leela_profile):
        small = plan_memory(leela_profile, Xoshiro256(1), 0.05)
        large = plan_memory(leela_profile, Xoshiro256(1), 4.0)
        assert large.footprint_bytes() >= small.footprint_bytes()

    def test_directives_cover_regions(self, leela_profile):
        plan = plan_memory(leela_profile, Xoshiro256(1), 0.3)
        kinds = [d.kind for d in plan.directives()]
        assert kinds.count("random") == 2
        if plan.ring_words:
            assert "ring" in kinds

    def test_bad_duration_rejected(self, leela_profile):
        with pytest.raises(GenerationError):
            plan_memory(leela_profile, Xoshiro256(1), 0.0)


class TestIrAccounting:
    def test_block_expected_cost_counts_tokens(self):
        block = BlockSpec(
            pre=[("prng",), ("bump", "hot", 3)],
            guard=None,
            body=[("ins", int(Opcode.ADD), 6, 7, 8, 0), ("load", "hot", 6, 0)],
        )
        assert block.expected_cost() == 6 + 2 + 2

    def test_guarded_block_weights_body_by_exec_p(self):
        guard = GuardSpec(exec_p=0.5, threshold="mid", invert=False)
        block = BlockSpec(guard=guard, body=[("ins", int(Opcode.ADD), 6, 7, 8, 0)] * 4)
        # Guard costs 2 instructions (mix xor + branch); body weighted by exec_p.
        assert block.expected_cost() == pytest.approx(2 + 0.5 * 4)

    def test_dload_counts_two_instructions(self):
        block = BlockSpec(body=[("dload", "hot", 6, 7)])
        assert block.expected_cost() == 2
        classes = block.expected_classes()
        assert classes[OpClass.INT_ALU] == 1
        assert classes[OpClass.LOAD] == 1

    def test_loop_spec_validation(self):
        with pytest.raises(GenerationError):
            LoopSpec(start=3, end=2, trips=4)
        with pytest.raises(GenerationError):
            LoopSpec(start=0, end=1, trips=0)

    def test_guard_spec_validation(self):
        with pytest.raises(GenerationError):
            GuardSpec(exec_p=0.0, threshold="hi", invert=False)
        with pytest.raises(GenerationError):
            GuardSpec(exec_p=1.0, threshold="hi", invert=False)
        with pytest.raises(GenerationError):
            GuardSpec(exec_p=0.5, threshold="weird", invert=False)

    def test_widget_spec_validates_loop_overlap(self, leela_profile):
        plan = plan_memory(leela_profile, Xoshiro256(1), 0.3)
        spec = WidgetSpec(
            name="bad",
            seed_hex="00" * 32,
            blocks=[BlockSpec() for _ in range(6)],
            loops=[LoopSpec(0, 2, 4), LoopSpec(2, 4, 4)],
            outer_trips=1,
            plan=plan,
            snapshot_interval=100,
        )
        with pytest.raises(GenerationError):
            spec.validate()


class TestGeneratorDeterminism:
    def test_same_seed_same_spec_fingerprint(self, generator):
        w1 = generator.widget(seed_of("det"))
        w2 = generator.widget(seed_of("det"))
        assert w1.fingerprint() == w2.fingerprint()

    def test_different_seeds_different_programs(self, generator):
        fingerprints = {generator.widget(seed_of(i)).fingerprint() for i in range(8)}
        assert len(fingerprints) == 8

    def test_spec_size_near_target(self, generator, test_params):
        lo, hi = test_params.size_jitter
        for tag in range(6):
            spec = generator.spec(seed_of(tag))
            expected = spec.expected_instructions()
            assert lo * 0.8 <= expected / test_params.target_instructions <= hi * 1.2


class TestTableOneFieldIsolation:
    """Each Table I field must affect its designated aspect (and, for the
    noise fields, *only* increase its class's target)."""

    def _mix(self, profile, seed, params):
        spec = generate_spec(profile, seed, params)
        return spec.meta["target_mix"], spec

    @pytest.mark.parametrize(
        "field,mix_key",
        [
            (SeedField.INT_ALU, "int_alu"),
            (SeedField.INT_MUL, "int_mul"),
            (SeedField.FP_ALU, "fp_alu"),
            (SeedField.LOADS, "load"),
            (SeedField.STORES, "store"),
        ],
    )
    def test_noise_field_raises_its_class(self, leela_profile, test_params, field, mix_key):
        base_seed = HashSeed.from_fields([0] * 8)
        high_seed = base_seed.with_field(field, 2**32 - 1)
        base_mix, _ = self._mix(leela_profile, base_seed, test_params)
        high_mix, _ = self._mix(leela_profile, high_seed, test_params)
        # The noised class's share rises; every other class's share falls
        # or stays (renormalisation) — the "positive noise only" property.
        assert high_mix[mix_key] >= base_mix[mix_key]
        for key in base_mix:
            if key != mix_key:
                assert high_mix[key] <= base_mix[key] + 1e-12

    def test_noise_reduces_branch_fraction(self, leela_profile, test_params):
        """§V-B: positive noise on compute classes -> proportionally fewer
        branches."""
        base_seed = HashSeed.from_fields([0] * 8)
        noisy = HashSeed.from_fields([2**32 - 1] * 5 + [0, 0, 0])
        base_mix, _ = self._mix(leela_profile, base_seed, test_params)
        noisy_mix, _ = self._mix(leela_profile, noisy, test_params)
        assert noisy_mix["branch"] < base_mix["branch"]

    def test_branch_field_changes_taken_target(self, leela_profile, test_params):
        base = HashSeed.from_fields([7] * 8)
        low = base.with_field(SeedField.BRANCH_BEHAVIOR, 0)
        high = base.with_field(SeedField.BRANCH_BEHAVIOR, 2**32 - 1)
        _, spec_low = self._mix(leela_profile, low, test_params)
        _, spec_high = self._mix(leela_profile, high, test_params)
        assert spec_low.meta["target_taken_rate"] != spec_high.meta["target_taken_rate"]
        assert spec_low.meta["mid_threshold"] != spec_high.meta["mid_threshold"]

    def test_bbv_field_changes_structure_not_memory_plan(self, leela_profile, test_params):
        base = HashSeed.from_fields([7] * 8)
        other = base.with_field(SeedField.BBV_SEED, 12345)
        spec_a = generate_spec(leela_profile, base, test_params)
        spec_b = generate_spec(leela_profile, other, test_params)
        assert spec_a.plan == spec_b.plan  # memory comes from field 7
        from repro.widgetgen.codegen import compile_spec

        assert compile_spec(spec_a).fingerprint() != compile_spec(spec_b).fingerprint()

    def test_memory_field_changes_plan_seed(self, leela_profile, test_params):
        base = HashSeed.from_fields([7] * 8)
        other = base.with_field(SeedField.MEMORY_SEED, 999)
        spec_a = generate_spec(leela_profile, base, test_params)
        spec_b = generate_spec(leela_profile, other, test_params)
        assert spec_a.plan.fill_seed != spec_b.plan.fill_seed

    def test_noise_fields_do_not_change_structure_rngs(self, leela_profile, test_params):
        """Changing only field 0 leaves block/loop structure identical."""
        base = HashSeed.from_fields([7] * 8)
        other = base.with_field(SeedField.INT_ALU, 2**31)
        spec_a = generate_spec(leela_profile, base, test_params)
        spec_b = generate_spec(leela_profile, other, test_params)
        assert len(spec_a.blocks) == len(spec_b.blocks)
        assert spec_a.loops == spec_b.loops


class TestSpecStructure:
    def test_structure_within_configured_bounds(self, generator, test_params):
        for tag in range(6):
            spec = generator.spec(seed_of(tag))
            assert 4 <= len(spec.blocks) <= test_params.mean_blocks + 2
            assert len(spec.loops) <= test_params.max_inner_loops
            for loop in spec.loops:
                assert test_params.inner_trips[0] <= loop.trips <= test_params.inner_trips[1]

    def test_first_block_unguarded(self, generator):
        for tag in range(6):
            spec = generator.spec(seed_of(tag))
            assert spec.blocks[0].guard is None

    def test_prng_advances_amortised_over_guards(self, generator):
        # One advance per ~3 guards: at least one advance exists, and no
        # more advances than guarded blocks.
        spec = generator.spec(seed_of("prng"))
        guarded = [b for b in spec.blocks if b.guard is not None]
        advances = [b for b in spec.blocks if ("prng",) in b.pre]
        assert advances
        assert len(advances) <= len(guarded)
        assert all(b.guard is not None for b in advances)

    def test_expected_mix_close_to_target(self, generator):
        """The generator's own accounting must match its target mix."""
        spec = generator.spec(seed_of("mix"))
        expected = spec.expected_class_mix()
        target = spec.meta["target_mix"]
        for cls in (OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
            assert expected[cls] == pytest.approx(target[cls.name.lower()], abs=0.08)
        # The class counts and the cost model describe the same instructions.
        counts = spec.expected_class_counts()
        assert sum(counts.values()) == pytest.approx(spec.expected_iteration_cost())

    def test_fuse_exceeds_expected_instructions(self, generator):
        spec = generator.spec(seed_of("fuse"))
        assert spec.meta["fuse"] > 2 * spec.expected_instructions()
