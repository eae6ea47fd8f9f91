"""API-surface and small-path tests: reprs, caches, resets, edge paths
that the feature suites don't reach."""

import pytest

from tests.conftest import seed_of


class TestProgramCodeCache:
    def test_static_mix_counts_classes(self):
        from repro.isa.builder import ProgramBuilder
        from repro.isa.opcodes import OpClass

        b = ProgramBuilder()
        b.movi(1, 5)
        b.fadd(0, 1, 2)
        b.load(2, 1, 0)
        program = b.build()
        mix = program.static_mix()
        assert mix[OpClass.INT_ALU] == 1
        assert mix[OpClass.FP_ALU] == 1
        assert mix[OpClass.LOAD] == 1
        assert mix[OpClass.SYSTEM] == 1  # auto HALT


class TestReprsAndStrs:
    def test_hash_gate_repr(self):
        from repro.core.hash_gate import HashGate

        assert "sha256" in repr(HashGate())

    def test_seed_str_truncates(self):
        assert "…" in str(seed_of("x"))

    def test_instruction_str(self):
        from repro.isa.instructions import Instruction
        from repro.isa.opcodes import Opcode

        text = str(Instruction(int(Opcode.ADD), 1, 2, 3))
        assert "ADD" in text

    def test_execution_result_output_size(self, machine):
        from repro.isa.builder import ProgramBuilder

        b = ProgramBuilder()
        b.movi(1, 1)
        result = machine.run(b.build(), snapshot_interval=1)
        assert result.output_size == len(result.output)


class TestResets:
    def test_hierarchy_reset_clears_everything(self):
        from repro.machine.cache import CacheHierarchy
        from repro.machine.config import MachineConfig
        import dataclasses

        hierarchy = CacheHierarchy(
            dataclasses.replace(MachineConfig(), prefetch_next_line=True)
        )
        hierarchy.access(0)
        hierarchy.reset()
        assert hierarchy.dram_accesses == 0
        assert hierarchy.prefetches == 0
        assert hierarchy.l1.hits == 0

    def test_machine_initial_register_length_checked(self, machine):
        from repro.errors import ExecutionError
        from repro.isa.builder import ProgramBuilder

        b = ProgramBuilder()
        b.nop()
        with pytest.raises(ExecutionError):
            machine.run(b.build(), initial_iregs=[1, 2, 3])

    def test_initial_registers_masked(self, machine):
        from repro.isa.builder import ProgramBuilder

        b = ProgramBuilder()
        b.nop()
        result = machine.run(b.build(), initial_iregs=[1 << 70] + [0] * 15)
        assert result.iregs[0] == (1 << 70) & ((1 << 64) - 1)


class TestWorkloadImage:
    def test_instruction_budget_enforced(self, machine):
        import dataclasses

        from repro.errors import ExecutionLimitExceeded
        from repro.workloads.leela import LeelaWorkload

        image = LeelaWorkload().build()
        tight = dataclasses.replace(image) if hasattr(image, "__dataclass_fields__") else image
        tight.instruction_budget = 1000
        with pytest.raises(ExecutionLimitExceeded):
            tight.run(machine)

    def test_snapshot_interval_passthrough(self, machine):
        from repro.workloads.matrix import MatrixWorkload

        image = MatrixWorkload().build()
        result = image.run(machine, snapshot_interval=100_000)
        assert result.snapshots >= 2


class TestMempoolBounds:
    def test_select_rejects_zero(self, machine):
        from repro.blockchain.ledger import Ledger
        from repro.blockchain.mempool import Mempool
        from repro.errors import ChainError

        with pytest.raises(ChainError):
            Mempool(Ledger()).select(0)


class TestSpecMeta:
    def test_meta_records_profile_and_jitter(self, generator):
        spec = generator.spec(seed_of("meta2"))
        assert spec.meta["profile"] == "leela"
        lo, hi = generator.params.size_jitter
        assert lo <= spec.meta["size_jitter"] <= hi
