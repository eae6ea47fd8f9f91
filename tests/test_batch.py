"""Differential and behavioural tests for the tier-3 batch lockstep engine.

The batch engine (:mod:`repro.machine.batch`) advances N independent
widget executions per dispatch step — registers and memory are
``(N,)``-shaped numpy arrays, divergent control flow is handled with
per-lane active masks and min-pc-first scheduling.  Like every other
tier it must stay *bit-identical* to the timed interpreter on everything
architectural: output bytes, register files, memory words, snapshots,
halting, retired counts, and the exception a runaway lane raises.  Any
divergence would fork consensus between batch miners and everyone else,
so the checks cover: generated widgets across every machine preset,
hypothesis-fuzzed straight-line *and* branchy programs, hand-built
divergence-heavy multi-lane ensembles, per-lane fuse trips, and the
ladder's batch→jit degradation when batch translation is poisoned.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.hashcore import HashCore
from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.machine.batch import compile_batch, run_batch
from repro.machine.config import PRESETS, preset
from repro.machine.cpu import Machine
from repro.machine.memory import Memory

from tests.conftest import seed_of
from tests.test_differential import branchy_programs, programs
from tests.test_fastpath import (
    _assert_same_architectural,
    _loop_forever,
    _run_widget,
    _small_machine,
    _SMALL_WORDS,
)
from repro.widgetgen.generator import WidgetGenerator

pytestmark = pytest.mark.batch

np = pytest.importorskip("numpy")


def _boom(*_args, **_kwargs):
    raise RuntimeError("injected batch tier fault")


def _widget_memories(widget, machine, lanes, perturb=True):
    """Per-lane memories from the widget's plan, optionally perturbed so
    every lane is a distinct execution."""
    memories = []
    for lane in range(lanes):
        memory = machine.new_memory()
        for directive in widget.spec.plan.directives():
            directive.apply(memory)
        if perturb and lane:
            memory.write(0, (memory.read(0) + lane) & ((1 << 64) - 1))
        memories.append(memory)
    return memories


def _run_widget_batch(widget, machine, memories):
    return run_batch(
        machine,
        widget.program,
        memories,
        max_instructions=int(widget.spec.meta.get("fuse", 10_000_000)),
        snapshot_interval=widget.spec.snapshot_interval,
    )


class TestWidgetDifferential:
    """Batch vs timed over generated widgets, across every preset."""

    def test_fifty_fuzzed_seeds_bit_identical(self, generator):
        machine = _small_machine()
        for i in range(50):
            widget = generator.widget(seed_of(f"batch-{i}"))
            timed, mem_t = _run_widget(widget, machine, mode="timed")
            batch, mem_b = _run_widget(widget, machine, mode="batch")
            _assert_same_architectural(
                timed, batch, mem_ref=mem_t, mem_got=mem_b
            )

    def test_fuzzed_seeds_on_every_preset(self, leela_profile, test_params):
        generator = WidgetGenerator(leela_profile, test_params)
        for name in sorted(PRESETS):
            machine = Machine(preset(name).scaled_memory(_SMALL_WORDS))
            for i in range(4):
                widget = generator.widget(seed_of(f"batch-{name}-{i}"))
                timed, mem_t = _run_widget(widget, machine, mode="timed")
                batch, mem_b = _run_widget(widget, machine, mode="batch")
                _assert_same_architectural(
                    timed, batch, mem_ref=mem_t, mem_got=mem_b
                )

    def test_all_presets_digest_parity(self, test_params):
        data = b"batch preset parity"
        for name in sorted(PRESETS):
            batch_core = HashCore(
                machine=preset(name), params=test_params, mode="batch"
            )
            timed_core = HashCore(
                machine=preset(name), params=test_params, mode="timed"
            )
            assert batch_core.hash(data) == timed_core.hash(data), name


class TestMultiLane:
    """N > 1 lanes must equal N independent scalar runs, lane by lane."""

    def test_one_lane_equals_scalar(self, generator):
        widget = generator.widget(seed_of("batch-n1"))
        machine = _small_machine()
        timed, mem_t = _run_widget(widget, machine, mode="timed")
        memory = _widget_memories(widget, machine, 1)[0]
        (batch,) = _run_widget_batch(widget, machine, [memory])
        _assert_same_architectural(
            timed, batch, mem_ref=mem_t, mem_got=memory
        )

    def test_perturbed_lanes_match_scalar(self, generator):
        widget = generator.widget(seed_of("batch-multilane"))
        machine = _small_machine()
        lanes = 8
        batch_mems = _widget_memories(widget, machine, lanes)
        results = _run_widget_batch(widget, machine, batch_mems)
        scalar_mems = _widget_memories(widget, machine, lanes)
        for lane in range(lanes):
            scalar = machine.run(
                widget.program,
                scalar_mems[lane],
                max_instructions=int(
                    widget.spec.meta.get("fuse", 10_000_000)
                ),
                snapshot_interval=widget.spec.snapshot_interval,
                mode="fast",
            )
            _assert_same_architectural(
                scalar,
                results[lane],
                mem_ref=scalar_mems[lane],
                mem_got=batch_mems[lane],
            )

    def test_ndarray_memories_run_in_place(self, generator):
        """The (N, W) ndarray path is zero-copy: rows are mutated in
        place and match the Memory-list path bit for bit."""
        widget = generator.widget(seed_of("batch-ndarray"))
        machine = _small_machine()
        lanes = 4
        list_mems = _widget_memories(widget, machine, lanes)
        mem2d = np.stack(
            [np.array(m.np_words(), dtype=np.uint64) for m in list_mems]
        )
        from_list = _run_widget_batch(widget, machine, list_mems)
        from_array = _run_widget_batch(widget, machine, mem2d)
        for lane in range(lanes):
            _assert_same_architectural(from_list[lane], from_array[lane])
            assert bytes(list_mems[lane].words) == mem2d[lane].tobytes()

    def test_divergence_heavy_program(self):
        """Lanes taking opposite sides of every branch still match their
        scalar runs — the min-pc scheduler must mask and reconverge."""
        program = Program(instructions=[
            Instruction(int(Opcode.LOAD), 0, 15, 0, 0),    # r0 = mem[0]
            Instruction(int(Opcode.ANDI), 1, 0, 0, 1),     # r1 = r0 & 1
            Instruction(int(Opcode.BNE), 0, 1, 15, 6),     # odd lanes jump
            Instruction(int(Opcode.MOVI), 2, 0, 0, 111),
            Instruction(int(Opcode.ADDI), 2, 2, 0, 1000),
            Instruction(int(Opcode.JMP), 0, 0, 0, 8),
            Instruction(int(Opcode.MOVI), 2, 0, 0, 222),
            Instruction(int(Opcode.MUL), 2, 2, 0),         # r2 *= r0
            Instruction(int(Opcode.STORE), 2, 15, 0, 1),   # mem[1] = r2
            Instruction(int(Opcode.ANDI), 3, 0, 0, 7),
            Instruction(int(Opcode.ADDI), 3, 3, 0, 1),
            Instruction(int(Opcode.ADDI), 4, 4, 0, 3),     # loop body
            Instruction(int(Opcode.LOOPNZ), 3, 0, 0, 11),  # lane-varying trip
            Instruction(int(Opcode.HALT)),
        ])
        program.validate()
        machine = _small_machine()
        lanes = 16
        batch_mems = []
        scalar_mems = []
        for lane in range(lanes):
            for bucket in (batch_mems, scalar_mems):
                memory = Memory(_SMALL_WORDS)
                memory.write(0, lane)
                bucket.append(memory)
        results = run_batch(
            machine, program, batch_mems,
            max_instructions=1000, snapshot_interval=3,
        )
        for lane in range(lanes):
            scalar = machine.run(
                program, scalar_mems[lane],
                max_instructions=1000, snapshot_interval=3, mode="timed",
            )
            _assert_same_architectural(
                scalar, results[lane],
                mem_ref=scalar_mems[lane], mem_got=batch_mems[lane],
            )


class TestHypothesisDifferential:
    """Batch vs timed on hypothesis-fuzzed programs (one lane: the batch
    engine must be a bit-exact scalar interpreter before it is a SIMT
    one)."""

    @settings(max_examples=60, deadline=None)
    @given(programs)
    def test_batch_matches_timed_straight_line(self, instructions):
        program = Program(
            instructions=instructions + [Instruction(int(Opcode.HALT))]
        )
        program.validate()
        machine = _small_machine()
        mem_timed = Memory(_SMALL_WORDS)
        timed = machine.run(program, mem_timed, max_instructions=1000)
        mem_batch = Memory(_SMALL_WORDS)
        (batch,) = run_batch(
            machine, program, [mem_batch], max_instructions=1000
        )
        _assert_same_architectural(
            timed, batch, mem_ref=mem_timed, mem_got=mem_batch
        )

    @settings(max_examples=60, deadline=None)
    @given(branchy_programs())
    def test_batch_matches_timed_branchy(self, instructions):
        program = Program(
            instructions=instructions + [Instruction(int(Opcode.HALT))]
        )
        program.validate()
        machine = _small_machine()
        mem_timed = Memory(_SMALL_WORDS)
        mem_batch = Memory(_SMALL_WORDS)
        try:
            timed = machine.run(
                program, mem_timed, max_instructions=300,
                snapshot_interval=7,
            )
        except ExecutionLimitExceeded:
            with pytest.raises(ExecutionLimitExceeded):
                run_batch(
                    machine, program, [mem_batch],
                    max_instructions=300, snapshot_interval=7,
                )
            return
        (batch,) = run_batch(
            machine, program, [mem_batch],
            max_instructions=300, snapshot_interval=7,
        )
        _assert_same_architectural(
            timed, batch, mem_ref=mem_timed, mem_got=mem_batch
        )


def _variable_trip_program() -> Program:
    """``mem[0]`` iterations of a two-instruction loop, then HALT —
    lane-controlled runtimes for the per-lane fuse tests."""
    return Program(instructions=[
        Instruction(int(Opcode.LOAD), 0, 15, 0, 0),
        Instruction(int(Opcode.ADDI), 1, 1, 0, 1),
        Instruction(int(Opcode.LOOPNZ), 0, 0, 0, 1),
        Instruction(int(Opcode.HALT)),
    ])


class TestPerLaneLimits:
    """A fuse trip is per-lane: one runaway lane must not take down —
    or slow down the accounting of — its neighbours."""

    def test_collect_errors_isolates_runaway_lanes(self):
        machine = _small_machine()
        program = _variable_trip_program()
        trips = [1, 500, 2, 500, 3]  # budget 100: lanes 1 and 3 blow up
        memories = []
        for trip in trips:
            memory = Memory(_SMALL_WORDS)
            memory.write(0, trip)
            memories.append(memory)
        results = run_batch(
            machine, program, memories,
            max_instructions=100, collect_errors=True,
        )
        for lane, trip in enumerate(trips):
            if trip > 100:
                assert isinstance(results[lane], ExecutionLimitExceeded)
            else:
                assert results[lane].halted
                assert int(results[lane].iregs[1]) == trip

    def test_error_message_matches_scalar(self):
        machine = _small_machine()
        program = _loop_forever()
        with pytest.raises(ExecutionLimitExceeded) as scalar:
            machine.run(program, max_instructions=50, mode="fast")
        memory = Memory(_SMALL_WORDS)
        with pytest.raises(ExecutionLimitExceeded) as batch:
            run_batch(machine, program, [memory], max_instructions=50)
        assert str(batch.value) == str(scalar.value)

    def test_default_mode_raises_first_error(self):
        machine = _small_machine()
        program = _variable_trip_program()
        memories = []
        for trip in (1, 500):
            memory = Memory(_SMALL_WORDS)
            memory.write(0, trip)
            memories.append(memory)
        with pytest.raises(ExecutionLimitExceeded):
            run_batch(machine, program, memories, max_instructions=100)


class TestTierFallback:
    """Poisoned batch translation must degrade to the scalar JIT with the
    ladder's bookkeeping intact — never crash, never change a digest."""

    def test_batch_compile_failure_falls_back_to_jit(
        self, generator, monkeypatch
    ):
        clean = generator.widget(seed_of("batch-fallback"))
        expected = clean.execute(Machine(), mode="jit")

        widget = generator.widget(seed_of("batch-fallback"))
        machine = Machine()
        monkeypatch.setattr(Program, "batch_code", _boom)
        result = widget.execute(machine, mode="batch")

        assert result.output == expected.output
        stats = machine.tier_stats()
        assert stats["degradations"] == {"batch->jit": 1}
        assert stats["runs"]["jit"] == 1
        assert stats["runs"]["batch"] == 0
        assert widget.program.tier_blocked("batch")
        assert "batch" in widget.program.cache_stats()["blocked_tiers"]

    def test_blocked_batch_tier_is_skipped_silently(
        self, generator, monkeypatch
    ):
        widget = generator.widget(seed_of("batch-fallback-rerun"))
        machine = Machine()
        monkeypatch.setattr(Program, "batch_code", _boom)
        first = widget.execute(machine, mode="batch")
        second = widget.execute(machine, mode="batch")
        assert first.output == second.output
        assert machine.tier_stats()["degradations"] == {"batch->jit": 1}
        assert machine.tier_stats()["runs"]["jit"] == 2

    def test_hash_batch_survives_batch_poisoning(
        self, test_params, monkeypatch
    ):
        datas = [b"batch-poison-%d" % i for i in range(3)]
        clean = HashCore(params=test_params, mode="batch")
        expected = clean.hash_batch(datas)

        core = HashCore(params=test_params, mode="batch")
        monkeypatch.setattr(Program, "batch_code", _boom)
        assert core.hash_batch(datas) == expected


class TestBatchApi:
    """Input validation and the compile_batch artifact."""

    def test_batch_code_cached_and_invalidated(self):
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 7),
            Instruction(int(Opcode.HALT)),
        ])
        code = compile_batch(program)
        assert code.length == 2
        assert program.batch_code().length == 2
        assert program.batch_code() is program.batch_code()
        program.invalidate_code()
        assert program.cache_stats()["batch_ready"] is False

    def test_rejects_bad_ndarray(self):
        machine = _small_machine()
        program = Program(instructions=[Instruction(int(Opcode.HALT))])
        with pytest.raises(ExecutionError):
            run_batch(
                machine, program,
                np.zeros((2, 100), dtype=np.uint64),  # not a power of two
            )
        with pytest.raises(ExecutionError):
            run_batch(
                machine, program,
                np.zeros((2, 64), dtype=np.int64),  # wrong dtype
            )

    def test_hash_batch_lockstep_groups_shared_programs(self, test_params):
        """Inputs selecting byte-identical programs form one lockstep
        group; everything else stays scalar.  (Distinct mining nonces
        essentially never share a program — the dedup below repeats
        *inputs*, which must NOT be double-executed either.)"""
        core = HashCore(params=test_params, mode="batch")
        datas = [b"lockstep-a", b"lockstep-b", b"lockstep-a"]
        digests = core.hash_batch(datas)
        assert digests[0] == digests[2]
        stats = core.cache_stats()["hash_batch"]
        assert stats["inputs"] == 3
        assert stats["unique"] == 2  # the repeat was deduplicated
