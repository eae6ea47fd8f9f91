"""Differential and behavioural tests for the dual-path execution engine.

The fast path (:mod:`repro.machine.fastpath`) must be *bit-identical* to
the timing path on everything architectural — output bytes, register
files, memory, snapshots, halting, retired count, even the exception a
runaway program raises — because HashCore digests are computed from that
state and any divergence would fork consensus between fast miners and
timed profilers.  The threaded-code fast path is checked against the
timed interpreter over generated widgets, hypothesis-fuzzed programs, and
hand-built edge cases (HALT-vs-budget ordering, snapshot boundaries,
initial register files).
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings

from repro.core.hashcore import HashCore
from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.machine.config import PRESETS, preset
from repro.machine.cpu import EXECUTION_MODES, Machine
from repro.machine.fastpath import run_fast
from repro.machine.memory import Memory
from repro.widgetgen.params import GeneratorParams

from tests.conftest import seed_of
from tests.test_differential import programs

# A small machine keeps per-run memory allocation cheap; memory size is a
# consensus parameter, but both paths always share one config here so the
# comparison is exact regardless of the size chosen.
_SMALL_WORDS = 1 << 16


def _small_machine(mode: str = "timed") -> Machine:
    return Machine(Machine().config.scaled_memory(_SMALL_WORDS), mode=mode)


def _run_widget(widget, machine, **kwargs):
    """Execute a widget the way Widget.execute does, returning (result, memory)."""
    memory = machine.new_memory()
    for directive in widget.spec.plan.directives():
        directive.apply(memory)
    result = machine.run(
        widget.program,
        memory,
        max_instructions=int(widget.spec.meta.get("fuse", 10_000_000)),
        snapshot_interval=widget.spec.snapshot_interval,
        **kwargs,
    )
    return result, memory


def _assert_same_architectural(ref, got, *, mem_ref=None, mem_got=None):
    assert got.output == ref.output
    assert got.iregs == ref.iregs
    assert got.fregs == ref.fregs
    assert got.halted == ref.halted
    assert got.snapshots == ref.snapshots
    assert got.counters.retired == ref.counters.retired
    if mem_ref is not None:
        assert mem_got.words == mem_ref.words


class TestWidgetDifferential:
    """Fast path vs timed path over generated widgets (the real workload)."""

    def test_fifty_fuzzed_seeds_bit_identical(self, generator):
        machine = _small_machine()
        for i in range(50):
            widget = generator.widget(seed_of(f"fastpath-{i}"))
            timed, mem_t = _run_widget(widget, machine, mode="timed")
            fast, mem_f = _run_widget(widget, machine, mode="fast")
            _assert_same_architectural(
                timed, fast, mem_ref=mem_t, mem_got=mem_f
            )

    def test_all_presets_digest_parity(self, test_params):
        data = b"dual-path preset parity"
        for name in sorted(PRESETS):
            fast_core = HashCore(
                machine=preset(name), params=test_params, mode="fast"
            )
            timed_core = HashCore(
                machine=preset(name), params=test_params, mode="timed"
            )
            assert fast_core.hash(data) == timed_core.hash(data), name


class TestHypothesisDifferential:
    """Fast-vs-timed agreement on hypothesis-fuzzed straight-line programs."""

    @settings(max_examples=60, deadline=None)
    @given(programs)
    def test_fast_matches_timed(self, instructions):
        program = Program(instructions=instructions + [Instruction(int(Opcode.HALT))])
        program.validate()
        machine = _small_machine()

        mem_timed = Memory(_SMALL_WORDS)
        timed = machine.run(program, mem_timed, max_instructions=1000)
        mem_fast = Memory(_SMALL_WORDS)
        fast = run_fast(machine, program, mem_fast, max_instructions=1000)
        _assert_same_architectural(
            timed, fast, mem_ref=mem_timed, mem_got=mem_fast
        )


def _loop_forever() -> Program:
    return Program(instructions=[
        Instruction(int(Opcode.MOVI), 0, 0, 0, 1),
        Instruction(int(Opcode.JMP), 0, 0, 0, 0),
    ])


class TestEdgeCaseParity:
    """Hand-built corners where the two paths could plausibly diverge."""

    def test_limit_exceeded_message_parity(self):
        machine = _small_machine()
        program = _loop_forever()
        messages = []
        for mode in EXECUTION_MODES:
            with pytest.raises(ExecutionLimitExceeded) as excinfo:
                machine.run(program, max_instructions=100, mode=mode)
            messages.append(str(excinfo.value))
        assert len(set(messages)) == 1, dict(zip(EXECUTION_MODES, messages))

    def test_halt_does_not_consume_budget_on_either_path(self):
        # 5 NOPs + HALT: the HALT retires but must not count against the
        # budget, so max_instructions=6 succeeds and =5 raises — on both
        # paths, with identical retired counts.
        machine = _small_machine()
        program = Program(instructions=[
            *[Instruction(int(Opcode.NOP)) for _ in range(5)],
            Instruction(int(Opcode.HALT)),
        ])
        for mode in EXECUTION_MODES:
            result = machine.run(program, max_instructions=6, mode=mode)
            assert result.halted and result.counters.retired == 6, mode
            with pytest.raises(ExecutionLimitExceeded):
                machine.run(program, max_instructions=5, mode=mode)

    def test_snapshot_boundary_parity(self):
        # Final instruction landing exactly on a snapshot boundary must not
        # double-emit: interval snapshots plus the one final snapshot.
        machine = _small_machine()
        program = Program(instructions=[
            *[Instruction(int(Opcode.MOVI), i % 16, 0, 0, i) for i in range(10)],
            Instruction(int(Opcode.HALT)),
        ])
        timed = machine.run(program, snapshot_interval=5, mode="timed")
        fast = machine.run(program, snapshot_interval=5, mode="fast")
        _assert_same_architectural(timed, fast)
        assert fast.snapshots == timed.snapshots >= 2

    def test_initial_register_parity(self):
        machine = _small_machine()
        program = Program(instructions=[
            Instruction(int(Opcode.ADD), 0, 1, 2),
            Instruction(int(Opcode.FADD), 0, 1, 2),
            Instruction(int(Opcode.HALT)),
        ])
        iregs = [(1 << 64) + i for i in range(16)]  # over-wide: must mask
        fregs = [0.5 * i for i in range(16)]
        timed = machine.run(
            program, initial_iregs=iregs, initial_fregs=fregs, mode="timed"
        )
        fast = machine.run(
            program, initial_iregs=iregs, initial_fregs=fregs, mode="fast"
        )
        _assert_same_architectural(timed, fast)

    def test_bad_register_lengths_rejected(self):
        machine = _small_machine()
        program = Program(instructions=[Instruction(int(Opcode.HALT))])
        with pytest.raises(ExecutionError):
            run_fast(machine, program, initial_iregs=[0] * 3)
        with pytest.raises(ExecutionError):
            run_fast(machine, program, initial_fregs=[0.0] * 3)
        with pytest.raises(ExecutionError):
            run_fast(machine, program, max_instructions=0)


class TestModeKnob:
    """The mode plumbing through Machine / HashCore / traces."""

    def test_unknown_modes_rejected(self):
        with pytest.raises(ExecutionError):
            Machine(mode="warp")
        machine = _small_machine()
        program = Program(instructions=[Instruction(int(Opcode.HALT))])
        with pytest.raises(ExecutionError):
            machine.run(program, mode="warp")
        with pytest.raises(ValueError):
            HashCore(mode="warp")

    def test_fast_mode_skips_timing(self):
        machine = _small_machine("fast")
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 7),
            Instruction(int(Opcode.HALT)),
        ])
        result = machine.run(program)
        assert result.counters.retired == 2
        assert result.counters.cycles == 0  # no timing model ran

    def test_collect_detail_forces_timed_path(self):
        machine = _small_machine("fast")
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 7),
            Instruction(int(Opcode.HALT)),
        ])
        result = machine.run(program, collect_detail=True)
        assert result.counters.cycles > 0  # timing model ran despite mode

    def test_trace_defaults_to_timed_counters(self, test_params):
        core = HashCore(machine=_small_machine(), params=test_params)
        assert core.mode == "jit"
        trace = core.hash_with_trace(b"trace-default")
        assert trace.result.counters.cycles > 0
        fast_trace = core.hash_with_trace(b"trace-default", mode="fast")
        assert fast_trace.result.counters.cycles == 0
        assert fast_trace.digest == trace.digest
        assert trace.widgets and trace.results  # explicit, non-None lists

    def test_program_handler_cache(self):
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 3),
            Instruction(int(Opcode.HALT)),
        ])
        handlers = program.fast_handlers()
        assert program.fast_handlers() is handlers  # cached
        program.instructions.append(Instruction(int(Opcode.HALT)))
        program.invalidate_code()
        rebuilt = program.fast_handlers()
        assert rebuilt is not handlers and len(rebuilt) == 3


class TestFastPathSpeed:
    """Tier-1 smoke: the fast path must not be slower than the timed path.

    The headline >=3x speedup is measured at full widget scale by
    ``benchmarks/bench_hashrate.py`` (recorded in BENCH_hashrate.json);
    asserting the full ratio here would make the tier-1 suite flaky on
    loaded CI machines, so this only guards the sign of the win.
    """

    def test_fast_not_slower_than_timed(self, generator):
        machine = _small_machine()
        widget = generator.widget(seed_of("fastpath-speed"))

        def best_of(mode: str, repeats: int = 3) -> float:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                _run_widget(widget, machine, mode=mode)
                best = min(best, time.perf_counter() - start)
            return best

        _run_widget(widget, machine, mode="fast")  # warm handler cache
        assert best_of("fast") <= best_of("timed")
