"""Differential and behavioural tests for the JIT.

The JIT (:mod:`repro.machine.jit`) translates each widget program into
specialized Python source — compiled loop regions that take snapshots in
place — and steps through threaded-code handlers everywhere else.  It
must stay *bit-identical* to the timed interpreter on everything
architectural: output bytes, register files, memory words, snapshots,
halting, retired counts, and the exception a runaway program raises.  Any
divergence would fork consensus between JIT miners and everyone else, so
the checks here are exhaustive: generated widgets (whose programs contain
the nested-loop shapes the region compiler exists for), hypothesis-fuzzed
straight-line programs (which have no regions, so every instruction goes
through the handlers), branchy programs, structured loop nests that
compile to regions, every machine preset, and the hand-built edge cases
where a compiler is most likely to drift from an interpreter
(HALT-vs-budget ordering, snapshot windows smaller than a loop body,
initial register files).  The mode plumbing through Machine / HashCore /
traces is checked here too.
"""

from __future__ import annotations

import gc
import time
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hashcore import HashCore
from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.instructions import Instruction
from repro.isa.opcodes import BRANCH_OPCODES, Opcode
from repro.isa.program import Program
from repro.machine.config import PRESETS, preset
from repro.machine.cpu import (
    EXECUTION_MODES,
    FASTEST_MODE,
    Machine,
    resolve_mode,
)
from repro.machine.jit import (
    clear_template_cache,
    compile_jit,
    run_jit,
    template_cache_stats,
)
from repro.machine.memory import Memory

from tests.conftest import seed_of
from tests.test_differential import (
    _assert_same_architectural,
    _loop_forever,
    _run_widget,
    _small_machine,
    _SMALL_WORDS,
    branchy_programs,
    loop_nests,
    programs,
)


def _assert_jit_twice_matches(program: Program, machine: Machine,
                              run) -> None:
    """Run ``program`` twice on ``machine``'s JIT — the first run
    translates it (unless the caller already did), the second reuses the
    cached artifact — and check each against the timed tier.

    ``run(mode)`` executes the program once on ``machine`` and returns
    ``(result, memory)``, or ``("limit", None)`` when the fuse trips.
    """
    built = int(not program.jit_ready)
    before = machine.tier_stats()["jit_artifacts"]
    ref, mem_ref = run("timed")
    for _ in range(2):
        got, mem_got = run("jit")
        if ref == "limit" or got == "limit":
            assert got == ref
        else:
            _assert_same_architectural(
                ref, got, mem_ref=mem_ref, mem_got=mem_got
            )
    after = machine.tier_stats()["jit_artifacts"]
    assert {key: after[key] - before[key] for key in after} == {
        "builds": built, "reuses": 2 - built,
    }


def _run_or_limit(machine, program, **kwargs):
    """``run`` callback for :func:`_assert_jit_twice_matches` over a bare
    program on a zeroed memory."""

    def run(mode: str):
        memory = Memory(_SMALL_WORDS)
        try:
            return machine.run(program, memory, mode=mode, **kwargs), memory
        except ExecutionLimitExceeded:
            return "limit", None

    return run


class TestWidgetDifferential:
    """JIT vs timed path over generated widgets (the real workload)."""

    def test_fifty_fuzzed_seeds_bit_identical(self, generator):
        machine = _small_machine()
        for i in range(50):
            widget = generator.widget(seed_of(f"jit-{i}"))
            _assert_jit_twice_matches(
                widget.program, machine,
                lambda mode, w=widget: _run_widget(w, machine, mode=mode),
            )

    def test_all_presets_digest_parity(self, test_params):
        data = b"jit preset parity"
        for name in sorted(PRESETS):
            jit_core = HashCore(
                machine=preset(name), params=test_params, mode="jit"
            )
            timed_core = HashCore(
                machine=preset(name), params=test_params, mode="timed"
            )
            assert jit_core.hash(data) == timed_core.hash(data), name


class TestHypothesisDifferential:
    """JIT vs timed agreement on hypothesis-fuzzed programs, on a
    program's first and second run."""

    @settings(max_examples=60, deadline=None)
    @given(programs)
    def test_jit_matches_timed(self, instructions):
        program = Program(
            instructions=instructions + [Instruction(int(Opcode.HALT))]
        )
        program.validate()
        # Straight-line code has no loop regions, so the first run drives
        # every instruction through the threaded handlers.
        assert all(region is None for region in program.jit_code().regions)
        machine = _small_machine()
        _assert_jit_twice_matches(
            program, machine,
            _run_or_limit(machine, program, max_instructions=1000),
        )

    @settings(max_examples=60, deadline=None)
    @given(branchy_programs(), st.integers(0, 48), st.integers(1, 400))
    def test_jit_matches_timed_branchy(self, instructions, interval, budget):
        # Drawn snapshot windows (0: off) and budgets put snapshots and
        # fuse trips at every offset of handler-stepped code and of the
        # occasional region.
        program = Program(
            instructions=instructions + [Instruction(int(Opcode.HALT))]
        )
        program.validate()
        machine = _small_machine()
        _assert_jit_twice_matches(
            program, machine,
            _run_or_limit(
                machine, program, max_instructions=budget,
                snapshot_interval=interval,
            ),
        )

    @settings(max_examples=60, deadline=None)
    @given(loop_nests(), st.integers(1, 48), st.integers(1, 600))
    def test_jit_matches_timed_loop_nests(self, instructions, interval, budget):
        # Random branch targets rarely form a nest the region compiler
        # accepts; these always do, so snapshots land at every offset of
        # region blocks (several in one block when the window is short)
        # and the fuse trips inside regions, often right after a store
        # to a word the block loaded.
        program = Program(instructions=instructions)
        program.validate()
        assert any(region is not None for region in program.jit_code().regions)
        machine = _small_machine()
        _assert_jit_twice_matches(
            program, machine,
            _run_or_limit(
                machine, program, max_instructions=budget,
                snapshot_interval=interval,
            ),
        )


def _countdown_loop(iterations: int, adds: int = 1) -> Program:
    """MOVI n; loop { ``adds`` ADDIs; decrement via LOOPNZ } ; HALT.

    Each ``adds`` gives the program its own shape."""
    return Program(instructions=[
        Instruction(int(Opcode.MOVI), 0, 0, 0, iterations),
        *[Instruction(int(Opcode.ADDI), 1, 1, 0, 3)] * adds,
        Instruction(int(Opcode.LOOPNZ), 0, 0, 0, 1),
        Instruction(int(Opcode.HALT)),
    ])


#: Every opcode that can sit in a straight-line body (HALT ends one).
_BODY_OPS = [
    op for op in Opcode if int(op) not in BRANCH_OPCODES and op != Opcode.HALT
]
#: ``(a, b, c)`` operand patterns: distinct, then every aliasing of them.
_ALIASINGS = [(1, 2, 3), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 1, 1)]


def _aliasing_program(op: Opcode, operands, *, loop: bool) -> Program:
    """One ``op`` instruction after a ``VBROADCAST`` preamble that fills
    the vector file from the FP file; ``loop`` runs it as the body of a
    3-iteration ``LOOPNZ r15`` loop."""
    preamble = [
        Instruction(int(Opcode.VBROADCAST), k, k) for k in range(8)
    ]
    body = [Instruction(int(op), *operands, -7)]
    if loop:
        head = len(preamble) + 1
        body = [
            Instruction(int(Opcode.MOVI), 15, 0, 0, 3),
            *body,
            Instruction(int(Opcode.LOOPNZ), 15, 0, 0, head),
        ]
    return Program(
        instructions=preamble + body + [Instruction(int(Opcode.HALT))]
    )


class TestEdgeCaseParity:
    """Corners where a compiler most plausibly diverges from the spec."""

    def test_limit_exceeded_message_parity(self):
        machine = _small_machine()
        program = _loop_forever()
        messages = set()
        for mode in EXECUTION_MODES:
            with pytest.raises(ExecutionLimitExceeded) as excinfo:
                machine.run(program, max_instructions=100, mode=mode)
            messages.add(str(excinfo.value))
        assert len(messages) == 1  # identical on both tiers

    def test_halt_does_not_consume_budget(self):
        machine = _small_machine()
        program = Program(instructions=[
            *[Instruction(int(Opcode.NOP)) for _ in range(5)],
            Instruction(int(Opcode.HALT)),
        ])
        result = machine.run(program, max_instructions=6, mode="jit")
        assert result.halted and result.counters.retired == 6
        with pytest.raises(ExecutionLimitExceeded):
            machine.run(program, max_instructions=5, mode="jit")

    def test_loop_budget_exact_boundary(self):
        # 100 iterations × 2 instructions + MOVI + HALT = 202 retirements.
        # The fuse must trip inside the region at exactly the
        # interpreter's budget boundary, which a HALT does not count
        # against.
        machine = _small_machine()
        program = _countdown_loop(100)
        for budget in (202, 201):
            outcomes = []
            for mode in EXECUTION_MODES:
                try:
                    res = machine.run(
                        program, max_instructions=budget, mode=mode
                    )
                    outcomes.append(("ok", res.counters.retired, res.halted))
                except ExecutionLimitExceeded:
                    outcomes.append(("limit",))
            assert len(set(outcomes)) == 1, (budget, outcomes)
        assert outcomes[0] == ("limit",)  # 201 must trip on every tier

    def test_snapshot_interval_inside_loop_body(self):
        # A snapshot window no larger than one loop iteration puts one or
        # more snapshots inside a region block, each taken in place; they
        # must land on exactly the same retirement counts.
        machine = _small_machine()
        program = _countdown_loop(40)
        for interval in (1, 2, 3, 7):
            timed = machine.run(
                program, snapshot_interval=interval, mode="timed"
            )
            jit = machine.run(program, snapshot_interval=interval, mode="jit")
            _assert_same_architectural(timed, jit)
            assert jit.snapshots == timed.snapshots >= 2

    def test_snapshot_boundary_parity(self):
        machine = _small_machine()
        program = Program(instructions=[
            *[Instruction(int(Opcode.MOVI), i % 16, 0, 0, i) for i in range(10)],
            Instruction(int(Opcode.HALT)),
        ])
        timed = machine.run(program, snapshot_interval=5, mode="timed")
        jit = machine.run(program, snapshot_interval=5, mode="jit")
        _assert_same_architectural(timed, jit)
        assert jit.snapshots == timed.snapshots >= 2

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
        jit = machine.run(
            program, initial_iregs=iregs, initial_fregs=fregs, mode="jit"
        )
        _assert_same_architectural(timed, jit)

    @pytest.mark.parametrize("operands", _ALIASINGS, ids=str)
    @pytest.mark.parametrize("op", _BODY_OPS, ids=lambda op: op.name)
    def test_aliased_operand_parity(self, op, operands):
        # Handlers and regions address registers differently (``i[A]``
        # against locals), so an op whose destination aliases a source
        # is where they could drift from the timed model.  The
        # straight-line program runs on handlers; the loop runs in a
        # region.
        iregs = [0x9E3779B97F4A7C15 * (k + 1) % (1 << 64) for k in range(16)]
        fregs = [1.5 * k - 7.25 for k in range(16)]
        for loop in (False, True):
            program = _aliasing_program(op, operands, loop=loop)
            program.validate()
            regions = program.jit_code().regions
            assert any(r is not None for r in regions) == loop
            machine = _small_machine()
            _assert_jit_twice_matches(
                program, machine,
                _run_or_limit(
                    machine, program,
                    initial_iregs=iregs, initial_fregs=fregs,
                ),
            )

    def test_bad_arguments_rejected(self):
        machine = _small_machine()
        program = Program(instructions=[Instruction(int(Opcode.HALT))])
        with pytest.raises(ExecutionError):
            run_jit(machine, program, initial_iregs=[0] * 3)
        with pytest.raises(ExecutionError):
            run_jit(machine, program, initial_fregs=[0.0] * 3)
        with pytest.raises(ExecutionError):
            run_jit(machine, program, max_instructions=0)


class TestModeResolution:
    """The mode plumbing through Machine / HashCore / traces: 'auto'
    resolves to the JIT everywhere it is accepted, and no other name does
    anything but raise."""

    def test_resolve_mode(self):
        assert FASTEST_MODE == "jit"
        assert resolve_mode("auto") == "jit"
        for mode in EXECUTION_MODES:
            assert resolve_mode(mode) == mode
        with pytest.raises(ValueError):
            resolve_mode("warp")

    def test_hashcore_defaults_to_jit(self, test_params):
        core = HashCore(machine=_small_machine(), params=test_params)
        assert core.mode == "jit"
        explicit = HashCore(
            machine=_small_machine(), params=test_params, mode="auto"
        )
        assert explicit.mode == "jit"

    def test_machine_accepts_jit_mode(self):
        machine = _small_machine()
        program = _countdown_loop(10)
        result = machine.run(program, mode="jit")
        assert result.halted
        assert result.counters.cycles == 0  # no timing model ran

    def test_unknown_modes_rejected(self):
        machine = _small_machine()
        program = Program(instructions=[Instruction(int(Opcode.HALT))])
        for mode in ("warp", "fast"):
            with pytest.raises(ExecutionError):
                machine.run(program, mode=mode)
            with pytest.raises(ExecutionError):
                machine.run_with_fallback(program, mode=mode)
            with pytest.raises(ValueError):
                HashCore(mode=mode)

    def test_collect_detail_forces_timed_path(self):
        machine = _small_machine()
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 7),
            Instruction(int(Opcode.HALT)),
        ])
        result = machine.run(program, collect_detail=True, mode="jit")
        assert result.counters.cycles > 0  # timing model ran despite mode

    def test_trace_defaults_to_timed_counters(self, test_params):
        core = HashCore(machine=_small_machine(), params=test_params)
        assert core.mode == "jit"
        trace = core.hash_with_trace(b"trace-default")
        assert trace.result.counters.cycles > 0
        jit_trace = core.hash_with_trace(b"trace-default", mode="jit")
        assert jit_trace.result.counters.cycles == 0
        assert jit_trace.digest == trace.digest
        assert trace.widgets and trace.results  # explicit, non-None lists


class TestCompilation:
    """The compiled artifact itself: caching, immutability, region shape."""

    def test_jit_code_cached_and_invalidated(self):
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 3),
            Instruction(int(Opcode.HALT)),
        ])
        machine = _small_machine()
        machine.run(program, mode="jit")
        code = program.jit_code()
        machine.run(program, mode="jit")
        assert program.jit_code() is code  # cached
        # The machine counts the build and the reuse where they happen.
        assert machine.tier_stats()["jit_artifacts"] == {
            "builds": 1, "reuses": 1,
        }
        # A changed program is a new Program, with an artifact of its own.
        changed = Program(
            instructions=[*program.instructions, Instruction(int(Opcode.HALT))]
        )
        rebuilt = changed.jit_code()
        assert rebuilt is not code and len(rebuilt.handlers) == 3
        assert program.jit_code() is code

    def test_program_handler_cache(self):
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 3),
            Instruction(int(Opcode.HALT)),
        ])
        handlers = program.fast_handlers()
        assert program.fast_handlers() is handlers  # cached
        assert handlers is program.jit_code().handlers  # one artifact
        changed = Program(
            instructions=[*program.instructions, Instruction(int(Opcode.HALT))]
        )
        rebuilt = changed.fast_handlers()
        assert rebuilt is not handlers and len(rebuilt) == 3

    def test_built_program_cannot_change_under_its_artifact(self):
        # The artifact is built once per program, so the program must not
        # change under it, or the JIT would keep running instructions the
        # program no longer has.
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 3),
            Instruction(int(Opcode.HALT)),
        ])
        code = program.jit_code()
        with pytest.raises(TypeError):
            program.instructions[0] = Instruction(
                int(Opcode.MOVI), 0, 0, 0, 7
            )
        with pytest.raises(AttributeError):
            program.instructions.append(Instruction(int(Opcode.HALT)))
        assert program.jit_code() is code
        assert len(code.handlers) == 2

    def test_instructions_cannot_be_reassigned(self):
        # Reassigning ``instructions`` after a JIT run would leave the JIT
        # running the old code while the timed tier ran the new.
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 3),
            Instruction(int(Opcode.HALT)),
        ])
        machine = _small_machine()
        assert machine.run(program, mode="jit").iregs[0] == 3
        with pytest.raises(AttributeError):
            program.instructions = [
                Instruction(int(Opcode.MOVI), 0, 0, 0, 7),
                Instruction(int(Opcode.HALT)),
            ]
        assert isinstance(program.instructions, tuple)
        for mode in EXECUTION_MODES:
            assert machine.run(program, mode=mode).iregs[0] == 3, mode

    def test_loop_compiles_to_region(self):
        code = compile_jit(_countdown_loop(5))
        regions = [r for r in code.regions if r is not None]
        assert regions, "backward LOOPNZ should produce a compiled region"
        assert "while True:" in code.source

    def test_branch_to_next_instruction_inside_loop(self):
        # A forward branch that skips nothing once emitted an ``if`` with
        # an empty body, failing compile() and losing the JIT tier.
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 1, 0, 0, 5),
            Instruction(int(Opcode.BEQ), 0, 0, 0, 2),
            Instruction(int(Opcode.ADDI), 2, 2, 0, 3),
            Instruction(int(Opcode.LOOPNZ), 1, 0, 0, 1),
            Instruction(int(Opcode.HALT)),
        ])
        assert compile_jit(program).regions[1] is not None
        machine = _small_machine()
        _assert_jit_twice_matches(
            program, machine, _run_or_limit(machine, program)
        )
        assert not program.jit_blocked

    def test_straight_line_has_no_regions(self):
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 1),
            Instruction(int(Opcode.HALT)),
        ])
        code = compile_jit(program)
        assert all(r is None for r in code.regions)


class TestRegionEntry:
    """A region takes its snapshots in place and returns only at its exit,
    so the driver calls it once per entry into its loop nest."""

    def test_each_region_called_once_per_run(self):
        core = HashCore()  # default widgets, 500-instruction windows
        machine = Machine()
        for i in range(20):
            widget = core.widget_for(core.seed_of(b"region-entry-%d" % i))
            assert widget.spec.snapshot_interval == 500
            jit = widget.program.jit_code()
            calls: Counter = Counter()

            def counting(head: int, region):
                def counted(*args):
                    calls[head] += 1
                    return region(*args)

                return counted

            heads = [pc for pc, r in enumerate(jit.regions) if r is not None]
            assert heads
            jit.regions = [
                counting(pc, r) if r is not None else None
                for pc, r in enumerate(jit.regions)
            ]
            for run in (1, 2):
                result = widget.execute(machine, mode="jit")
                assert result.snapshots > 2  # several windows closed
                assert calls == {head: run for head in heads}


class TestTierUp:
    """A program is translated once: there is no later tier, and identical
    programs share one region-cache entry."""

    def test_one_template_entry_per_shape(self):
        # The region cache keys on a program's full code, data immediates
        # included, since the region source inlines them as literals.
        clear_template_cache()
        program = _countdown_loop(5)
        compile_jit(program)
        compile_jit(program)
        stats = template_cache_stats()
        assert (stats["size"], stats["misses"], stats["hits"]) == (1, 1, 1)
        clear_template_cache()
        machine = _small_machine()
        for iterations in (5, 9):  # one shape, different constants
            program = _countdown_loop(iterations)
            _assert_jit_twice_matches(
                program, machine, _run_or_limit(machine, program)
            )
        stats = template_cache_stats()
        assert (stats["size"], stats["misses"], stats["hits"]) == (2, 2, 0)

    def test_template_cache_keeps_sixteen_shapes(self):
        # Fresh widgets never share a shape, so every entry past the
        # bound would be resident memory with no use.
        clear_template_cache()
        for adds in range(1, 21):  # 20 distinct shapes
            compile_jit(_countdown_loop(5, adds))
        stats = template_cache_stats()
        assert (stats["size"], stats["evictions"]) == (16, 4)

    def test_translation_freed_without_the_cycle_collector(self):
        # A translation holds no reference cycle, so dropping its program
        # and its cache entry frees it, each region and its spill function,
        # at once, not at the next collection.
        clear_template_cache()
        gc.disable()
        try:
            program = _countdown_loop(5)
            (region,) = filter(None, program.jit_code().regions)
            freed = [weakref.ref(region), weakref.ref(region.__defaults__[0])]
            del region, program
            clear_template_cache()
            assert [ref() for ref in freed] == [None, None]
        finally:
            gc.enable()


class TestSpeed:
    """Tier-1 smoke: the JIT must not be slower than the timed path.

    The headline speedup is measured at full widget scale by
    ``benchmarks/bench_hashrate.py`` (recorded in BENCH_hashrate.json and
    gated by ``benchmarks/check_regression.py``); asserting the full ratio
    here would make the tier-1 suite flaky on loaded CI machines, so this
    only guards the sign of the win.
    """

    def test_jit_not_slower_than_timed(self, generator):
        machine = _small_machine()
        widget = generator.widget(seed_of("jit-speed"))

        def best_of(mode: str, repeats: int = 3) -> float:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                _run_widget(widget, machine, mode=mode)
                best = min(best, time.perf_counter() - start)
            return best

        _run_widget(widget, machine, mode="jit")  # warm the JIT artifact
        assert best_of("jit") <= best_of("timed")
