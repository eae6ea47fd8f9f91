"""Tests for the degrading execution-tier ladder (jit -> timed).

A JIT that fails on a widget — compile bug, codegen fault, execution-time
error — must degrade to the timed model with identical architectural
output, record the fall-back in the machine's ``tier_stats()``, and block
the JIT on that program so later runs route around it (self-healing
``auto`` mode).  Library errors are exempt: a fuse trip
(:class:`ExecutionLimitExceeded`) or a bad argument is the same outcome on
every tier, never a tier bug, so it propagates without degrading.
"""

from __future__ import annotations

import pytest

from repro.core.hashcore import HashCore
from repro.core.widget import Widget
from repro.errors import EngineFault, ExecutionError, ExecutionLimitExceeded
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.machine.cpu import EXECUTION_MODES, Machine
from tests.conftest import seed_of


def _fresh_widget(generator, tag: str):
    """A widget of its own (never shared with other tests) so blocking a
    tier on its program cannot leak into the session-scoped population."""
    return generator.widget(seed_of(f"tier-fallback-{tag}"))


def _boom(*_args, **_kwargs):
    raise RuntimeError("injected tier fault")


class TestCompileFailureDegrades:
    def test_jit_compile_failure_falls_back_to_timed(
        self, generator, monkeypatch
    ):
        clean = _fresh_widget(generator, "compile")
        expected = clean.execute(Machine(), mode="timed")

        widget = _fresh_widget(generator, "compile")
        assert widget.fingerprint() == clean.fingerprint()
        machine = Machine()
        monkeypatch.setattr(Program, "jit_code", _boom)
        result = widget.execute(machine, mode="jit")

        assert result.output == expected.output
        stats = machine.tier_stats()
        assert stats["degradations"] == {"jit->timed": 1}
        assert stats["widgets"] == {widget.name: {"jit->timed": 1}}
        assert len(stats["log"]) == 1
        assert widget.program.jit_blocked

    def test_blocked_tier_is_skipped_silently_on_rerun(
        self, generator, monkeypatch
    ):
        widget = _fresh_widget(generator, "rerun")
        machine = Machine()
        monkeypatch.setattr(Program, "jit_code", _boom)
        first = widget.execute(machine, mode="jit")
        second = widget.execute(machine, mode="jit")

        assert first.output == second.output
        # Self-healing: the failed compile is paid once, not per hash.
        assert machine.tier_stats()["degradations"] == {"jit->timed": 1}
        assert machine.tier_stats()["runs"]["timed"] == 2

    def test_handler_build_failure_falls_back_to_timed(
        self, generator, monkeypatch
    ):
        # The JIT steps through the threaded handlers outside its compiled
        # code, and its artifact holds them, so failing to build them is a
        # JIT fault like any other.
        clean = _fresh_widget(generator, "handlerfail")
        expected = clean.execute(Machine(), mode="timed")

        widget = _fresh_widget(generator, "handlerfail")
        machine = Machine()
        monkeypatch.setattr("repro.machine.jit.compile_threaded", _boom)
        result = widget.execute(machine, mode="jit")

        assert result.output == expected.output
        assert machine.tier_stats()["degradations"] == {"jit->timed": 1}
        assert widget.program.jit_blocked


class TestExecutionTimeFailureDegrades:
    """An execution-time JIT fault (not a translation fault) may have
    dirtied memory mid-run; the ladder must retry the lower tier on a
    rebuilt memory image and still produce the clean output.  The fault
    sits on the region path, in a fresh artifact and in one an earlier
    run already used."""

    @staticmethod
    def _run_corrupted(generator, tag: str, corrupt) -> None:
        clean = _fresh_widget(generator, tag)
        expected = clean.execute(Machine(), mode="timed")

        widget = _fresh_widget(generator, tag)
        corrupt(widget)

        machine = Machine()
        result = widget.execute(machine, mode="jit")
        assert result.output == expected.output
        assert machine.tier_stats()["degradations"] == {"jit->timed": 1}
        assert widget.program.jit_blocked

    @staticmethod
    def _corrupt_regions(widget) -> None:
        jit = widget.program.jit_code()
        assert any(region is not None for region in jit.regions)
        jit.regions = [
            _boom if region is not None else None for region in jit.regions
        ]

    def test_corrupt_jit_artifact_retries_on_fresh_memory(self, generator):
        self._run_corrupted(generator, "execfail", self._corrupt_regions)

    def test_corrupt_tiered_jit_artifact_retries_on_fresh_memory(
        self, generator
    ):
        def corrupt_after_a_run(widget) -> None:
            widget.execute(Machine(), mode="jit")  # translates, then runs
            self._corrupt_regions(widget)

        self._run_corrupted(generator, "execfail-tiered", corrupt_after_a_run)


class TestFuseTripIsNotDegradation:
    def test_fuse_trip_propagates_on_every_tier(self, generator):
        widget = _fresh_widget(generator, "fuse")
        machine = Machine()
        for mode in EXECUTION_MODES:
            with pytest.raises(ExecutionLimitExceeded):
                machine.run_with_fallback(
                    widget.program,
                    lambda: widget.initial_memory(machine),
                    max_instructions=5,
                    snapshot_interval=widget.spec.snapshot_interval,
                    mode=mode,
                )
        # The fuse is an architectural outcome, not a tier bug: nothing
        # may have degraded and no tier may be blocked.
        assert machine.tier_stats()["degradations"] == {}
        assert not widget.program.jit_blocked


class TestArgumentErrorIsNotDegradation:
    def test_bad_argument_does_not_block_the_jit(self):
        # A caller's bad argument raises the same ExecutionError on every
        # tier.  It must not count as a JIT fault: blocking the JIT here
        # would send every later valid run of the program to the timed
        # model.
        program = Program(instructions=[
            Instruction(int(Opcode.MOVI), 0, 0, 0, 1),
            Instruction(int(Opcode.HALT)),
        ])
        machine = Machine()
        with pytest.raises(ExecutionError):
            machine.run_with_fallback(program, max_instructions=0, mode="jit")
        assert machine.tier_stats()["degradations"] == {}
        assert not program.jit_blocked

        jit_runs = machine.tier_stats()["runs"]["jit"]
        result = machine.run_with_fallback(program, mode="jit")
        assert result.halted and result.counters.cycles == 0  # on the JIT
        assert machine.tier_stats()["runs"] == {
            "timed": 0, "jit": jit_runs + 1,
        }


class TestLadderExhaustion:
    def test_every_tier_failing_raises_tier_degraded(
        self, generator, monkeypatch
    ):
        widget = _fresh_widget(generator, "exhaust")
        widget.program.jit_blocked = True
        machine = Machine()
        monkeypatch.setattr(Program, "code_tuples", _boom)

        with pytest.raises(EngineFault) as excinfo:
            machine.run_with_fallback(widget.program, mode="jit")
        assert excinfo.value.code == "tier-degraded"

    def test_new_program_from_blocked_program_runs_on_jit(self, generator):
        # A blocked program stays blocked.  A new Program built from its
        # instructions has no artifact and no block, so it runs on the JIT.
        widget = _fresh_widget(generator, "unblock")
        widget.program.jit_blocked = True
        rebuilt = Widget(
            spec=widget.spec,
            program=Program(
                instructions=widget.program.instructions,
                name=widget.program.name,
            ),
        )
        assert not rebuilt.program.jit_blocked

        machine = Machine()
        blocked = widget.execute(machine, mode="jit")
        assert machine.tier_stats()["runs"] == {"timed": 1, "jit": 0}
        fresh = rebuilt.execute(machine, mode="jit")
        assert machine.tier_stats()["runs"] == {"timed": 1, "jit": 1}
        assert fresh.output == blocked.output
        assert widget.program.jit_blocked
        assert machine.tier_stats()["degradations"] == {}


class TestHashCoreSelfHealing:
    def test_auto_mode_digest_survives_jit_failure(
        self, test_params, monkeypatch
    ):
        data = b"tier-fallback self-healing probe"
        core_clean = HashCore(params=test_params, mode="auto")
        expected = core_clean.hash(data)

        core = HashCore(params=test_params, mode="auto")
        monkeypatch.setattr(Program, "jit_code", _boom)
        assert core.hash(data) == expected
        # A second hash of the same input rides the widget cache and the
        # blocked-tier registry: same digest, no second degradation.
        assert core.hash(data) == expected

        tiers = core.cache_stats()["tiers"]
        assert tiers["degradations"] == {"jit->timed": 1}

    def test_cache_stats_exposes_tier_document(self, test_params):
        core = HashCore(params=test_params)
        stats = core.cache_stats()
        assert stats["tiers"] == {
            "degradations": {}, "widgets": {}, "log": [],
            "runs": {"timed": 0, "jit": 0},
            "jit_artifacts": {"builds": 0, "reuses": 0},
        }
