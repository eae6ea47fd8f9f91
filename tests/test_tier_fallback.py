"""Tests for the degrading execution-tier ladder (jit -> fast -> timed).

A tier that fails on a widget — compile bug, codegen fault, execution-time
error — must degrade to the next rung with identical architectural output,
record the fall-back in the machine's ``tier_stats()``, and block the bad
tier on that program so later runs route around it (self-healing ``auto``
mode).  Only :class:`ExecutionLimitExceeded` is exempt: a fuse trip is an
architectural outcome, the same on every tier, never a tier bug.
"""

from __future__ import annotations

import pytest

from repro.core.hashcore import HashCore
from repro.errors import EngineFault, ExecutionLimitExceeded
from repro.isa.program import Program
from repro.machine.cpu import Machine
from tests.conftest import seed_of


def _fresh_widget(generator, tag: str):
    """A widget of its own (never shared with other tests) so blocking a
    tier on its program cannot leak into the session-scoped population."""
    return generator.widget(seed_of(f"tier-fallback-{tag}"))


def _boom(*_args, **_kwargs):
    raise RuntimeError("injected tier fault")


class TestCompileFailureDegrades:
    def test_jit_compile_failure_falls_back_to_fast(
        self, generator, monkeypatch
    ):
        clean = _fresh_widget(generator, "compile")
        machine_clean = Machine()
        expected = clean.execute(machine_clean, mode="fast")

        widget = _fresh_widget(generator, "compile")
        assert widget.fingerprint() == clean.fingerprint()
        machine = Machine()
        monkeypatch.setattr(Program, "jit_code", _boom)
        result = widget.execute(machine, mode="jit")

        assert result.output == expected.output
        stats = machine.tier_stats()
        assert stats["degradations"] == {"jit->fast": 1}
        assert stats["widgets"] == {widget.name: {"jit->fast": 1}}
        assert len(stats["log"]) == 1
        assert widget.program.tier_blocked("jit")
        assert "jit" in widget.program.cache_stats()["blocked_tiers"]

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
        assert machine.tier_stats()["degradations"] == {"jit->fast": 1}

    def test_fast_translation_failure_falls_back_to_timed(
        self, generator, monkeypatch
    ):
        clean = _fresh_widget(generator, "fastfail")
        expected = clean.execute(Machine(), mode="timed")

        widget = _fresh_widget(generator, "fastfail")
        machine = Machine()
        monkeypatch.setattr(Program, "fast_handlers", _boom)
        result = widget.execute(machine, mode="fast")

        assert result.output == expected.output
        assert machine.tier_stats()["degradations"] == {"fast->timed": 1}
        assert widget.program.tier_blocked("fast")


class TestExecutionTimeFailureDegrades:
    """An execution-time JIT fault (not a translation fault) may have
    dirtied memory mid-run; the ladder must retry the lower tier on a
    rebuilt memory image and still produce the clean output.  Both JIT
    artifacts are covered: the first-run one (loop regions only) and the
    tiered one (segments added on the second run)."""

    @staticmethod
    def _run_corrupted(generator, tag: str, corrupt) -> None:
        clean = _fresh_widget(generator, tag)
        expected = clean.execute(Machine(), mode="fast")

        widget = _fresh_widget(generator, tag)
        corrupt(widget)

        machine = Machine()
        result = widget.execute(machine, mode="jit")
        assert result.output == expected.output
        assert machine.tier_stats()["degradations"] == {"jit->fast": 1}
        assert widget.program.tier_blocked("jit")

    def test_corrupt_jit_artifact_retries_on_fresh_memory(self, generator):
        def corrupt_regions(widget) -> None:
            jit = widget.program.jit_code()
            assert not jit.tiered
            assert any(region is not None for region in jit.regions)
            jit.regions = [
                (_boom, region[1]) if region is not None else None
                for region in jit.regions
            ]

        self._run_corrupted(generator, "execfail", corrupt_regions)

    def test_corrupt_tiered_jit_artifact_retries_on_fresh_memory(
        self, generator
    ):
        def corrupt_segments(widget) -> None:
            widget.execute(Machine(), mode="jit")  # first run: loop-only
            jit = widget.program.jit_code()
            assert jit.tiered
            jit.funcs = [
                (_boom if func is not None else None) for func in jit.funcs
            ]
            jit.regions = [None] * len(jit.regions)

        self._run_corrupted(generator, "execfail-tiered", corrupt_segments)


class TestFuseTripIsNotDegradation:
    def test_fuse_trip_propagates_on_every_tier(self, generator):
        widget = _fresh_widget(generator, "fuse")
        machine = Machine()

        def build_memory():
            memory = machine.new_memory()
            for directive in widget.spec.plan.directives():
                directive.apply(memory)
            return memory

        for mode in ("jit", "fast", "timed"):
            with pytest.raises(ExecutionLimitExceeded):
                machine.run_with_fallback(
                    widget.program,
                    build_memory,
                    max_instructions=5,
                    snapshot_interval=widget.spec.snapshot_interval,
                    mode=mode,
                )
        # The fuse is an architectural outcome, not a tier bug: nothing
        # may have degraded and no tier may be blocked.
        assert machine.tier_stats()["degradations"] == {}
        assert widget.program.cache_stats()["blocked_tiers"] == []


class TestLadderExhaustion:
    def test_every_tier_failing_raises_tier_degraded(
        self, generator, monkeypatch
    ):
        widget = _fresh_widget(generator, "exhaust")
        widget.program.block_tier("jit")
        widget.program.block_tier("fast")
        machine = Machine()
        monkeypatch.setattr(Program, "code_tuples", _boom)

        with pytest.raises(EngineFault) as excinfo:
            machine.run_with_fallback(widget.program, mode="jit")
        assert excinfo.value.code == "tier-degraded"

    def test_invalidate_code_unblocks_tiers(self, generator):
        widget = _fresh_widget(generator, "unblock")
        widget.program.block_tier("jit")
        assert widget.program.tier_blocked("jit")
        widget.program.invalidate_code()
        assert not widget.program.tier_blocked("jit")
        assert widget.program.cache_stats()["blocked_tiers"] == []


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
        assert tiers["degradations"] == {"jit->fast": 1}

    def test_cache_stats_exposes_tier_document(self, test_params):
        core = HashCore(params=test_params)
        stats = core.cache_stats()
        assert stats["tiers"] == {
            "degradations": {}, "widgets": {}, "log": [],
            "runs": {"timed": 0, "fast": 0, "jit": 0},
        }
