"""The widget object: a generated, compiled, executable code block (§IV).

A widget is the main computational task of a HashCore evaluation.  Its
output is the concatenated register snapshots taken throughout execution
("a series of snapshots of the computer's register contents captured every
few thousand instructions", §V) plus the final architectural state, so the
output commits to the *complete* execution — skipping any part of the
program changes some snapshot bit, which changes the final hash
(irreducibility, §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import Program
from repro.machine.cpu import Machine
from repro.machine.perf_counters import PerfCounters
from repro.widgetgen.ir import WidgetSpec


@dataclass(slots=True)
class WidgetResult:
    """Outcome of executing one widget."""

    output: bytes
    counters: PerfCounters
    snapshots: int

    @property
    def output_size(self) -> int:
        return len(self.output)


@dataclass(slots=True)
class Widget:
    """A compiled widget: spec (provenance) + executable program."""

    spec: WidgetSpec
    program: Program

    @property
    def name(self) -> str:
        return self.spec.name

    def code_bytes(self) -> int:
        """Size of the encoded program (storage cost, used by the
        generation-vs-selection experiment E9)."""
        from repro.isa.encoding import encode_program

        return len(encode_program(self.program))

    def fingerprint(self) -> str:
        """SHA-256 of the program encoding — determinism checks key on it."""
        return self.program.fingerprint()

    def execute(self, machine: Machine, mode: str = "timed") -> WidgetResult:
        """Run the widget on ``machine`` and collect its output.

        Memory is freshly initialised from the widget's plan, so execution
        depends only on (widget, machine config) — a requirement for other
        miners to verify the hash.  ``mode`` picks the execution tier
        (``"timed"``, the default, or ``"jit"``) — the output bytes are
        identical on both tiers, only the counters differ.

        Execution rides the machine's degrading tier ladder
        (:meth:`~repro.machine.cpu.Machine.run_with_fallback`): a JIT that
        fails on this widget falls back to the timed model on a fresh
        memory image, so one bad JIT translation degrades the widget, not
        the miner.  A fuse trip (:class:`ExecutionLimitExceeded`) still
        propagates — it is an architectural outcome, the same on every
        tier.
        """

        def build_memory():
            memory = machine.new_memory()
            for directive in self.spec.plan.directives():
                directive.apply(memory)
            return memory

        result = machine.run_with_fallback(
            self.program,
            build_memory,
            max_instructions=int(self.spec.meta.get("fuse", 10_000_000)),
            snapshot_interval=self.spec.snapshot_interval,
            mode=mode,
        )
        return WidgetResult(
            output=result.output,
            counters=result.counters,
            snapshots=result.snapshots,
        )
