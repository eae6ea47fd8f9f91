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

from dataclasses import dataclass, field

from repro.isa.program import Program
from repro.machine.cpu import Machine
from repro.machine.memory import Memory
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
    #: Initial memory image per memory size (``size_words``): the
    #: :meth:`Memory.window` pieces of every plan directive, copied out
    #: right after the directives ran.  Immutable once stored.
    _images: dict[int, tuple[tuple[int, bytes], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def initial_memory(self, machine: Machine) -> Memory:
        """A fresh memory for ``machine`` holding the plan's initial image.

        The first build for a memory size applies the plan's directives
        (the authoritative fill code) and copies out each directive window;
        later builds write those windows into a fresh zeroed memory instead
        of running the fills again.  Outside the windows the memory is
        zero either way.
        """
        memory = machine.new_memory()
        image = self._images.get(memory.size_words)
        if image is not None:
            memory.load(image)
            return memory
        directives = self.spec.plan.directives()
        for directive in directives:
            directive.apply(memory)
        # Racing threads compute the same bytes, so the last store wins
        # harmlessly.
        self._images[memory.size_words] = tuple(
            piece
            for directive in directives
            for piece in memory.window(directive.start, directive.count)
        )
        return memory

    def execute(self, machine: Machine, mode: str = "timed") -> WidgetResult:
        """Run the widget on ``machine`` and collect its output.

        Every attempt starts from a fresh memory holding the plan's initial
        image (:meth:`initial_memory`), so execution depends only on
        (widget, machine config) — a requirement for other miners to verify
        the hash.  The first run for a memory size builds the image from
        the plan's directives; repeated runs of a cached widget restore it
        from the copied-out windows.  ``mode`` picks the execution tier
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
        result = machine.run_with_fallback(
            self.program,
            lambda: self.initial_memory(machine),
            max_instructions=int(self.spec.meta.get("fuse", 10_000_000)),
            snapshot_interval=self.spec.snapshot_interval,
            mode=mode,
        )
        return WidgetResult(
            output=result.output,
            counters=result.counters,
            snapshots=result.snapshots,
        )
