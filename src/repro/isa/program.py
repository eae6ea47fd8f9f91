"""Program container: an ordered list of instructions plus metadata."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import EncodingError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OpClass


@dataclass(slots=True)
class Program:
    """An executable program in the synthetic ISA.

    ``instructions`` execute from index 0; falling off the end or executing
    ``HALT`` terminates the program.  ``name`` is informational.  ``labels``
    maps symbolic names to instruction indices (kept by the assembler and
    builder for debugging and disassembly).
    """

    instructions: list[Instruction]
    name: str = "program"
    labels: dict[str, int] = field(default_factory=dict)
    #: Lazily cached (op, a, b, c, imm) tuples for the interpreter; rebuilt
    #: on first use after any mutation of ``instructions`` via
    #: :meth:`invalidate_code`.
    _code: list[tuple] | None = field(default=None, repr=False, compare=False)
    #: Lazily cached threaded-code handler list for the fast-path
    #: interpreter (one bound closure per instruction); invalidated
    #: together with ``_code``.
    _fast: list | None = field(default=None, repr=False, compare=False)
    #: Lazily cached tier-2 JIT artifact (loop regions, then segment
    #: functions, compiled from generated Python source); invalidated
    #: together with ``_code``.
    _jit: object | None = field(default=None, repr=False, compare=False)
    #: Build/hit counters for the decode caches, surfaced through
    #: :meth:`cache_stats` (and aggregated by HashCore / WidgetPool).
    _tier_stats: dict = field(
        default_factory=lambda: {
            "code_builds": 0,
            "code_hits": 0,
            "fast_builds": 0,
            "fast_hits": 0,
            "jit_builds": 0,
            "jit_hits": 0,
            "jit_tierups": 0,
        },
        repr=False,
        compare=False,
    )
    #: Execution tiers that have failed on this program (compile bug, codegen
    #: fault, execution-time error) and must not be retried — the machine's
    #: degrading ladder (:meth:`repro.machine.cpu.Machine.run_with_fallback`)
    #: marks a tier here once and silently routes around it afterwards, which
    #: is what makes ``mode="auto"`` self-healing.
    _blocked_tiers: set = field(default_factory=set, repr=False, compare=False)

    def code_tuples(self) -> list[tuple]:
        """Decoded instruction tuples (cached; the interpreter's hot input)."""
        if self._code is None or len(self._code) != len(self.instructions):
            self._code = [
                (i.op, i.a, i.b, i.c, i.imm) for i in self.instructions
            ]
            self._tier_stats["code_builds"] += 1
        else:
            self._tier_stats["code_hits"] += 1
        return self._code

    def fast_handlers(self) -> list:
        """Threaded-code handlers for the fast-path interpreter (cached).

        Each program is decoded once into a list of bound closures — the
        fast path's analogue of :meth:`code_tuples` — so repeated runs
        (widget-cache hits, verification) skip per-run decode entirely.
        """
        if self._fast is None or len(self._fast) != len(self.instructions):
            from repro.machine.fastpath import compile_threaded

            self._fast = compile_threaded(self)
            self._tier_stats["fast_builds"] += 1
        else:
            self._tier_stats["fast_hits"] += 1
        return self._fast

    def jit_code(self):
        """Tier-2 JIT artifact for this program (cached), in two steps.

        Until the program has run on the JIT, the artifact holds only the
        compiled loop regions — a widget a miner runs once pays for
        nothing else.  The first call after a run adds the straight-line
        segment functions to the same artifact (one tier-up per program,
        counted as ``jit_tierups``), so widget-cache hits and verification
        run fully compiled code from the second execution on.
        """
        jit = self._jit
        if jit is None or jit.length != len(self.instructions):
            from repro.machine.jit import compile_jit

            jit = self._jit = compile_jit(self)
            self._tier_stats["jit_builds"] += 1
        else:
            self._tier_stats["jit_hits"] += 1
        if jit.runs and not jit.tiered:
            from repro.machine.jit import tier_up

            tier_up(self, jit)
            self._tier_stats["jit_tierups"] += 1
        return jit

    def cache_stats(self) -> dict:
        """Build/hit counters plus readiness flags for the decode caches."""
        stats = dict(self._tier_stats)
        stats["code_ready"] = self._code is not None
        stats["fast_ready"] = self._fast is not None
        stats["jit_ready"] = self._jit is not None
        stats["blocked_tiers"] = sorted(self._blocked_tiers)
        return stats

    def block_tier(self, tier: str) -> None:
        """Mark an execution tier as failed for this program.

        The degrading ladder skips blocked tiers on every later run instead
        of re-paying the failed compile/execute attempt.
        """
        self._blocked_tiers.add(tier)

    def tier_blocked(self, tier: str) -> bool:
        """Whether ``tier`` has been marked failed for this program."""
        return tier in self._blocked_tiers

    def invalidate_code(self) -> None:
        """Drop the decode caches after mutating ``instructions`` in place."""
        self._code = None
        self._fast = None
        self._jit = None
        # A recompile gets a fresh chance on every tier.
        self._blocked_tiers.clear()

    def __len__(self) -> int:
        return len(self.instructions)

    def validate(self) -> None:
        """Statically validate every instruction, including branch targets."""
        n = len(self.instructions)
        if n == 0:
            raise EncodingError("program has no instructions")
        for index, instr in enumerate(self.instructions):
            try:
                instr.validate(program_length=n)
            except EncodingError as exc:
                raise EncodingError(f"instruction {index}: {exc}") from exc

    def static_mix(self) -> dict[OpClass, int]:
        """Static (not dynamic) instruction count per resource class."""
        mix: dict[OpClass, int] = {cls: 0 for cls in OpClass}
        for instr in self.instructions:
            mix[instr.op_class()] += 1
        return mix

    def fingerprint(self) -> str:
        """Hex SHA-256 of the canonical binary encoding.

        Two programs with the same fingerprint are byte-identical; the widget
        generator's determinism tests rely on this.
        """
        from repro.isa.encoding import encode_program

        return hashlib.sha256(encode_program(self)).hexdigest()

    def __str__(self) -> str:
        from repro.isa.assembler import disassemble

        return disassemble(self)
