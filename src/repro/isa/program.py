"""Program container: an ordered sequence of instructions plus metadata."""

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

    A built program is immutable: ``instructions`` is stored as a tuple
    (the list a caller passes is converted), so the JIT artifact built on
    its first run can never describe stale code.  To change a program,
    build a new one.
    """

    instructions: tuple[Instruction, ...]
    name: str = "program"
    labels: dict[str, int] = field(default_factory=dict)
    #: Lazily built JIT artifact (the threaded handlers and the outermost
    #: loop regions, translated on the program's first JIT run).
    _jit: object | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _jit_builds: int = field(default=0, init=False, repr=False, compare=False)
    _jit_hits: int = field(default=0, init=False, repr=False, compare=False)
    #: Set once the JIT has failed on this program (compile bug, codegen
    #: fault, execution-time error): the machine's degrading ladder
    #: (:meth:`repro.machine.cpu.Machine.run_with_fallback`) then routes
    #: every later run straight to the timed tier, which is what makes
    #: ``mode="auto"`` self-healing.  It lives here, not on the artifact,
    #: because a translation fault leaves no artifact to mark.
    jit_blocked: bool = field(
        default=False, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.instructions = tuple(self.instructions)

    def code_tuples(self) -> list[tuple]:
        """Decoded ``(op, a, b, c, imm)`` tuples, the timed tier's and the
        translator's input (decoded on every call; not cached)."""
        return [(i.op, i.a, i.b, i.c, i.imm) for i in self.instructions]

    def jit_code(self):
        """JIT artifact for this program (cached): its threaded handlers
        and compiled loop regions, built once and reused by every later
        run."""
        jit = self._jit
        if jit is None:
            from repro.machine.jit import compile_jit

            jit = self._jit = compile_jit(self)
            self._jit_builds += 1
        else:
            self._jit_hits += 1
        return jit

    def fast_handlers(self) -> list:
        """The threaded handlers of :meth:`jit_code`'s artifact
        (``bench/trace.py`` binds this as a translator; nothing in the
        package calls it)."""
        return self.jit_code().handlers

    def cache_stats(self) -> dict:
        """Build/hit counters and state of the JIT artifact."""
        return {
            "jit_builds": self._jit_builds,
            "jit_hits": self._jit_hits,
            "jit_ready": self._jit is not None,
            "jit_blocked": self.jit_blocked,
        }

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

