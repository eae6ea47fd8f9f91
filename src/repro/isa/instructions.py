"""Instruction representation and static validation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodingError
from repro.isa.opcodes import (
    BRANCH_OPCODES,
    FIELD_FILES,
    REGISTER_FILE_SIZES,
    OpClass,
    opcode_class,
    opcode_name,
)

_IMM_MIN = -(1 << 63)
_IMM_MAX = (1 << 63) - 1

#: Exclusive bound of the fields ``a``, ``b``, ``c`` per opcode: the size
#: of the register file :data:`~repro.isa.opcodes.FIELD_FILES` names.
_FIELD_LIMITS = {
    op: tuple(REGISTER_FILE_SIZES[name] for name in files)
    for op, files in FIELD_FILES.items()
}


@dataclass(frozen=True, slots=True)
class Instruction:
    """A single decoded instruction.

    Fields ``a``, ``b``, ``c`` are register indices whose meaning depends on
    the opcode (see :class:`~repro.isa.opcodes.Opcode`); ``imm`` is a signed
    64-bit immediate / offset / branch target.
    """

    op: int
    a: int = 0
    b: int = 0
    c: int = 0
    imm: int = 0

    def op_class(self) -> OpClass:
        """Resource class executing this instruction."""
        return opcode_class(self.op)

    def is_branch(self) -> bool:
        """True when ``imm`` is a control-flow target."""
        return self.op in BRANCH_OPCODES

    def validate(self, program_length: int | None = None) -> None:
        """Raise :class:`EncodingError` if any field is out of range.

        When ``program_length`` is given, branch targets must fall inside
        ``[0, program_length)``.
        """
        limits = _FIELD_LIMITS.get(self.op)
        if limits is None:
            raise EncodingError(f"unknown opcode {self.op}")
        for name, value, limit in zip("abc", (self.a, self.b, self.c), limits):
            if not 0 <= value < limit:
                raise EncodingError(
                    f"{opcode_name(self.op)}: field {name}={value} out of range"
                )
        if not _IMM_MIN <= self.imm <= _IMM_MAX:
            raise EncodingError(f"{opcode_name(self.op)}: imm {self.imm} out of i64 range")
        if program_length is not None and self.is_branch():
            if not 0 <= self.imm < program_length:
                raise EncodingError(
                    f"{opcode_name(self.op)}: branch target {self.imm} outside "
                    f"program of {program_length} instructions"
                )

    def __str__(self) -> str:
        return (
            f"{opcode_name(self.op):<10} a={self.a:<2} b={self.b:<2} "
            f"c={self.c:<2} imm={self.imm}"
        )
