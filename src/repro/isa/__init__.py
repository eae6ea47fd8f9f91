"""Synthetic GPP instruction-set architecture.

The paper's widgets are x86 programs produced by GCC.  A pure-Python
reproduction cannot execute native x86, so this subpackage defines a compact
x86-*like* register ISA with the same resource classes the paper targets
(Table I): integer ALU, integer multiply, floating point, loads, stores,
branch behaviour, plus a small vector extension.  Widgets, the reference
workloads, and the RandomX-like baseline are all programs in this ISA, and
the :mod:`repro.machine` simulator plays the role of the physical CPU.

Public surface:

* :class:`~repro.isa.opcodes.Opcode` / :class:`~repro.isa.opcodes.OpClass`
* :class:`~repro.isa.instructions.Instruction`
* :class:`~repro.isa.program.Program`
* :func:`~repro.isa.encoding.encode_program` / ``decode_program``
* :func:`~repro.isa.assembler.assemble` / ``disassemble``
* :class:`~repro.isa.builder.ProgramBuilder`
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "NUM_FP_REGS": ".opcodes",
    "NUM_INT_REGS": ".opcodes",
    "NUM_VEC_REGS": ".opcodes",
    "VEC_LANES": ".opcodes",
    "OpClass": ".opcodes",
    "Opcode": ".opcodes",
    "opcode_class": ".opcodes",
    "opcode_name": ".opcodes",
    "Instruction": ".instructions",
    "Program": ".program",
    "INSTRUCTION_SIZE": ".encoding",
    "encode_instruction": ".encoding",
    "decode_instruction": ".encoding",
    "encode_program": ".encoding",
    "decode_program": ".encoding",
    "assemble": ".assembler",
    "disassemble": ".assembler",
    "ProgramBuilder": ".builder",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
