"""Opcode definitions for the synthetic GPP ISA.

Opcodes are grouped into :class:`OpClass` resource classes.  The classes
mirror Table I of the paper (the resources a hash-seed field perturbs) plus
the vector and system classes the paper lists among the structures HashCore
must stress (§IV-A).
"""

from __future__ import annotations

import enum

#: Number of 64-bit integer registers (r0..r15).
NUM_INT_REGS = 16
#: Number of float64 registers (f0..f15).
NUM_FP_REGS = 16
#: Number of vector registers (v0..v7).
NUM_VEC_REGS = 8
#: Lanes per vector register.
VEC_LANES = 4


class OpClass(enum.IntEnum):
    """Resource class of an instruction — the unit that executes it."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ALU = 2
    LOAD = 3
    STORE = 4
    BRANCH = 5
    VECTOR = 6
    SYSTEM = 7


class Opcode(enum.IntEnum):
    """Every instruction in the ISA.

    Operand conventions (fields ``a``, ``b``, ``c``, ``imm`` of
    :class:`~repro.isa.instructions.Instruction`):

    * ALU/FP three-register ops: ``a`` = destination, ``b``/``c`` = sources.
    * Immediate ops (``*I``): ``a`` = destination, ``b`` = source,
      ``imm`` = literal.
    * ``LOAD``/``FLOAD``: ``a`` = destination, ``b`` = base register,
      ``imm`` = offset (address is ``(reg[b] + imm) mod memory_words``).
    * ``STORE``/``FSTORE``: ``a`` = value register, ``b`` = base register,
      ``imm`` = offset.
    * Conditional branches: ``a``/``b`` = compared registers, ``imm`` =
      absolute target instruction index.
    * ``LOOPNZ``: decrement ``reg[a]``; branch to ``imm`` when non-zero.
    * Vector ops: ``a``/``b``/``c`` name vector registers, except
      ``VLOAD``/``VSTORE`` where ``b`` is an integer base register and
      ``VBROADCAST``/``VREDUCE`` which move between ``f`` and ``v`` files.
    """

    # --- integer ALU ------------------------------------------------------
    ADD = 0
    SUB = 1
    AND = 2
    OR = 3
    XOR = 4
    SHL = 5
    SHR = 6
    ADDI = 7
    ANDI = 8
    ORI = 9
    XORI = 10
    SHLI = 11
    SHRI = 12
    MOV = 13
    MOVI = 14
    NOT = 15
    CMPLT = 16
    CMPEQ = 17
    MIN = 18
    MAX = 19

    # --- integer multiply / divide ---------------------------------------
    MUL = 24
    MULHI = 25
    DIV = 26
    MOD = 27

    # --- floating point ---------------------------------------------------
    FADD = 32
    FSUB = 33
    FMUL = 34
    FDIV = 35
    FMIN = 36
    FMAX = 37
    FABS = 38
    FNEG = 39
    FMA = 40
    CVTIF = 41
    CVTFI = 42

    # --- memory -----------------------------------------------------------
    LOAD = 48
    FLOAD = 49
    STORE = 52
    FSTORE = 53

    # --- control ----------------------------------------------------------
    BEQ = 56
    BNE = 57
    BLT = 58
    BGE = 59
    JMP = 60
    LOOPNZ = 61

    # --- vector -----------------------------------------------------------
    VADD = 64
    VMUL = 65
    VFMA = 66
    VLOAD = 67
    VSTORE = 68
    VBROADCAST = 69
    VREDUCE = 70

    # --- system -----------------------------------------------------------
    NOP = 72
    HALT = 73


_CLASS_BY_OPCODE: dict[int, OpClass] = {}
for _op in Opcode:
    if _op < Opcode.MUL:
        _cls = OpClass.INT_ALU
    elif _op < Opcode.FADD:
        _cls = OpClass.INT_MUL
    elif _op < Opcode.LOAD:
        _cls = OpClass.FP_ALU
    elif _op < Opcode.STORE:
        _cls = OpClass.LOAD
    elif _op < Opcode.BEQ:
        _cls = OpClass.STORE
    elif _op < Opcode.VADD:
        _cls = OpClass.BRANCH
    elif _op < Opcode.NOP:
        _cls = OpClass.VECTOR
    else:
        _cls = OpClass.SYSTEM
    _CLASS_BY_OPCODE[int(_op)] = _cls

# Vector loads/stores occupy the memory pipeline as well as the vector unit;
# for mix accounting they count as VECTOR (their dominant resource), matching
# how the generator budgets them.

#: Branch opcodes that are conditional (predicted by the branch predictor).
CONDITIONAL_BRANCHES = frozenset(
    {int(Opcode.BEQ), int(Opcode.BNE), int(Opcode.BLT), int(Opcode.BGE), int(Opcode.LOOPNZ)}
)

#: Opcodes whose ``imm`` field is a branch target (absolute instruction index).
BRANCH_OPCODES = frozenset(CONDITIONAL_BRANCHES | {int(Opcode.JMP)})

#: Opcodes that read memory.
MEMORY_READ_OPCODES = frozenset({int(Opcode.LOAD), int(Opcode.FLOAD), int(Opcode.VLOAD)})

#: Opcodes that write memory.
MEMORY_WRITE_OPCODES = frozenset({int(Opcode.STORE), int(Opcode.FSTORE), int(Opcode.VSTORE)})


#: Size of each register file, by the prefix the assembler writes.
REGISTER_FILE_SIZES = {"r": NUM_INT_REGS, "f": NUM_FP_REGS, "v": NUM_VEC_REGS}

#: Files of the fields ``a``, ``b``, ``c`` by class; every other class
#: uses the integer file.
_CLASS_FIELD_FILES = {OpClass.FP_ALU: "fff", OpClass.VECTOR: "vvv"}
#: Opcodes that move between files, overriding their class's files.
_FIELD_FILE_OVERRIDES = {
    "FLOAD": "frr", "FSTORE": "frr", "CVTIF": "frr", "CVTFI": "rfr",
    "VLOAD": "vrv", "VSTORE": "vrv", "VBROADCAST": "vfv", "VREDUCE": "fvv",
}

#: Register file (``"r"``, ``"f"`` or ``"v"``) each of the fields ``a``,
#: ``b``, ``c`` names, per opcode.  The assembler renders and parses
#: register prefixes from it, and
#: :meth:`~repro.isa.instructions.Instruction.validate` bounds each field
#: by its file's size.
FIELD_FILES: dict[int, tuple[str, str, str]] = {
    int(_op): tuple(
        _FIELD_FILE_OVERRIDES.get(_op.name)
        or _CLASS_FIELD_FILES.get(_CLASS_BY_OPCODE[int(_op)], "rrr")
    )
    for _op in Opcode
}


def opcode_class(op: int) -> OpClass:
    """Return the :class:`OpClass` that executes opcode ``op``."""
    try:
        return _CLASS_BY_OPCODE[int(op)]
    except KeyError:
        raise ValueError(f"unknown opcode {op!r}") from None


def opcode_name(op: int) -> str:
    """Return the mnemonic for opcode ``op``."""
    return Opcode(op).name
