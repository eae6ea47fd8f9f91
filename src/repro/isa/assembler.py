"""Two-pass textual assembler and matching disassembler.

The assembly syntax is deliberately small::

    ; comments run to end of line
    start:
        MOVI   r1, 1000
    loop:
        ADD    r2, r2, r1
        LOAD   r3, [r4 + 8]
        FADD   f0, f1, f2
        BEQ    r2, r3, start
        LOOPNZ r1, loop
        HALT

Register operands are ``rN`` (integer), ``fN`` (floating point), ``vN``
(vector).  Memory operands are ``[rN + offset]`` (offset optional, may be
negative).  Branch targets are labels or literal instruction indices.
``assemble(disassemble(p))`` reproduces ``p`` exactly — a property the test
suite checks with hypothesis-generated programs.
"""

from __future__ import annotations

import re

from repro.errors import AssemblyError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    BRANCH_OPCODES,
    FIELD_FILES,
    Opcode,
    opcode_name,
)
from repro.isa.program import Program

_MEM_RE = re.compile(r"^\[\s*r(\d+)\s*(?:([+-])\s*(\d+)\s*)?\]$")
_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")

# Operand signatures: how each opcode's textual operands map to fields.
#   RRR   -> a, b, c registers
#   RRI   -> a, b registers + immediate
#   RR    -> a, b registers
#   RI    -> a register + immediate
#   MEM   -> a register + [b + imm]
#   BR2   -> a, b registers + branch target
#   BR1   -> a register + branch target
#   TGT   -> branch target only
#   NONE  -> no operands
_SIGNATURES: dict[int, str] = {}


def _sig(ops: list[Opcode], signature: str) -> None:
    for op in ops:
        _SIGNATURES[int(op)] = signature


_sig(
    [
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.SHR, Opcode.CMPLT, Opcode.CMPEQ, Opcode.MIN,
        Opcode.MAX, Opcode.MUL, Opcode.MULHI, Opcode.DIV, Opcode.MOD,
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FMIN,
        Opcode.FMAX, Opcode.FMA, Opcode.VADD, Opcode.VMUL, Opcode.VFMA,
    ],
    "RRR",
)
_sig([Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SHLI, Opcode.SHRI], "RRI")
_sig(
    [
        Opcode.MOV, Opcode.NOT, Opcode.FABS, Opcode.FNEG, Opcode.CVTIF,
        Opcode.CVTFI, Opcode.VBROADCAST, Opcode.VREDUCE,
    ],
    "RR",
)
_sig([Opcode.MOVI], "RI")
_sig([Opcode.LOAD, Opcode.FLOAD, Opcode.STORE, Opcode.FSTORE, Opcode.VLOAD, Opcode.VSTORE], "MEM")
_sig([Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE], "BR2")
_sig([Opcode.LOOPNZ], "BR1")
_sig([Opcode.JMP], "TGT")
_sig([Opcode.NOP, Opcode.HALT], "NONE")

_MNEMONICS = {opcode_name(op): int(op) for op in Opcode}


def _parse_register(token: str, expected_file: str, line_no: int) -> int:
    token = token.strip()
    if not token or token[0].lower() != expected_file:
        raise AssemblyError(
            f"line {line_no}: expected {expected_file!r}-register, got {token!r}"
        )
    try:
        return int(token[1:])
    except ValueError:
        raise AssemblyError(f"line {line_no}: bad register {token!r}") from None


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise AssemblyError(f"line {line_no}: bad integer {token!r}") from None


def assemble(source: str, name: str = "assembled") -> Program:
    """Assemble textual source into a validated :class:`Program`."""
    labels: dict[str, int] = {}
    pending: list[tuple[int, str, list[str]]] = []  # (line_no, mnemonic, operands)

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        match = _LABEL_RE.match(line)
        if match:
            label = match.group(1)
            if label in labels:
                raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
            labels[label] = len(pending)
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].upper()
        operands = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
        if mnemonic not in _MNEMONICS:
            raise AssemblyError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
        pending.append((line_no, mnemonic, operands))

    instructions: list[Instruction] = []
    for line_no, mnemonic, operands in pending:
        op = _MNEMONICS[mnemonic]
        instructions.append(_build(op, operands, labels, line_no))

    program = Program(instructions=instructions, name=name, labels=dict(labels))
    program.validate()
    return program


def _resolve_target(token: str, labels: dict[str, int], line_no: int) -> int:
    token = token.strip()
    if token in labels:
        return labels[token]
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"line {line_no}: unknown label {token!r}") from None


def _expect(operands: list[str], count: int, mnemonic: str, line_no: int) -> None:
    if len(operands) != count:
        raise AssemblyError(
            f"line {line_no}: {mnemonic} takes {count} operand(s), got {len(operands)}"
        )


def _build(op: int, operands: list[str], labels: dict[str, int], line_no: int) -> Instruction:
    signature = _SIGNATURES[op]
    files = FIELD_FILES[op]
    mnemonic = opcode_name(op)
    if signature == "RRR":
        _expect(operands, 3, mnemonic, line_no)
        return Instruction(
            op,
            _parse_register(operands[0], files[0], line_no),
            _parse_register(operands[1], files[1], line_no),
            _parse_register(operands[2], files[2], line_no),
        )
    if signature == "RRI":
        _expect(operands, 3, mnemonic, line_no)
        return Instruction(
            op,
            _parse_register(operands[0], files[0], line_no),
            _parse_register(operands[1], files[1], line_no),
            0,
            _parse_int(operands[2], line_no),
        )
    if signature == "RR":
        _expect(operands, 2, mnemonic, line_no)
        return Instruction(
            op,
            _parse_register(operands[0], files[0], line_no),
            _parse_register(operands[1], files[1], line_no),
        )
    if signature == "RI":
        _expect(operands, 2, mnemonic, line_no)
        return Instruction(
            op,
            _parse_register(operands[0], files[0], line_no),
            0,
            0,
            _parse_int(operands[1], line_no),
        )
    if signature == "MEM":
        _expect(operands, 2, mnemonic, line_no)
        match = _MEM_RE.match(operands[1])
        if not match:
            raise AssemblyError(f"line {line_no}: bad memory operand {operands[1]!r}")
        base = int(match.group(1))
        offset = int(match.group(3) or 0)
        if match.group(2) == "-":
            offset = -offset
        return Instruction(op, _parse_register(operands[0], files[0], line_no), base, 0, offset)
    if signature == "BR2":
        _expect(operands, 3, mnemonic, line_no)
        return Instruction(
            op,
            _parse_register(operands[0], "r", line_no),
            _parse_register(operands[1], "r", line_no),
            0,
            _resolve_target(operands[2], labels, line_no),
        )
    if signature == "BR1":
        _expect(operands, 2, mnemonic, line_no)
        return Instruction(
            op,
            _parse_register(operands[0], "r", line_no),
            0,
            0,
            _resolve_target(operands[1], labels, line_no),
        )
    if signature == "TGT":
        _expect(operands, 1, mnemonic, line_no)
        return Instruction(op, 0, 0, 0, _resolve_target(operands[0], labels, line_no))
    # NONE
    _expect(operands, 0, mnemonic, line_no)
    return Instruction(op)


def disassemble(program: Program) -> str:
    """Render a program to assembly text that re-assembles to the same bytes.

    Branch targets are emitted as synthetic ``L<index>`` labels.
    """
    targets = {
        instr.imm
        for instr in program.instructions
        if instr.op in BRANCH_OPCODES
    }
    lines: list[str] = []
    for index, instr in enumerate(program.instructions):
        if index in targets:
            lines.append(f"L{index}:")
        lines.append("    " + _render(instr))
    # A trailing branch may target one-past-the-end only if validation allowed
    # it; validate() forbids that, so all targets are covered above.
    return "\n".join(lines) + "\n"


def _render(instr: Instruction) -> str:
    signature = _SIGNATURES[instr.op]
    files = FIELD_FILES[instr.op]
    mnemonic = opcode_name(instr.op)
    if signature == "RRR":
        return f"{mnemonic} {files[0]}{instr.a}, {files[1]}{instr.b}, {files[2]}{instr.c}"
    if signature == "RRI":
        return f"{mnemonic} {files[0]}{instr.a}, {files[1]}{instr.b}, {instr.imm}"
    if signature == "RR":
        return f"{mnemonic} {files[0]}{instr.a}, {files[1]}{instr.b}"
    if signature == "RI":
        return f"{mnemonic} {files[0]}{instr.a}, {instr.imm}"
    if signature == "MEM":
        sign = "+" if instr.imm >= 0 else "-"
        return f"{mnemonic} {files[0]}{instr.a}, [r{instr.b} {sign} {abs(instr.imm)}]"
    if signature == "BR2":
        return f"{mnemonic} r{instr.a}, r{instr.b}, L{instr.imm}"
    if signature == "BR1":
        return f"{mnemonic} r{instr.a}, L{instr.imm}"
    if signature == "TGT":
        return f"{mnemonic} L{instr.imm}"
    return mnemonic
