"""Assembler / disassembler tests."""

import pytest

from repro.errors import AssemblyError, EncodingError
from repro.isa.assembler import assemble, disassemble
from repro.isa.encoding import decode_program, encode_program
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


SAMPLE = """
; a small sample exercising every operand shape
start:
    MOVI   r1, 100
    MOVI   r2, 0
loop:
    ADD    r2, r2, r1
    ADDI   r3, r2, -7
    MUL    r4, r2, r3
    LOAD   r5, [r2 + 8]
    STORE  r5, [r2 + 16]
    FLOAD  f1, [r2 + 0]
    FADD   f0, f0, f1
    CVTIF  f2, r2
    VADD   v0, v1, v2
    VBROADCAST v1, f0
    VREDUCE f3, v0
    BEQ    r2, r3, end
    LOOPNZ r1, loop
end:
    HALT
"""


class TestAssemble:
    def test_sample_assembles(self):
        program = assemble(SAMPLE)
        assert program.instructions[-1].op == int(Opcode.HALT)
        assert "loop" in program.labels

    def test_label_resolution(self):
        program = assemble(SAMPLE)
        loopnz = [i for i in program.instructions if i.op == int(Opcode.LOOPNZ)][0]
        assert loopnz.imm == program.labels["loop"]

    def test_forward_reference(self):
        program = assemble("JMP end\nNOP\nend:\nHALT")
        assert program.instructions[0].imm == 2

    def test_numeric_target(self):
        program = assemble("BEQ r1, r2, 2\nNOP\nHALT")
        assert program.instructions[0].imm == 2

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("\n; only a comment\nNOP ; trailing\n\nHALT\n")
        assert len(program) == 2

    def test_case_insensitive_mnemonics(self):
        program = assemble("movi r1, 5\nhalt")
        assert program.instructions[0].op == int(Opcode.MOVI)

    def test_negative_memory_offset(self):
        program = assemble("MOVI r1, 100\nLOAD r2, [r1 - 4]\nHALT")
        assert program.instructions[1].imm == -4

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(AssemblyError):
            assemble("FROB r1, r2, r3")

    def test_unknown_label_raises(self):
        with pytest.raises(AssemblyError):
            assemble("JMP nowhere\nHALT")

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblyError):
            assemble("x:\nNOP\nx:\nHALT")

    def test_wrong_operand_count_raises(self):
        with pytest.raises(AssemblyError):
            assemble("ADD r1, r2")

    def test_wrong_register_file_raises(self):
        with pytest.raises(AssemblyError):
            assemble("FADD r0, f1, f2")

    def test_bad_memory_operand_raises(self):
        with pytest.raises(AssemblyError):
            assemble("LOAD r1, [f2 + 3]")

    def test_register_out_of_range_raises(self):
        # Sources index the 8-entry vector file too, not the 16-entry ones.
        for line in ("VADD v9, v0, v1", "VADD v0, v12, v3",
                     "VFMA v1, v2, v8", "VREDUCE f0, v9"):
            with pytest.raises(EncodingError):  # a validation error
                assemble(f"{line}\nHALT")

    def test_decoded_vector_register_out_of_range_raises(self):
        program = Program(instructions=[
            Instruction(int(Opcode.VADD), 0, 12, 3),
            Instruction(int(Opcode.HALT)),
        ])
        with pytest.raises(EncodingError):
            decode_program(encode_program(program))


class TestDisassemble:
    def test_round_trip_bytes_identical(self):
        program = assemble(SAMPLE)
        again = assemble(disassemble(program))
        assert encode_program(again) == encode_program(program)

    def test_branch_targets_get_labels(self):
        text = disassemble(assemble(SAMPLE))
        assert "L" in text
        assert "LOOPNZ" in text

    def test_str_is_disassembly(self):
        program = assemble("NOP\nHALT")
        assert "NOP" in str(program)
