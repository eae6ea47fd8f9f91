"""Instruction/program encoding tests, including hypothesis round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa.encoding import (
    INSTRUCTION_SIZE,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.isa.instructions import Instruction
from repro.isa.opcodes import FIELD_FILES, REGISTER_FILE_SIZES, Opcode
from repro.isa.program import Program

# Strategy: structurally valid instructions (registers in range, branch
# targets handled separately because they need a program length).
_NON_BRANCH_OPS = [
    op for op in Opcode if op not in
    (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP, Opcode.LOOPNZ)
]


def _valid_instruction(op: Opcode) -> st.SearchStrategy:
    a, b, c = (
        st.integers(0, REGISTER_FILE_SIZES[name] - 1)
        for name in FIELD_FILES[int(op)]
    )
    return st.builds(
        Instruction,
        op=st.just(int(op)),
        a=a,
        b=b,
        c=c,
        imm=st.integers(-(2**63), 2**63 - 1),
    )


instruction_strategy = st.sampled_from(_NON_BRANCH_OPS).flatmap(_valid_instruction)


class TestInstructionEncoding:
    def test_fixed_size(self):
        data = encode_instruction(Instruction(int(Opcode.ADD), 1, 2, 3))
        assert len(data) == INSTRUCTION_SIZE

    def test_round_trip_simple(self):
        instr = Instruction(int(Opcode.ADDI), 4, 5, 0, -12345)
        assert decode_instruction(encode_instruction(instr)) == instr

    def test_round_trip_negative_imm_extremes(self):
        for imm in (-(2**63), 2**63 - 1, -1, 0):
            instr = Instruction(int(Opcode.MOVI), 3, 0, 0, imm)
            assert decode_instruction(encode_instruction(instr)).imm == imm

    def test_decode_wrong_length_raises(self):
        with pytest.raises(EncodingError):
            decode_instruction(b"\x00" * (INSTRUCTION_SIZE - 1))

    def test_decode_bad_opcode_raises(self):
        raw = bytearray(encode_instruction(Instruction(int(Opcode.ADD), 1, 2, 3)))
        raw[0] = 250  # not a valid opcode
        with pytest.raises(EncodingError):
            decode_instruction(bytes(raw))

    @given(instruction_strategy)
    def test_round_trip_property(self, instr):
        assert decode_instruction(encode_instruction(instr)) == instr


class TestProgramEncoding:
    def _program(self) -> Program:
        program = Program(
            instructions=[
                Instruction(int(Opcode.MOVI), 1, 0, 0, 10),
                Instruction(int(Opcode.ADD), 2, 2, 1),
                Instruction(int(Opcode.LOOPNZ), 1, 0, 0, 1),
                Instruction(int(Opcode.HALT)),
            ],
            name="t",
        )
        program.validate()
        return program

    def test_round_trip(self):
        program = self._program()
        decoded = decode_program(encode_program(program))
        assert decoded.instructions == program.instructions

    def test_fingerprint_stable_across_round_trip(self):
        program = self._program()
        assert decode_program(encode_program(program)).fingerprint() == program.fingerprint()

    def test_name_and_labels_do_not_affect_encoding(self):
        program = self._program()
        renamed = Program(instructions=list(program.instructions), name="other",
                          labels={"x": 0})
        assert encode_program(renamed) == encode_program(program)

    def test_truncated_raises(self):
        data = encode_program(self._program())
        with pytest.raises(EncodingError):
            decode_program(data[:-1])

    def test_bad_magic_raises(self):
        data = bytearray(encode_program(self._program()))
        data[0] = ord("X")
        with pytest.raises(EncodingError):
            decode_program(bytes(data))

    def test_decoded_program_is_validated(self):
        # Corrupt a branch target beyond the program end.
        program = self._program()
        data = bytearray(encode_program(program))
        # LOOPNZ imm starts at header(10) + 2*12 + 4 bytes into instruction.
        offset = 10 + 2 * INSTRUCTION_SIZE + 4
        data[offset] = 200
        with pytest.raises(EncodingError):
            decode_program(bytes(data))

    @given(st.lists(instruction_strategy, min_size=1, max_size=40))
    def test_program_round_trip_property(self, instructions):
        program = Program(instructions=instructions + [Instruction(int(Opcode.HALT))])
        program.validate()
        assert decode_program(encode_program(program)).instructions == program.instructions
