"""Differential testing of the CPU's architectural semantics.

An independent reference evaluator re-implements the ISA's *functional*
semantics directly from the opcode documentation (no timing, no caches,
dict-based memory).  Hypothesis generates random straight-line programs;
the simulator and the reference must agree bit-for-bit on all registers
and touched memory.  Divergence here means the optimised dispatch loop in
``repro.machine.cpu`` drifted from the specification.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble, disassemble
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.machine.cpu import Machine
from repro.machine.memory import Memory

MASK64 = (1 << 64) - 1
MASK53 = (1 << 53) - 1
TWO52 = 1 << 52
FP_SCALE = 67108864.0


def _clamp(value: float) -> float:
    return value if -1e300 < value < 1e300 else 1.0


class ReferenceEvaluator:
    """Spec-level functional evaluator (independent of repro.machine.cpu)."""

    def __init__(self, mem_mask: int) -> None:
        self.iregs = [0] * 16
        self.fregs = [0.0] * 16
        self.vregs = [[0.0] * 4 for _ in range(8)]
        self.memory: dict[int, int] = {}
        self.mem_mask = mem_mask

    def _load_word(self, addr: int) -> int:
        return self.memory.get(addr & self.mem_mask, 0)

    def _store_word(self, addr: int, value: int) -> None:
        self.memory[addr & self.mem_mask] = value & MASK64

    def run(self, instructions: list[Instruction]) -> None:
        R, F, V = self.iregs, self.fregs, self.vregs
        for ins in instructions:
            op, a, b, c, imm = ins.op, ins.a, ins.b, ins.c, ins.imm
            name = Opcode(op).name
            if name == "ADD":
                R[a] = (R[b] + R[c]) & MASK64
            elif name == "SUB":
                R[a] = (R[b] - R[c]) & MASK64
            elif name == "AND":
                R[a] = R[b] & R[c]
            elif name == "OR":
                R[a] = R[b] | R[c]
            elif name == "XOR":
                R[a] = R[b] ^ R[c]
            elif name == "SHL":
                R[a] = (R[b] << (R[c] % 64)) & MASK64
            elif name == "SHR":
                R[a] = R[b] >> (R[c] % 64)
            elif name == "ADDI":
                R[a] = (R[b] + imm) & MASK64
            elif name == "ANDI":
                R[a] = R[b] & (imm & MASK64)
            elif name == "ORI":
                R[a] = R[b] | (imm & MASK64)
            elif name == "XORI":
                R[a] = R[b] ^ (imm & MASK64)
            elif name == "SHLI":
                R[a] = (R[b] << (imm % 64)) & MASK64
            elif name == "SHRI":
                R[a] = R[b] >> (imm % 64)
            elif name == "MOV":
                R[a] = R[b]
            elif name == "MOVI":
                R[a] = imm & MASK64
            elif name == "NOT":
                R[a] = (~R[b]) & MASK64
            elif name == "CMPLT":
                R[a] = int(R[b] < R[c])
            elif name == "CMPEQ":
                R[a] = int(R[b] == R[c])
            elif name == "MIN":
                R[a] = min(R[b], R[c])
            elif name == "MAX":
                R[a] = max(R[b], R[c])
            elif name == "MUL":
                R[a] = (R[b] * R[c]) & MASK64
            elif name == "MULHI":
                R[a] = (R[b] * R[c]) >> 64
            elif name == "DIV":
                R[a] = MASK64 if R[c] == 0 else R[b] // R[c]
            elif name == "MOD":
                R[a] = 0 if R[c] == 0 else R[b] % R[c]
            elif name == "FADD":
                F[a] = _clamp(F[b] + F[c])
            elif name == "FSUB":
                F[a] = _clamp(F[b] - F[c])
            elif name == "FMUL":
                F[a] = _clamp(F[b] * F[c])
            elif name == "FDIV":
                F[a] = _clamp(F[b] / F[c] if (F[c] > 1e-300 or F[c] < -1e-300) else 1.0)
            elif name == "FMIN":
                F[a] = _clamp(F[b] if F[b] < F[c] else F[c])
            elif name == "FMAX":
                F[a] = _clamp(F[b] if F[b] > F[c] else F[c])
            elif name == "FABS":
                F[a] = _clamp(F[b] if F[b] >= 0.0 else -F[b])
            elif name == "FNEG":
                F[a] = _clamp(-F[b])
            elif name == "FMA":
                F[a] = _clamp(F[a] + F[b] * F[c])
            elif name == "CVTIF":
                F[a] = float(R[b] & MASK53)
            elif name == "CVTFI":
                R[a] = int(F[b]) & MASK64
            elif name == "LOAD":
                R[a] = self._load_word(R[b] + imm)
            elif name == "FLOAD":
                w = self._load_word(R[b] + imm)
                F[a] = ((w & MASK53) - TWO52) / FP_SCALE
            elif name == "STORE":
                self._store_word(R[b] + imm, R[a])
            elif name == "FSTORE":
                self._store_word(R[b] + imm, int(F[a] * FP_SCALE) + TWO52)
            elif name == "VADD":
                V[a] = [_clamp(x + y) for x, y in zip(V[b], V[c])]
            elif name == "VMUL":
                V[a] = [_clamp(x * y) for x, y in zip(V[b], V[c])]
            elif name == "VFMA":
                V[a] = [_clamp(x + y * z) for x, y, z in zip(V[a], V[b], V[c])]
            elif name == "VLOAD":
                base = R[b] + imm
                V[a] = [
                    ((self._load_word(base + lane) & MASK53) - TWO52) / FP_SCALE
                    for lane in range(4)
                ]
            elif name == "VSTORE":
                base = R[b] + imm
                for lane in range(4):
                    self._store_word(base + lane, int(V[a][lane] * FP_SCALE) + TWO52)
            elif name == "VBROADCAST":
                V[a] = [F[b]] * 4
            elif name == "VREDUCE":
                F[a] = _clamp(sum(V[b]))
            elif name in ("NOP", "HALT"):
                pass
            else:  # pragma: no cover - strategy only emits the ops above
                raise AssertionError(f"unhandled {name}")


# ---------------------------------------------------------------------------
# program strategy: straight-line code over small registers/immediates
# ---------------------------------------------------------------------------
_RRR_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
    Opcode.SHR, Opcode.CMPLT, Opcode.CMPEQ, Opcode.MIN, Opcode.MAX,
    Opcode.MUL, Opcode.MULHI, Opcode.DIV, Opcode.MOD,
]
_RRI_OPS = [Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SHLI, Opcode.SHRI]
_FP_RRR = [Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FMIN,
           Opcode.FMAX, Opcode.FMA]
_VEC_RRR = [Opcode.VADD, Opcode.VMUL, Opcode.VFMA]

# A small machine keeps per-run memory allocation cheap; memory size is a
# consensus parameter, but compared runs always share one config here so
# the comparison is exact regardless of the size chosen.
_SMALL_WORDS = 1 << 16

_reg = st.integers(0, 15)
_vreg = st.integers(0, 7)
_imm = st.integers(-(2**40), 2**40)
#: Displacements, including the last words of memory: registers start at
#: 0, so those make scalar accesses hit the top word and vector lanes wrap
#: to word 0.
_addr_imm = st.one_of(
    st.integers(0, 4000), st.integers(_SMALL_WORDS - 4, _SMALL_WORDS - 1)
)


def _instr() -> st.SearchStrategy[Instruction]:
    return st.one_of(
        st.builds(lambda op, a, b, c: Instruction(int(op), a, b, c),
                  st.sampled_from(_RRR_OPS), _reg, _reg, _reg),
        st.builds(lambda op, a, b, i: Instruction(int(op), a, b, 0, i),
                  st.sampled_from(_RRI_OPS), _reg, _reg, _imm),
        st.builds(lambda a, i: Instruction(int(Opcode.MOVI), a, 0, 0, i),
                  _reg, _imm),
        st.builds(lambda a, b: Instruction(int(Opcode.MOV), a, b), _reg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.NOT), a, b), _reg, _reg),
        st.builds(lambda op, a, b, c: Instruction(int(op), a, b, c),
                  st.sampled_from(_FP_RRR), _reg, _reg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.FABS), a, b), _reg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.FNEG), a, b), _reg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.CVTIF), a, b), _reg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.CVTFI), a, b), _reg, _reg),
        st.builds(lambda a, b, i: Instruction(int(Opcode.LOAD), a, b, 0, i),
                  _reg, _reg, _addr_imm),
        st.builds(lambda a, b, i: Instruction(int(Opcode.STORE), a, b, 0, i),
                  _reg, _reg, _addr_imm),
        st.builds(lambda a, b, i: Instruction(int(Opcode.FLOAD), a, b, 0, i),
                  _reg, _reg, _addr_imm),
        st.builds(lambda a, b, i: Instruction(int(Opcode.FSTORE), a, b, 0, i),
                  _reg, _reg, _addr_imm),
        st.builds(lambda op, a, b, c: Instruction(int(op), a, b, c),
                  st.sampled_from(_VEC_RRR), _vreg, _vreg, _vreg),
        st.builds(lambda a, b, i: Instruction(int(Opcode.VLOAD), a, b, 0, i),
                  _vreg, _reg, _addr_imm),
        st.builds(lambda a, b, i: Instruction(int(Opcode.VSTORE), a, b, 0, i),
                  _vreg, _reg, _addr_imm),
        st.builds(lambda a, b: Instruction(int(Opcode.VBROADCAST), a, b), _vreg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.VREDUCE), a, b), _reg, _vreg),
    )


programs = st.lists(_instr(), min_size=1, max_size=60)


#: Straight-line bodies with a handful of branches spliced in — targets
#: are always valid pcs, but loops (backward branches) are allowed and
#: bounded by the budget, so fuse-trip parity is exercised too.
@st.composite
def branchy_programs(draw):
    body = draw(st.lists(_instr(), min_size=4, max_size=40))
    n = len(body) + 1  # +HALT
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(body) - 1))
        op = draw(st.sampled_from(
            [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
             Opcode.JMP, Opcode.LOOPNZ]
        ))
        target = draw(st.integers(0, n - 1))
        if op is Opcode.JMP:
            body[pos] = Instruction(int(op), 0, 0, 0, target)
        elif op is Opcode.LOOPNZ:
            body[pos] = Instruction(
                int(op), draw(st.integers(0, 15)), 0, 0, target
            )
        else:
            body[pos] = Instruction(
                int(op), 0, draw(st.integers(0, 15)),
                draw(st.integers(0, 15)), target,
            )
    return body


#: Destinations for :func:`loop_nests` bodies: r13 stays the memory base
#: and r14/r15 stay the loop counters.
_nest_dest = st.integers(0, 12)
#: Displacements from r13 (0): every access hits one of four shared
#: words, so a block often loads a word that it, or a later block, stores.
_shared_word = st.integers(0, 3)


def _nest_instr() -> st.SearchStrategy[Instruction]:
    return st.one_of(
        st.builds(lambda op, a, b, c: Instruction(int(op), a, b, c),
                  st.sampled_from(_RRR_OPS), _nest_dest, _reg, _reg),
        st.builds(lambda op, a, b, i: Instruction(int(op), a, b, 0, i),
                  st.sampled_from(_RRI_OPS), _nest_dest, _reg, _imm),
        st.builds(lambda op, a, b, c: Instruction(int(op), a, b, c),
                  st.sampled_from(_FP_RRR), _reg, _reg, _reg),
        st.builds(lambda a, b: Instruction(int(Opcode.CVTIF), a, b),
                  _reg, _reg),
        st.builds(lambda op, a, b, c: Instruction(int(op), a, b, c),
                  st.sampled_from(_VEC_RRR), _vreg, _vreg, _vreg),
        st.builds(lambda a, b: Instruction(int(Opcode.VBROADCAST), a, b),
                  _vreg, _reg),
        st.builds(lambda a, i: Instruction(int(Opcode.LOAD), a, 13, 0, i),
                  _nest_dest, _shared_word),
        st.builds(lambda op, a, i: Instruction(int(op), a, 13, 0, i),
                  st.sampled_from([Opcode.STORE, Opcode.FLOAD, Opcode.FSTORE]),
                  _reg, _shared_word),
        st.builds(lambda op, a, i: Instruction(int(op), a, 13, 0, i),
                  st.sampled_from([Opcode.VLOAD, Opcode.VSTORE]),
                  _vreg, _shared_word),
    )


#: The conditional branches a structured nest may use besides ``LOOPNZ``.
_CONDITIONAL = [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE]


@st.composite
def loop_nests(draw):
    """A structured loop nest, the shape the region compiler accepts.

    An outer ``LOOPNZ r15`` loop (1-4 trips) runs around an inner
    ``LOOPNZ r14`` loop (1-5 trips each time).  Each body's first block
    loads a shared word, bumps it and stores it back; either body may
    hold a forward-skip diamond and a conditional mid-loop exit, and a
    prologue and epilogue run outside the nest.  The program ends with
    ``HALT``.
    """
    code: list[Instruction] = []

    def straight(min_size: int = 0) -> None:
        code.extend(draw(st.lists(_nest_instr(), min_size=min_size,
                                  max_size=6)))

    def branch_to_later() -> int:
        """Append a conditional branch; its target is patched later."""
        code.append(Instruction(int(draw(st.sampled_from(_CONDITIONAL))),
                                draw(_reg), draw(_reg), 0, 0))
        return len(code) - 1

    def target(at: int, pc: int) -> None:
        old = code[at]
        code[at] = Instruction(old.op, old.a, old.b, old.c, pc)

    def body(counter: int, trips: int, inner) -> None:
        code.append(Instruction(int(Opcode.MOVI), counter, 0, 0, trips))
        head = len(code)
        reg, word = draw(_nest_dest), draw(_shared_word)
        code.append(Instruction(int(Opcode.LOAD), reg, 13, 0, word))
        straight()
        code.append(Instruction(int(Opcode.ADDI), reg, reg, 0,
                                draw(st.integers(1, 9))))
        code.append(Instruction(int(Opcode.STORE), reg, 13, 0, word))
        straight()
        if draw(st.booleans()):  # forward-skip diamond
            skip = branch_to_later()
            straight(min_size=1)
            target(skip, len(code))
        if inner is not None:
            inner()
        exit_at = branch_to_later() if draw(st.booleans()) else None
        straight()
        code.append(Instruction(int(Opcode.LOOPNZ), counter, 0, 0, head))
        if exit_at is not None:  # conditional exit past the backedge
            target(exit_at, len(code))

    straight()
    body(15, draw(st.integers(1, 4)),
         lambda: body(14, draw(st.integers(1, 5)), None))
    straight()
    code.append(Instruction(int(Opcode.HALT)))
    return code


# ---------------------------------------------------------------------------
# shared helpers for the tier differentials (tests/test_jit.py)
# ---------------------------------------------------------------------------
def _small_machine() -> Machine:
    return Machine(Machine().config.scaled_memory(_SMALL_WORDS))


def _run_widget(widget, machine, **kwargs):
    """Execute a widget the way Widget.execute does, returning (result, memory)."""
    memory = machine.new_memory()
    for directive in widget.spec.plan.directives():
        directive.apply(memory)
    result = machine.run(
        widget.program,
        memory,
        max_instructions=int(widget.spec.meta.get("fuse", 10_000_000)),
        snapshot_interval=widget.spec.snapshot_interval,
        **kwargs,
    )
    return result, memory


def _assert_same_architectural(ref, got, *, mem_ref=None, mem_got=None):
    assert got.output == ref.output
    assert got.iregs == ref.iregs
    assert got.fregs == ref.fregs
    assert got.halted == ref.halted
    assert got.snapshots == ref.snapshots
    assert got.counters.retired == ref.counters.retired
    if mem_ref is not None:
        assert mem_got.words == mem_ref.words


def _loop_forever() -> Program:
    return Program(instructions=[
        Instruction(int(Opcode.MOVI), 0, 0, 0, 1),
        Instruction(int(Opcode.JMP), 0, 0, 0, 0),
    ])


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(programs)
    def test_simulator_matches_reference(self, instructions):
        program = Program(instructions=instructions + [Instruction(int(Opcode.HALT))])
        program.validate()

        memory = Memory(_SMALL_WORDS)
        result = _small_machine().run(program, memory, max_instructions=1000)

        reference = ReferenceEvaluator(mem_mask=_SMALL_WORDS - 1)
        reference.run(instructions)

        assert result.iregs == reference.iregs
        assert result.fregs == reference.fregs
        for addr, value in reference.memory.items():
            assert memory.words[addr] == value, f"memory[{addr}]"

    @settings(max_examples=60, deadline=None)
    @given(programs)
    def test_disassembly_round_trips_random_programs(self, instructions):
        program = Program(instructions=instructions + [Instruction(int(Opcode.HALT))])
        program.validate()
        again = assemble(disassemble(program))
        assert again.instructions == program.instructions
