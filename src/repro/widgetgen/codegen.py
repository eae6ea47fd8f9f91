"""Widget code generation: :class:`WidgetSpec` → :class:`Program`.

This stage stands in for the paper's generated-C + GCC step: the IR is
lowered to concrete ISA instructions through the structured
:class:`~repro.isa.builder.ProgramBuilder`.  The emitted instruction counts
per construct match the generator's accounting exactly (guard = 2
instructions, xor + branch; the token counts, such as PRNG advance = 6 and
pointer bump = 2, live in :data:`repro.widgetgen.ir._TOKEN_CLASSES`), so
the spec's expected dynamic size is an unbiased estimate of the real one.
"""

from __future__ import annotations

import struct

from repro.errors import GenerationError
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.rng import MASK64, splitmix64
from repro.widgetgen import regs
from repro.widgetgen.ir import BlockSpec, WidgetSpec
from repro.widgetgen.memstream import COLD_BASE, HOT_BASE, RING_BASE


def _movi64(b: ProgramBuilder, reg: int, value: int) -> None:
    """MOVI a full 64-bit pattern (the imm field is signed)."""
    value &= MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    b.movi(reg, value)


def compile_spec(spec: WidgetSpec) -> Program:
    """Compile a widget spec to an executable program."""
    spec.validate()
    b = ProgramBuilder(spec.name)
    plan = spec.plan
    seed_words = struct.unpack("<4Q", bytes.fromhex(spec.seed_hex))

    # ------------------------------------------------------------------
    # Preamble: seed-derived architectural state.  Register *values* differ
    # per widget, so even structurally similar widgets produce unrelated
    # outputs.
    # ------------------------------------------------------------------
    _movi64(b, regs.PRNG, seed_words[0] | 1)
    for offset, reg in enumerate(regs.INT_DATA):
        _movi64(b, reg, splitmix64((seed_words[1] + offset) & MASK64))
    _movi64(b, regs.MUL_CONST, splitmix64(seed_words[2]) | 1)
    _movi64(b, regs.THR_HI, regs.THRESHOLD_HI << 56)
    _movi64(
        b,
        regs.THR_MID,
        int(spec.meta.get("mid_threshold", regs.THRESHOLD_MID_BASE)) << 56,
    )
    b.movi(regs.HOT_MASK, plan.hot_mask)
    b.movi(regs.COLD_MASK, plan.cold_mask if plan.cold_words else 0)
    b.movi(regs.HOT_PTR, 0)
    b.movi(regs.COLD_PTR, 0)
    b.movi(regs.RING_PTR, RING_BASE if plan.ring_words else 0)
    for offset, freg in enumerate(regs.FP_DATA):
        b.movi(regs.TEST, splitmix64((seed_words[3] + offset) & MASK64) % 100_000 + 1)
        b.cvtif(freg, regs.TEST)
    for vreg in regs.VEC_DATA:
        b.vbroadcast(vreg, regs.FP_DATA[vreg % len(regs.FP_DATA)])

    # ------------------------------------------------------------------
    # Body: outer loop over blocks, with inner loops where specified.
    # ------------------------------------------------------------------
    loop_at = {loop.start: loop for loop in spec.loops}
    with b.loop(regs.OUTER, spec.outer_trips):
        index = 0
        while index < len(spec.blocks):
            loop = loop_at.get(index)
            if loop is not None:
                with b.loop(regs.INNER, loop.trips):
                    for j in range(loop.start, loop.end + 1):
                        _emit_block(b, spec.blocks[j], plan)
                index = loop.end + 1
            else:
                _emit_block(b, spec.blocks[index], plan)
                index += 1

    # ------------------------------------------------------------------
    # Epilogue: fold vector state into snapshot-visible FP registers so the
    # final snapshot commits to every architectural effect of the run.
    # ------------------------------------------------------------------
    b.vreduce(4, 0)
    b.fadd(0, 0, 4)
    b.vreduce(5, 2)
    b.fadd(1, 1, 5)
    b.cvtfi(regs.TEST, 0)
    b.xor(regs.INT_DATA[0], regs.INT_DATA[0], regs.TEST)
    b.halt()
    return b.build()


def _emit_prng(b: ProgramBuilder) -> None:
    """xorshift64 advance of the widget PRNG (6 instructions)."""
    b.shli(regs.TEST, regs.PRNG, 13)
    b.xor(regs.PRNG, regs.PRNG, regs.TEST)
    b.shri(regs.TEST, regs.PRNG, 7)
    b.xor(regs.PRNG, regs.PRNG, regs.TEST)
    b.shli(regs.TEST, regs.PRNG, 17)
    b.xor(regs.PRNG, regs.PRNG, regs.TEST)


def _region(plan, region: str) -> tuple[int, int, int]:
    """(pointer register, mask register, base offset) for a region name."""
    if region == "hot":
        return regs.HOT_PTR, regs.HOT_MASK, HOT_BASE
    if region == "cold":
        return regs.COLD_PTR, regs.COLD_MASK, COLD_BASE
    raise GenerationError(f"unknown region {region!r}")


def _emit_token(b: ProgramBuilder, token, plan) -> None:
    kind = token[0]
    if kind == "ins":
        _, op, a, src1, src2, imm = token
        b.emit(Opcode(op), a, src1, src2, imm)
    elif kind == "load":
        ptr, _, base = _region(plan, token[1])
        b.load(token[2], ptr, base + token[3])
    elif kind == "dload":
        # Data-dependent address: mask the live value into the region.
        _, mask, base = _region(plan, token[1])
        b.and_(regs.TEST, token[3], mask)
        b.load(token[2], regs.TEST, base)
    elif kind == "fload":
        ptr, _, base = _region(plan, token[1])
        b.fload(token[2], ptr, base + token[3])
    elif kind == "store":
        ptr, _, base = _region(plan, token[1])
        b.store(token[2], ptr, base + token[3])
    elif kind == "fstore":
        ptr, _, base = _region(plan, token[1])
        b.fstore(token[2], ptr, base + token[3])
    elif kind == "vload":
        ptr, _, base = _region(plan, token[1])
        b.vload(token[2], ptr, base + token[3])
    elif kind == "vstore":
        ptr, _, base = _region(plan, token[1])
        b.vstore(token[2], ptr, base + token[3])
    elif kind == "chase":
        if not plan.ring_words:
            raise GenerationError("chase token without a pointer ring")
        b.load(regs.RING_PTR, regs.RING_PTR, 0)
    elif kind == "bump":
        ptr, mask, _ = _region(plan, token[1])
        b.addi(ptr, ptr, token[2])
        b.and_(ptr, ptr, mask)
    elif kind == "prng":
        _emit_prng(b)
    else:
        raise GenerationError(f"unknown token kind {kind!r}")


def _emit_block(b: ProgramBuilder, block: BlockSpec, plan) -> None:
    for token in block.pre:
        _emit_token(b, token, plan)
    guard = block.guard
    if guard is None:
        for token in block.body:
            _emit_token(b, token, plan)
        return
    # Guard test: 1 instruction + 1 branch (matches the generator's
    # accounting).  XOR with the uniform PRNG keeps the 64-bit test value
    # uniform whatever the data register holds, and makes the branch
    # resolve late (it waits on the dataflow feeding mix_reg).
    b.xor(regs.TEST, regs.PRNG, guard.mix_reg)
    threshold_reg = regs.THR_HI if guard.threshold == "hi" else regs.THR_MID
    conditional = b.if_ge if guard.invert else b.if_lt
    with conditional(regs.TEST, threshold_reg):
        for token in block.body:
            _emit_token(b, token, plan)
