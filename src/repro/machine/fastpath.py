"""Threaded-code handlers — the JIT's per-instruction fallback.

HashCore's digest is ``G(s || W(s))`` where the widget output ``W(s)`` is
purely *architectural* state: register snapshots taken every
``snapshot_interval`` retired instructions plus the final register file.
ARCHITECTURE.md states the load-bearing invariant — *timing never feeds
back into architectural state* — so every cycle the timing model spends on
the cache hierarchy, branch predictor, reorder buffer and scoreboard is
provably irrelevant to the hash value.  The handlers here exploit that:
each executes the identical instruction semantics as
:meth:`repro.machine.cpu.Machine.run` while touching *nothing but*
registers and memory.

Each :class:`~repro.isa.program.Program` is decoded *once* into a list of
bound closures (classic threaded code), one per static instruction, with
operand indices, masked immediates and the fall-through pc baked in as
default arguments, so one step is just ``pc = handlers[pc](state)``.  The
handler list is cached on the program alongside ``code_tuples``, so
re-running a widget (LRU cache hits, verification) pays the decode cost
only once.  The JIT (:mod:`repro.machine.jit`) steps through these
handlers wherever no compiled loop region or segment covers the pc, and
shares this module's run prologue and epilogue; ``tests/test_jit.py``
checks the result bit for bit against the timing path.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.isa.opcodes import NUM_FP_REGS, NUM_INT_REGS, NUM_VEC_REGS, VEC_LANES
from repro.isa.program import Program
from repro.machine.cpu import _FP_SCALE, _MASK53, _MASK64, _TWO52, ExecutionResult
from repro.machine.memory import Memory
from repro.machine.perf_counters import PerfCounters


class _State:
    """Mutable architectural state shared with the threaded handlers.

    A slotted attribute container is the cheapest per-call vehicle for the
    register files: handlers read only the files they touch (one attribute
    load each) instead of unpacking a tuple of all five.
    """

    __slots__ = ("i", "f", "v", "w", "m")

    def __init__(
        self,
        iregs: list[int],
        fregs: list[float],
        vregs: list[list[float]],
        words: list[int],
        mask: int,
    ) -> None:
        self.i = iregs
        self.f = fregs
        self.v = vregs
        self.w = words
        self.m = mask


def _compile_one(op: int, a: int, b: int, c: int, imm: int, nxt: int):
    """Build the bound-closure handler for one static instruction.

    Every handler takes the :class:`_State` and returns the next pc; a
    negative return is the HALT sentinel.  Operand indices, pre-masked
    immediates and the fall-through pc are bound as default arguments so
    the handler body runs entirely on locals.
    """
    M = _MASK64
    if op == 0:  # ADD
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = (I[b] + I[c]) & M
            return n
    elif op == 1:  # SUB
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = (I[b] - I[c]) & M
            return n
    elif op == 2:  # AND
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = I[b] & I[c]
            return n
    elif op == 3:  # OR
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = I[b] | I[c]
            return n
    elif op == 4:  # XOR
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = I[b] ^ I[c]
            return n
    elif op == 5:  # SHL
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = (I[b] << (I[c] & 63)) & M
            return n
    elif op == 6:  # SHR
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = I[b] >> (I[c] & 63)
            return n
    elif op == 7:  # ADDI
        def h(st, a=a, b=b, imm=imm, n=nxt):
            I = st.i
            I[a] = (I[b] + imm) & M
            return n
    elif op == 8:  # ANDI
        def h(st, a=a, b=b, imm=imm & M, n=nxt):
            I = st.i
            I[a] = I[b] & imm
            return n
    elif op == 9:  # ORI
        def h(st, a=a, b=b, imm=imm & M, n=nxt):
            I = st.i
            I[a] = I[b] | imm
            return n
    elif op == 10:  # XORI
        def h(st, a=a, b=b, imm=imm & M, n=nxt):
            I = st.i
            I[a] = I[b] ^ imm
            return n
    elif op == 11:  # SHLI
        def h(st, a=a, b=b, imm=imm & 63, n=nxt):
            I = st.i
            I[a] = (I[b] << imm) & M
            return n
    elif op == 12:  # SHRI
        def h(st, a=a, b=b, imm=imm & 63, n=nxt):
            I = st.i
            I[a] = I[b] >> imm
            return n
    elif op == 13:  # MOV
        def h(st, a=a, b=b, n=nxt):
            I = st.i
            I[a] = I[b]
            return n
    elif op == 14:  # MOVI
        def h(st, a=a, imm=imm & M, n=nxt):
            st.i[a] = imm
            return n
    elif op == 15:  # NOT
        def h(st, a=a, b=b, n=nxt):
            I = st.i
            I[a] = I[b] ^ M
            return n
    elif op == 16:  # CMPLT
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = 1 if I[b] < I[c] else 0
            return n
    elif op == 17:  # CMPEQ
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = 1 if I[b] == I[c] else 0
            return n
    elif op == 18:  # MIN
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            vb, vc = I[b], I[c]
            I[a] = vb if vb < vc else vc
            return n
    elif op == 19:  # MAX
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            vb, vc = I[b], I[c]
            I[a] = vb if vb > vc else vc
            return n
    elif op == 24:  # MUL
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = (I[b] * I[c]) & M
            return n
    elif op == 25:  # MULHI
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            I[a] = (I[b] * I[c]) >> 64
            return n
    elif op == 26:  # DIV
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            vc = I[c]
            I[a] = M if vc == 0 else I[b] // vc
            return n
    elif op == 27:  # MOD
        def h(st, a=a, b=b, c=c, n=nxt):
            I = st.i
            vc = I[c]
            I[a] = 0 if vc == 0 else I[b] % vc
            return n
    elif op == 32:  # FADD
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fv = F[b] + F[c]
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 33:  # FSUB
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fv = F[b] - F[c]
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 34:  # FMUL
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fv = F[b] * F[c]
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 35:  # FDIV
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fc = F[c]
            fv = F[b] / fc if (fc > 1e-300 or fc < -1e-300) else 1.0
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 36:  # FMIN
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fb, fc = F[b], F[c]
            fv = fb if fb < fc else fc
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 37:  # FMAX
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fb, fc = F[b], F[c]
            fv = fb if fb > fc else fc
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 38:  # FABS
        def h(st, a=a, b=b, n=nxt):
            F = st.f
            fb = F[b]
            fv = fb if fb >= 0.0 else -fb
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 39:  # FNEG
        def h(st, a=a, b=b, n=nxt):
            F = st.f
            fv = -F[b]
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 40:  # FMA
        def h(st, a=a, b=b, c=c, n=nxt):
            F = st.f
            fv = F[a] + F[b] * F[c]
            F[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 41:  # CVTIF
        def h(st, a=a, b=b, n=nxt):
            fv = float(st.i[b] & _MASK53)
            st.f[a] = fv if -1e300 < fv < 1e300 else 1.0
            return n
    elif op == 42:  # CVTFI
        def h(st, a=a, b=b, n=nxt):
            st.i[a] = int(st.f[b]) & M
            return n
    elif op == 48:  # LOAD
        def h(st, a=a, b=b, imm=imm, n=nxt):
            I = st.i
            I[a] = st.w[(I[b] + imm) & st.m]
            return n
    elif op == 49:  # FLOAD
        def h(st, a=a, b=b, imm=imm, n=nxt):
            st.f[a] = ((st.w[(st.i[b] + imm) & st.m] & _MASK53) - _TWO52) / _FP_SCALE
            return n
    elif op == 52:  # STORE
        def h(st, a=a, b=b, imm=imm, n=nxt):
            I = st.i
            st.w[(I[b] + imm) & st.m] = I[a]
            return n
    elif op == 53:  # FSTORE
        def h(st, a=a, b=b, imm=imm, n=nxt):
            st.w[(st.i[b] + imm) & st.m] = (int(st.f[a] * _FP_SCALE) + _TWO52) & M
            return n
    elif op == 56:  # BEQ
        def h(st, a=a, b=b, t=imm, n=nxt):
            I = st.i
            return t if I[a] == I[b] else n
    elif op == 57:  # BNE
        def h(st, a=a, b=b, t=imm, n=nxt):
            I = st.i
            return t if I[a] != I[b] else n
    elif op == 58:  # BLT
        def h(st, a=a, b=b, t=imm, n=nxt):
            I = st.i
            return t if I[a] < I[b] else n
    elif op == 59:  # BGE
        def h(st, a=a, b=b, t=imm, n=nxt):
            I = st.i
            return t if I[a] >= I[b] else n
    elif op == 60:  # JMP
        def h(st, t=imm):
            return t
    elif op == 61:  # LOOPNZ
        def h(st, a=a, t=imm, n=nxt):
            I = st.i
            value = (I[a] - 1) & M
            I[a] = value
            return t if value else n
    elif op == 64:  # VADD
        def h(st, a=a, b=b, c=c, n=nxt):
            V = st.v
            vb, vc = V[b], V[c]
            V[a] = [
                x if -1e300 < x < 1e300 else 1.0
                for x in (
                    vb[0] + vc[0],
                    vb[1] + vc[1],
                    vb[2] + vc[2],
                    vb[3] + vc[3],
                )
            ]
            return n
    elif op == 65:  # VMUL
        def h(st, a=a, b=b, c=c, n=nxt):
            V = st.v
            vb, vc = V[b], V[c]
            V[a] = [
                x if -1e300 < x < 1e300 else 1.0
                for x in (
                    vb[0] * vc[0],
                    vb[1] * vc[1],
                    vb[2] * vc[2],
                    vb[3] * vc[3],
                )
            ]
            return n
    elif op == 66:  # VFMA
        def h(st, a=a, b=b, c=c, n=nxt):
            V = st.v
            va, vb, vc = V[a], V[b], V[c]
            V[a] = [
                x if -1e300 < x < 1e300 else 1.0
                for x in (
                    va[0] + vb[0] * vc[0],
                    va[1] + vb[1] * vc[1],
                    va[2] + vb[2] * vc[2],
                    va[3] + vb[3] * vc[3],
                )
            ]
            return n
    elif op == 67:  # VLOAD
        def h(st, a=a, b=b, imm=imm, n=nxt):
            W = st.w
            m = st.m
            addr = (st.i[b] + imm) & m
            st.v[a] = [
                ((W[addr] & _MASK53) - _TWO52) / _FP_SCALE,
                ((W[(addr + 1) & m] & _MASK53) - _TWO52) / _FP_SCALE,
                ((W[(addr + 2) & m] & _MASK53) - _TWO52) / _FP_SCALE,
                ((W[(addr + 3) & m] & _MASK53) - _TWO52) / _FP_SCALE,
            ]
            return n
    elif op == 68:  # VSTORE
        def h(st, a=a, b=b, imm=imm, n=nxt):
            W = st.w
            m = st.m
            addr = (st.i[b] + imm) & m
            va = st.v[a]
            W[addr] = (int(va[0] * _FP_SCALE) + _TWO52) & M
            W[(addr + 1) & m] = (int(va[1] * _FP_SCALE) + _TWO52) & M
            W[(addr + 2) & m] = (int(va[2] * _FP_SCALE) + _TWO52) & M
            W[(addr + 3) & m] = (int(va[3] * _FP_SCALE) + _TWO52) & M
            return n
    elif op == 69:  # VBROADCAST
        def h(st, a=a, b=b, n=nxt):
            st.v[a] = [st.f[b]] * VEC_LANES
            return n
    elif op == 70:  # VREDUCE
        def h(st, a=a, b=b, n=nxt):
            vb = st.v[b]
            total = vb[0] + vb[1] + vb[2] + vb[3]
            st.f[a] = total if -1e300 < total < 1e300 else 1.0
            return n
    elif op == 73:  # HALT — negative pc is the driver's halt sentinel
        def h(st):
            return -1
    else:  # NOP and any other system opcode fall through
        def h(st, n=nxt):
            return n
    return h


def compile_threaded(program: Program) -> list:
    """Decode ``program`` into its threaded-code handler list.

    One closure per static instruction; called through
    :meth:`repro.isa.program.Program.fast_handlers`, which caches the
    result on the program object.
    """
    return [
        _compile_one(i.op, i.a, i.b, i.c, i.imm, index + 1)
        for index, i in enumerate(program.instructions)
    ]


def _init_state(
    machine,
    memory: Memory | None,
    max_instructions: int,
    initial_iregs: list[int] | None,
    initial_fregs: list[float] | None,
) -> tuple[Memory, list[int], list[float], list[list[float]]]:
    """Run prologue: validate arguments, build the register files."""
    if memory is None:
        memory = machine.new_memory()
    if max_instructions <= 0:
        raise ExecutionError("max_instructions must be positive")
    iregs = [v & _MASK64 for v in (initial_iregs or [0] * NUM_INT_REGS)]
    fregs = list(initial_fregs or [0.0] * NUM_FP_REGS)
    if len(iregs) != NUM_INT_REGS or len(fregs) != NUM_FP_REGS:
        raise ExecutionError("initial register files have wrong length")
    vregs = [[0.0] * VEC_LANES for _ in range(NUM_VEC_REGS)]
    return memory, iregs, fregs, vregs


def _finish(
    retired: int,
    halted: bool,
    out_chunks: list[bytes],
    snapshots: int,
    iregs: list[int],
    fregs: list[float],
) -> ExecutionResult:
    """Run epilogue: package the architectural outcome."""
    counters = PerfCounters()
    counters.retired = retired
    return ExecutionResult(
        counters=counters,
        output=b"".join(out_chunks),
        iregs=iregs,
        fregs=fregs,
        halted=halted,
        snapshots=snapshots,
    )
