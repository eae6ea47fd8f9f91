"""The JIT — specialize each program into compiled Python source.

There are two execution tiers (ARCHITECTURE.md §1), and a JIT fault
degrades jit → timed (:meth:`repro.machine.cpu.Machine.run_with_fallback`):

* **timed** (:mod:`repro.machine.cpu`) — the analytic out-of-order model,
  authoritative for every timing question;
* **jit** (this module) — the program runs as Python code rendered from
  one per-opcode statement table, :func:`_stmt` (and :func:`_exit_stmt`
  for terminators), at two granularities.  Each outermost *natural loop*
  closed by a backward branch becomes a **region**: structured
  ``while``/``if`` Python covering the entire loop nest, with registers
  loaded into locals once and flushed only at its exits.  Every other pc
  (in a widget, the prologue and epilogue around its loop nests) steps
  through a **threaded-code handler**: one function per static
  instruction, made by a per-opcode factory that renders the same
  template with the register files subscripted (``i[A]`` rather than a
  local ``i3``) and is compiled once per process; operands, the data
  immediate and the next pcs are bound as default arguments.  Loop shapes
  the region generator cannot prove structured (a ``JMP`` inside the
  loop, side entries, irregular nesting) bail out and run on handlers —
  never incorrectly.

A program is translated once, on its first run (:func:`compile_jit`), into
one artifact holding both its threaded handlers and its loop regions,
which the program caches (:meth:`~repro.isa.program.Program.jit_code`).

Region source inlines every data immediate as a literal, so a
translation is its program's own.  A process-wide **region cache**,
keyed on a program's full code and LRU-bounded at 16 entries (see
:func:`template_cache_stats`), lets an identical program skip codegen
and ``compile()``; fresh widgets do not repeat, so in mining it does not
hit, and the bound is what keeps a miner's resident set flat.  A
translation holds no reference cycle: it is freed by reference counting
once its programs and its cache entry are gone.

Correctness strategy: a run's *events* — a register snapshot every
``snapshot_interval`` retirements and the fuse at ``max_instructions`` —
fall at exact counts of *ticks*, retired non-HALT instructions
(:class:`_Events`).  The driver and the compiled code count down the
ticks left before the next event.  The driver ticks once per handler and
takes a due event right after that instruction, on the real register
files.  A region ticks once per **block**, a straight-line run of its
body that ends at a branch (which ticks in its own block), before an
inner loop head or before a HALT (which never ticks), and it ticks
*before* running the block.  When the count goes negative the event falls
inside the block, and the region takes the snapshot **in place**
(:meth:`_Events.cross`, handed the region's ``locals()``): it spills the
registers the region writes into the live register files, replays the
block's instructions up to the event through the threaded handlers on
those files and on a store-buffering view of memory (a block can load a
word it later stores), packs the snapshot from them, and then runs the
compiled block as usual.  The replay writes only registers the region
flushes at exit, so what it leaves is overwritten before it is read.
The **fuse** trips at the same check: the run raises the
:class:`~repro.errors.ExecutionLimitExceeded` the timed model raises
right after the budget-th tick, and the output is discarded either way.
So a region returns only at its exit or a HALT, and the driver calls it
once per entry into its loop nest.  ``tests/test_jit.py`` proves the JIT
agrees with the timing path — on generated widgets, on fuzzed
straight-line, branchy and loop-nest programs with drawn snapshot
windows and budgets, and on hand-built boundary cases — on outputs,
register files, memory, snapshots, retired counts and limit errors.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ExecutionError, ExecutionLimitExceeded
from repro.isa.opcodes import (
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_VEC_REGS,
    VEC_LANES,
    Opcode,
)
from repro.isa.program import Program
from repro.machine.cpu import _MASK64, _SNAP_F, _SNAP_I, ExecutionResult
from repro.machine.memory import Memory
from repro.machine.perf_counters import PerfCounters

_M64 = "0xFFFFFFFFFFFFFFFF"
_M53 = "0x1FFFFFFFFFFFFF"
_TWO52 = "4503599627370496"
_SCALE = "67108864.0"

_BRANCH_OPS = frozenset((56, 57, 58, 59, 60, 61))
_TERMINATORS = _BRANCH_OPS | {73}
_CMP = {56: "==", 57: "!=", 58: "<", 59: ">="}
#: Negation of each conditional branch — a forward skip's guard.
_INV_CMP = {56: "!=", 57: "==", 58: ">=", 59: "<"}


def _imm_slot(op: int, imm: int):
    """The value of an op's *data* immediate as its statement uses it,
    or ``None`` when the op has no data immediate (branch targets are
    control flow, not data).

    This is the single source of truth for that preprocessing: a region
    renders the value as a literal, and a handler factory binds it as
    its ``K`` default.
    """
    if op in (8, 9, 10, 14):  # ANDI/ORI/XORI/MOVI fold ``imm & M64``
        return imm & 0xFFFFFFFFFFFFFFFF
    if op in (11, 12):  # shift immediates fold ``imm & 63``
        return imm & 63
    if op in (7, 48, 49, 52, 53, 67, 68):  # ADDI + memory displacements
        return imm
    return None


#: Region LRU: a program's compiled regions and module text, keyed by its
#: full code, so only identical programs share a translation.
#: Process-wide (each mining worker keeps its own).  An entry holds one
#: translation's source and code objects, and fresh widgets never hit it,
#: so in mining its entries are resident memory with no use: at 256 a
#: process hashing fresh default widgets grew from about 41 to 60 MB over
#: its first 2000 hashes; at 16, with evicted entries freed at once
#: (:func:`_build_regions`), it stays near 39 MB (CPython 3.11, x86-64
#: Linux).  16 is ``HashCore``'s default widget LRU size, one entry per
#: widget it keeps; this module cannot import that constant, since
#: ``core.hashcore`` imports this module.
_TEMPLATE_CAPACITY = 16
_templates: OrderedDict = OrderedDict()
_template_stats = {"hits": 0, "misses": 0, "evictions": 0}


def template_cache_stats() -> dict:
    """Counters for the process-wide JIT region cache."""
    total = _template_stats["hits"] + _template_stats["misses"]
    return {
        "capacity": _TEMPLATE_CAPACITY,
        "size": len(_templates),
        "hits": _template_stats["hits"],
        "misses": _template_stats["misses"],
        "evictions": _template_stats["evictions"],
        "hit_rate": _template_stats["hits"] / total if total else 0.0,
    }


def clear_template_cache() -> None:
    """Drop every cached translation and reset the counters (tests,
    benchmarks)."""
    _templates.clear()
    _template_stats.update(hits=0, misses=0, evictions=0)


@dataclass(slots=True)
class JitCode:
    """Compiled artifact for one program: its threaded handlers and its
    outermost loop regions."""

    #: Threaded-code handler per pc (:func:`compile_threaded`);
    #: ``handler(st) -> next pc`` runs one instruction.
    handlers: list
    #: Region function per loop-head pc, or None.  ``region(st, left,
    #: cross) -> (pc, left)`` runs the whole loop nest (inner loops,
    #: forward diamonds and all) inside one compiled function, taking the
    #: run's events in place through ``cross`` (:meth:`_Events.cross`),
    #: and returns at the loop's exit or a HALT (pc -1).  A region holds
    #: no per-run state, so identical programs share their regions.
    regions: list
    #: The generated module source, constants inlined (debugging, tests).
    source: str


class _State:
    """Mutable architectural state passed to every compiled function.

    A slotted attribute container is the cheapest per-call vehicle for the
    register files: handlers and regions read only the files they touch
    (one attribute load each) instead of unpacking a tuple of all five.
    """

    __slots__ = ("i", "f", "v", "w", "m")

    def __init__(
        self,
        iregs: list[int],
        fregs: list[float],
        vregs: list[list[float]],
        words,
        mask: int,
    ) -> None:
        self.i = iregs
        self.f = fregs
        self.v = vregs
        self.w = words
        self.m = mask


class _StoreBuffer:
    """Memory as a replay sees it: loads see the replay's own earlier
    stores, and stores never reach the real words."""

    __slots__ = ("words", "stores")

    def __init__(self, words) -> None:
        self.words = words
        self.stores: dict[int, int] = {}

    def __getitem__(self, addr: int) -> int:
        stores = self.stores
        return stores[addr] if addr in stores else self.words[addr]

    def __setitem__(self, addr: int, value: int) -> None:
        self.stores[addr] = value


class _Events:
    """One run's events and its snapshot output.

    Events fall at exact *tick* counts, a tick being one retired non-HALT
    instruction: a register snapshot every ``interval`` ticks (0: none)
    and the fuse at ``budget`` ticks, which raises.  ``due`` is the tick
    the next event falls on.  The driver and the regions count ``left``,
    the ticks left before ``due`` minus one, so ``left < 0`` means the
    event has come due, and the ticks retired so far are always ``due - 1
    - left``.
    """

    __slots__ = (
        "st", "replay", "handlers", "interval", "budget", "due", "out",
        "snapshots", "message",
    )

    def __init__(
        self, st: _State, handlers: list, interval: int, budget: int,
        message: str,
    ) -> None:
        self.st = st
        #: The crossings' view: the live register files, buffered memory.
        self.replay = _State(st.i, st.f, st.v, _StoreBuffer(st.w), st.m)
        self.handlers = handlers
        self.interval = interval
        self.budget = budget
        self.due = min(interval, budget) if interval else budget
        self.out: list[bytes] = []
        self.snapshots = 0
        self.message = message

    def take(self) -> int:
        """Take the event due now on the live register files — trip the
        fuse or append a snapshot — and return the ticks to the next one."""
        due = self.due
        if due == self.budget:
            raise ExecutionLimitExceeded(self.message)
        st = self.st
        self.out.append(_SNAP_I.pack(*st.i))
        self.out.append(_SNAP_F.pack(*st.f))
        self.snapshots += 1
        self.due = min(due + self.interval, self.budget)
        return self.due - due

    def cross(self, pc: int, k: int, left: int, spill, local: dict) -> int:
        """Take, in place, every event inside a region's block.

        The region calls this before running the block of ``k`` ticks at
        ``pc``, with ``left`` already counted past the block.  The event
        then falls on the block's instruction at offset ``k + left``.
        ``spill`` writes the registers the region writes from its
        ``locals()`` dict ``local`` into the live register files, which
        then hold the state at the block's start; the block's
        instructions up to each event replay through the threaded
        handlers on those files and a :class:`_StoreBuffer`, and each
        snapshot packs the live files.  A block writes only registers its
        region flushes at exit, so what the replay leaves there is
        overwritten before it is read.  Returns the count past the block
        again, now non-negative.
        """
        st = self.st
        spill(st.i, st.f, st.v, local)
        replay = self.replay
        replay.w.stores.clear()
        handlers = self.handlers
        done = pc
        while left < 0:
            event_pc = pc + k + left
            while done <= event_pc:
                handlers[done](replay)
                done += 1
            left += self.take()
        return left


class _Emitter:
    """Accumulates generated statements for one function body."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._tmp = 0

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def temp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def clamp(self, dest: str, expr: str) -> None:
        """``dest = clamp(expr)``: results outside ±1e300 become 1.0."""
        t = self.temp()
        self.emit(
            f"{dest} = {t} if -1e300 < ({t} := {expr}) < 1e300 else 1.0"
        )


def _accesses(op: int, a: int, b: int, c: int):
    """Register/memory footprint of one instruction.

    Returns ``(int_reads, int_writes, fp_reads, fp_writes, vec_reads,
    vec_writes, uses_mem)`` as tuples of the operands passed in — the
    codegen passes register indices to decide which locals to preload
    and which to flush, and the handler factories pass subscripts to
    decide which register files to load and which operands to bind.
    """
    ir: tuple = ()
    iw: tuple = ()
    fr: tuple = ()
    fw: tuple = ()
    vr: tuple = ()
    vw: tuple = ()
    mem = False
    if op < 24:
        iw = (a,)
        if op != 14:  # all but MOVI read r[b]
            ir = (b,) if 7 <= op <= 15 else (b, c)
    elif op < 32:
        ir, iw = (b, c), (a,)
    elif op < 48:
        if op == 40:  # FMA reads its destination
            fr, fw = (a, b, c), (a,)
        elif op == 41:  # CVTIF
            ir, fw = (b,), (a,)
        elif op == 42:  # CVTFI
            fr, iw = (b,), (a,)
        elif op in (38, 39):  # FABS / FNEG
            fr, fw = (b,), (a,)
        else:
            fr, fw = (b, c), (a,)
    elif op == 48:
        ir, iw, mem = (b,), (a,), True
    elif op == 49:
        ir, fw, mem = (b,), (a,), True
    elif op == 52:
        ir, mem = (a, b), True
    elif op == 53:
        ir, fr, mem = (b,), (a,), True
    elif op < 60:  # conditional branches
        ir = (a, b)
    elif op == 61:  # LOOPNZ
        ir, iw = (a,), (a,)
    elif op in (64, 65):
        vr, vw = (b, c), (a,)
    elif op == 66:  # VFMA reads its destination
        vr, vw = (a, b, c), (a,)
    elif op == 67:
        ir, vw, mem = (b,), (a,), True
    elif op == 68:
        ir, vr, mem = (b,), (a,), True
    elif op == 69:
        fr, vw = (b,), (a,)
    elif op == 70:
        vr, fw = (b,), (a,)
    # JMP (60), NOP (72), HALT (73) touch nothing.
    return ir, iw, fr, fw, vr, vw, mem


def _stmt(em: _Emitter, op: int, a, b, c, slot: str) -> None:
    """Emit the statement(s) for one straight-line (non-terminator) op.

    This is the JIT's one copy of the per-opcode semantics.  ``a``, ``b``
    and ``c`` render after the register-file letter: an index gives a
    region's locals (``i3``), a subscript such as ``"[A]"`` gives the
    handlers' register-file access (``i[A]``).  The data immediate
    renders as the text ``slot``: a region passes the literal of
    :func:`_imm_slot`'s value, a handler the name ``K`` bound to it.
    """
    E = em.emit
    if op == 0:
        E(f"i{a} = (i{b} + i{c}) & {_M64}")
    elif op == 1:
        E(f"i{a} = (i{b} - i{c}) & {_M64}")
    elif op == 2:
        E(f"i{a} = i{b} & i{c}")
    elif op == 3:
        E(f"i{a} = i{b} | i{c}")
    elif op == 4:
        E(f"i{a} = i{b} ^ i{c}")
    elif op == 5:
        E(f"i{a} = (i{b} << (i{c} & 63)) & {_M64}")
    elif op == 6:
        E(f"i{a} = i{b} >> (i{c} & 63)")
    elif op == 7:
        E(f"i{a} = (i{b} + {slot}) & {_M64}")
    elif op == 8:
        E(f"i{a} = i{b} & {slot}")
    elif op == 9:
        E(f"i{a} = i{b} | {slot}")
    elif op == 10:
        E(f"i{a} = i{b} ^ {slot}")
    elif op == 11:
        E(f"i{a} = (i{b} << {slot}) & {_M64}")
    elif op == 12:
        E(f"i{a} = i{b} >> {slot}")
    elif op == 13:
        E(f"i{a} = i{b}")
    elif op == 14:
        E(f"i{a} = {slot}")
    elif op == 15:
        E(f"i{a} = i{b} ^ {_M64}")
    elif op == 16:
        E(f"i{a} = 1 if i{b} < i{c} else 0")
    elif op == 17:
        E(f"i{a} = 1 if i{b} == i{c} else 0")
    elif op == 18:
        E(f"i{a} = i{b} if i{b} < i{c} else i{c}")
    elif op == 19:
        E(f"i{a} = i{b} if i{b} > i{c} else i{c}")
    elif op == 24:
        E(f"i{a} = (i{b} * i{c}) & {_M64}")
    elif op == 25:
        E(f"i{a} = (i{b} * i{c}) >> 64")
    elif op == 26:
        E(f"i{a} = {_M64} if i{c} == 0 else i{b} // i{c}")
    elif op == 27:
        E(f"i{a} = 0 if i{c} == 0 else i{b} % i{c}")
    elif op == 32:
        em.clamp(f"f{a}", f"f{b} + f{c}")
    elif op == 33:
        em.clamp(f"f{a}", f"f{b} - f{c}")
    elif op == 34:
        em.clamp(f"f{a}", f"f{b} * f{c}")
    elif op == 35:
        em.clamp(
            f"f{a}",
            f"f{b} / f{c} if (f{c} > 1e-300 or f{c} < -1e-300) else 1.0",
        )
    elif op == 36:
        em.clamp(f"f{a}", f"f{b} if f{b} < f{c} else f{c}")
    elif op == 37:
        em.clamp(f"f{a}", f"f{b} if f{b} > f{c} else f{c}")
    elif op == 38:
        em.clamp(f"f{a}", f"f{b} if f{b} >= 0.0 else -f{b}")
    elif op == 39:
        em.clamp(f"f{a}", f"-f{b}")
    elif op == 40:
        em.clamp(f"f{a}", f"f{a} + f{b} * f{c}")
    elif op == 41:
        em.clamp(f"f{a}", f"float(i{b} & {_M53})")
    elif op == 42:
        E(f"i{a} = int(f{b}) & {_M64}")
    elif op == 48:
        E(f"i{a} = W[(i{b} + {slot}) & _mm]")
    elif op == 49:
        E(f"f{a} = ((W[(i{b} + {slot}) & _mm] & {_M53}) - {_TWO52}) / {_SCALE}")
    elif op == 52:
        E(f"W[(i{b} + {slot}) & _mm] = i{a}")
    elif op == 53:
        E(f"W[(i{b} + {slot}) & _mm] = (int(f{a} * {_SCALE}) + {_TWO52}) & {_M64}")
    elif op in (64, 65, 66):
        sign = "+" if op == 64 else "*"
        if op == 66:
            lanes = ", ".join(
                f"v{a}[{k}] + v{b}[{k}] * v{c}[{k}]" for k in range(4)
            )
        else:
            lanes = ", ".join(f"v{b}[{k}] {sign} v{c}[{k}]" for k in range(4))
        t = em.temp()
        E(f"{t} = ({lanes})")
        E(f"v{a} = [_x if -1e300 < _x < 1e300 else 1.0 for _x in {t}]")
    elif op == 67:
        t = em.temp()
        E(f"{t} = (i{b} + {slot}) & _mm")
        lanes = ", ".join(
            f"((W[({t} + {k}) & _mm] & {_M53}) - {_TWO52}) / {_SCALE}"
            if k
            else f"((W[{t}] & {_M53}) - {_TWO52}) / {_SCALE}"
            for k in range(4)
        )
        E(f"v{a} = [{lanes}]")
    elif op == 68:
        t = em.temp()
        E(f"{t} = (i{b} + {slot}) & _mm")
        E(f"W[{t}] = (int(v{a}[0] * {_SCALE}) + {_TWO52}) & {_M64}")
        for k in (1, 2, 3):
            E(f"W[({t} + {k}) & _mm] = (int(v{a}[{k}] * {_SCALE}) + {_TWO52}) & {_M64}")
    elif op == 69:
        E(f"v{a} = [f{b}] * 4")
    elif op == 70:
        em.clamp(f"f{a}", f"v{b}[0] + v{b}[1] + v{b}[2] + v{b}[3]")
    # NOP and any other system opcode: no architectural effect.


def _exit_stmt(em: _Emitter, op: int, a, b, imm, nxt) -> None:
    """Emit the terminator: return the next pc.

    Operands render as in :func:`_stmt`; ``imm`` (the branch target) and
    ``nxt`` (the fall-through pc) render as given, a literal or a name.
    """
    E = em.emit
    if op in _CMP:
        E(f"return {imm} if i{a} {_CMP[op]} i{b} else {nxt}")
    elif op == 60:  # JMP
        E(f"return {imm}")
    elif op == 61:  # LOOPNZ
        E(f"i{a} = (i{a} - 1) & {_M64}")
        E(f"return {imm} if i{a} else {nxt}")
    else:  # HALT — negative pc is the driver's halt sentinel
        E("return -1")


def _factory_source(op: int) -> str:
    """Source of ``_h{op}(A, B, C, imm, N)``, the factory that makes
    ``op``'s threaded-code handlers.

    The handler body is ``op``'s :func:`_stmt` or :func:`_exit_stmt`
    template rendered over the register files themselves (``i[A]``),
    loading the files and memory :func:`_accesses` names.  The factory
    binds the operand indices, the :func:`_imm_slot` value ``K``, the
    branch target ``T`` and the fall-through pc ``N`` as default
    arguments, so a handler runs on locals and returns the next pc.
    """
    A, B, C = "[A]", "[B]", "[C]"
    body = _Emitter()
    if op in _TERMINATORS:
        _exit_stmt(body, op, A, B, "T", "N")
    else:
        _stmt(body, op, A, B, C, "K")
        body.emit("return N")
    ir, iw, fr, fw, vr, vw, mem = _accesses(op, A, B, C)
    lines = [
        f"{name} = st.{name}"
        for name, regs in (("i", ir + iw), ("f", fr + fw), ("v", vr + vw))
        if regs
    ]
    if mem:
        lines += ["W = st.w", "_mm = st.m"]
    operands = set(ir + iw + fr + fw + vr + vw)
    params = ["st"] + [f"{x}={x}" for x in "ABC" if f"[{x}]" in operands]
    if _imm_slot(op, 0) is not None:
        params.append(f"K=_imm_slot({op}, imm)")
    if op in _BRANCH_OPS:
        params.append("T=imm")
    if op not in (60, 73):  # JMP and HALT never fall through
        params.append("N=N")
    return "\n".join([
        f"def _h{op}(A, B, C, imm, N):",
        f"    def h({', '.join(params)}):",
        *("        " + line for line in lines + body.lines),
        "    return h",
    ])


def _compile_factories() -> dict:
    """Compile every opcode's handler factory in one module."""
    namespace: dict = {"_imm_slot": _imm_slot}
    source = "\n\n".join(_factory_source(int(op)) for op in Opcode)
    exec(compile(source, "<jit-handlers>", "exec"), namespace)
    return {int(op): namespace[f"_h{int(op)}"] for op in Opcode}


#: Threaded-handler factory per opcode, compiled once per process.
_FACTORIES = _compile_factories()


def compile_threaded(program: Program) -> list:
    """Decode ``program`` into its threaded-code handler list.

    One handler per static instruction; :func:`compile_jit` builds the
    list into the program's JIT artifact.
    """
    factories = _FACTORIES
    return [
        factories[i.op](i.a, i.b, i.c, i.imm, pc + 1)
        for pc, i in enumerate(program.instructions)
    ]


class _Bail(Exception):
    """Raised during region emission when control flow isn't structured."""


def _gen_region(code: list[tuple], head: int, tail: int) -> str | None:
    """Source of the compiled loop region ``_r{head}`` and its spill
    function ``_s{head}``, or None.

    A *region* is a natural loop ``[head, tail]`` closed by the backward
    branch at ``tail``.  The whole loop — nested inner loops, forward
    skip-diamonds, conditional mid-loop exits — compiles into one function
    whose registers stay in locals *across iterations*, so the dominant
    dynamic cost of a widget (tens of thousands of retirements through a
    few dozen static instructions) runs without any dispatch, load or
    flush.

    Data immediates render as literals, so the source is the program's
    own.  Events (see the module docstring): the function takes ``_l``,
    the run's tick countdown, and each block subtracts its ticks before
    it runs; a negative count calls ``_x`` (:meth:`_Events.cross`) with
    the block's pc, its ticks, the spill function (bound as ``_S``) and
    ``locals()``, which takes the block's events in place and returns the
    count.  ``_s{head}(I, F, V, d)`` writes every register the region
    writes from such a locals dict into the register files.  The region
    returns ``(pc, _l)`` at its exit or at a HALT (pc -1, the HALT's
    retirement counted in ``_l``).

    Any shape outside the clean structured set (unconditional jumps,
    branches into the region from outside, non-nested overlaps) bails out
    to ``None`` — the region is simply not accelerated.
    """
    for pc in range(head, tail + 1):
        op, _a, _b, _c, imm = code[pc]
        if op == 60:
            return None  # JMP: skipped ranges may hide side entries
        if op in _BRANCH_OPS and not (head <= imm <= tail + 1):
            return None
    for pc, (op, _a, _b, _c, imm) in enumerate(code):
        if op in _BRANCH_OPS and (pc < head or pc > tail) and head < imm <= tail:
            return None  # side entry into the loop body

    # Inner loop heads: target -> furthest backward branch closing it.
    heads: dict[int, int] = {}
    for pc in range(head, tail + 1):
        op, _a, _b, _c, imm = code[pc]
        if op in _BRANCH_OPS and imm <= pc:
            heads[imm] = max(heads.get(imm, -1), pc)

    # Footprint: preload every register the region touches (reads *or*
    # writes — conditional paths may skip a write, so flushed locals must
    # always be defined), flush every register it can write.
    pre_i: set = set()
    pre_f: set = set()
    pre_v: set = set()
    wr_i: set = set()
    wr_f: set = set()
    wr_v: set = set()
    uses_mem = False
    for pc in range(head, tail + 1):
        op, a, b, c, _imm = code[pc]
        ir, iw, fr, fw, vr, vw, mem = _accesses(op, a, b, c)
        uses_mem = uses_mem or mem
        pre_i.update(ir, iw)
        pre_f.update(fr, fw)
        pre_v.update(vr, vw)
        wr_i.update(iw)
        wr_f.update(fw)
        wr_v.update(vw)

    # The written registers, as the flush and as a crossing's spill; the
    # ones the region only reads are still current in ``st``.
    written = (
        [(f"I[{reg}]", f"i{reg}") for reg in sorted(wr_i)]
        + [(f"F[{reg}]", f"f{reg}") for reg in sorted(wr_f)]
        + [(f"V[{reg}]", f"v{reg}") for reg in sorted(wr_v)]
    )
    flush = [f"{slot} = {name}" for slot, name in written]
    lines: list[str] = [
        f"def _s{head}(I, F, V, d):",
        *([f"    {slot} = d[{name!r}]" for slot, name in written]
          or ["    pass"]),
        f"def _r{head}(st, _l, _x, _S=_s{head}):",
    ]

    def out(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    if pre_i:
        out(1, "I = st.i")
    if pre_f:
        out(1, "F = st.f")
    if pre_v:
        out(1, "V = st.v")
    if uses_mem:
        out(1, "W = st.w")
        out(1, "_mm = st.m")
    for reg in sorted(pre_i):
        out(1, f"i{reg} = I[{reg}]")
    for reg in sorted(pre_f):
        out(1, f"f{reg} = F[{reg}]")
    for reg in sorted(pre_v):
        out(1, f"v{reg} = V[{reg}]")

    def seq(lo: int, hi: int, depth: int, cur_head: int, break_pc: int) -> None:
        """Emit instructions ``[lo, hi)`` of the loop whose head is
        ``cur_head``, block by block; a taken branch to ``break_pc``
        exits that loop."""
        i = lo
        while i < hi:
            if i in heads and i != cur_head:
                if heads[i] >= hi:
                    raise _Bail  # inner loop crosses the block boundary
                loop(i, heads[i], depth)
                i = heads[i] + 1
                continue
            # The block at ``i``: straight-line ops up to the next branch
            # (ticked here too), inner loop head, HALT or ``hi``.
            j = i
            while (j < hi and code[j][0] not in _TERMINATORS
                   and (j == i or j not in heads)):
                j += 1
            ends_in_branch = j < hi and code[j][0] in _BRANCH_OPS
            k = j - i + ends_in_branch
            if k:
                out(depth, f"if (_l := _l - {k}) < 0: "
                           f"_l = _x({i}, {k}, _l, _S, locals())")
            for pc in range(i, j):
                op, a, b, c, imm = code[pc]
                em = _Emitter()
                _stmt(em, op, a, b, c, repr(_imm_slot(op, imm)))
                for line in em.lines:
                    out(depth, line)
            i = j
            if j == hi or code[j][0] not in _TERMINATORS:
                continue  # the inner loop at ``j`` or the end comes next
            op, a, b, c, imm = code[j]
            i = j + 1
            if op == 73:  # HALT: flush, count its retirement, hand back
                for line in flush:
                    out(depth, line)
                out(depth, "return -1, _l - 1")
            elif imm <= j:  # backedge: must re-enter the current loop
                if imm != cur_head:
                    raise _Bail
                if op == 61:
                    out(depth, f"i{a} = (i{a} - 1) & {_M64}")
                    out(depth, f"if i{a}:")
                else:
                    out(depth, f"if i{a} {_CMP[op]} i{b}:")
                out(depth + 1, "continue")
            elif imm == break_pc:  # conditional mid-loop exit
                if op == 61:
                    raise _Bail
                out(depth, f"if i{a} {_CMP[op]} i{b}:")
                out(depth + 1, "break")
            elif imm <= hi:  # forward skip: nested if
                if op == 61:
                    raise _Bail
                if imm > i:  # a skip over nothing needs no test
                    out(depth, f"if i{a} {_INV_CMP[op]} i{b}:")
                    seq(i, imm, depth + 1, cur_head, break_pc)
                i = imm
            else:
                raise _Bail  # not properly nested

    def loop(t: int, e: int, depth: int) -> None:
        """Emit the loop ``[t, e]``: its body, ending with the closing
        backedge at ``e``, inside ``while True``."""
        out(depth, "while True:")
        seq(t, e + 1, depth + 1, t, e + 1)
        out(depth + 1, "break")

    try:
        loop(head, tail, 1)
    except _Bail:
        return None
    for line in flush:
        out(1, line)
    out(1, f"return {tail + 1}, _l")
    return "\n".join(lines)


def _build_regions(code: list[tuple]) -> tuple:
    """Translate ``code``'s outermost loop regions.

    Returns ``(regions, source)``: ``regions`` pairs each compiled
    region's head pc with its function, and ``source`` is the module.
    One candidate per backward-branch target, closed by the furthest
    backedge; an inner candidate compiles only when no enclosing one did,
    since a region returns only at its exit and the driver never reaches
    the loop heads inside it.
    """
    candidates: dict[int, int] = {}
    for pc, (op, _a, _b, _c, imm) in enumerate(code):
        if op in _BRANCH_OPS and 0 <= imm <= pc:
            candidates[imm] = max(candidates.get(imm, -1), pc)
    sources: dict[int, str] = {}
    for head in sorted(candidates):
        tail = candidates[head]
        if any(h < head and tail <= candidates[h] for h in sources):
            continue  # inside a compiled region
        source = _gen_region(code, head, tail)
        if source is not None:
            sources[head] = source
    module = "\n\n".join(sources.values())
    namespace: dict = {}
    exec(compile(module, "<jit-regions>", "exec"), namespace)
    # ``namespace`` is the globals of every region and spill function;
    # left in it, they would form reference cycles that only the cyclic
    # collector frees, long after the entry is evicted.
    for head in sources:
        del namespace[f"_s{head}"]
    regions = tuple((head, namespace.pop(f"_r{head}")) for head in sources)
    return regions, module


def _template(code: list[tuple]) -> tuple:
    """The cached translation of ``code``, built with
    :func:`_build_regions` on a miss."""
    key = tuple(code)
    entry = _templates.get(key)
    if entry is None:
        _template_stats["misses"] += 1
        entry = _templates[key] = _build_regions(code)
        if len(_templates) > _TEMPLATE_CAPACITY:
            _templates.popitem(last=False)
            _template_stats["evictions"] += 1
    else:
        _template_stats["hits"] += 1
        _templates.move_to_end(key)
    return entry


def compile_jit(program: Program) -> JitCode:
    """Translate ``program`` into its JIT artifact: its threaded handlers
    (:func:`compile_threaded`) and its outermost loop regions, with every
    pc outside a region left to the handlers.

    Codegen and ``compile()`` run once per distinct program in the
    process-wide region cache (see the module docstring); a program equal
    to a cached one shares its regions and pays only the handler build.
    :meth:`repro.isa.program.Program.jit_code` caches the artifact per
    program.
    """
    code = program.code_tuples()
    compiled, module = _template(code)
    regions: list = [None] * len(code)
    for head, region in compiled:
        regions[head] = region
    return JitCode(
        handlers=compile_threaded(program), regions=regions, source=module
    )


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


def run_jit(
    machine,
    program: Program,
    memory: Memory | None = None,
    *,
    max_instructions: int = 10_000_000,
    snapshot_interval: int = 0,
    initial_iregs: list[int] | None = None,
    initial_fregs: list[float] | None = None,
) -> ExecutionResult:
    """Execute ``program`` on the JIT.

    Arguments mirror :meth:`repro.machine.cpu.Machine.run` (minus
    ``collect_detail``, which requires the timed path).  The result
    carries the architectural outcome, bit-identical to the timed tier
    (``tests/test_jit.py``); its counters report only ``retired``
    (``cycles`` stays 0).  The driver runs a loop region wherever one
    starts, which returns at the loop nest's exit, and steps every other
    pc through its threaded handler, taking the events that fall due
    after a handler itself (:class:`_Events`).
    """
    memory, iregs, fregs, vregs = _init_state(
        machine, memory, max_instructions, initial_iregs, initial_fregs
    )
    jit = program.jit_code()
    regions = jit.regions
    handlers = jit.handlers
    n = len(handlers)
    st = _State(iregs, fregs, vregs, memory.words, memory.mask)
    events = _Events(
        st, handlers, max(snapshot_interval, 0), max_instructions,
        f"{program.name}: exceeded {max_instructions} instructions",
    )
    cross = events.cross

    left = events.due - 1
    pc = 0
    while 0 <= pc < n:
        region = regions[pc]
        if region is not None:
            pc, left = region(st, left, cross)
            continue
        pc = handlers[pc](st)
        left -= 1
        if left < 0:
            if pc < 0:
                break  # HALT retires but never ticks: no event
            left += events.take()

    out_chunks = events.out
    if snapshot_interval > 0:
        out_chunks.append(_SNAP_I.pack(*iregs))
        out_chunks.append(_SNAP_F.pack(*fregs))
        events.snapshots += 1
    # HALT or falling off the end: the run halted either way.
    return _finish(
        events.due - 1 - left, True, out_chunks, events.snapshots, iregs,
        fregs,
    )
