"""The JIT — specialize each program into compiled Python source.

There are two execution tiers (ARCHITECTURE.md §1), and a JIT fault
degrades jit → timed (:meth:`repro.machine.cpu.Machine.run_with_fallback`):

* **timed** (:mod:`repro.machine.cpu`) — the analytic out-of-order model,
  authoritative for every timing question;
* **jit** (this module) — the program runs as Python code rendered from
  one per-opcode statement table, :func:`_stmt` (and :func:`_exit_stmt`
  for terminators), at three granularities.  Each *natural loop* closed
  by a backward branch becomes a **region**: structured ``while``/``if``
  Python covering the entire loop nest, with registers loaded into
  locals once and flushed only at exits, and an exact retirement guard
  at every loop head so the region never overshoots a snapshot or budget
  boundary.  Each *straight-line segment* becomes a function: registers
  become locals, and the whole segment runs as one compiled call instead
  of one handler call per instruction.  Every other pc steps through a
  **threaded-code handler**: one function per static instruction, made
  by a per-opcode factory that renders the same template with the
  register files subscripted (``i[A]`` rather than a local ``i3``) and is
  compiled once per process; operands, the data immediate and the next
  pcs are bound as default arguments.  Loop shapes the region generator
  cannot prove bounded (a ``JMP`` inside the loop, side entries,
  irregular nesting) bail out and run on segments or handlers — never
  incorrectly.

Translation is tiered per :class:`~repro.isa.program.Program`.  Regions
retire the bulk of a widget's instructions, while a segment costs more
to compile than it saves on a single run.  So a program's first run gets
a loop-only artifact (:func:`compile_jit`): regions, with everything
outside them stepped through the threaded handlers.  From the second run
on, :func:`tier_up` adds the segment functions to the same artifact and
keeps the bound regions.  A miner, who runs each fresh widget once, never
pays for segments; a verifier re-running a cached widget gets the fully
compiled code after one extra compile.  The artifact is cached on the
program (alongside ``code_tuples`` and the threaded handlers), which
counts executions at :func:`run_jit` entry and tiers up inside
:meth:`~repro.isa.program.Program.jit_code`.

Translation itself is amortised across *programs* by a **shape-template
cache**: generated source never contains data immediates.  Each one is
abstracted to a ``_K{n}`` slot bound as a default argument of the segment
or region function that uses it, so the module text depends only on the
program's *shape* — the ``(op, a, b, c)`` sequence plus branch targets
(which are structural: they decide leaders, loop nests and guards).  Two
programs with the same shape share one template entry, holding a regions
module and, once some program of that shape tiered up, a segments module;
a later program skips codegen and ``compile()`` for each module present
and only re-executes the cheap ``def`` statements with its own constant
vector (default arguments are ``LOAD_FAST`` at run time, so bound slots
cost the same as burned-in literals).  The cache is process-wide and
LRU-bounded; see :func:`template_cache_stats`.  Real fresh widgets rarely
share a shape, so it seldom hits in mining.

Correctness strategy: the driver loop is block-stepped — the next event
(snapshot due, budget exhausted) is always a known number of retirements
away, so all retire/budget/snapshot bookkeeping happens once per block
with the timing path's per-instruction semantics.  A region is
dispatched only when the window has at least its entry guard left, and
its per-head guards (the longest check-free instruction path to the next
check or exit, exact because every backward branch lands on a checking
loop head) make it return to the driver before the window closes.  A
segment is dispatched only when it fits entirely inside the window.
Everything else — code outside regions before the tier-up, and the
tail of a window too short for a region or segment — steps through the
program's threaded handlers.  ``tests/test_jit.py`` proves the JIT agrees
with the timing path, on both artifacts (a first-run artifact of a
straight-line program has no regions, so every instruction goes through
the handlers), on outputs, register files, memory, snapshots, retired
counts and limit errors.
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

#: Straight-line runs longer than this are split into chained segments so a
#: segment always fits inside a typical snapshot window; otherwise the
#: driver would fall back to per-instruction dispatch for the entire run.
MAX_SEGMENT = 64

_M64 = "0xFFFFFFFFFFFFFFFF"
_M53 = "0x1FFFFFFFFFFFFF"
_TWO52 = "4503599627370496"
_SCALE = "67108864.0"

_BRANCH_OPS = frozenset((56, 57, 58, 59, 60, 61))
_TERMINATORS = _BRANCH_OPS | {73}
_CMP = {56: "==", 57: "!=", 58: "<", 59: ">="}
#: Negation of each conditional branch — the loop variant's exit test.
_INV_CMP = {56: "!=", 57: "==", 58: ">=", 59: "<"}


def _imm_slot(op: int, imm: int):
    """The constant-slot value for ops whose immediate is *data*, not
    control flow, or ``None`` when the op has no data immediate.

    This is the single source of truth for slot order and preprocessing:
    :func:`_stmt` renders every data immediate as a slot name, and the
    value returned here is what gets bound to it.  Branch targets (ops
    56-61) are deliberately *not* slots — they shape leaders, loop nests
    and retirement guards, so they belong to the template key instead.
    """
    if op in (8, 9, 10, 14):  # ANDI/ORI/XORI/MOVI fold ``imm & M64``
        return imm & 0xFFFFFFFFFFFFFFFF
    if op in (11, 12):  # shift immediates fold ``imm & 63``
        return imm & 63
    if op in (7, 48, 49, 52, 53, 67, 68):  # ADDI + memory displacements
        return imm
    return None


#: Shape-template LRU: module text + compiled ``_bind`` factory keyed by
#: program shape.  Process-wide (each mining worker warms its own).
_TEMPLATE_CAPACITY = 256
_templates: OrderedDict = OrderedDict()
_template_stats = {"hits": 0, "misses": 0, "evictions": 0}


def template_cache_stats() -> dict:
    """Counters for the process-wide JIT shape-template cache."""
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
    """Drop all cached templates and reset counters (tests, benchmarks)."""
    _templates.clear()
    _template_stats.update(hits=0, misses=0, evictions=0)


@dataclass(slots=True)
class JitCode:
    """Compiled artifact for one program: loop regions, plus segment
    functions by leader pc once tiered up."""

    funcs: list  #: callable or None, indexed by pc (None off segment starts)
    sizes: list[int]  #: instructions per segment, 0 for non-leader pcs
    #: ``(region_fn, guard)`` per loop-head pc, or None.  ``region_fn(st,
    #: limit) -> (pc, retired)`` runs the whole natural loop (nested loops,
    #: forward diamonds and all) inside one compiled function; ``guard`` is
    #: the minimum event window the driver must have left to enter it.
    regions: list
    length: int  #: program length the artifact was compiled against
    source: str  #: the generated module source (debugging, tests)
    #: Executions started on this artifact (counted at :func:`run_jit`
    #: entry); once non-zero, the next ``Program.jit_code()`` tiers up.
    runs: int = 0
    tiered: bool = False  #: whether :func:`tier_up` added the segments


class _State:
    """Mutable architectural state passed to every compiled function.

    A slotted attribute container is the cheapest per-call vehicle for the
    register files: handlers, segments and regions read only the files
    they touch (one attribute load each) instead of unpacking a tuple of
    all five.
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
    and ``c`` render after the register-file letter: an index gives the
    locals of segments and regions (``i3``), a subscript such as ``"[A]"``
    gives the handlers' register-file access (``i[A]``).  The data
    immediate renders as the name ``slot``, bound to :func:`_imm_slot`'s
    value.
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


def _exit_stmt(em: _Emitter, op: int, a, b, imm, nxt, flush: list[str]) -> None:
    """Emit the terminator: flush dirty registers, then return the next pc.

    Operands render as in :func:`_stmt`; ``imm`` (the branch target) and
    ``nxt`` (the fall-through pc) render as given, a literal or a name.
    """
    E = em.emit
    if op in _CMP:
        for line in flush:
            E(line)
        E(f"return {imm} if i{a} {_CMP[op]} i{b} else {nxt}")
    elif op == 60:  # JMP
        for line in flush:
            E(line)
        E(f"return {imm}")
    elif op == 61:  # LOOPNZ
        E(f"i{a} = (i{a} - 1) & {_M64}")
        for line in flush:
            E(line)
        E(f"return {imm} if i{a} else {nxt}")
    else:  # HALT — negative pc is the driver's halt sentinel
        for line in flush:
            E(line)
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
        _exit_stmt(body, op, A, B, "T", "N", [])
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

    One handler per static instruction; called through
    :meth:`repro.isa.program.Program.fast_handlers`, which caches the
    result on the program object.
    """
    factories = _FACTORIES
    return [
        factories[i.op](i.a, i.b, i.c, i.imm, pc + 1)
        for pc, i in enumerate(program.instructions)
    ]


def _gen_segment(
    code: list[tuple], start: int, n: int, knames: list
) -> tuple[str, int, int]:
    """Generate one segment function's source.

    Returns ``(source, size, next_leader)`` where ``next_leader`` is the pc
    a split (over-long) straight-line run chains into, or ``-1`` when the
    segment ends at a terminator or falls off the program.  ``knames``
    (:func:`_knames`) names each pc's template slot, bound as a default
    argument.
    """
    end = start
    while end < n and code[end][0] not in _TERMINATORS and end - start < MAX_SEGMENT - 1:
        end += 1
    if end == n:  # ran off the end without a terminator
        end = n - 1
    terminated = code[end][0] in _TERMINATORS
    size = end - start + 1

    # Footprint scan: which registers to preload (read before written) and
    # which to flush (written at all).
    pre_i: list[int] = []
    pre_f: list[int] = []
    pre_v: list[int] = []
    wr_i: list[int] = []
    wr_f: list[int] = []
    wr_v: list[int] = []
    uses_mem = False
    for pc in range(start, end + 1):
        op, a, b, c, imm = code[pc]
        ir, iw, fr, fw, vr, vw, mem = _accesses(op, a, b, c)
        uses_mem = uses_mem or mem
        for reg in ir:
            if reg not in wr_i and reg not in pre_i:
                pre_i.append(reg)
        for reg in fr:
            if reg not in wr_f and reg not in pre_f:
                pre_f.append(reg)
        for reg in vr:
            if reg not in wr_v and reg not in pre_v:
                pre_v.append(reg)
        for reg in iw:
            if reg not in wr_i:
                wr_i.append(reg)
        for reg in fw:
            if reg not in wr_f:
                wr_f.append(reg)
        for reg in vw:
            if reg not in wr_v:
                wr_v.append(reg)

    prologue: list[str] = []
    if pre_i or wr_i:
        prologue.append("I = st.i")
    if pre_f or wr_f:
        prologue.append("F = st.f")
    if pre_v or wr_v:
        prologue.append("V = st.v")
    if uses_mem:
        prologue.append("W = st.w")
        prologue.append("_mm = st.m")
    for reg in sorted(pre_i):
        prologue.append(f"i{reg} = I[{reg}]")
    for reg in sorted(pre_f):
        prologue.append(f"f{reg} = F[{reg}]")
    for reg in sorted(pre_v):
        prologue.append(f"v{reg} = V[{reg}]")

    flush = (
        [f"I[{reg}] = i{reg}" for reg in sorted(wr_i)]
        + [f"F[{reg}] = f{reg}" for reg in sorted(wr_f)]
        + [f"V[{reg}] = v{reg}" for reg in sorted(wr_v)]
    )

    body = _Emitter()
    body.lines.extend(prologue)
    last = end if terminated else end + 1
    for pc in range(start, last):
        op, a, b, c, _imm = code[pc]
        _stmt(body, op, a, b, c, knames[pc])
    if terminated:
        op, a, b, c, imm = code[end]
        _exit_stmt(body, op, a, b, imm, end + 1, flush)
        next_leader = -1
    else:
        for line in flush:
            body.emit(line)
        body.emit(f"return {end + 1}")
        # Chain into the rest of an over-long straight-line run (if any).
        next_leader = end + 1 if end + 1 < n else -1

    binds = "".join(
        f", {k}=_K[{k[2:]}]" for k in knames[start:last] if k
    )
    lines = [f"def _s{start}(st{binds}):"] + ["    " + line for line in body.lines]
    return "\n".join(lines), size, next_leader


class _Bail(Exception):
    """Raised during region emission when control flow isn't structured."""


def _gen_region(
    code: list[tuple], head: int, tail: int, knames: list
) -> tuple[str, int] | None:
    """``(source, entry_guard)`` for the compiled loop region ``_r{head}``,
    or None.

    A *region* is a natural loop ``[head, tail]`` closed by the backward
    branch at ``tail``.  The whole loop — nested inner loops, forward
    skip-diamonds, conditional mid-loop exits — compiles into one function
    whose registers stay in locals *across iterations*, so the dominant
    dynamic cost of a widget (tens of thousands of retirements through a
    few dozen static instructions) runs without any per-segment dispatch,
    load or flush.

    Event-window correctness: the function takes ``limit`` (the driver's
    remaining retirement countdown) and counts retirements in ``_ret``.
    Every loop head re-checks ``_ret + guard <= limit`` before starting an
    iteration, where that head's ``guard`` is the longest check-free path
    from it — exact, because every backedge lands on a checking loop head,
    making check-free paths a DAG.  ``_ret`` therefore never exceeds
    ``limit``.  On a failed check the function flushes and returns the
    loop-head pc, and the driver's segment/instruction stepping carries
    execution to the snapshot/budget boundary exactly as before.

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

    # Per-head guard: the longest check-free path from executing that head
    # until the *next* limit check (any loop head) or the region exit.
    # Every backedge lands on a checking head, so the paths form a DAG and
    # the guards are exact — typically far smaller than the region size,
    # which lets a loop consume almost the whole event window before
    # handing the tail back to the driver.
    _free: dict[int, int] = {}

    def _path_from(pc: int) -> int:
        """Max retirements from ``pc`` to the next check, ``pc`` excluded
        from the head rule only when it is the path's first instruction."""
        if pc > tail or pc in heads:
            return 0
        cached = _free.get(pc)
        if cached is not None:
            return cached
        op, _a, _b, _c, imm = code[pc]
        if op == 73:  # HALT returns immediately
            cost = 1
        elif op in _BRANCH_OPS:
            taken = 0 if imm in heads else _path_from(imm)
            cost = 1 + max(taken, _path_from(pc + 1))
        else:
            cost = 1 + _path_from(pc + 1)
        _free[pc] = cost
        return cost

    guards: dict[int, int] = {}
    for h in heads:
        op, _a, _b, _c, imm = code[h]
        if op in _BRANCH_OPS:
            taken = 0 if imm in heads else _path_from(imm)
            guards[h] = 1 + max(taken, _path_from(h + 1))
        elif op == 73:
            guards[h] = 1
        else:
            guards[h] = 1 + _path_from(h + 1)
    guard = guards[head]

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

    binds = "".join(
        f", {k}=_K[{k[2:]}]" for k in knames[head:tail + 1] if k
    )
    lines: list[str] = [f"def _r{head}(st, limit{binds}):"]

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
    flush = (
        [f"I[{reg}] = i{reg}" for reg in sorted(wr_i)]
        + [f"F[{reg}] = f{reg}" for reg in sorted(wr_f)]
        + [f"V[{reg}] = v{reg}" for reg in sorted(wr_v)]
    )
    out(1, "_ret = 0")

    def seq(lo: int, hi: int, depth: int, cur_head: int, break_pc: int) -> None:
        """Emit instructions ``[lo, hi)`` of the loop whose head is
        ``cur_head``; a taken branch to ``break_pc`` exits that loop."""
        pending = 0
        i = lo
        while i < hi:
            if i in heads and i != cur_head:
                if heads[i] >= hi:
                    raise _Bail  # inner loop crosses the block boundary
                if pending:
                    out(depth, f"_ret += {pending}")
                    pending = 0
                loop(i, heads[i], depth)
                i = heads[i] + 1
                continue
            op, a, b, c, imm = code[i]
            if op in _BRANCH_OPS:
                out(depth, f"_ret += {pending + 1}")
                pending = 0
                if imm <= i:  # backedge: must re-enter the current loop
                    if imm != cur_head or op == 60:
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
                elif i < imm <= hi:  # forward skip: nested if
                    if op == 61:
                        raise _Bail
                    if imm > i + 1:  # a skip over nothing needs no test
                        out(depth, f"if i{a} {_INV_CMP[op]} i{b}:")
                        seq(i + 1, imm, depth + 1, cur_head, break_pc)
                    i = imm
                    continue
                else:
                    raise _Bail  # not properly nested
                i += 1
                continue
            if op == 73:  # HALT: flush and hand the sentinel to the driver
                out(depth, f"_ret += {pending + 1}")
                pending = 0
                for line in flush:
                    out(depth, line)
                out(depth, "return -1, _ret")
                i += 1
                continue
            em = _Emitter()
            _stmt(em, op, a, b, c, knames[i])
            for line in em.lines:
                out(depth, line)
            pending += 1
            i += 1
        if pending:
            out(depth, f"_ret += {pending}")

    def loop(t: int, e: int, depth: int) -> None:
        """Emit the loop ``[t, e]`` (body + closing terminator at ``e``)."""
        out(depth, "while True:")
        out(depth + 1, f"if _ret + {guards[t]} > limit:")
        for line in flush:
            out(depth + 2, line)
        out(depth + 2, f"return {t}, _ret")
        seq(t, e, depth + 1, t, e + 1)
        op, a, b, _c, _imm = code[e]
        out(depth + 1, "_ret += 1")
        if op == 61:
            out(depth + 1, f"i{a} = (i{a} - 1) & {_M64}")
            out(depth + 1, f"if not i{a}:")
        elif op in _INV_CMP:
            out(depth + 1, f"if i{a} {_INV_CMP[op]} i{b}:")
        else:
            raise _Bail
        out(depth + 2, "break")

    try:
        loop(head, tail, 1)
    except _Bail:
        return None
    for line in flush:
        out(1, line)
    out(1, f"return {tail + 1}, _ret")
    return "\n".join(lines), guard


def _knames(code: list[tuple]) -> list:
    """Template slot name per pc (``_K{n}``), or None where the op binds
    no data immediate."""
    knames: list = [None] * len(code)
    slot = 0
    for pc, (op, _a, _b, _c, imm) in enumerate(code):
        if _imm_slot(op, imm) is not None:
            knames[pc] = f"_K{slot}"
            slot += 1
    return knames


def _compile_bind(parts: list[str]) -> tuple:
    """Compile function sources into one ``_bind(_K)`` factory.

    Returns ``(bind, source)``: ``bind(kvalues)`` executes the (already
    compiled) function definitions with a concrete constant vector and
    returns the resulting namespace.
    """
    body = "\n\n".join(parts)
    module = (
        "def _bind(_K):\n"
        + "\n".join("    " + ln if ln else ln for ln in body.split("\n"))
        + "\n    return locals()"
    )
    namespace: dict = {}
    exec(compile(module, "<jit-template>", "exec"), namespace)
    return namespace["_bind"], module


def _build_regions(code: list[tuple]) -> tuple:
    """The first-run template part: every loop region of one shape.

    Returns ``(bind, region_guards, source)``.  One candidate per
    backward-branch target, closed by the furthest backedge.  Inner loops
    get their own region too, so the driver re-accelerates when an event
    boundary parks the pc mid-loop.
    """
    knames = _knames(code)
    candidates: dict[int, int] = {}
    for pc, (op, _a, _b, _c, imm) in enumerate(code):
        if op in _BRANCH_OPS and 0 <= imm <= pc:
            candidates[imm] = max(candidates.get(imm, -1), pc)
    region_srcs: dict[int, tuple[str, int]] = {}
    for start, end in candidates.items():
        generated = _gen_region(code, start, end, knames)
        if generated is not None:
            region_srcs[start] = generated
    bind, module = _compile_bind(
        [region_srcs[start][0] for start in sorted(region_srcs)]
    )
    region_guards = {start: guard for start, (_s, guard) in region_srcs.items()}
    return bind, region_guards, module


def _build_segments(code: list[tuple]) -> tuple:
    """The tier-up template part: every straight-line segment of one shape.

    Returns ``(bind, sizes, seg_starts, source)``.
    """
    n = len(code)
    knames = _knames(code)
    # Segment leaders: instruction 0, every branch target, the successor of
    # every control-transfer instruction, and the continuation points of
    # straight-line runs split at MAX_SEGMENT.
    leaders = {0}
    for pc, (op, _a, _b, _c, imm) in enumerate(code):
        if op in _BRANCH_OPS:
            if 0 <= imm < n:
                leaders.add(imm)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif op == 73 and pc + 1 < n:
            leaders.add(pc + 1)

    sources: dict[int, str] = {}
    sizes = [0] * n
    worklist = sorted(leaders)
    while worklist:
        start = worklist.pop()
        if start in sources:
            continue
        src, size, next_leader = _gen_segment(code, start, n, knames)
        sources[start] = src
        sizes[start] = size
        if next_leader >= 0 and next_leader not in sources:
            worklist.append(next_leader)

    bind, module = _compile_bind([sources[start] for start in sorted(sources)])
    return bind, sizes, sorted(sources), module


def _template_part(code: list[tuple], index: int, build) -> tuple:
    """Part ``index`` (0: regions, 1: segments) of the cached template for
    ``code``'s shape, built with ``build(code)`` on a miss.

    Each shape has one LRU entry whose two parts fill in independently:
    the regions on the first program of that shape to run, the segments
    on the first one to tier up.
    """
    key = tuple(
        (op, a, b, c, imm) if op in _BRANCH_OPS else (op, a, b, c)
        for op, a, b, c, imm in code
    )
    entry = _templates.get(key)
    if entry is None:
        entry = _templates[key] = [None, None]
        if len(_templates) > _TEMPLATE_CAPACITY:
            _templates.popitem(last=False)
            _template_stats["evictions"] += 1
    else:
        _templates.move_to_end(key)
    part = entry[index]
    if part is None:
        _template_stats["misses"] += 1
        part = entry[index] = build(code)
    else:
        _template_stats["hits"] += 1
    return part


def _kvalues(code: list[tuple]) -> list:
    """The program's constant vector, in template slot order."""
    return [
        v
        for op, _a, _b, _c, imm in code
        if (v := _imm_slot(op, imm)) is not None
    ]


def compile_jit(program: Program) -> JitCode:
    """Translate ``program`` into its first-run, loop-only artifact.

    Only the loop regions are compiled; every other pc steps through the
    program's threaded handlers until :func:`tier_up` adds the segments.
    Codegen and ``compile()`` run once per *shape* (see module docstring):
    the program's data constants are extracted with :func:`_imm_slot` and
    bound into a cached template's functions as default arguments, so
    fresh widgets matching previously-seen shapes pay only the binding
    cost.  :meth:`repro.isa.program.Program.jit_code` caches the bound
    result per program.
    """
    code = program.code_tuples()
    n = len(code)
    bind, region_guards, module = _template_part(code, 0, _build_regions)
    namespace = bind(_kvalues(code))
    regions: list = [None] * n
    for start, guard in region_guards.items():
        regions[start] = (namespace[f"_r{start}"], guard)
    return JitCode(
        funcs=[None] * n, sizes=[0] * n, regions=regions, length=n,
        source=module,
    )


def tier_up(program: Program, jit: JitCode) -> None:
    """Add the straight-line segment functions to ``jit`` in place.

    The bound region functions are kept as they are; only the segments
    are generated (or taken from the shape's template) and bound.
    """
    code = program.code_tuples()
    bind, sizes, seg_starts, module = _template_part(code, 1, _build_segments)
    namespace = bind(_kvalues(code))
    for start in seg_starts:
        jit.funcs[start] = namespace[f"_s{start}"]
    jit.sizes = list(sizes)
    jit.source += "\n\n" + module
    jit.tiered = True


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
    (``cycles`` stays 0).  The driver is a block-stepped loop: at each pc
    it runs a loop region if one starts there and the current
    snapshot/budget window holds its guard, else a compiled segment if one
    starts there and fits the window, else the threaded per-instruction
    handler.  On a program's first run the artifact has no segments, so
    everything outside a region steps through handlers.
    """
    memory, iregs, fregs, vregs = _init_state(
        machine, memory, max_instructions, initial_iregs, initial_fregs
    )
    jit = program.jit_code()
    jit.runs += 1
    handlers = program.fast_handlers()
    funcs = jit.funcs
    sizes = jit.sizes
    regions = jit.regions
    n = len(handlers)
    st = _State(iregs, fregs, vregs, memory.words, memory.mask)

    out_chunks: list[bytes] = []
    out_append = out_chunks.append
    snap_interval = snapshot_interval if snapshot_interval > 0 else 0
    snap_countdown = snap_interval
    snapshots = 0
    pack_i = _SNAP_I.pack
    pack_f = _SNAP_F.pack

    retired = 0
    halted = False
    budget = max_instructions
    pc = 0
    while 0 <= pc < n:
        if snap_interval and snap_countdown < budget:
            steps = snap_countdown
        else:
            steps = budget
        countdown = steps
        while countdown and 0 <= pc < n:
            region = regions[pc]
            if region is not None and countdown >= region[1]:
                # Loop head with enough window left: run whole loop
                # iterations inside one compiled function, which returns
                # how many instructions it retired.
                pc, done = region[0](st, countdown)
                countdown -= done
            elif (size := sizes[pc]) and size <= countdown:
                pc = funcs[pc](st)
                countdown -= size
            else:
                pc = handlers[pc](st)
                countdown -= 1
        if pc < 0:
            # HALT: retires, but consumes neither budget nor a snapshot
            # tick — identical accounting to the timing path (the HALT's
            # own countdown decrement keeps the non-HALT count strictly
            # below ``steps``, so no interior snapshot can have come due).
            retired += steps - countdown
            halted = True
            break
        block = steps - countdown
        retired += block
        budget -= block
        if snap_interval:
            snap_countdown -= block
            if snap_countdown == 0:
                out_append(pack_i(*iregs))
                out_append(pack_f(*fregs))
                snapshots += 1
                snap_countdown = snap_interval
        if budget <= 0:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_instructions} instructions"
            )

    if pc >= 0 and not halted:
        halted = True  # fell off the end: implicit halt

    if snap_interval:
        out_append(pack_i(*iregs))
        out_append(pack_f(*fregs))
        snapshots += 1

    return _finish(retired, halted, out_chunks, snapshots, iregs, fregs)
