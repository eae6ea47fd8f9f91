"""Functional + timing simulation of the synthetic GPP.

One pass over the dynamic instruction stream both *executes* each
instruction (architectural state: registers, memory) and *times* it with an
analytic out-of-order model:

* instructions dispatch at ``issue_width`` per cycle in program order;
* an instruction starts when its source operands are ready (register
  scoreboard) and completes after its class latency;
* instruction *i* cannot dispatch before instruction ``i - rob_size``
  completes (reorder-buffer window);
* loads take the latency returned by the cache hierarchy;
* a mispredicted conditional branch stalls dispatch for
  ``mispredict_penalty`` cycles after it resolves.

Total cycles is the maximum of the dispatch clock and the latest completion
time, giving IPC = retired / cycles.  The model reproduces the first-order
effects the paper's figures depend on — dependency chains, mix-dependent
latencies, branch predictability, cache locality — without cycle-accurate
overhead that pure Python could not afford.

Floating-point semantics are fully deterministic: any non-finite or
out-of-range result is replaced by 1.0, memory<->float conversions use a
fixed-point mapping, and division by (near-)zero yields a defined constant.
Determinism of the *entire* architectural trace is what makes widget outputs
verifiable by other miners (§IV-A, irreducibility).

This timing path is one of two execution tiers: hashing runs on the JIT in
:mod:`repro.machine.jit` (same architectural semantics, no timing model),
selected per run by the ``mode`` argument of :meth:`Machine.run`.  The two
tiers are differential-tested to be bit-identical; this one stays
authoritative for every timing question and is the last rung of the
degradation ladder (:meth:`Machine.run_with_fallback`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExecutionError, ExecutionLimitExceeded, ReproError
from repro.isa.opcodes import NUM_FP_REGS, NUM_INT_REGS, NUM_VEC_REGS, VEC_LANES
from repro.isa.program import Program
from repro.machine.branch_predictor import make_predictor
from repro.machine.cache import CacheHierarchy
from repro.machine.config import MachineConfig
from repro.machine.memory import Memory
from repro.machine.perf_counters import (
    DEP_BUCKETS,
    STRIDE_BUCKETS,
    PerfCounters,
    bucket_index,
)

_MASK64 = (1 << 64) - 1
_MASK53 = (1 << 53) - 1
_TWO52 = 1 << 52
# float<->memory fixed-point mapping: store (f * 2**26 + 2**52), load the
# inverse; round-trips exactly for |f| < 2**26 and wraps deterministically
# beyond.
_FP_SCALE = 67108864.0  # 2**26

_SNAP_I = struct.Struct(f"<{NUM_INT_REGS}Q")
_SNAP_F = struct.Struct(f"<{NUM_FP_REGS}d")

#: Bytes appended to the output per register snapshot.
SNAPSHOT_BYTES = _SNAP_I.size + _SNAP_F.size


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of one program run."""

    counters: PerfCounters
    output: bytes
    iregs: list[int]
    fregs: list[float]
    halted: bool
    snapshots: int

    @property
    def output_size(self) -> int:
        return len(self.output)


#: Execution tiers a :class:`Machine` runs.  ``timed`` runs the full
#: analytic out-of-order model (authoritative for profiling and every IPC
#: experiment); ``jit`` runs the JIT in :mod:`repro.machine.jit` (loop
#: regions compiled to Python, everything else stepped through
#: threaded-code handlers).  Both produce bit-identical
#: architectural results; they differ only in throughput.
EXECUTION_MODES = ("timed", "jit")

#: The fastest tier — what ``mode="auto"`` resolves to in HashCore and
#: friends.
FASTEST_MODE = "jit"


def resolve_mode(mode: str) -> str:
    """Resolve a PoW-level ``mode`` knob to a concrete execution tier.

    ``"auto"`` selects :data:`FASTEST_MODE`; any explicit tier name passes
    through unchanged; anything else raises ``ValueError``.
    """
    if mode == "auto":
        return FASTEST_MODE
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"mode must be 'auto' or one of {EXECUTION_MODES}, got {mode!r}"
        )
    return mode


class Machine:
    """A simulated GPP built from a :class:`MachineConfig`.

    A single ``Machine`` may run many programs; each :meth:`run` starts from
    cold microarchitectural state (fresh caches and predictor) so results
    are independent of run order — required for PoW verifiability.

    Each run names its execution tier (see :data:`EXECUTION_MODES`;
    ``"timed"`` by default).  Because timing never feeds back into
    architectural state, the tier can never change a program's outputs —
    only how long computing them takes.
    """

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        # Per-opcode latency table (loads patched at access time).
        lat = [1] * 80
        for op in range(0, 24):
            lat[op] = cfg.int_alu_latency
        lat[24] = lat[25] = cfg.int_mul_latency
        lat[26] = lat[27] = cfg.int_div_latency
        for op in range(32, 43):
            lat[op] = cfg.fp_misc_latency
        lat[32] = lat[33] = cfg.fp_add_latency
        lat[34] = cfg.fp_mul_latency
        lat[35] = cfg.fp_div_latency
        lat[40] = cfg.fp_mul_latency  # FMA costs a multiply
        for op in range(64, 71):
            lat[op] = cfg.vector_latency
        self._latency = lat
        # Tier-degradation registry: aggregate fall-back counters plus a
        # per-widget breakdown, surfaced through tier_stats().
        self._degradations: dict[str, int] = {}
        self._widget_degradations: dict[str, dict[str, int]] = {}
        self._degradation_log: list[str] = []
        # Per-tier dispatch counters: how many runs each tier was asked
        # to execute (a JIT run that degrades counts on both tiers).
        self._tier_runs: dict[str, int] = {
            tier: 0 for tier in EXECUTION_MODES
        }
        # JIT artifacts: a jit run on a program without one builds it,
        # every later jit run of that program reuses it.
        self._jit_artifacts = {"builds": 0, "reuses": 0}

    def new_memory(self) -> Memory:
        """A zeroed memory sized for this machine."""
        return Memory(self.config.memory_words)

    # ------------------------------------------------------------------
    def _note_degradation(self, program: Program, exc: Exception) -> None:
        """Record one jit → timed fall-back and block the JIT on the
        program so later runs go straight to timed without retrying."""
        program.jit_blocked = True
        key = "jit->timed"
        self._degradations[key] = self._degradations.get(key, 0) + 1
        per = self._widget_degradations.setdefault(program.name, {})
        per[key] = per.get(key, 0) + 1
        if len(self._degradation_log) < 32:  # cap: diagnostics, not a leak
            self._degradation_log.append(
                f"{program.name}: {key}: {exc!r}"
            )

    def tier_stats(self) -> dict:
        """Per-tier counters, ``cache_stats()``-style.

        ``degradations`` counts fall-back events on the ladder's one edge
        (``{"jit->timed": n}``), ``widgets`` breaks them down per program
        name, ``log`` keeps the first few error strings for diagnostics,
        ``runs`` counts the runs dispatched to each tier, and
        ``jit_artifacts`` counts the JIT runs that built their program's
        artifact and those that reused it.  Every count is cumulative.
        Degradations are empty on a healthy machine — the mining engine's
        health report folds these in via the per-worker stats channel.
        """
        return {
            "degradations": dict(self._degradations),
            "widgets": {
                name: dict(counts)
                for name, counts in self._widget_degradations.items()
            },
            "log": list(self._degradation_log),
            "runs": dict(self._tier_runs),
            "jit_artifacts": dict(self._jit_artifacts),
        }

    def run_with_fallback(
        self,
        program: Program,
        memory_factory: "Callable[[], Memory] | None" = None,
        *,
        max_instructions: int = 10_000_000,
        snapshot_interval: int = 0,
        initial_iregs: list[int] | None = None,
        initial_fregs: list[float] | None = None,
        mode: str = "timed",
    ) -> ExecutionResult:
        """Execute ``program`` on the degrading tier ladder, jit → timed.

        Like :meth:`run`, but a JIT fault — in translation or mid-run —
        degrades to the timed reference model instead of propagating, and
        blocks the JIT on the program so later runs go straight to timed.
        The failed run may have dirtied memory, so each attempt starts
        from a fresh ``memory_factory()`` product.  Only non-library
        exceptions degrade: a :class:`~repro.errors.ReproError` (a fuse
        trip, a bad argument) is the same outcome on every tier, so it
        propagates from either rung.  If the timed model too fails on a
        non-library error, the ladder raises a structured
        :class:`~repro.errors.EngineFault` with code ``tier-degraded``.

        ``memory_factory`` rebuilds the initial memory image for each
        attempt (``None``: a zeroed machine-sized memory).  The happy path
        calls it exactly once and adds only a try frame over :meth:`run`.
        """
        if mode not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution mode {mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        kwargs = dict(
            max_instructions=max_instructions,
            snapshot_interval=snapshot_interval,
            initial_iregs=initial_iregs,
            initial_fregs=initial_fregs,
        )

        def fresh_memory() -> Memory | None:
            return memory_factory() if memory_factory is not None else None

        if mode == "jit" and not program.jit_blocked:
            try:
                return self.run(program, fresh_memory(), mode="jit", **kwargs)
            except ReproError:
                raise  # library errors (fuse, arguments…) are the outcome
            except Exception as exc:  # noqa: BLE001 — tier bug, degrade
                self._note_degradation(program, exc)
        try:
            return self.run(program, fresh_memory(), mode="timed", **kwargs)
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001
            from repro.errors import EngineFault

            raise EngineFault(
                "tier-degraded",
                f"{program.name}: every execution tier failed "
                f"(last: {exc!r})",
            ) from exc

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        memory: Memory | None = None,
        *,
        max_instructions: int = 10_000_000,
        snapshot_interval: int = 0,
        collect_detail: bool = False,
        initial_iregs: list[int] | None = None,
        initial_fregs: list[float] | None = None,
        mode: str = "timed",
    ) -> ExecutionResult:
        """Execute ``program`` to completion on exactly the tier ``mode``
        names.

        ``snapshot_interval`` > 0 appends a register snapshot to the output
        every that many retired instructions (plus one final snapshot at
        termination) — the widget output mechanism of §IV-B.  ``collect_detail``
        additionally gathers the profiler's histograms (slower).

        ``mode="timed"`` (the default) runs the full timing model;
        ``"jit"`` dispatches to the JIT (identical architectural results,
        counters report only ``retired``).  ``collect_detail`` always
        implies the timing path — the detail histograms *are* timing
        instrumentation.  A JIT fault propagates; only
        :meth:`run_with_fallback` degrades.

        Raises :class:`ExecutionLimitExceeded` when ``max_instructions``
        retire without the program halting.
        """
        if mode not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
            )
        if mode == "jit" and not collect_detail:
            from repro.machine.jit import run_jit

            self._tier_runs["jit"] += 1
            self._jit_artifacts["reuses" if program.jit_ready else "builds"] += 1
            return run_jit(
                self,
                program,
                memory,
                max_instructions=max_instructions,
                snapshot_interval=snapshot_interval,
                initial_iregs=initial_iregs,
                initial_fregs=initial_fregs,
            )
        cfg = self.config
        if memory is None:
            memory = self.new_memory()
        if max_instructions <= 0:
            raise ExecutionError("max_instructions must be positive")
        self._tier_runs["timed"] += 1

        code = program.code_tuples()
        n = len(code)

        iregs = [v & _MASK64 for v in (initial_iregs or [0] * NUM_INT_REGS)]
        fregs = list(initial_fregs or [0.0] * NUM_FP_REGS)
        if len(iregs) != NUM_INT_REGS or len(fregs) != NUM_FP_REGS:
            raise ExecutionError("initial register files have wrong length")
        vregs = [[0.0] * VEC_LANES for _ in range(NUM_VEC_REGS)]

        ready_i = [0.0] * NUM_INT_REGS
        ready_f = [0.0] * NUM_FP_REGS
        ready_v = [0.0] * NUM_VEC_REGS

        hierarchy = CacheHierarchy(cfg)
        cache_access = hierarchy.access
        predictor = make_predictor(
            cfg.predictor, cfg.predictor_table_bits, cfg.predictor_history_bits
        )
        predict = predictor.predict
        predictor_update = predictor.update

        words = memory.words
        mem_mask = memory.mask

        counters = PerfCounters()
        class_counts = counters.class_counts
        opcode_counts = counters.opcode_counts
        dep_hist = counters.dep_distance_hist
        stride_hist = counters.stride_hist
        block_sizes = counters.block_sizes
        branch_bias = counters.branch_bias
        touched = counters.touched_lines
        last_writer_i = [0] * NUM_INT_REGS
        last_writer_f = [0] * NUM_FP_REGS
        last_mem_addr: dict[int, int] = {}
        detail = collect_detail

        step = 1.0 / cfg.issue_width
        dispatch = 0.0
        max_done = 0.0
        rob_size = cfg.rob_size
        rob = [0.0] * rob_size
        rob_pos = 0
        penalty = float(cfg.mispredict_penalty)
        store_lat = cfg.store_latency
        branch_lat = cfg.branch_latency
        latency = self._latency

        out_chunks: list[bytes] = []
        snap_interval = snapshot_interval if snapshot_interval > 0 else 0
        snap_countdown = snap_interval
        snapshots = 0
        pack_i = _SNAP_I.pack
        pack_f = _SNAP_F.pack

        retired = 0
        branches = 0
        taken_count = 0
        mispredicts = 0
        loads = 0
        stores = 0
        block_len = 0
        halted = False
        budget = max_instructions

        pc = 0
        while pc < n:
            op, a, b, c, imm = code[pc]
            pc += 1
            if detail:
                opcode_counts[op] += 1

            rt = rob[rob_pos]
            if rt > dispatch:
                dispatch = rt
            start = dispatch

            if op < 24:  # ---------------- integer ALU ----------------
                class_counts[0] += 1
                if op == 0:  # ADD
                    value = (iregs[b] + iregs[c]) & _MASK64
                elif op == 1:  # SUB
                    value = (iregs[b] - iregs[c]) & _MASK64
                elif op == 2:  # AND
                    value = iregs[b] & iregs[c]
                elif op == 3:  # OR
                    value = iregs[b] | iregs[c]
                elif op == 4:  # XOR
                    value = iregs[b] ^ iregs[c]
                elif op == 5:  # SHL
                    value = (iregs[b] << (iregs[c] & 63)) & _MASK64
                elif op == 6:  # SHR
                    value = iregs[b] >> (iregs[c] & 63)
                elif op == 7:  # ADDI
                    value = (iregs[b] + imm) & _MASK64
                elif op == 8:  # ANDI
                    value = iregs[b] & (imm & _MASK64)
                elif op == 9:  # ORI
                    value = iregs[b] | (imm & _MASK64)
                elif op == 10:  # XORI
                    value = iregs[b] ^ (imm & _MASK64)
                elif op == 11:  # SHLI
                    value = (iregs[b] << (imm & 63)) & _MASK64
                elif op == 12:  # SHRI
                    value = iregs[b] >> (imm & 63)
                elif op == 13:  # MOV
                    value = iregs[b]
                elif op == 14:  # MOVI
                    value = imm & _MASK64
                elif op == 15:  # NOT
                    value = iregs[b] ^ _MASK64
                elif op == 16:  # CMPLT
                    value = 1 if iregs[b] < iregs[c] else 0
                elif op == 17:  # CMPEQ
                    value = 1 if iregs[b] == iregs[c] else 0
                elif op == 18:  # MIN
                    value = iregs[b] if iregs[b] < iregs[c] else iregs[c]
                else:  # MAX
                    value = iregs[b] if iregs[b] > iregs[c] else iregs[c]
                if op != 14:  # all but MOVI read r[b]
                    t = ready_i[b]
                    if t > start:
                        start = t
                    if op < 7 or op > 15:  # three-register forms read r[c]
                        t = ready_i[c]
                        if t > start:
                            start = t
                    if detail:
                        dep_hist[bucket_index(retired - last_writer_i[b], DEP_BUCKETS)] += 1
                done = start + latency[op]
                iregs[a] = value
                ready_i[a] = done
                if detail:
                    last_writer_i[a] = retired

            elif op < 32:  # ---------------- integer multiply / divide ----
                class_counts[1] += 1
                vb = iregs[b]
                vc = iregs[c]
                if op == 24:  # MUL
                    value = (vb * vc) & _MASK64
                elif op == 25:  # MULHI
                    value = (vb * vc) >> 64
                elif op == 26:  # DIV
                    value = _MASK64 if vc == 0 else vb // vc
                else:  # MOD
                    value = 0 if vc == 0 else vb % vc
                t = ready_i[b]
                if t > start:
                    start = t
                t = ready_i[c]
                if t > start:
                    start = t
                if detail:
                    dep_hist[bucket_index(retired - last_writer_i[b], DEP_BUCKETS)] += 1
                done = start + latency[op]
                iregs[a] = value
                ready_i[a] = done
                if detail:
                    last_writer_i[a] = retired

            elif op == 42:  # CVTFI: float source, integer destination
                class_counts[2] += 1
                t = ready_f[b]
                if t > start:
                    start = t
                done = start + latency[op]
                iregs[a] = int(fregs[b]) & _MASK64
                ready_i[a] = done
                if detail:
                    last_writer_i[a] = retired

            elif op < 48:  # ---------------- floating point -------------
                class_counts[2] += 1
                if op == 40:  # FMA: f[a] += f[b] * f[c]
                    fvalue = fregs[a] + fregs[b] * fregs[c]
                    t = ready_f[a]
                    if t > start:
                        start = t
                    t = ready_f[b]
                    if t > start:
                        start = t
                    t = ready_f[c]
                    if t > start:
                        start = t
                elif op == 41:  # CVTIF
                    fvalue = float(iregs[b] & _MASK53)
                    t = ready_i[b]
                    if t > start:
                        start = t
                else:
                    fb = fregs[b]
                    t = ready_f[b]
                    if t > start:
                        start = t
                    if op < 38:  # two-source FP ops read f[c]
                        fc = fregs[c]
                        t = ready_f[c]
                        if t > start:
                            start = t
                        if op == 32:
                            fvalue = fb + fc
                        elif op == 33:
                            fvalue = fb - fc
                        elif op == 34:
                            fvalue = fb * fc
                        elif op == 35:
                            fvalue = fb / fc if (fc > 1e-300 or fc < -1e-300) else 1.0
                        elif op == 36:
                            fvalue = fb if fb < fc else fc
                        else:
                            fvalue = fb if fb > fc else fc
                    elif op == 38:  # FABS
                        fvalue = fb if fb >= 0.0 else -fb
                    else:  # FNEG
                        fvalue = -fb
                if not -1e300 < fvalue < 1e300:  # clamp NaN/Inf/overflow
                    fvalue = 1.0
                done = start + latency[op]
                fregs[a] = fvalue
                ready_f[a] = done
                if detail:
                    last_writer_f[a] = retired

            elif op < 52:  # ---------------- loads ----------------------
                class_counts[3] += 1
                loads += 1
                addr = (iregs[b] + imm) & mem_mask
                t = ready_i[b]
                if t > start:
                    start = t
                done = start + cache_access(addr)
                if op == 48:  # LOAD
                    iregs[a] = words[addr]
                    ready_i[a] = done
                    if detail:
                        last_writer_i[a] = retired
                else:  # FLOAD
                    fregs[a] = ((words[addr] & _MASK53) - _TWO52) / _FP_SCALE
                    ready_f[a] = done
                    if detail:
                        last_writer_f[a] = retired
                if detail:
                    dep_hist[bucket_index(retired - last_writer_i[b], DEP_BUCKETS)] += 1
                    touched.add(addr >> 3)
                    mem_pc = pc - 1
                    prev = last_mem_addr.get(mem_pc)
                    if prev is not None:
                        stride = addr - prev
                        if stride < 0:
                            stride = -stride
                        stride_hist[bucket_index(stride, STRIDE_BUCKETS)] += 1
                    last_mem_addr[mem_pc] = addr

            elif op < 56:  # ---------------- stores ---------------------
                class_counts[4] += 1
                stores += 1
                addr = (iregs[b] + imm) & mem_mask
                t = ready_i[b]
                if t > start:
                    start = t
                if op == 52:  # STORE
                    t = ready_i[a]
                    if t > start:
                        start = t
                    words[addr] = iregs[a]
                else:  # FSTORE
                    t = ready_f[a]
                    if t > start:
                        start = t
                    words[addr] = (int(fregs[a] * _FP_SCALE) + _TWO52) & _MASK64
                cache_access(addr)
                done = start + store_lat
                if detail:
                    touched.add(addr >> 3)
                    mem_pc = pc - 1
                    prev = last_mem_addr.get(mem_pc)
                    if prev is not None:
                        stride = addr - prev
                        if stride < 0:
                            stride = -stride
                        stride_hist[bucket_index(stride, STRIDE_BUCKETS)] += 1
                    last_mem_addr[mem_pc] = addr

            elif op < 64:  # ---------------- branches -------------------
                class_counts[5] += 1
                bpc = pc - 1
                if op == 60:  # JMP: unconditional, target known
                    done = start + branch_lat
                    pc = imm
                    if detail:
                        block_sizes.append(block_len + 1)
                        block_len = -1  # +1 below restores 0
                else:
                    if op == 61:  # LOOPNZ: decrement and branch if non-zero
                        value = (iregs[a] - 1) & _MASK64
                        iregs[a] = value
                        taken = value != 0
                        t = ready_i[a]
                        if t > start:
                            start = t
                        done = start + branch_lat
                        ready_i[a] = done
                    else:
                        va = iregs[a]
                        vb = iregs[b]
                        if op == 56:
                            taken = va == vb
                        elif op == 57:
                            taken = va != vb
                        elif op == 58:
                            taken = va < vb
                        else:
                            taken = va >= vb
                        t = ready_i[a]
                        if t > start:
                            start = t
                        t = ready_i[b]
                        if t > start:
                            start = t
                        done = start + branch_lat
                    branches += 1
                    predicted = predict(bpc)
                    predictor_update(bpc, taken)
                    if taken:
                        taken_count += 1
                        pc = imm
                    if predicted != taken:
                        mispredicts += 1
                        flush = done + penalty
                        if flush > dispatch:
                            dispatch = flush
                    if detail:
                        bias = branch_bias.get(bpc)
                        if bias is None:
                            branch_bias[bpc] = [1 if taken else 0, 1]
                        else:
                            bias[1] += 1
                            if taken:
                                bias[0] += 1
                        block_sizes.append(block_len + 1)
                        block_len = -1

            elif op < 72:  # ---------------- vector ---------------------
                class_counts[6] += 1
                if op == 64:  # VADD
                    vb_ = vregs[b]
                    vc_ = vregs[c]
                    vregs[a] = [
                        x if -1e300 < x < 1e300 else 1.0
                        for x in (
                            vb_[0] + vc_[0],
                            vb_[1] + vc_[1],
                            vb_[2] + vc_[2],
                            vb_[3] + vc_[3],
                        )
                    ]
                    t = ready_v[b]
                    if t > start:
                        start = t
                    t = ready_v[c]
                    if t > start:
                        start = t
                    done = start + latency[op]
                    ready_v[a] = done
                elif op == 65:  # VMUL
                    vb_ = vregs[b]
                    vc_ = vregs[c]
                    vregs[a] = [
                        x if -1e300 < x < 1e300 else 1.0
                        for x in (
                            vb_[0] * vc_[0],
                            vb_[1] * vc_[1],
                            vb_[2] * vc_[2],
                            vb_[3] * vc_[3],
                        )
                    ]
                    t = ready_v[b]
                    if t > start:
                        start = t
                    t = ready_v[c]
                    if t > start:
                        start = t
                    done = start + latency[op]
                    ready_v[a] = done
                elif op == 66:  # VFMA: v[a] += v[b] * v[c]
                    va_ = vregs[a]
                    vb_ = vregs[b]
                    vc_ = vregs[c]
                    vregs[a] = [
                        x if -1e300 < x < 1e300 else 1.0
                        for x in (
                            va_[0] + vb_[0] * vc_[0],
                            va_[1] + vb_[1] * vc_[1],
                            va_[2] + vb_[2] * vc_[2],
                            va_[3] + vb_[3] * vc_[3],
                        )
                    ]
                    t = ready_v[a]
                    if t > start:
                        start = t
                    t = ready_v[b]
                    if t > start:
                        start = t
                    t = ready_v[c]
                    if t > start:
                        start = t
                    done = start + latency[op]
                    ready_v[a] = done
                elif op == 67:  # VLOAD
                    addr = (iregs[b] + imm) & mem_mask
                    t = ready_i[b]
                    if t > start:
                        start = t
                    done = start + cache_access(addr)
                    vregs[a] = [
                        ((words[addr] & _MASK53) - _TWO52) / _FP_SCALE,
                        ((words[(addr + 1) & mem_mask] & _MASK53) - _TWO52) / _FP_SCALE,
                        ((words[(addr + 2) & mem_mask] & _MASK53) - _TWO52) / _FP_SCALE,
                        ((words[(addr + 3) & mem_mask] & _MASK53) - _TWO52) / _FP_SCALE,
                    ]
                    ready_v[a] = done
                    loads += 1
                    if detail:
                        touched.add(addr >> 3)
                elif op == 68:  # VSTORE
                    addr = (iregs[b] + imm) & mem_mask
                    t = ready_i[b]
                    if t > start:
                        start = t
                    t = ready_v[a]
                    if t > start:
                        start = t
                    va_ = vregs[a]
                    words[addr] = (int(va_[0] * _FP_SCALE) + _TWO52) & _MASK64
                    words[(addr + 1) & mem_mask] = (int(va_[1] * _FP_SCALE) + _TWO52) & _MASK64
                    words[(addr + 2) & mem_mask] = (int(va_[2] * _FP_SCALE) + _TWO52) & _MASK64
                    words[(addr + 3) & mem_mask] = (int(va_[3] * _FP_SCALE) + _TWO52) & _MASK64
                    cache_access(addr)
                    done = start + store_lat
                    stores += 1
                    if detail:
                        touched.add(addr >> 3)
                elif op == 69:  # VBROADCAST
                    t = ready_f[b]
                    if t > start:
                        start = t
                    done = start + latency[op]
                    vregs[a] = [fregs[b]] * VEC_LANES
                    ready_v[a] = done
                else:  # VREDUCE
                    t = ready_v[b]
                    if t > start:
                        start = t
                    done = start + latency[op]
                    vb_ = vregs[b]
                    total = vb_[0] + vb_[1] + vb_[2] + vb_[3]
                    fregs[a] = total if -1e300 < total < 1e300 else 1.0
                    ready_f[a] = done

            else:  # ---------------- system --------------------------
                class_counts[7] += 1
                done = start
                if op == 73:  # HALT
                    retired += 1
                    halted = True
                    break
                # NOP falls through.

            retired += 1
            budget -= 1
            if done > max_done:
                max_done = done
            rob[rob_pos] = done
            rob_pos += 1
            if rob_pos == rob_size:
                rob_pos = 0
            dispatch += step
            block_len += 1
            if snap_countdown:
                snap_countdown -= 1
                if snap_countdown == 0:
                    out_chunks.append(pack_i(*iregs))
                    out_chunks.append(pack_f(*fregs))
                    snapshots += 1
                    snap_countdown = snap_interval
            if budget <= 0:
                raise ExecutionLimitExceeded(
                    f"{program.name}: exceeded {max_instructions} instructions"
                )

        if pc >= n:
            halted = True  # fell off the end: implicit halt

        if snap_interval:
            # Final-state snapshot: the output commits to the complete run.
            out_chunks.append(pack_i(*iregs))
            out_chunks.append(pack_f(*fregs))
            snapshots += 1

        counters.retired = retired
        counters.cycles = max(dispatch, max_done)
        counters.branches = branches
        counters.taken = taken_count
        counters.mispredicts = mispredicts
        counters.loads = loads
        counters.stores = stores
        counters.l1_hits = hierarchy.l1.hits
        counters.l2_hits = hierarchy.l2.hits
        counters.l3_hits = hierarchy.l3.hits if hierarchy.l3 is not None else 0
        counters.dram_accesses = hierarchy.dram_accesses
        if detail and block_len > 0:
            block_sizes.append(block_len)

        return ExecutionResult(
            counters=counters,
            output=b"".join(out_chunks),
            iregs=iregs,
            fregs=fregs,
            halted=halted,
            snapshots=snapshots,
        )
