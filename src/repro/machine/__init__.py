"""Microarchitectural GPP simulator.

This subpackage stands in for the paper's physical Xeon E5-2430 v2: widgets
and workloads execute instruction-by-instruction on a machine model with the
resource classes Table I targets, and the performance counters the paper
reads from hardware PMUs are collected by :class:`PerfCounters` instead.

The timing model is an analytic out-of-order model: instructions dispatch at
``issue_width`` per cycle, wait for their source operands (dependency
scoreboard), occupy a reorder-buffer window, suffer branch-misprediction
flushes, and see load latencies from a simulated three-level set-associative
cache hierarchy.  It is *not* cycle-accurate silicon — it does not need to
be: the paper's figures compare widget IPC / branch-prediction distributions
against a reference workload measured on the *same* platform, and this model
plays that platform's role for both.

Execution has two tiers: the timing model above (``mode="timed"``) is
authoritative for profiling and experiments, while hashing runs on the JIT
(``mode="jit"``, :mod:`repro.machine.jit`), which computes bit-identical
architectural results without any timing machinery.  Its loop regions
and per-instruction threaded-code handlers are both rendered from one
table of statement templates, so the timing model and that table are the
only two statements of each opcode's semantics.
"""

from repro.machine.config import CacheConfig, MachineConfig
from repro.machine.branch_predictor import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GsharePredictor,
    make_predictor,
)
from repro.machine.cache import Cache, CacheHierarchy
from repro.machine.memory import Memory
from repro.machine.perf_counters import PerfCounters
from repro.machine.cpu import EXECUTION_MODES, ExecutionResult, Machine
from repro.machine.energy import EnergyBreakdown, EnergyModel, EnergyParams

__all__ = [
    "EXECUTION_MODES",
    "CacheConfig",
    "MachineConfig",
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "GsharePredictor",
    "make_predictor",
    "Cache",
    "CacheHierarchy",
    "Memory",
    "PerfCounters",
    "ExecutionResult",
    "Machine",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyParams",
]
