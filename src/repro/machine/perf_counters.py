"""Performance counters — the simulator's stand-in for hardware PMUs.

Everything the paper measures on silicon (IPC, branch-prediction accuracy,
instruction mix, cache behaviour) is read from an instance of this class
after a run.  The optional *detail* section (dependency distances, per-branch
bias, basic-block sizes, touched-line working set, stride histogram) feeds
the PerfProx-style profiler and is only populated when a run is started with
``collect_detail=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass

#: Dependency-distance histogram bucket upper bounds (in instructions).
DEP_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: Stride histogram bucket upper bounds (in words, absolute value).
STRIDE_BUCKETS = (0, 1, 2, 8, 64, 512)


def bucket_index(value: int, bounds: tuple[int, ...]) -> int:
    """Index of the histogram bucket for ``value`` (last bucket is overflow)."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


@dataclass(slots=True)
class PerfCounters:
    """Counters accumulated over one run."""

    # Headline metrics.
    retired: int = 0
    cycles: float = 0.0

    # Instruction mix (indexed by OpClass value).
    class_counts: list[int] = field(default_factory=lambda: [0] * len(OpClass))

    # Branches.
    branches: int = 0          # conditional branches retired
    taken: int = 0
    mispredicts: int = 0

    # Memory.
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0

    # Detail section (populated only with collect_detail=True).
    opcode_counts: list[int] = field(default_factory=lambda: [0] * 80)
    dep_distance_hist: list[int] = field(
        default_factory=lambda: [0] * (len(DEP_BUCKETS) + 1)
    )
    stride_hist: list[int] = field(
        default_factory=lambda: [0] * (len(STRIDE_BUCKETS) + 1)
    )
    block_sizes: list[int] = field(default_factory=list)
    branch_bias: dict[int, list[int]] = field(default_factory=dict)  # pc -> [taken, total]
    touched_lines: set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 when nothing ran)."""
        return self.retired / self.cycles if self.cycles > 0 else 0.0

    @property
    def branch_accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        if self.branches == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.branches

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per thousand instructions."""
        if self.retired == 0:
            return 0.0
        return 1000.0 * self.mispredicts / self.retired

    @property
    def taken_rate(self) -> float:
        """Fraction of conditional branches that were taken."""
        return self.taken / self.branches if self.branches else 0.0

    @property
    def l1_hit_rate(self) -> float:
        accesses = self.loads + self.stores
        return self.l1_hits / accesses if accesses else 1.0

    @property
    def working_set_bytes(self) -> int:
        """Touched-line working set (detail mode only), in bytes."""
        return len(self.touched_lines) * 64

    def mix_fractions(self) -> dict[str, float]:
        """Instruction mix as fractions of retired instructions, by class name."""
        total = max(self.retired, 1)
        return {cls.name.lower(): self.class_counts[cls] / total for cls in OpClass}

    def biased_branch_fraction(self, threshold: float = 0.9) -> float:
        """Fraction of static branches whose taken-rate bias exceeds
        ``threshold`` in either direction (detail mode only)."""
        if not self.branch_bias:
            return 0.0
        biased = 0
        for taken, total in self.branch_bias.values():
            rate = taken / total
            if rate >= threshold or rate <= 1.0 - threshold:
                biased += 1
        return biased / len(self.branch_bias)

    def summary(self) -> dict[str, float]:
        """Compact headline-metric dict (used by reports and examples)."""
        return {
            "retired": float(self.retired),
            "cycles": self.cycles,
            "ipc": self.ipc,
            "branch_accuracy": self.branch_accuracy,
            "branch_mpki": self.branch_mpki,
            "taken_rate": self.taken_rate,
            "l1_hit_rate": self.l1_hit_rate,
        }
