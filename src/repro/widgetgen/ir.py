"""Widget intermediate representation.

A widget is an outer loop over a sequence of *blocks*.  Each block has:

* ``pre`` tokens that always execute (PRNG advances, pointer bumps),
* an optional :class:`GuardSpec` — a seed-data-dependent conditional branch
  that decides whether the block body runs this iteration,
* ``body`` tokens (the profiled instruction mix).

Consecutive blocks may be wrapped in an inner counted loop
(:class:`LoopSpec`).  Tokens are concrete — the generator performs register
allocation — except that memory operands name symbolic *regions* resolved
by the code generator against the widget's :class:`~repro.widgetgen.memstream.MemoryPlan`.

Token grammar (tuples, first element is the kind):

=============== ====================================================
``("ins", op, a, b, c, imm)``  one concrete ALU/FP/vector instruction
``("load", region, dst, off)`` integer load from ``region`` pointer
``("dload", region, dst, src)`` integer load at data-dependent address
``("fload", region, dst, off)`` FP load
``("store", region, src, off)`` integer store
``("fstore", region, src, off)`` FP store
``("vload", region, vreg, off)`` vector load
``("vstore", region, vreg, off)`` vector store
``("chase",)``                 pointer-chasing load ``r5 = mem[r5]``
``("bump", region, stride)``   advance a region pointer (add + mask)
``("prng",)``                  xorshift64 advance of the widget PRNG
=============== ====================================================

``region`` is ``"hot"`` or ``"cold"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.isa.opcodes import OpClass, opcode_class
from repro.widgetgen.memstream import MemoryPlan

Token = tuple

#: Every op class, in enum order: class dicts are built from this tuple,
#: which is cheaper to iterate than the enum itself.
_OP_CLASSES = tuple(OpClass)

#: Op-class contribution of each token kind (class -> count); an ``"ins"``
#: token is one instruction of its opcode's class.
_TOKEN_CLASSES = {
    "load": {OpClass.LOAD: 1},
    "dload": {OpClass.INT_ALU: 1, OpClass.LOAD: 1},  # address mask + load
    "fload": {OpClass.LOAD: 1},
    "store": {OpClass.STORE: 1},
    "fstore": {OpClass.STORE: 1},
    "vload": {OpClass.VECTOR: 1},
    "vstore": {OpClass.VECTOR: 1},
    "chase": {OpClass.LOAD: 1},
    "bump": {OpClass.INT_ALU: 2},  # add + and
    "prng": {OpClass.INT_ALU: 6},  # three shift+xor pairs
}

#: Dynamic instruction cost of each token kind (instructions retired).
_TOKEN_COST = {"ins": 1} | {
    kind: sum(counts.values()) for kind, counts in _TOKEN_CLASSES.items()
}


def token_cost(token: Token) -> int:
    """Dynamic instructions contributed by one token."""
    try:
        return _TOKEN_COST[token[0]]
    except KeyError:
        raise GenerationError(f"unknown token kind {token[0]!r}") from None


def token_classes(token: Token) -> dict[OpClass, int]:
    """Op-class counts contributed by one token."""
    kind = token[0]
    if kind == "ins":
        return {opcode_class(token[1]): 1}
    try:
        return _TOKEN_CLASSES[kind]
    except KeyError:
        raise GenerationError(f"unknown token kind {kind!r}") from None


@dataclass(frozen=True, slots=True)
class GuardSpec:
    """A seed-data-dependent conditional guard.

    The guard tests the full 64-bit value ``prng XOR r[mix_reg]`` against a
    preloaded 64-bit threshold register; the block body executes with
    probability ``exec_p``.  ``threshold`` names the register (``"hi"`` or
    ``"mid"``) and ``invert`` selects the comparison direction:

    * ``("hi", False)``: execute when test <  hi  → exec_p ≈ hi threshold
    * ``("hi", True)``:  execute when test >= hi  → exec_p ≈ 1 - that
    * ``("mid", ...)``:  the ~50/50 variants.

    The tested value is ``prng XOR r[mix_reg]``: XOR with the uniform PRNG
    keeps the test bits uniform whatever the data register holds, while
    making the branch *resolve late* (it waits on the dataflow feeding
    ``mix_reg``), matching how real workloads' branches depend on loaded
    data.

    The *branch* emitted by the code generator is the inverse (it skips the
    body), so its taken-probability is ``1 - exec_p``.
    """

    exec_p: float
    threshold: str
    invert: bool
    mix_reg: int = 6

    def __post_init__(self) -> None:
        if not 0.0 < self.exec_p < 1.0:
            raise GenerationError(f"guard exec_p {self.exec_p} out of (0, 1)")
        if self.threshold not in ("hi", "mid"):
            raise GenerationError(f"unknown threshold {self.threshold!r}")


@dataclass(slots=True)
class BlockSpec:
    """One widget basic block."""

    pre: list[Token] = field(default_factory=list)
    guard: GuardSpec | None = None
    body: list[Token] = field(default_factory=list)

    def expected_cost(self) -> float:
        """Expected dynamic instructions per execution of this block."""
        cost = float(sum(token_cost(t) for t in self.pre))
        if self.guard is not None:
            cost += 2.0  # mix xor + branch
            cost += self.guard.exec_p * sum(token_cost(t) for t in self.body)
        else:
            cost += sum(token_cost(t) for t in self.body)
        return cost

    def expected_classes(self) -> dict[OpClass, float]:
        """Expected per-execution op-class counts."""
        out: dict[OpClass, float] = dict.fromkeys(_OP_CLASSES, 0.0)
        for token in self.pre:
            for cls, count in token_classes(token).items():
                out[cls] += count
        scale = 1.0
        if self.guard is not None:
            out[OpClass.INT_ALU] += 1.0  # test mix xor
            out[OpClass.BRANCH] += 1.0
            scale = self.guard.exec_p
        for token in self.body:
            for cls, count in token_classes(token).items():
                out[cls] += scale * count
        return out


@dataclass(frozen=True, slots=True)
class LoopSpec:
    """Inner counted loop over blocks ``start..end`` (inclusive)."""

    start: int
    end: int
    trips: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise GenerationError(f"empty loop range [{self.start}, {self.end}]")
        if self.trips < 1:
            raise GenerationError(f"loop trips must be >= 1, got {self.trips}")


@dataclass(slots=True)
class WidgetSpec:
    """Complete widget description, ready for code generation."""

    name: str
    seed_hex: str
    blocks: list[BlockSpec]
    loops: list[LoopSpec]
    outer_trips: int
    plan: MemoryPlan
    snapshot_interval: int
    #: Generator bookkeeping: targets and expectations (consumed by tests
    #: and the mix-noise experiment, E5).
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check structural invariants (loop ranges sorted and disjoint)."""
        if not self.blocks:
            raise GenerationError("widget has no blocks")
        if self.outer_trips < 1:
            raise GenerationError("outer_trips must be >= 1")
        last_end = -1
        for loop in sorted(self.loops, key=lambda l: l.start):
            if loop.start <= last_end:
                raise GenerationError("inner loops overlap")
            if loop.end >= len(self.blocks):
                raise GenerationError("loop range exceeds block count")
            last_end = loop.end

    # ------------------------------------------------------------------
    def block_repetitions(self) -> list[int]:
        """Executions of each block per outer iteration."""
        reps = [1] * len(self.blocks)
        for loop in self.loops:
            for index in range(loop.start, loop.end + 1):
                reps[index] = loop.trips
        return reps

    def expected_iteration_cost(self) -> float:
        """Expected dynamic instructions per outer-loop iteration."""
        reps = self.block_repetitions()
        cost = 0.0
        for index, block in enumerate(self.blocks):
            cost += reps[index] * block.expected_cost()
        for loop in self.loops:
            cost += loop.trips  # LOOPNZ executions
            cost += 1  # loop-counter MOVI
        cost += 1  # outer LOOPNZ
        return cost

    def expected_instructions(self) -> float:
        """Expected total dynamic instructions for the whole widget."""
        return self.outer_trips * self.expected_iteration_cost()

    def expected_class_counts(self) -> dict[OpClass, float]:
        """Expected dynamic op-class counts per outer-loop iteration."""
        reps = self.block_repetitions()
        totals: dict[OpClass, float] = dict.fromkeys(_OP_CLASSES, 0.0)
        for index, block in enumerate(self.blocks):
            for cls, count in block.expected_classes().items():
                totals[cls] += reps[index] * count
        for loop in self.loops:
            totals[OpClass.BRANCH] += loop.trips
            totals[OpClass.INT_ALU] += 1
        totals[OpClass.BRANCH] += 1
        return totals

    def expected_class_mix(self) -> dict[OpClass, float]:
        """Expected dynamic op-class fractions for the whole widget."""
        totals = self.expected_class_counts()
        grand = sum(totals.values()) or 1.0
        return {cls: value / grand for cls, value in totals.items()}
