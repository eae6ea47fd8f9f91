"""Widget generation: profile + hash seed → :class:`WidgetSpec`.

This is the paper's modified PerfProx (§IV-B).  The hash seed enters in
exactly the Table I places:

* fields 0-4 add **positive** noise (up to ``params.noise_fraction``) to the
  integer-ALU, integer-multiply, FP, load, and store targets — which is why
  widget branch *fractions* come out slightly below the profiled workload's
  (§V-B, reproduced by experiment E5);
* field 5 jitters branch behaviour (taken-rate target and the "mid" guard
  threshold);
* field 6 seeds the structure PRNG (block count/sizes, guard placement,
  loops, opcode selection, dependency shapes, widget size jitter) — the
  paper's Basic Block Vector seed;
* field 7 seeds the memory PRNG (region sizes and contents, stream mix,
  strides, offsets).

The output is a pure function of ``(profile, seed, params)``; any two
parties derive the identical widget, which is what makes HashCore hashes
verifiable.
"""

from __future__ import annotations

from repro.core.seed import HashSeed, SeedField
from repro.isa.opcodes import OpClass, Opcode
from repro.machine.perf_counters import DEP_BUCKETS
from repro.profiling.profile import PerformanceProfile
from repro.rng import Xoshiro256
from repro.widgetgen import regs
from repro.widgetgen.ir import BlockSpec, GuardSpec, LoopSpec, WidgetSpec
from repro.widgetgen.memstream import plan_memory
from repro.widgetgen.params import GeneratorParams

# Opcode selection weights within each class, loosely following the opcode
# frequencies of compiled integer/FP code (divide is rare, add/xor common).
# Each table is split into parallel (items, weights) tuples for
# ``Xoshiro256.sample_weighted``.
_INT_ALU_OPS, _INT_ALU_WEIGHTS = zip(
    (Opcode.ADD, 20), (Opcode.SUB, 10), (Opcode.AND, 8), (Opcode.OR, 5),
    (Opcode.XOR, 14), (Opcode.SHL, 4), (Opcode.SHR, 4), (Opcode.ADDI, 12),
    (Opcode.ANDI, 6), (Opcode.ORI, 2), (Opcode.XORI, 4), (Opcode.SHLI, 4),
    (Opcode.SHRI, 4), (Opcode.MOV, 3), (Opcode.NOT, 2), (Opcode.CMPLT, 4),
    (Opcode.CMPEQ, 3), (Opcode.MIN, 2), (Opcode.MAX, 2),
)
# The multiply- and FP-class weights are built per profile (divide share
# matters to dependency-chain latency); see ``tables`` in
# :func:`generate_spec`.  The FP draw zeroes FDIV's own slot and appends it
# with the profiled weight.
_INT_MUL_OPS = (Opcode.MUL, Opcode.MULHI, Opcode.DIV, Opcode.MOD)
_FP_OPS, _FP_WEIGHTS = zip(
    (Opcode.FADD, 28), (Opcode.FMUL, 28), (Opcode.FSUB, 14), (Opcode.FMA, 12),
    (Opcode.FDIV, 5), (Opcode.FMIN, 3), (Opcode.FMAX, 3), (Opcode.CVTIF, 4),
    (Opcode.CVTFI, 3),
)
_FP_DRAW_OPS = _FP_OPS + (Opcode.FDIV,)
# Vector class: concrete ALU opcodes plus the memory-token kinds.
_VEC_OPS, _VEC_WEIGHTS = zip(
    (Opcode.VADD, 25), (Opcode.VMUL, 25), (Opcode.VFMA, 30),
    (Opcode.VBROADCAST, 5), (Opcode.VREDUCE, 4), ("vload", 6), ("vstore", 5),
)

#: Body-fillable classes, in sampling order.
_BODY_CLASSES = (
    OpClass.INT_ALU,
    OpClass.INT_MUL,
    OpClass.FP_ALU,
    OpClass.LOAD,
    OpClass.STORE,
    OpClass.VECTOR,
)

#: Classes whose targets receive positive seed noise (Table I fields 0-4).
_NOISED = {
    OpClass.INT_ALU: SeedField.INT_ALU,
    OpClass.INT_MUL: SeedField.INT_MUL,
    OpClass.FP_ALU: SeedField.FP_ALU,
    OpClass.LOAD: SeedField.LOADS,
    OpClass.STORE: SeedField.STORES,
}

# Representative stride per stride-histogram bucket (bucket bounds are
# 0, 1, 2, 8, 64, 512, +overflow).
_STRIDE_VALUES = (0, 1, 2, 5, 24, 192, 1024)


class _DepTracker:
    """Chooses source registers so dependency distances follow the profile."""

    def __init__(self, rng: Xoshiro256, dep_hist: list[float], pool: tuple[int, ...]):
        self._rng = rng
        self._pool = pool
        # Weights over DEP_BUCKETS (+overflow); uniform when all zero.
        self._hist = dep_hist if sum(dep_hist) > 0 else [1.0] * len(dep_hist)
        self._recent: list[int] = []

    def source(self) -> int:
        """A source register at a profile-shaped dependency distance."""
        if not self._recent:
            return self._pool[self._rng.next_u64() % len(self._pool)]
        bucket = self._rng.sample_weighted(self._hist)
        distance = DEP_BUCKETS[bucket] if bucket < len(DEP_BUCKETS) else 2 * DEP_BUCKETS[-1]
        index = min(distance, len(self._recent))
        return self._recent[-index]

    def wrote(self, reg: int) -> None:
        self._recent.append(reg)
        if len(self._recent) > 128:
            del self._recent[:64]

    def last(self) -> int | None:
        """The most recently written register (chain continuation target)."""
        return self._recent[-1] if self._recent else None


def generate_spec(
    profile: PerformanceProfile,
    seed: HashSeed,
    params: GeneratorParams | None = None,
    name: str | None = None,
) -> WidgetSpec:
    """Generate the widget spec for ``seed`` against ``profile``."""
    params = params or GeneratorParams()
    profile.validate()
    bbv_rng = Xoshiro256(seed.field(SeedField.BBV_SEED))
    mem_rng = Xoshiro256(seed.field(SeedField.MEMORY_SEED))

    # ------------------------------------------------------------------
    # 1. Noisy class weights (Table I fields 0-4: positive noise only).
    # ------------------------------------------------------------------
    weights: dict[OpClass, float] = {}
    for cls in OpClass:
        base = profile.mix_fraction(cls)
        field = _NOISED.get(cls)
        if field is not None:
            base *= 1.0 + params.noise_fraction * seed.fraction(field)
        weights[cls] = base
    weights[OpClass.SYSTEM] = 0.0
    total_weight = sum(weights.values()) or 1.0
    target_mix = {cls: w / total_weight for cls, w in weights.items()}

    # ------------------------------------------------------------------
    # 2. Memory plan (Table I field 7).
    # ------------------------------------------------------------------
    plan = plan_memory(
        profile,
        mem_rng,
        duration_scale=params.target_instructions / profile.dynamic_instructions,
    )

    # ------------------------------------------------------------------
    # 3. Structure: blocks, guards, inner loops (Table I field 6).
    # ------------------------------------------------------------------
    n_blocks = max(4, params.mean_blocks + bbv_rng.randint(-2, 2))
    guarded = [False] + [
        bbv_rng.random() < params.guard_fraction for _ in range(n_blocks - 1)
    ]

    loops: list[LoopSpec] = []
    n_loops = bbv_rng.randint(1, params.max_inner_loops)
    cursor = 1
    for _ in range(n_loops):
        if cursor >= n_blocks - 2:
            break
        start = cursor + bbv_rng.randint(0, min(2, n_blocks - 3 - cursor))
        end = min(n_blocks - 1, start + bbv_rng.randint(1, 2))
        trips = bbv_rng.randint(*params.inner_trips)
        loops.append(LoopSpec(start=start, end=end, trips=trips))
        cursor = end + 2

    spec = WidgetSpec(
        name=name or f"widget-{seed.hex[:12]}",
        seed_hex=seed.hex,
        blocks=[BlockSpec() for _ in range(n_blocks)],
        loops=loops,
        outer_trips=1,
        plan=plan,
        snapshot_interval=params.snapshot_interval,
    )
    blocks = spec.blocks
    reps = spec.block_repetitions()

    # ------------------------------------------------------------------
    # 4. Guard calibration (Table I field 5).
    #
    # Guards come in three flavours: "hi" (rarely taken, ~6.6%), "lo"
    # (mostly taken, ~93.4%) and "mid" (~50/50, unpredictable).  Their
    # dynamic weights are solved so the widget's expected branch taken-rate
    # and prediction accuracy both land on the (seed-jittered) profile
    # values.  The predictor model: an iid Bernoulli(p) branch mispredicts
    # at ≈ 1.15·min(p, 1-p) under 2-bit counters; a counted loop of t trips
    # mispredicts ≈ 1.2 times per full execution.
    # ------------------------------------------------------------------
    branch_jitter = (seed.fraction(SeedField.BRANCH_BEHAVIOR) - 0.5) * 0.06
    target_taken = min(0.95, max(0.05, profile.branch_taken_rate + branch_jitter))
    target_accuracy = min(
        0.995, max(0.5, profile.branch_accuracy - branch_jitter * 0.5)
    )
    mid_threshold = regs.THRESHOLD_MID_BASE + int(
        (seed.fraction(SeedField.BRANCH_BEHAVIOR) - 0.5)
        * 2
        * regs.THRESHOLD_MID_SPAN
    )
    exec_hi = regs.THRESHOLD_HI / 256.0      # thresholds live in the top byte
    exec_mid = mid_threshold / 256.0
    mis_hi = 1.15 * (1.0 - exec_hi)
    mis_mid = 1.15 * min(exec_mid, 1.0 - exec_mid)

    guard_indices = [i for i in range(n_blocks) if guarded[i]]
    guard_weight = sum(reps[i] for i in guard_indices)
    branches_per_iter = guard_weight + sum(l.trips for l in loops) + 1
    loop_taken = sum(l.trips - 1 for l in loops) + 1.0  # inner loop-backs + outer
    loop_mis = 1.2 * len(loops)

    needed_mis = max(0.0, 0.45 * ((1.0 - target_accuracy) * branches_per_iter - loop_mis))
    needed_taken = max(0.0, target_taken * branches_per_iter - loop_taken)

    # Solve the dynamic weights of each flavour.
    mid_weight = min(guard_weight, max(0.0, (needed_mis - mis_hi * guard_weight) / max(1e-9, mis_mid - mis_hi)))
    rest = guard_weight - mid_weight
    taken_hi, taken_lo = 1.0 - exec_hi, exec_hi
    lo_weight = min(
        rest,
        max(
            0.0,
            (needed_taken - 0.5 * mid_weight - taken_hi * rest)
            / max(1e-9, taken_lo - taken_hi),
        ),
    )

    # Heaviest guards first minimises quota overshoot; the shuffled
    # tiebreak keeps equal-weight assignment seed-dependent.
    order = list(guard_indices)
    bbv_rng.shuffle(order)
    order.sort(key=lambda i: -reps[i])
    guards: dict[int, GuardSpec] = {}
    mid_left, lo_left = mid_weight, lo_weight
    for i in order:
        weight = reps[i]
        mix_reg = bbv_rng.choice(regs.INT_DATA)
        if mid_left >= 0.5 * weight:
            mid_left -= weight
            invert = bbv_rng.random() < 0.5
            guards[i] = GuardSpec(
                exec_p=1.0 - exec_mid if invert else exec_mid,
                threshold="mid",
                invert=invert,
                mix_reg=mix_reg,
            )
        elif lo_left >= 0.5 * weight:
            lo_left -= weight
            # "lo": branch mostly taken, body rarely executed.
            guards[i] = GuardSpec(
                exec_p=1.0 - exec_hi, threshold="hi", invert=True,
                mix_reg=mix_reg,
            )
        else:
            guards[i] = GuardSpec(
                exec_p=exec_hi, threshold="hi", invert=False,
                mix_reg=mix_reg,
            )

    # ------------------------------------------------------------------
    # 5. Pre tokens.
    # ------------------------------------------------------------------
    # One PRNG advance feeds ~3 guards (each reads a different shift window
    # of the state), the way real code amortises one RNG step over several
    # decisions — keeping per-branch overhead near the profiled block size.
    guard_counter = 0
    for index, block in enumerate(blocks):
        if index in guards:
            block.guard = guards[index]
            if guard_counter % 3 == 0:
                block.pre.append(("prng",))
            guard_counter += 1
        if index % 3 == 0:
            hot_stride = _STRIDE_VALUES[_sample_hist(mem_rng, profile.stride_hist)]
            if hot_stride:
                block.pre.append(("bump", "hot", hot_stride))
        if plan.p_cold > 0.0 and index % 2 == 0:
            # Odd strides make the wrap-around orbit cover the whole cold
            # region, so first-touch misses track the region size.
            cold_stride = (
                max(1, _STRIDE_VALUES[_sample_hist(mem_rng, profile.stride_hist)]) | 1
            )
            block.pre.append(("bump", "cold", cold_stride))

    # ------------------------------------------------------------------
    # 6. Body quotas and filling.
    # ------------------------------------------------------------------
    mean_body = max(2.0, profile.block_size_mean - 1.0)
    sizes = [
        max(1, round(mean_body * (0.6 + 0.8 * bbv_rng.random())))
        for _ in range(n_blocks)
    ]
    exec_p_of = [guards[i].exec_p if i in guards else 1.0 for i in range(n_blocks)]
    # With the bodies still empty, the expected class counts are exactly
    # the structure's overhead: pre tokens, guards and loop control.
    overhead = spec.expected_class_counts()

    # The structure fixes the branch count per iteration; solve the total
    # body volume so the branch *fraction* lands on target, then rescale
    # the sampled block sizes to that volume (this is how PerfProx pins the
    # proxy's basic-block granularity to the profiled workload's).
    branch_count = overhead[OpClass.BRANCH]
    branch_target = max(1e-3, target_mix[OpClass.BRANCH])
    desired_slots = max(
        float(n_blocks), branch_count / branch_target - sum(overhead.values())
    )
    weighted_slots = sum(reps[i] * exec_p_of[i] * sizes[i] for i in range(n_blocks))
    scale = desired_slots / max(weighted_slots, 1.0)
    sizes = [max(1, round(size * scale)) for size in sizes]
    weighted_slots = sum(reps[i] * exec_p_of[i] * sizes[i] for i in range(n_blocks))

    iteration_cost = weighted_slots + sum(overhead.values())
    quotas: dict[OpClass, float] = {}
    for cls in _BODY_CLASSES:
        quotas[cls] = max(0.0, target_mix[cls] * iteration_cost - overhead[cls])
    quota_total = sum(quotas.values()) or 1.0
    class_probs = [(cls, quotas[cls] / quota_total) for cls in _BODY_CLASSES]

    # Long-latency opcode shares follow the profiled workload (divide chains
    # dominate serial latency, so their share matters to IPC matching).
    div_share = min(0.9, max(0.0, profile.extras.get("div_share", 0.12)))
    fdiv_share = min(0.9, max(0.0, profile.extras.get("fdiv_share", 0.05)))
    tables = {
        # Probability that an op continues the most recent dependency chain
        # (dst = src = last written register) — follows the profiled share
        # of distance-1 dependencies, which sets the serial-latency floor of
        # the workload.  Doubling that share (capped at 0.9) calibrates for
        # chain breaks at block boundaries and guard-skipped bodies.
        "chain_p": min(0.9, 2.0 * profile.dep_distance_hist[0]),
        # Share of loads whose address derives from live dataflow rather
        # than a streaming pointer — the profile's beyond-line stride share.
        "p_dep_addr": min(0.95, 0.55 * sum(profile.stride_hist[4:])),
        # Weights over _INT_MUL_OPS and _FP_DRAW_OPS.
        "int_mul": (
            (1.0 - div_share) * 0.8 + 1e-6,
            (1.0 - div_share) * 0.2 + 1e-6,
            div_share * 0.5,
            div_share * 0.5,
        ),
        "fp": tuple(
            weight * (1.0 - fdiv_share) if op != Opcode.FDIV else 0.0
            for op, weight in zip(_FP_OPS, _FP_WEIGHTS)
        )
        + (fdiv_share * sum(_FP_WEIGHTS),),
    }

    dep_int = _DepTracker(bbv_rng, profile.dep_distance_hist, regs.INT_DATA)
    dep_fp = _DepTracker(bbv_rng, profile.dep_distance_hist, regs.FP_DATA)
    for index, block in enumerate(blocks):
        for _ in range(sizes[index]):
            block.body.append(
                _sample_token(
                    bbv_rng, mem_rng, class_probs, plan, dep_int, dep_fp, tables
                )
            )

    # ------------------------------------------------------------------
    # 7. Widget size: outer trips from the jittered instruction target.
    # ------------------------------------------------------------------
    lo, hi = params.size_jitter
    jitter = lo + (hi - lo) * bbv_rng.random()
    spec.meta = {
        "target_mix": {cls.name.lower(): target_mix[cls] for cls in OpClass},
        "target_taken_rate": target_taken,
        "mid_threshold": mid_threshold,
        "size_jitter": jitter,
        "profile": profile.name,
    }
    per_iter = spec.expected_iteration_cost()
    spec.outer_trips = max(1, round(params.target_instructions * jitter / per_iter))
    spec.meta["expected_instructions"] = spec.expected_instructions()
    spec.meta["fuse"] = int(
        params.fuse_factor * max(spec.expected_instructions(), 1000.0)
    )
    spec.validate()
    return spec


def _sample_hist(rng: Xoshiro256, hist: list[float]) -> int:
    """A bucket drawn from ``hist``; bucket 0, with no draw, when all zero."""
    if sum(hist) <= 0.0:
        return 0
    return rng.sample_weighted(hist)


def _sample_token(
    bbv_rng: Xoshiro256,
    mem_rng: Xoshiro256,
    class_probs: list[tuple[OpClass, float]],
    plan,
    dep_int: _DepTracker,
    dep_fp: _DepTracker,
    tables: dict,
):
    """Draw one body token matching the quota-derived class distribution."""
    r = bbv_rng.random()
    acc = 0.0
    cls = class_probs[-1][0]
    for candidate, prob in class_probs:
        acc += prob
        if r < acc:
            cls = candidate
            break

    if cls == OpClass.INT_ALU:
        op = _INT_ALU_OPS[bbv_rng.sample_weighted(_INT_ALU_WEIGHTS)]
        last = dep_int.last()
        if last is not None and bbv_rng.random() < tables["chain_p"]:
            dst = src1 = last  # read-modify-write: continue the chain
        else:
            dst = bbv_rng.choice(regs.INT_DATA)
            src1 = regs.PRNG if bbv_rng.random() < 0.12 else dep_int.source()
        if op in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI):
            token = ("ins", int(op), dst, src1, 0, bbv_rng.randint(1, 4095))
        elif op in (Opcode.SHLI, Opcode.SHRI):
            token = ("ins", int(op), dst, src1, 0, bbv_rng.randint(1, 13))
        elif op in (Opcode.MOV, Opcode.NOT):
            token = ("ins", int(op), dst, src1, 0, 0)
        else:
            token = ("ins", int(op), dst, src1, dep_int.source(), 0)
        dep_int.wrote(dst)
        return token

    if cls == OpClass.INT_MUL:
        op = _INT_MUL_OPS[bbv_rng.sample_weighted(tables["int_mul"])]
        last = dep_int.last()
        if last is not None and bbv_rng.random() < tables["chain_p"]:
            dst = src1 = last
        else:
            dst = bbv_rng.choice(regs.INT_DATA)
            src1 = dep_int.source()
        token = ("ins", int(op), dst, src1, dep_int.source(), 0)
        dep_int.wrote(dst)
        return token

    if cls == OpClass.FP_ALU:
        op = _FP_DRAW_OPS[bbv_rng.sample_weighted(tables["fp"])]
        if op == Opcode.CVTIF:
            dst = bbv_rng.choice(regs.FP_DATA)
            token = ("ins", int(op), dst, dep_int.source(), 0, 0)
            dep_fp.wrote(dst)
            return token
        if op == Opcode.CVTFI:
            dst = bbv_rng.choice(regs.INT_DATA)
            token = ("ins", int(op), dst, dep_fp.source(), 0, 0)
            dep_int.wrote(dst)
            return token
        last = dep_fp.last()
        if last is not None and bbv_rng.random() < tables["chain_p"]:
            dst = src1 = last
        else:
            dst = bbv_rng.choice(regs.FP_DATA)
            src1 = dep_fp.source()
        if op in (Opcode.FABS, Opcode.FNEG):
            token = ("ins", int(op), dst, src1, 0, 0)
        else:
            token = ("ins", int(op), dst, src1, dep_fp.source(), 0)
        dep_fp.wrote(dst)
        return token

    if cls == OpClass.LOAD:
        stream = mem_rng.random()
        if plan.p_ring and stream < plan.p_ring:
            return ("chase",)
        region = "cold" if stream < plan.p_ring + plan.p_cold else "hot"
        offset = mem_rng.randint(0, 7)
        if bbv_rng.random() < 0.2:
            dst = bbv_rng.choice(regs.FP_DATA)
            dep_fp.wrote(dst)
            return ("fload", region, dst, offset)
        # Irregular (large-stride) loads use *dependent addressing*: the
        # address is computed from the live dataflow, the way index/pointer
        # arithmetic feeds loads in real code.  That threads the cache
        # latency into the dependency chain, which is where most of a
        # branchy integer workload's CPI lives.
        last = dep_int.last()
        if last is not None and bbv_rng.random() < tables["p_dep_addr"]:
            addr_src = last
            dst = last if bbv_rng.random() < tables["chain_p"] else bbv_rng.choice(regs.INT_DATA)
            dep_int.wrote(dst)
            return ("dload", region, dst, addr_src)
        dst = bbv_rng.choice(regs.INT_DATA)
        dep_int.wrote(dst)
        return ("load", region, dst, offset)

    if cls == OpClass.STORE:
        region = "cold" if mem_rng.random() < plan.p_cold else "hot"
        offset = mem_rng.randint(0, 7)
        if bbv_rng.random() < 0.2:
            return ("fstore", region, dep_fp.source(), offset)
        return ("store", region, dep_int.source(), offset)

    # OpClass.VECTOR
    op = _VEC_OPS[bbv_rng.sample_weighted(_VEC_WEIGHTS)]
    if op == "vload":
        region = "cold" if mem_rng.random() < plan.p_cold else "hot"
        return ("vload", region, bbv_rng.choice(regs.VEC_DATA), mem_rng.randint(0, 4))
    if op == "vstore":
        region = "cold" if mem_rng.random() < plan.p_cold else "hot"
        return ("vstore", region, bbv_rng.choice(regs.VEC_DATA), mem_rng.randint(0, 4))
    if op == Opcode.VBROADCAST:
        return ("ins", int(op), bbv_rng.choice(regs.VEC_DATA), dep_fp.source(), 0, 0)
    if op == Opcode.VREDUCE:
        dst = bbv_rng.choice(regs.FP_DATA)
        dep_fp.wrote(dst)
        return ("ins", int(op), dst, bbv_rng.choice(regs.VEC_DATA), 0, 0)
    return (
        "ins",
        int(op),
        bbv_rng.choice(regs.VEC_DATA),
        bbv_rng.choice(regs.VEC_DATA),
        bbv_rng.choice(regs.VEC_DATA),
        0,
    )


class WidgetGenerator:
    """Convenience wrapper binding a profile and parameters.

    ``generator.widget(seed)`` returns a compiled
    :class:`~repro.core.widget.Widget` ready to execute — the full
    generate → compile pipeline of §IV-B.
    """

    def __init__(
        self,
        profile: PerformanceProfile,
        params: GeneratorParams | None = None,
    ) -> None:
        profile.validate()
        self.profile = profile
        self.params = params or GeneratorParams()

    def spec(self, seed: HashSeed) -> WidgetSpec:
        """Generate the widget spec for ``seed``."""
        return generate_spec(self.profile, seed, self.params)

    def widget(self, seed: HashSeed):
        """Generate *and compile* the widget for ``seed``."""
        from repro.core.widget import Widget
        from repro.widgetgen.codegen import compile_spec

        spec = self.spec(seed)
        program = compile_spec(spec)
        return Widget(spec=spec, program=program)
