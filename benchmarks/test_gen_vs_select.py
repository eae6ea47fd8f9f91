"""E9 — §VI-A: widget generation vs widget selection.

The paper's trade-off discussion: runtime *generation* costs CPU per hash
but needs no storage; *selection* from a pre-built pool is nearly free per
hash but the pool "could consist of several gigabytes worth of code" and
risks per-widget ASICs.  This bench measures all three axes on real
widgets: storage per widget, generation+compile time, and the execution
share of a full hash evaluation.  Both hashes are timed through
``hash_with_trace``, so both run on the timed tier.
"""

from __future__ import annotations

import time

from repro.analysis.report import render_table
from repro.core.hashcore import HashCore

from benchmarks.conftest import bench_seed, save_result


def test_generation_vs_selection_tradeoff(benchmark, generator, machine, profile, params):
    from repro.core.rotation import SelectionHashCore
    from repro.widgetgen.pool import WidgetPool

    # --- storage axis: a real pool's encoded size -------------------------
    pool = WidgetPool(profile, params, pool_size=12)
    mean_code = pool.storage_bytes() / len(pool)
    pool_bytes_like_spec = mean_code * 430_000  # ~SPEC CPU 2017 line count

    # --- time axes: generation+compile vs pool-selection hashing, both
    # on the timed tier (hash_with_trace's default) ----------------------
    t0 = time.perf_counter()
    for i in range(8):
        generator.widget(bench_seed(f"time-{i}"))
    gen_time = (time.perf_counter() - t0) / 8

    hashcore = HashCore(profile=profile, params=params)
    t0 = time.perf_counter()
    trace = hashcore.hash_with_trace(b"gen-vs-select")
    total_time = time.perf_counter() - t0

    selector = SelectionHashCore(pool, machine=machine)
    t0 = time.perf_counter()
    selector.hash_with_trace(b"gen-vs-select")
    select_total = time.perf_counter() - t0
    exec_time = select_total  # selection skips generation entirely

    rows = [
        ["storage per widget (bytes)", "0 (generated on demand)", f"{mean_code:.0f}"],
        ["pool for SPEC-sized corpus", "n/a", f"{pool_bytes_like_spec/1e6:.0f} MB"],
        ["generation+compile per hash", f"{gen_time*1e3:.1f} ms", "~0 (lookup)"],
        ["total per hash (measured)", f"{total_time*1e3:.1f} ms", f"{select_total*1e3:.1f} ms"],
        [
            "execution share of total",
            f"{100*(total_time-gen_time)/total_time:.0f}%",
            "~100% (paper: selection gives greater GPP utilization)",
        ],
        ["per-widget ASIC risk", "none (fresh code each hash)", "pool subset targetable"],
    ]
    table = render_table(
        ["axis", "generation (HashCore)", "selection (SelectionHashCore)"],
        rows,
        title="Generation vs selection (paper §VI-A) — both modes "
        "implemented, both hashes on the timed tier",
    )
    save_result("gen_vs_select", table)

    # The paper's qualitative claims, quantified:
    assert gen_time < exec_time            # execution dominates even when generating
    assert pool_bytes_like_spec > 1e8      # a SPEC-scale pool is ~hundreds of MB
    assert trace.result.output             # the generated-mode hash really ran
    assert selector.verify(b"gen-vs-select", selector.hash(b"gen-vs-select"))

    benchmark.pedantic(
        lambda: generator.widget(bench_seed("bench-gen")), rounds=5, iterations=1
    )
