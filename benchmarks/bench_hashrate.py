"""Hash-rate harness for the execution-tier ladder and the mining engine.

Measures end-to-end HashCore hashes/second on every execution tier
(``jit`` / ``fast`` / ``timed``), in the two regimes that matter:

* **cached widget** — repeated hashing of one header (the verifier /
  re-validation / multi-check regime; the widget LRU makes generation and
  compilation one-time costs, so this is "hash/s on the default widget"),
* **fresh widget** — a new nonce per hash (the mining regime; every
  attempt pays generation + compilation too, which is mode-independent
  and therefore dilutes the speedup).

A microbench section completes the picture:

* **translation cost** — time-to-first-hash per tier on a *fresh* widget:
  threaded-handler build (``fast``), the JIT's cold first-run compile
  (loop regions only), its second-run tier-up (segments added), and a
  JIT recompile with a warm shape-template cache (constant rebind only).

The widget LRU is sized to the benchmark's working set (one cached header
plus every fresh nonce) so the harness measures the tiers, not its own
cache thrashing; hit rates are recorded in the output.

It also measures the persistent :class:`~repro.blockchain.mining_engine.
MiningEngine` on a multi-header, fresh-widget-per-nonce search (the
regime the engine exists for: the pool and per-worker PoW objects are
built once, not once per header), and records the widget/program cache
counters from ``HashCore.cache_stats()``.

A SHA-256d rate is included purely for scale — it is the reminder of how
far *any* simulated PoW sits from a native one.

Run from the repository root (writes ``BENCH_hashrate.json`` there)::

    PYTHONPATH=src python benchmarks/bench_hashrate.py

Not a pytest module: experiment benches under ``benchmarks/test_*`` go
through pytest-benchmark; this is a standalone artifact generator whose
JSON output the ARCHITECTURE.md speedup claim, the regression gate
(``benchmarks/check_regression.py``) and the PR record cite.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import time

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import BlockHeader
from repro.blockchain.mining_engine import MiningEngine
from repro.core.hashcore import HashCore
from repro.core.pow import target_to_compact
from repro.errors import PowError
from repro.machine.config import PRESETS, preset
from repro.machine.jit import clear_template_cache, template_cache_stats
from repro.widgetgen.params import GeneratorParams

#: Tiers measured, fastest first (``repro.machine.cpu.EXECUTION_MODES``
#: reversed).
_MODES = ("jit", "fast", "timed")

#: Nonce budget per header in the engine measurement.  Deliberately small:
#: the engine exists for the frequent-header-refresh regime (re-timestamped
#: templates, low-difficulty chains), where a miner that rebuilt its pool
#: per header would spend most of its time on setup.
_ATTEMPTS_PER_HEADER = 8


def _params(instructions: int) -> GeneratorParams:
    return GeneratorParams(
        target_instructions=instructions,
        snapshot_interval=max(1, instructions // 120),
    )


class _BenchFactory:
    """Picklable PoW factory for the engine's worker processes."""

    def __init__(self, machine_name: str, instructions: int) -> None:
        self.machine_name = machine_name
        self.instructions = instructions

    def __call__(self) -> HashCore:
        return HashCore(
            machine=preset(self.machine_name),
            params=_params(self.instructions),
            mode="auto",
        )


def _best_rate(fn, hashes: int, repeats: int) -> float:
    """Best-of-``repeats`` hashes/second for ``fn(i)`` over ``hashes`` calls."""
    best = 0.0
    for rep in range(repeats):
        start = time.perf_counter()
        for i in range(hashes):
            fn(rep * hashes + i)
        best = max(best, hashes / (time.perf_counter() - start))
    return best


def _mine_headers(mine_one, headers: list[BlockHeader]) -> float:
    """Wall seconds for exhausting every header's nonce budget."""
    start = time.perf_counter()
    for header in headers:
        try:
            mine_one(header)
        except PowError:
            pass  # expected: the target is unreachable, budgets exhaust
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("impossible target was met; bench is invalid")
    return time.perf_counter() - start


def measure_engine(machine_name: str, instructions: int, workers: int,
                   headers: int, repeats: int = 2) -> dict:
    """MiningEngine hash/s on a fresh-widget, multi-header search.

    Every header's nonce budget is exhausted against an unreachable
    target, so each pass computes exactly ``headers *
    _ATTEMPTS_PER_HEADER`` hashes.  Each pass builds a fresh engine, so
    pool spawn and per-worker PoW construction are paid once per pass;
    the best of ``repeats`` passes is kept, the same best-of discipline
    as the tier rates.
    """
    factory = _BenchFactory(machine_name, instructions)
    bits = target_to_compact(1 << 32)  # ~2^-224 per hash: never met
    hdrs = [
        BlockHeader(
            version=1,
            prev_hash=bytes(32),
            merkle_root=i.to_bytes(32, "little"),
            timestamp=1_700_000_000 + i,
            bits=bits,
            nonce=0,
        )
        for i in range(headers)
    ]
    chunk = max(1, _ATTEMPTS_PER_HEADER // workers)
    best_seconds = float("inf")
    hashes = headers * _ATTEMPTS_PER_HEADER
    report = None
    for _ in range(repeats):
        engine = MiningEngine(factory, workers=workers, min_chunk=1,
                              initial_chunk=chunk)
        try:
            seconds = _mine_headers(
                lambda h: engine.mine_header(
                    h, max_attempts=_ATTEMPTS_PER_HEADER
                ),
                hdrs,
            )
            if seconds < best_seconds:
                best_seconds = seconds
                report = engine.report()
        finally:
            engine.close()
    return {
        "workers": workers,
        "headers": headers,
        "attempts_per_header": _ATTEMPTS_PER_HEADER,
        "repeats": repeats,
        "initial_chunk": chunk,
        "hash_s": round(hashes / best_seconds, 2),
        "adaptive_chunk": report.chunk,
        "batches": report.batches,
        # Where the workers' attempts actually executed, per machine tier
        # (all on the fastest available tier on a healthy run).
        "tier_runs": report.tier_runs,
    }


def measure_translation(machine_name: str, instructions: int,
                        repeats: int = 5) -> dict:
    """Time-to-first-hash translation cost per tier, on *fresh* widgets.

    This is the latency a miner pays before the first nonce of a new
    widget can execute: building threaded handlers (``fast``), compiling
    the JIT's first-run artifact (``jit``, cold: loop regions only), and
    recompiling a program whose IR *shape* is already in the
    process-wide template cache (constant rebind only — the cost the
    shape-template cache reduces a cold compile to).  ``jit_tierup_ms``
    is what a widget's second run adds: compiling and binding its
    straight-line segments.  Medians over ``repeats`` distinct widgets.
    """
    core = HashCore(machine=preset(machine_name),
                    params=_params(instructions), widget_cache_size=0)
    fast_ms: list[float] = []
    jit_cold_ms: list[float] = []
    jit_tierup_ms: list[float] = []
    jit_rebind_ms: list[float] = []
    # clear_template_cache() zeroes the process-wide counters at the top
    # of every rep, so template_cache_stats() taken once at the end would
    # describe only the *last* rep (hits=1, misses=1) — accumulate each
    # rep's counters instead so the JSON reflects the whole measured run.
    cache_totals = {"hits": 0, "misses": 0, "evictions": 0}
    for rep in range(repeats):
        widget = core.widget_for(core.seed_of(b"bench-translation-%d" % rep))
        program = widget.program
        clear_template_cache()
        start = time.perf_counter()
        program.fast_handlers()
        fast_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        program.jit_code()
        jit_cold_ms.append((time.perf_counter() - start) * 1e3)
        widget.execute(core.machine, mode="jit")  # the run that tiers up
        start = time.perf_counter()
        program.jit_code()
        jit_tierup_ms.append((time.perf_counter() - start) * 1e3)
        # Same program, shape now cached: codegen + exec are skipped and
        # only the constant slots are rebound.
        program.invalidate_code()
        start = time.perf_counter()
        program.jit_code()
        jit_rebind_ms.append((time.perf_counter() - start) * 1e3)
        rep_stats = template_cache_stats()
        for key in cache_totals:
            cache_totals[key] += rep_stats[key]
    cold = statistics.median(jit_cold_ms)
    rebind = statistics.median(jit_rebind_ms)
    lookups = cache_totals["hits"] + cache_totals["misses"]
    final = template_cache_stats()
    return {
        "repeats": repeats,
        "fast_build_ms": round(statistics.median(fast_ms), 3),
        "jit_compile_ms": round(cold, 3),
        "jit_tierup_ms": round(statistics.median(jit_tierup_ms), 3),
        "jit_template_rebind_ms": round(rebind, 3),
        "jit_template_speedup": round(cold / rebind, 1) if rebind else None,
        "template_cache": {
            "capacity": final["capacity"],
            "size": final["size"],
            "hits": cache_totals["hits"],
            "misses": cache_totals["misses"],
            "evictions": cache_totals["evictions"],
            "hit_rate": round(cache_totals["hits"] / lookups, 4)
            if lookups else 0.0,
        },
    }


def measure(machine_name: str, instructions: int, hashes: int,
            repeats: int, workers: int, headers: int) -> dict:
    """Run every measurement and return the result document."""
    # The engine measurement forks worker processes, so it runs first —
    # before the in-process cores below bloat the parent heap with
    # simulated memories (forked children would repay them in
    # copy-on-write page faults).
    engine = measure_engine(machine_name, instructions, workers, headers,
                            repeats=3)
    translation = measure_translation(machine_name, instructions)
    header = b"bench-header"
    # Size the widget LRU to the working set — the cached header plus
    # every fresh nonce a core will see — so the harness measures the
    # execution tiers, not its own cache thrashing (the default capacity
    # of 16 thrashed here: every fresh-regime pass evicted the cached
    # widget and re-missed its own nonces).
    working_set = 1 + hashes * repeats
    cache_size = max(HashCore.DEFAULT_WIDGET_CACHE_SIZE, working_set)
    cores = {
        mode: HashCore(machine=preset(machine_name),
                       params=_params(instructions), mode=mode,
                       widget_cache_size=cache_size)
        for mode in _MODES
    }
    # Warm every widget cache and record the widget's true dynamic size.
    retired = (
        cores["fast"].hash_with_trace(header, mode="fast")
        .result.counters.retired
    )
    for mode in _MODES:  # twice: the JIT tiers up on a widget's 2nd run
        cores[mode].hash(header)
        cores[mode].hash(header)

    cached = {
        mode: _best_rate(lambda i, c=core: c.hash(header), hashes, repeats)
        for mode, core in cores.items()
    }
    fresh = {
        mode: _best_rate(
            lambda i, c=core: c.hash(b"bench-nonce-%d" % i), hashes, repeats
        )
        for mode, core in cores.items()
    }
    sha_rate = _best_rate(
        lambda i, s=Sha256d(): s.hash(header + i.to_bytes(8, "little")),
        50_000, repeats,
    )
    return {
        "benchmark": "hashrate",
        "machine": machine_name,
        "target_instructions": instructions,
        "widget_retired": retired,
        "hashes_per_repeat": hashes,
        "repeats": repeats,
        "widget_cache_size": cache_size,
        "cached_widget": {
            "jit_hash_s": round(cached["jit"], 2),
            "fast_hash_s": round(cached["fast"], 2),
            "timed_hash_s": round(cached["timed"], 2),
            "jit_vs_fast": round(cached["jit"] / cached["fast"], 2),
            "speedup": round(cached["jit"] / cached["timed"], 2),
        },
        "fresh_widget": {
            "jit_hash_s": round(fresh["jit"], 2),
            "fast_hash_s": round(fresh["fast"], 2),
            "timed_hash_s": round(fresh["timed"], 2),
            "jit_vs_fast": round(fresh["jit"] / fresh["fast"], 2),
            "speedup": round(fresh["jit"] / fresh["timed"], 2),
        },
        "translation_cost": translation,
        # Widget-LRU + per-program code-cache counters after the cached and
        # fresh runs above (the jit core; every core shares the same shape).
        "cache_stats": cores["jit"].cache_stats(),
        "engine": engine,
        "sha256d_hash_s": round(sha_rate),
        # The headline number: fastest tier vs timed-path hash/s on the
        # default (cached) widget.
        "speedup": round(cached["jit"] / cached["timed"], 2),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; writes the JSON artifact and prints a summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--machine", choices=sorted(PRESETS),
                        default="ivy-bridge")
    parser.add_argument("--instructions", type=int, default=60_000,
                        help="target dynamic instructions per widget")
    parser.add_argument("--hashes", type=int, default=4,
                        help="hashes per timing repeat")
    parser.add_argument("--repeats", type=int, default=4,
                        help="timing repeats (best-of)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the engine measurement")
    parser.add_argument("--headers", type=int, default=10,
                        help="headers mined in the engine measurement")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path("BENCH_hashrate.json"))
    args = parser.parse_args(argv)

    doc = measure(args.machine, args.instructions, args.hashes, args.repeats,
                  args.workers, args.headers)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
