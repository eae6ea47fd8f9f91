"""Hash-rate regression gate.

Re-measures the ``jit`` tier's hash rate on a cached widget and on fresh
widgets, and compares each against the committed ``BENCH_hashrate.json``.
Exits non-zero when either has lost more than ``--threshold`` (default
20%) of its committed rate — the cheap guard against silently pessimising
the hot path.

The cached-widget regime isolates execution speed from widget
generation/compilation.  The fresh-widget rate (a new nonce per hash:
generate, translate and execute every time — the miner's regime) is gated
beside it with the same rule, since that is where the JIT's translation
cost shows.  The tolerance is wide because these are
wall-clock rates on a shared box; catching a 2× cliff matters, chasing
±10% noise does not.

A second gate bounds the *supervision overhead*: the mining engine's
worker loop (the cancel-flag read before every slice, fault-plan hook,
poisoned-seed guard, stats channel) is timed in-process against the bare
hash loop it wraps, over the same warmed nonce range, alternating the
two repeat by repeat.  Supervision must be near-free on the happy path —
the supervised loop may not fall more than ``--supervision-threshold``
(default 10%) below the bare loop.

A third gate protects *propagation efficiency*: when a committed
``BENCH_propagation.json`` exists, the 100-node gossip scenario is
re-simulated and fails the gate if its block-relay messages-per-block
exceed the committed figure by more than ``--propagation-threshold``
(default 20%) or the run no longer converges inside the quiet window.
Unlike the wall-clock gates this one is deterministic — the chaos
simulation is seeded — so any drift is a real protocol change, not
measurement noise.

A fourth gate protects *pool-server throughput*: when a committed
``BENCH_pool.json`` exists, the small gate point (a batched-verification
blind-client swarm over loopback; see ``bench_poolserver.py``) is
re-measured (best-of-3) and fails the gate when its sustained shares/s
fall more than ``--pool-threshold`` (default 20%) below the committed
figure, or any share in the fresh run errors.

A fifth gate protects *mempool ingest throughput*: when a committed
``BENCH_store.json`` exists, the fee-market admission point (pre-signed
chained spends from many senders; see ``bench_store.py``) is re-measured
(best-of-3) and fails the gate when ingest tx/s falls more than
``--store-threshold`` (default 20%) below the committed figure.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_regression.py

Not a pytest module — it is invoked directly by the verification recipe
(see ``.claude/skills/verify/SKILL.md``) and by hand before committing a
refreshed ``BENCH_hashrate.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_hashrate import _best_rate, _params  # noqa: E402

from repro.core.hashcore import HashCore  # noqa: E402
from repro.machine.config import PRESETS, preset  # noqa: E402

def measure_cached(machine_name: str, instructions: int, hashes: int,
                   repeats: int) -> float:
    """Cached-widget ``jit`` hash/s, measured now.  (The timed path is the
    reference model, not a perf artifact, so it is deliberately not
    gated.)"""
    header = b"bench-header"
    core = HashCore(machine=preset(machine_name),
                    params=_params(instructions), mode="jit")
    # Warm: generation, translation and the widget's memory image all off
    # the clock.
    core.hash(header)
    core.hash(header)
    return _best_rate(lambda i: core.hash(header), hashes, repeats)


def measure_fresh(machine_name: str, instructions: int, hashes: int,
                  repeats: int) -> float:
    """Fresh-widget ``jit`` hash/s: a new nonce per hash, the same
    measurement as ``fresh_widget`` in ``bench_hashrate.py``."""
    core = HashCore(machine=preset(machine_name),
                    params=_params(instructions), mode="jit")
    core.hash(b"bench-header")  # warm imports and allocator, not widgets
    return _best_rate(
        lambda i: core.hash(b"bench-nonce-%d" % i), hashes, repeats
    )


def measure_supervision_overhead(
    machine_name: str, instructions: int, nonces: int, repeats: int
) -> dict[str, float]:
    """Cached-widget hash/s of the supervised worker loop vs the bare
    hash loop it wraps, in-process over one warmed nonce range.

    ``_engine_search`` is invoked directly (worker globals patched in
    place of a pool initializer) so the measurement isolates the per-hash
    supervision cost — the read of an unset shared cancel flag before
    every nonce, the fault-plan hook, the poisoned-seed guard, the stats
    channel — from process-pool transport.  The two loops alternate
    repeat by repeat, and which one goes first switches every repeat, so
    a change in host speed lands on both sides alike; each side keeps its
    best of ``repeats``.
    """
    import ctypes
    import multiprocessing

    from repro.blockchain import mining_engine
    from repro.blockchain.block import BlockHeader
    from repro.core.pow import (
        compact_to_target,
        difficulty_to_target,
        target_to_compact,
    )

    bits = target_to_compact(difficulty_to_target(2.0**40))  # never solves
    header = BlockHeader(1, bytes(32), bytes(32), 0, bits, 0)
    core = HashCore(
        machine=preset(machine_name),
        params=_params(instructions),
        mode="jit",
        widget_cache_size=max(
            HashCore.DEFAULT_WIDGET_CACHE_SIZE, 2 * nonces
        ),
    )
    for nonce in range(nonces):  # warm: every nonce's widget in the LRU
        core.hash(header.with_nonce(nonce).serialize())

    def bare(_i: int) -> None:
        for nonce in range(nonces):
            core.hash(header.with_nonce(nonce).serialize())

    search_args = (
        header.serialize(), 0, nonces, compact_to_target(bits), 0
    )

    def supervised(_i: int) -> None:
        mining_engine._engine_search(search_args)

    saved = (
        mining_engine._WORKER_POW,
        mining_engine._WORKER_CANCEL,
        mining_engine._WORKER_FAULTS,
    )
    mining_engine._WORKER_POW = core
    mining_engine._WORKER_CANCEL = multiprocessing.RawValue(
        ctypes.c_bool, False
    )
    mining_engine._WORKER_FAULTS = None
    loops = {"bare": bare, "supervised": supervised}
    best = dict.fromkeys(loops, 0.0)
    try:
        for rep in range(repeats):
            order = list(loops) if rep % 2 == 0 else list(loops)[::-1]
            for name in order:
                best[name] = max(best[name], _best_rate(loops[name], 1, 1))
    finally:
        (
            mining_engine._WORKER_POW,
            mining_engine._WORKER_CANCEL,
            mining_engine._WORKER_FAULTS,
        ) = saved
    # Each loop scans the whole range: scale ranges/s back to hash/s.
    return {name: nonces * rate for name, rate in best.items()}


def check_propagation(committed_path: pathlib.Path, threshold: float,
                      n_nodes: int = 100, relay: str = "gossip") -> bool:
    """Deterministically re-simulate the gated propagation point and
    compare against the committed artifact.  Returns False on failure."""
    from bench_propagation import run_one

    committed = json.loads(committed_path.read_text())
    row = next(
        (r for r in committed.get("rows", [])
         if r["n_nodes"] == n_nodes and r["relay"] == relay),
        None,
    )
    if row is None:
        print(f"{committed_path} has no n={n_nodes} {relay} row — "
              f"regenerate it with benchmarks/bench_propagation.py")
        return False
    fresh = run_one(n_nodes, relay, committed.get("seed", 42))
    old, new = row["messages_per_block"], fresh["messages_per_block"]
    growth = new / old - 1.0
    ok = growth <= threshold and fresh["converged"]
    print(f"propagation n={n_nodes} {relay}: committed {old:.1f} msg/blk, "
          f"fresh {new:.1f} msg/blk ({growth:+.1%}), "
          f"converged={fresh['converged']}  "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_pool(committed_path: pathlib.Path, threshold: float) -> bool:
    """Re-measure the committed pool gate point; False on regression."""
    from bench_poolserver import GATE_CLIENTS, GATE_SHARES, gate_point

    committed = json.loads(committed_path.read_text())
    gate = committed.get("gate")
    if not gate or "shares_per_s" not in gate:
        print(f"{committed_path} has no gate point — regenerate it with "
              f"benchmarks/bench_poolserver.py")
        return False
    if (gate.get("clients"), gate.get("shares")) != (
        GATE_CLIENTS, GATE_CLIENTS * GATE_SHARES
    ):
        print(f"{committed_path} gate point shape drifted from "
              f"bench_poolserver.py — regenerate it")
        return False
    try:
        fresh = gate_point()
    except RuntimeError as exc:  # degraded run: dropped/errored shares
        print(f"pool gate: fresh run degraded ({exc})  FAIL")
        return False
    old, new = gate["shares_per_s"], fresh["shares_per_s"]
    drop = 1.0 - new / old
    ok = drop <= threshold
    print(f"pool gate ({GATE_CLIENTS} clients, batched): committed "
          f"{old:8.1f} shares/s, fresh {new:8.1f} shares/s ({-drop:+.1%})  "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_store(committed_path: pathlib.Path, threshold: float) -> bool:
    """Re-measure the committed mempool-ingest gate point; False on
    regression past ``threshold``."""
    from bench_store import GATE_DEPTH, GATE_SENDERS, gate_point

    committed = json.loads(committed_path.read_text())
    gate = committed.get("gate")
    if not gate or "ingest_tx_s" not in gate:
        print(f"{committed_path} has no gate point — regenerate it with "
              f"benchmarks/bench_store.py")
        return False
    if (gate.get("senders"), gate.get("depth")) != (GATE_SENDERS, GATE_DEPTH):
        print(f"{committed_path} gate point shape drifted from "
              f"bench_store.py — regenerate it")
        return False
    fresh = gate_point()
    old, new = gate["ingest_tx_s"], fresh["ingest_tx_s"]
    drop = 1.0 - new / old
    ok = drop <= threshold
    print(f"store gate ({GATE_SENDERS} senders x {GATE_DEPTH} txs): "
          f"committed {old:8.1f} tx/s, fresh {new:8.1f} tx/s ({-drop:+.1%})  "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed", type=pathlib.Path,
                        default=pathlib.Path("BENCH_hashrate.json"),
                        help="baseline artifact to compare against")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated fractional drop (0.20 = 20%%)")
    parser.add_argument("--supervision-threshold", type=float, default=0.10,
                        help="maximum tolerated supervised-vs-bare worker "
                             "loop slowdown (0.10 = 10%%)")
    parser.add_argument("--propagation", type=pathlib.Path,
                        default=pathlib.Path("BENCH_propagation.json"),
                        help="committed propagation artifact (gate skipped "
                             "when absent)")
    parser.add_argument("--propagation-threshold", type=float, default=0.20,
                        help="maximum tolerated messages-per-block growth "
                             "at the gated 100-node gossip point")
    parser.add_argument("--pool", type=pathlib.Path,
                        default=pathlib.Path("BENCH_pool.json"),
                        help="committed pool-server artifact (gate skipped "
                             "when absent)")
    parser.add_argument("--pool-threshold", type=float, default=0.20,
                        help="maximum tolerated sustained shares/s drop at "
                             "the gated pool load point")
    parser.add_argument("--store", type=pathlib.Path,
                        default=pathlib.Path("BENCH_store.json"),
                        help="committed durable chain-state artifact (gate "
                             "skipped when absent)")
    parser.add_argument("--store-threshold", type=float, default=0.20,
                        help="maximum tolerated mempool ingest tx/s drop at "
                             "the gated store point")
    parser.add_argument("--machine", choices=sorted(PRESETS), default=None,
                        help="machine preset (default: the committed one)")
    parser.add_argument("--instructions", type=int, default=None,
                        help="widget size (default: the committed one)")
    parser.add_argument("--hashes", type=int, default=5,
                        help="hashes per timing repeat")
    parser.add_argument("--repeats", type=int, default=6,
                        help="timing repeats (best-of)")
    args = parser.parse_args(argv)

    if not args.committed.exists():
        print(f"no committed baseline at {args.committed}; nothing to gate")
        return 2
    committed = json.loads(args.committed.read_text())
    try:
        baseline = {
            "cached jit": committed["cached_widget"]["jit_hash_s"],
            "fresh jit": committed["fresh_widget"]["jit_hash_s"],
        }
    except KeyError as exc:
        print(f"{args.committed} lacks {exc} — regenerate it with "
              f"benchmarks/bench_hashrate.py")
        return 2

    machine = args.machine or committed.get("machine", "ivy-bridge")
    instructions = args.instructions or committed.get(
        "target_instructions", 60_000
    )
    fresh = {
        "cached jit": measure_cached(
            machine, instructions, args.hashes, args.repeats
        ),
        "fresh jit": measure_fresh(
            machine, instructions, args.hashes, args.repeats
        ),
    }

    failed = False
    for regime, old in baseline.items():
        new = fresh[regime]
        drop = 1.0 - new / old
        verdict = "FAIL" if drop > args.threshold else "ok"
        failed |= verdict == "FAIL"
        print(f"{regime:>10}: committed {old:8.2f} hash/s, fresh {new:8.2f} "
              f"hash/s ({-drop:+.1%})  {verdict}")

    overhead = measure_supervision_overhead(
        machine, instructions, args.hashes, args.repeats
    )
    drop = 1.0 - overhead["supervised"] / overhead["bare"]
    verdict = "FAIL" if drop > args.supervision_threshold else "ok"
    failed |= verdict == "FAIL"
    print(f"supervised worker loop: bare {overhead['bare']:8.2f} hash/s, "
          f"supervised {overhead['supervised']:8.2f} hash/s "
          f"({-drop:+.1%}, budget {args.supervision_threshold:.0%})  "
          f"{verdict}")

    if args.propagation.exists():
        failed |= not check_propagation(
            args.propagation, args.propagation_threshold
        )
    else:
        print(f"no committed propagation baseline at {args.propagation}; "
              f"propagation gate skipped")

    if args.pool.exists():
        failed |= not check_pool(args.pool, args.pool_threshold)
    else:
        print(f"no committed pool baseline at {args.pool}; "
              f"pool gate skipped")

    if args.store.exists():
        failed |= not check_store(args.store, args.store_threshold)
    else:
        print(f"no committed store baseline at {args.store}; "
              f"store gate skipped")

    if failed:
        print(f"regression gate FAILED: a gated metric regressed past its "
              f"threshold (see above)")
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
