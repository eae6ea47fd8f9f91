"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro hash "some block header"
    python -m repro verify "some block header" <digest-hex>
    python -m repro widget <seed-or-text> [--asm]
    python -m repro profile leela
    python -m repro workloads
    python -m repro mine --difficulty 4 --blocks 2
    python -m repro pool --port 3333 --share-difficulty 2
    python -m repro simulate --hashrates 100,50,25 --blocks 500
    python -m repro chaos --nodes 4 --drop 0.1 --byzantine 7 --seed 3

Every command is a thin shell over the library; ``main(argv)`` returns an
exit code and is exercised directly by the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.hashcore import HashCore
from repro.core.seed import HashSeed
from repro.errors import ReproError
from repro.machine.config import PRESETS, preset
from repro.machine.cpu import Machine
from repro.widgetgen.params import GeneratorParams


def _params(args) -> GeneratorParams:
    return GeneratorParams(
        target_instructions=args.instructions,
        snapshot_interval=max(1, args.instructions // 120),
    )


def _machine(args) -> Machine:
    return Machine(preset(args.machine))


def _profile(args):
    if args.profile is None:
        return None  # HashCore default (the baked Leela consensus profile)
    from repro.profiling.profile import PerformanceProfile

    with open(args.profile, encoding="utf-8") as handle:
        return PerformanceProfile.from_json(handle.read())


def _hashcore(args) -> HashCore:
    return HashCore(
        profile=_profile(args),
        machine=_machine(args),
        params=_params(args),
        widgets_per_hash=args.widgets,
        mode=args.mode,
    )


def cmd_hash(args) -> int:
    """Compute and display one HashCore evaluation."""
    hashcore = _hashcore(args)
    mode = hashcore.mode  # "auto" resolved to the fastest available tier
    start = time.perf_counter()
    trace = hashcore.hash_with_trace(args.data.encode(), mode=mode)
    elapsed = time.perf_counter() - start
    print(f"seed   : {trace.seed.hex}")
    for widget, result in zip(trace.widgets, trace.results):
        line = f"widget : {widget.name}  retired={result.counters.retired:,}"
        if mode == "timed":  # IPC exists only on the timing path
            line += f" ipc={result.counters.ipc:.2f}"
        print(f"{line} output={result.output_size:,}B")
    print(f"digest : {trace.digest.hex()}")
    print(f"time   : {elapsed:.2f}s ({mode} path)")
    return 0


def cmd_verify(args) -> int:
    """Verify a digest by recomputation."""
    hashcore = _hashcore(args)
    try:
        digest = bytes.fromhex(args.digest)
    except ValueError:
        print("error: digest must be hex", file=sys.stderr)
        return 2
    if hashcore.verify(args.data.encode(), digest):
        print("OK: digest verifies")
        return 0
    print("FAIL: digest does not verify")
    return 1


def cmd_widget(args) -> int:
    """Generate, inspect, and execute the widget a seed selects."""
    try:
        seed = HashSeed.from_hex(args.seed)
    except (ValueError, ReproError):
        # Not hex: derive the seed by gating the text, like hash() does.
        from repro.core.hash_gate import hash_gate

        seed = HashSeed(hash_gate(args.seed.encode()))
    hashcore = _hashcore(args)
    widget = hashcore.widget_for(seed)
    spec = widget.spec
    print(f"widget    : {widget.name}")
    print(f"seed      : {seed.hex}")
    print(f"blocks    : {len(spec.blocks)}  loops: {len(spec.loops)}  "
          f"outer trips: {spec.outer_trips}")
    print(f"code size : {widget.code_bytes():,} bytes "
          f"({len(widget.program)} instructions)")
    print(f"memory    : hot {spec.plan.hot_words * 8 // 1024}KB, "
          f"cold {spec.plan.cold_words * 8 // 1024}KB, "
          f"ring {spec.plan.ring_words * 8 // 1024}KB")
    result = widget.execute(hashcore.machine)
    counters = result.counters
    print(f"executed  : {counters.retired:,} instructions, ipc={counters.ipc:.2f}, "
          f"branch acc={counters.branch_accuracy:.3f}, "
          f"output={result.output_size:,}B")
    if args.asm:
        from repro.isa.assembler import disassemble

        print("\n" + disassemble(widget.program))
    return 0


def cmd_profile(args) -> int:
    """Profile a reference workload and print the JSON profile."""
    from repro.profiling.profiler import profile_workload
    from repro.workloads.suite import get_workload

    profile = profile_workload(get_workload(args.workload), _machine(args))
    print(profile.to_json())
    return 0


def cmd_workloads(args) -> int:
    """List the reference workload suite."""
    from repro.workloads.suite import SUITE

    for name, cls in sorted(SUITE.items()):
        print(f"{name:<10s} {cls.description:<42s} (~{cls.spec_counterpart})")
    return 0


class _CliPowFactory:
    """Picklable HashCore factory for mining-engine worker processes.

    Captures only the CLI's plain-value knobs (preset name, instruction
    target, mode, profile path) so it crosses the process boundary; each
    worker reconstructs its own HashCore — and keeps it, caches and all,
    for the life of the pool.
    """

    def __init__(
        self,
        machine: str,
        instructions: int,
        widgets: int,
        mode: str,
        profile: str | None,
    ) -> None:
        self.machine = machine
        self.instructions = instructions
        self.widgets = widgets
        self.mode = mode
        self.profile = profile

    def __call__(self) -> HashCore:
        return _hashcore(
            argparse.Namespace(
                machine=self.machine,
                instructions=self.instructions,
                widgets=self.widgets,
                mode=self.mode,
                profile=self.profile,
            )
        )


def cmd_mine(args) -> int:
    """Mine a short fully-validated HashCore chain.

    With ``--workers N`` (N > 1) the nonce search runs on a persistent
    :class:`~repro.blockchain.mining_engine.MiningEngine` whose worker
    pool — and the warm widget/JIT caches inside it — survives across all
    mined blocks.
    """
    from repro.blockchain.block import Block
    from repro.blockchain.chain import Blockchain
    from repro.blockchain.difficulty import RetargetSchedule
    from repro.blockchain.miner import mine_block
    from repro.core.pow import difficulty_to_target, target_to_compact

    hashcore = _hashcore(args)
    bits = target_to_compact(difficulty_to_target(args.difficulty))
    store = None
    if args.store is not None:
        from repro.blockchain.store import BlockStore

        store = BlockStore(args.store)
    chain = Blockchain(hashcore, genesis_bits=bits,
                       schedule=RetargetSchedule(interval=10_000),
                       store=store)
    if store is not None and chain.replayed:
        print(f"resumed from {args.store}: replayed {chain.replayed} blocks "
              f"to height {chain.height()}")
    engine = None
    if args.workers > 1:
        from repro.blockchain.mining_engine import MiningEngine

        factory = _CliPowFactory(
            args.machine, args.instructions, args.widgets, args.mode,
            args.profile,
        )
        engine = MiningEngine(
            factory, workers=args.workers, chunk_timeout=args.chunk_timeout
        )
    try:
        base = chain.height()  # nonzero when resuming from --store
        for height in range(base + 1, base + args.blocks + 1):
            block = Block.build(
                prev_hash=chain.tip_id,
                transactions=[f"coinbase-{height}".encode()],
                timestamp=30 * height,
                bits=chain.expected_bits(chain.tip_id),
            )
            start = time.perf_counter()
            max_attempts = int(args.difficulty * 100)
            if engine is not None:
                solved, digest, attempts = engine.mine_header(
                    block.header, max_attempts=max_attempts,
                    deadline=args.deadline,
                )
                mined_block = Block(
                    header=solved, transactions=block.transactions
                )
            else:
                mined = mine_block(block, hashcore, max_attempts=max_attempts)
                mined_block, digest = mined.block, mined.digest
                attempts = mined.attempts
            chain.add_block(mined_block)
            print(
                f"height {height}: nonce={mined_block.header.nonce} "
                f"attempts={attempts} time={time.perf_counter()-start:.1f}s "
                f"digest={digest.hex()[:24]}…"
            )
        if engine is not None:
            report = engine.report()
            print(
                f"engine : {report.workers} workers, "
                f"{report.hashes:,} hashes, "
                f"{report.hashrate:.1f} hash/s aggregate, "
                f"adaptive chunk {report.chunk}"
            )
            health = report.health
            degraded = sum(health.degradations.values())
            print(
                f"health : respawns={health.respawns} "
                f"timeouts={health.chunk_timeouts} "
                f"requeues={health.requeues} "
                f"poisoned={health.poisoned_seeds} "
                f"degraded={degraded}"
                + ("" if health.healthy else "  [degraded run]")
            )
    finally:
        if engine is not None:
            engine.close()
    print(f"chain height {chain.height()}, total work {chain.total_work():.1f}")
    return 0


def cmd_pool(args) -> int:
    """Run the stratum-style mining-pool server.

    Hands out header templates from a fresh chain at ``--difficulty``,
    grades shares at per-client vardiff difficulty starting from
    ``--share-difficulty``, and drains submissions through the batched
    verifier.  ``--duration`` bounds the run (default: until Ctrl-C).
    """
    import asyncio

    from repro.baselines.sha256d import Sha256d
    from repro.blockchain.chain import Blockchain
    from repro.blockchain.difficulty import RetargetSchedule
    from repro.blockchain.ledger import Ledger
    from repro.blockchain.mempool import Mempool
    from repro.core.pow import difficulty_to_target, target_to_compact
    from repro.pool import ChainTemplateSource, PoolConfig, PoolServer

    pow_fn = Sha256d() if args.pow == "sha256d" else _hashcore(args)
    chain = Blockchain(
        pow_fn,
        genesis_bits=target_to_compact(difficulty_to_target(args.difficulty)),
        schedule=RetargetSchedule(interval=10_000),
    )
    source = ChainTemplateSource(chain, Mempool(Ledger()))
    config = PoolConfig(
        host=args.host,
        port=args.port,
        share_difficulty=args.share_difficulty,
        vardiff=not args.no_vardiff,
    )

    async def serve() -> None:
        server = PoolServer(pow_fn, source, config)
        await server.start()
        print(f"pool listening on {config.host}:{server.port} "
              f"({pow_fn.name}, block difficulty {args.difficulty}, "
              f"share difficulty {args.share_difficulty})")
        loop = asyncio.get_running_loop()
        deadline = None if args.duration is None else (
            loop.time() + args.duration
        )
        try:
            while deadline is None or loop.time() < deadline:
                wait = args.refresh
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - loop.time()))
                await asyncio.sleep(wait)
                if deadline is None or loop.time() < deadline:
                    server.rotate_job(clean=False)  # timestamp refresh
        finally:
            await server.stop()
            stats = server.stats
            print(f"shares : accepted={stats.accepted} stale={stats.stale} "
                  f"invalid={stats.invalid} duplicate={stats.duplicate}")
            print(f"clients: sessions={stats.sessions} "
                  f"connections={stats.connections} bans={stats.bans} "
                  f"slow-disconnects={stats.slow_disconnects}")
            print(f"blocks : found={stats.blocks_found} "
                  f"chain height {chain.height()}")
            batching = server.verifier.stats
            print(f"verify : {batching.shares} shares in {batching.batches} "
                  f"batches (mean {batching.mean_batch:.1f}/batch)")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_widgetpool(args) -> int:
    """Build a widget pool and report the §VI-A selection stats."""
    from repro.core.default_profile import default_profile
    from repro.widgetgen.pool import WidgetPool

    profile = _profile(args) or default_profile()
    pool = WidgetPool(profile, _params(args), pool_size=args.size)
    mean = pool.storage_bytes() / len(pool)
    print(f"pool size      : {len(pool)} widgets")
    print(f"storage        : {pool.storage_bytes():,} bytes "
          f"({mean:.0f} bytes/widget)")
    print(f"fingerprint    : {pool.fingerprint()}")
    print(f"SPEC-scale pool: ~{mean * 430_000 / 1e6:.0f} MB "
          "(430k-widget corpus, cf. §VI-A 'several gigabytes')")
    return 0


def cmd_simulate(args) -> int:
    """Run the statistical mining-network simulator."""
    from repro.blockchain.difficulty import RetargetSchedule
    from repro.blockchain.network import simulate_network

    hashrates = [float(x) for x in args.hashrates.split(",")]
    schedule = RetargetSchedule(block_time=args.block_time)
    result = simulate_network(
        hashrates, args.blocks, schedule,
        initial_difficulty=args.initial_difficulty, seed=args.seed,
    )
    shares = result.miner_shares(len(hashrates))
    print(json.dumps({
        "blocks": len(result.block_times),
        "mean_block_time": round(result.mean_block_time(), 2),
        "final_difficulty": round(result.difficulties[-1], 1),
        "miner_shares": [round(s, 4) for s in shares],
        "orphan_candidates": result.orphan_candidates,
    }, indent=2))
    return 0


def _parse_partition(spec: str):
    """``start:end:0,1/2,3`` → :class:`~repro.blockchain.faults.Partition`."""
    from repro.blockchain.faults import Partition

    try:
        start, end, groups = spec.split(":")
        return Partition(
            start=int(start),
            end=int(end),
            groups=tuple(
                tuple(int(n) for n in group.split(","))
                for group in groups.split("/")
            ),
        )
    except ValueError:
        raise ReproError(
            f"bad partition spec {spec!r}, want start:end:0,1/2,3"
        ) from None


def _parse_crash(spec: str):
    """``node:at:restart_at`` → :class:`~repro.blockchain.faults.Crash`."""
    from repro.blockchain.faults import Crash

    try:
        node, at, restart_at = (int(x) for x in spec.split(":"))
    except ValueError:
        raise ReproError(
            f"bad crash spec {spec!r}, want node:at:restart_at"
        ) from None
    return Crash(node=node, at=at, restart_at=restart_at)


def cmd_chaos(args) -> int:
    """Run a fault-injection chaos scenario and print the JSON report.

    Exit code 0 when every invariant held and the honest nodes converged;
    1 otherwise — so a chaos run slots straight into CI.
    """
    from repro.blockchain.faults import ByzantinePeer, LinkFaults, Scenario
    from repro.blockchain.sim import ChaosRunner

    if args.scenario is not None:
        with open(args.scenario, encoding="utf-8") as handle:
            scenario = Scenario.from_dict(json.load(handle))
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
        if args.relay is not None or args.fanout is not None:
            scenario = scenario.with_relay(
                args.relay if args.relay is not None else scenario.relay,
                fanout=args.fanout,
            )
    else:
        byzantine = ()
        if args.byzantine:
            byzantine = (ByzantinePeer(every=args.byzantine),)
        scenario = Scenario(
            n_nodes=args.nodes,
            seed=args.seed if args.seed is not None else 1,
            ticks=args.ticks,
            link=LinkFaults(
                delay=args.delay, jitter=args.jitter,
                drop=args.drop, duplicate=args.duplicate,
            ),
            partitions=tuple(_parse_partition(s) for s in args.partition),
            crashes=tuple(_parse_crash(s) for s in args.crash),
            byzantine=byzantine,
            relay=args.relay if args.relay is not None else "flood",
            fanout=args.fanout if args.fanout is not None else 0,
        )
    report = ChaosRunner(scenario, store_dir=args.store_dir).run()
    print(report.to_json())
    return 0 if report.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HashCore (ICDCS 2019) reproduction toolkit",
    )
    parser.add_argument(
        "--machine", choices=sorted(PRESETS), default="ivy-bridge",
        help="simulated GPP preset",
    )
    parser.add_argument(
        "--instructions", type=int, default=20_000,
        help="target dynamic instructions per widget",
    )
    parser.add_argument(
        "--widgets", type=int, default=1, help="widgets per hash (sequential)"
    )
    parser.add_argument(
        "--mode", choices=("auto", "jit", "timed"),
        default="auto",
        help="execution engine: 'auto' (default) picks the fastest "
        "tier, the JIT; 'jit' pins it; 'timed' runs the timing model "
        "(enables IPC/branch counters)",
    )
    parser.add_argument(
        "--profile", default=None, metavar="JSON",
        help="performance-profile JSON (from `repro profile <workload>`); "
        "default: the baked Leela consensus profile",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hash", help="compute H(data)")
    p.add_argument("data")
    p.set_defaults(fn=cmd_hash)

    p = sub.add_parser("verify", help="verify a digest by recomputation")
    p.add_argument("data")
    p.add_argument("digest")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("widget", help="inspect the widget a seed selects")
    p.add_argument("seed", help="64-hex-char seed, or any text to gate")
    p.add_argument("--asm", action="store_true", help="print disassembly")
    p.set_defaults(fn=cmd_widget)

    p = sub.add_parser("profile", help="profile a reference workload (JSON)")
    p.add_argument("workload")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("workloads", help="list the reference workload suite")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("mine", help="mine a short HashCore chain")
    p.add_argument("--difficulty", type=float, default=4.0)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 mines on the persistent engine",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per block on the engine; expiry exits "
        "with a structured deadline-exceeded fault",
    )
    p.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="hung-chunk watchdog deadline (default: derived from the "
        "measured chunk timing; 0 disables)",
    )
    p.add_argument(
        "--store", default=None, metavar="PATH",
        help="durable block log; an existing log is replayed (resumes "
        "mining from its tip), a missing one is created",
    )
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("pool", help="run the stratum-style mining-pool server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=3333,
                   help="listen port (0: ephemeral)")
    p.add_argument("--share-difficulty", type=float, default=1.0,
                   help="starting per-client share difficulty")
    p.add_argument("--difficulty", type=float, default=1024.0,
                   help="block difficulty of the pool's chain")
    p.add_argument("--pow", choices=("hashcore", "sha256d"),
                   default="hashcore",
                   help="PoW function the pool verifies (sha256d: fast demo)")
    p.add_argument("--no-vardiff", action="store_true",
                   help="pin the share difficulty (disable retargeting)")
    p.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                   help="stop after this long (default: run until Ctrl-C)")
    p.add_argument("--refresh", type=float, default=30.0, metavar="SECONDS",
                   help="job timestamp-refresh cadence")
    p.set_defaults(fn=cmd_pool)

    p = sub.add_parser("widgetpool",
                       help="build a widget pool and report §VI-A stats")
    p.add_argument("--size", type=int, default=16)
    p.set_defaults(fn=cmd_widgetpool)

    p = sub.add_parser("chaos", help="fault-injection consensus chaos run")
    p.add_argument("--scenario", default=None, metavar="JSON",
                   help="scenario schedule file (overrides the flags below)")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--ticks", type=int, default=200)
    p.add_argument("--seed", type=int, default=None,
                   help="replay seed (also overrides a --scenario file's)")
    p.add_argument("--delay", type=int, default=1)
    p.add_argument("--jitter", type=int, default=0)
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--duplicate", type=float, default=0.0)
    p.add_argument("--partition", action="append", default=[],
                   metavar="START:END:0,1/2,3",
                   help="scheduled partition (repeatable)")
    p.add_argument("--crash", action="append", default=[],
                   metavar="NODE:AT:RESTART",
                   help="crash/restart event (repeatable)")
    p.add_argument("--byzantine", type=int, default=0, metavar="EVERY",
                   help="add a byzantine peer forging every EVERY ticks")
    p.add_argument("--relay", choices=["flood", "gossip", "compact"],
                   default=None,
                   help="block relay protocol (also overrides a --scenario "
                        "file's; default flood)")
    p.add_argument("--fanout", type=int, default=None, metavar="K",
                   help="gossip relay fanout; 0 = auto (~sqrt(N), default)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persist every node's chain to DIR/node{i}.log; "
                        "crash faults then exercise real disk recovery")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("simulate", help="statistical mining-network study")
    p.add_argument("--hashrates", default="100,50,25")
    p.add_argument("--blocks", type=int, default=500)
    p.add_argument("--block-time", type=float, default=30.0)
    p.add_argument("--initial-difficulty", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
