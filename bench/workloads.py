"""The four workloads and their correctness checks.

A workload is built from a seed (and a tracer for the traced run), then
the workload process calls ``setup()``, ``run(seconds, outcome)``,
``close()`` and ``check(outcome)`` in that order.  ``run`` records the
end-to-end metrics, and the per-layer metrics too when a tracer is given;
``hx_inputs()`` names the inputs the ``H(x)`` stage profile replays.

Every workload uses the default consensus configuration, ``HashCore()``,
and puts its load on the system from one process with at most two
workers or connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import Blockchain
from repro.blockchain.difficulty import RetargetSchedule
from repro.blockchain.mining_engine import MiningEngine
from repro.blockchain.store import BlockStore, decode_block, encode_block
from repro.core.hashcore import HashCore
from repro.core.pow import (
    compact_to_target,
    difficulty_to_target,
    meets_target,
    target_to_compact,
)
from repro.errors import EngineFault, PowError, ValidationError
from repro.pool.client import PoolClient
from repro.pool.protocol import PoolProtocolError

from bench import OUT_DIR, ROOT
from bench.trace import (
    DispatchTimer,
    TimedPow,
    TimedStore,
    Tracer,
    summarize,
)

#: Known answer of ``HashCore()`` (default consensus configuration),
#: identical on the timed, fast and jit tiers.
KAT_INPUT = b"hashcore bench known answer"
KAT_DIGEST = "fea1d36fe7fd118a7de6d4537990f60be30b4424f1f65aebf10af6b8138e4cdc"

#: The easiest compact target: a digest misses it with p = 2**-16.
EASIEST_BITS = 0x2100FFFF
#: A compact target of 1: no share ever solves the pool's block.
NEVER_SOLVED_BITS = 0x03000001
#: A retarget interval no run reaches, so ``bits`` never changes.
NO_RETARGET = RetargetSchedule(interval=1 << 40)

#: Digests recomputed on the timed reference tier per workload.
TIMED_SAMPLE = 4


@dataclass
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        """Count one operation or check; ``what`` describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def median_ms(samples_ns: list[int]) -> float:
    return statistics.median(samples_ns) / 1e6


def percentile_ms(samples_ns: list[int], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method) in ms."""
    if len(samples_ns) < 2:
        return samples_ns[0] / 1e6
    return statistics.quantiles(samples_ns, n=100,
                                method="inclusive")[pct - 1] / 1e6


def tree_peak_rss_mb() -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of this process and
    every live descendant, read from ``/proc``."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    total_kb = 0
    pending = [os.getpid()]
    while pending:
        pid = pending.pop()
        pending.extend(parents.get(pid, ()))
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def timed_reference_check(outcome: Outcome, pairs, what: str) -> None:
    """Recompute sampled ``(data, digest)`` pairs on the timed tier, the
    reference model every faster tier must agree with bit for bit."""
    reference = HashCore(mode="timed")
    for data, digest in pairs:
        outcome.record(reference.hash(data) == digest,
                       f"{what}: digest differs from the timed reference")


def seeded_header(rng: random.Random, bits: int) -> BlockHeader:
    return BlockHeader(version=1, prev_hash=rng.randbytes(32),
                       merkle_root=rng.randbytes(32),
                       timestamp=rng.randrange(1 << 31), bits=bits,
                       nonce=rng.randrange(1 << 32))


class Workload:
    """Shared shape; subclasses fill in the phases."""

    name = ""
    #: Layers this workload never calls; their per-layer metrics read 0.
    unused_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, *, quick: bool = False,
                 tracer: Tracer | None = None, pow_factory=HashCore) -> None:
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.pow_factory = pow_factory
        self.rng = random.Random(seed)

    def span(self, name: str, op=None):
        return self.tracer.span(name, op) if self.tracer else nullcontext()

    def setup(self) -> None:
        pass

    def run(self, seconds: float, outcome: Outcome) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def check(self, outcome: Outcome) -> None:
        pass

    def hx_inputs(self) -> tuple[list[bytes], list[bytes]]:
        """``(inputs, warm-up inputs)`` for the ``H(x)`` stage profile."""
        raise NotImplementedError


class MineFresh(Workload):
    """``MiningEngine(workers=2)`` mines seeded headers at difficulty 64:
    a fresh widget per nonce, the miner's regime."""

    name = "mine_fresh"
    unused_layers = ("ingest", "chain", "store", "node", "pool", "loadgen")
    DIFFICULTY = 64

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        bits = target_to_compact(difficulty_to_target(self.DIFFICULTY))
        self.headers = [seeded_header(self.rng, bits).with_nonce(0)
                        for _ in range(1000)]
        self.solutions: list[tuple[BlockHeader, bytes]] = []
        self.engine: MiningEngine | None = None

    def setup(self) -> None:
        self.engine = MiningEngine(
            partial(DispatchTimer.around, self.pow_factory), workers=2)
        # Warm: spawn the workers and run one chunk each on a header that
        # almost any nonce solves.
        self.engine.mine_header(replace(self.headers[-1], bits=EASIEST_BITS))

    def run(self, seconds: float, outcome: Outcome) -> None:
        engine = self.engine
        before = engine.report()
        start_ns = time.perf_counter_ns()
        deadline = time.perf_counter() + seconds
        for index, header in enumerate(self.headers):
            if time.perf_counter() >= deadline:
                break
            with self.span("engine.mine_header", op=f"header{index}"):
                try:
                    solved, digest, _ = engine.mine_header(header)
                except (EngineFault, PowError) as exc:
                    outcome.record(False, f"mine: header {index}: {exc}")
                    continue
            self.solutions.append((solved, digest))
        after = engine.report()
        outcome.metrics["peak_rss_mb"] = tree_peak_rss_mb()

        hashes = after.hashes - before.hashes
        wall = after.wall_seconds - before.wall_seconds
        faults = _fault_count(after.health) - _fault_count(before.health)
        outcome.attempted += hashes + faults
        if faults:
            outcome.failed += faults
            outcome.failures.append(f"mine: {faults} engine faults")
        per_hash_ns = [
            (end - start) / nonces
            for stats in after.per_worker.values()
            for start, end, nonces in
            (stats.cache_stats or {}).get("bench_dispatches", ())
            if start >= start_ns
        ]
        outcome.metrics.update(
            ops_s=hashes / wall,
            op_p50_ms=median_ms(per_hash_ns),
        )
        if self.tracer is None:
            return
        busy = after.busy_seconds - before.busy_seconds
        outcome.metrics.update({
            "engine.busy_frac": busy / (wall * engine.workers),
            "engine.worker_hash_s": hashes / busy,
            "engine.batches": after.batches - before.batches,
            "engine.chunk": after.chunk,
            "engine.cancelled_batches": (
                sum(w.cancelled_batches for w in after.per_worker.values())
                - sum(w.cancelled_batches for w in before.per_worker.values())),
            "engine.faults": faults,
        })

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()

    def check(self, outcome: Outcome) -> None:
        reference = HashCore()
        for solved, digest in self.solutions:
            target = compact_to_target(solved.bits)
            outcome.record(
                reference.hash(solved.serialize()) == digest
                and meets_target(digest, target),
                f"mine: solution nonce {solved.nonce} fails its re-hash")

    def hx_inputs(self) -> tuple[list[bytes], list[bytes]]:
        count = 24 if self.quick else 400
        return [self.headers[0].with_nonce(n).serialize()
                for n in range(count)], []


def _fault_count(health) -> int:
    return (health.respawns + health.chunk_timeouts + health.requeues
            + health.deadline_exceeded + health.poisoned_seeds
            + sum(health.degradations.values()))


class NodeIngest(Workload):
    """A durable node ingests encoded blocks in a closed loop, then closes
    and restarts three times over its block log."""

    name = "node_ingest"
    unused_layers = ("engine", "pool", "loadgen")
    TXS_PER_BLOCK = 100
    TX_BYTES = 200
    BLOCK_SPACING = 30
    #: Share of the run spent ingesting; the restarts follow.
    INGEST_SHARE = 0.8
    RESTARTS = 3

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.dir = OUT_DIR / f"node-{os.getpid()}"
        self.path = self.dir / "blocks.log"
        self.ingested: list[bytes] = []  # accepted headers, in order
        self.store: BlockStore | None = None

    def _chain(self, pow_fn, store) -> Blockchain:
        return Blockchain(pow_fn, schedule=NO_RETARGET,
                          genesis_bits=EASIEST_BITS, store=store)

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.store = BlockStore(self.path)
        pow_fn, store = self.pow_factory(), self.store
        if self.tracer:
            pow_fn = TimedPow(pow_fn, self.tracer, "chain.pow")
            store = TimedStore(store, self.tracer)
        self.chain = self._chain(pow_fn, store)

    def _ingest(self, payload: bytes, op: str) -> ValidationError | int:
        """Decode and add one block; its latency in ns, or the rejection."""
        start = time.perf_counter_ns()
        try:
            with self.span("ingest", op=op):
                with self.span("ingest.decode"):
                    block = decode_block(payload)
                with self.span("chain.add_block"):
                    self.chain.add_block(block)
        except ValidationError as exc:
            return exc
        return time.perf_counter_ns() - start

    def run(self, seconds: float, outcome: Outcome) -> None:
        latencies: list[int] = []
        deadline = time.perf_counter() + seconds * self.INGEST_SHARE
        reference = None
        while time.perf_counter() < deadline:
            height = len(latencies) + 1
            txs = [self.rng.randbytes(self.TX_BYTES)
                   for _ in range(self.TXS_PER_BLOCK)]
            nonce = 0
            while True:
                block = Block.build(
                    prev_hash=self.chain.tip_id, transactions=txs,
                    timestamp=height * self.BLOCK_SPACING,
                    bits=EASIEST_BITS, nonce=nonce)
                result = self._ingest(encode_block(block), f"block{height}")
                if not isinstance(result, ValidationError):
                    break
                # A block that misses even the easiest target is rightly
                # rejected; re-mine it with the next nonce.
                reference = reference or HashCore()
                digest = reference.hash(block.header.serialize())
                outcome.record(
                    result.code == "bad-pow"
                    and not meets_target(digest, compact_to_target(EASIEST_BITS)),
                    f"node: block {height} rejected: {result}")
                if outcome.failed:
                    return
                nonce += 1
            outcome.record(True, "")
            latencies.append(result)
            self.ingested.append(block.header.serialize())
        outcome.metrics.update(
            ops_s=len(latencies) / (sum(latencies) / 1e9),
            op_p50_ms=median_ms(latencies),
            peak_rss_mb=tree_peak_rss_mb(),
        )
        blocks = len(latencies)
        log_bytes = self.store.stats()["bytes"]
        self._restart(outcome)
        if self.tracer is None:
            return
        rows = summarize(self.tracer.spans)
        restarts = [summarize([s for s in self.tracer.spans
                               if s["op"] == f"restart{attempt}"])
                    for attempt in range(self.RESTARTS)]

        def per_restart(name: str, column: str = "self_ms") -> float:
            """Median over the restarts of the span's time, in ms."""
            return statistics.median(summary[name][column]
                                     for summary in restarts)

        outcome.metrics.update({
            "ingest.decode_ms": rows["ingest.decode"]["self_ms"] / blocks,
            "chain.pow_ms": rows["chain.pow"]["self_ms"] / blocks,
            "chain.self_ms": rows["chain.add_block"]["self_ms"] / blocks,
            "store.append_ms": rows["store.append"]["self_ms"] / blocks,
            "store.bytes_per_block": log_bytes / blocks,
            "store.open_ms": per_restart("store.open"),
            "chain.replay_ms": per_restart("chain.replay"),
            "chain.tip_pow_ms": per_restart("chain.tip_pow"),
            "node.restart_ms": per_restart("node.restart", "total_ms"),
        })

    def _restart(self, outcome: Outcome) -> None:
        """Close the node and reopen it from its log, three times; the tip
        must come back unchanged each time."""
        tip, height = self.chain.tip_id, self.chain.height()
        self.store.close()
        for attempt in range(self.RESTARTS):
            with self.span("node.restart", op=f"restart{attempt}"):
                with self.span("store.open"):
                    store = BlockStore(self.path)
                pow_fn = self.pow_factory()
                if self.tracer:
                    pow_fn = TimedPow(pow_fn, self.tracer, "chain.tip_pow")
                with self.span("chain.replay"):
                    chain = self._chain(pow_fn, store)
            store.close()
            outcome.record(chain.tip_id == tip and chain.height() == height,
                           f"node: restart {attempt} did not restore the tip")

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def hx_inputs(self) -> tuple[list[bytes], list[bytes]]:
        return self.ingested[:24 if self.quick else 300], []


class PoolShares(Workload):
    """A ``PoolServer`` in its own process verifies shares from two
    ``PoolClient`` connections: open loop at a fixed rate, then closed
    loop to find its capacity."""

    name = "pool_shares"
    unused_layers = ("engine", "ingest", "chain", "store", "node")
    CONNECTIONS = 2
    #: Offered load of the open-loop phase, over all connections: about
    #: half the capacity, where queueing does not yet amplify host noise.
    RATE = 25.0
    #: Requests in flight per connection in the closed-loop phase.
    LANES = 8
    OPEN_SHARE = 0.6

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.server: subprocess.Popen | None = None
        self.clients: list[PoolClient] = []

    def setup(self) -> None:
        command = [sys.executable, "-m", "bench", "_pool_server",
                   "--seed", str(self.seed)]
        if self.tracer:
            command.append("--trace")
        # One malloc arena: glibc gives each thread that allocates its own,
        # and how many executor threads the share verifier ends up using
        # depends on timing, which moved peak RSS in steps of ~20 MB.
        env = dict(os.environ, MALLOC_ARENA_MAX="1")
        self.server = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                       stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE)
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("pool server exited before listening")
        port = json.loads(line)["port"]
        self.loop.run_until_complete(self._connect(port))

    async def _connect(self, port: int) -> None:
        for index in range(self.CONNECTIONS):
            client = PoolClient("127.0.0.1", port, f"bench{index}")
            await client.connect()
            self.job = await client.wait_for_job()
            self.clients.append(client)
        self.cursor = [client.nonce_start for client in self.clients]
        self.submitted = self.accepted = 0
        self.errors: dict[str, int] = {}

    async def _submit(self, index: int) -> bytes:
        """Submit the connection's next nonce; returns the share's header."""
        nonce = self.cursor[index]
        self.cursor[index] += 1
        self.submitted += 1
        try:
            result = await self.clients[index].call(
                "mining.submit", {"job": self.job.job_id, "nonce": nonce})
        except PoolProtocolError as exc:
            self.errors[exc.code] = self.errors.get(exc.code, 0) + 1
        else:
            self.accepted += result.get("status") == "accepted"
        return self.job.header.with_nonce(nonce).serialize()

    async def _open_loop(self, seconds: float) -> list[tuple]:
        """Shares due every ``1/RATE`` s regardless of replies; returns
        ``(due, sent, done, header)`` per share."""
        start = time.perf_counter() + 0.01

        async def share(k: int) -> tuple:
            due = start + k / self.RATE
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            sent = time.perf_counter()
            header = await self._submit(k % self.CONNECTIONS)
            return due, sent, time.perf_counter(), header

        count = max(2, int(self.RATE * seconds))
        return await asyncio.gather(*(share(k) for k in range(count)))

    async def _closed_loop(self, seconds: float) -> float:
        """``LANES`` requests in flight per connection; replies per second
        up to the last reply inside the window."""
        start = time.perf_counter()
        deadline = start + seconds
        replies = []

        async def lane(index: int) -> None:
            while time.perf_counter() < deadline:
                await self._submit(index)
                replies.append(time.perf_counter())

        await asyncio.gather(*(lane(index)
                               for index in range(self.CONNECTIONS)
                               for _ in range(self.LANES)))
        in_window = [t for t in replies if t < deadline]
        return len(in_window) / (max(in_window) - start)

    def run(self, seconds: float, outcome: Outcome) -> None:
        shares = self.loop.run_until_complete(
            self._open_loop(seconds * self.OPEN_SHARE))
        capacity = self.loop.run_until_complete(
            self._closed_loop(seconds * (1 - self.OPEN_SHARE)))
        latencies = [int((done - due) * 1e9) for due, _, done, _ in shares]
        outcome.metrics.update(
            ops_s=capacity,
            op_p50_ms=median_ms(latencies),
            peak_rss_mb=tree_peak_rss_mb(),
        )
        self.open_headers = [header for *_, header in shares]
        self.report = self._stop_server()
        outcome.attempted += self.submitted
        outcome.failed += self.submitted - self.accepted
        if self.errors:
            outcome.failures.append(f"pool: rejected shares {self.errors}")
        if self.tracer is None:
            return
        lateness = [int((sent - due) * 1e9) for due, sent, _, _ in shares]
        verify_ns: dict[str, int] = {}
        durations = []
        for number, (start, end, datas) in enumerate(self.report["batches"]):
            self.tracer.add("pool.verify", start, end, op=f"batch{number}")
            durations.append(end - start)
            for data in datas:
                verify_ns[data] = end - start
        for k, (due, _, done, header) in enumerate(shares):
            self.tracer.add("share", int(due * 1e9), int(done * 1e9),
                            op=f"share{k}")
        waits = [latency - verify_ns[header.hex()]
                 for latency, header in zip(latencies, self.open_headers)]
        verifier = self.report["verifier"]
        outcome.metrics.update({
            "pool.verify_ms": statistics.mean(durations) / 1e6,
            "pool.verify_ms_per_share": sum(durations) / verifier["shares"] / 1e6,
            "pool.batch_mean": verifier["shares"] / verifier["batches"],
            "pool.batch_max": verifier["max_batch"],
            "pool.wait_ms_p50": median_ms(waits),
            "pool.wait_ms_p99": percentile_ms(waits, 99),
            "loadgen.late_p99_ms": percentile_ms(lateness, 99),
        })

    def _stop_server(self) -> dict:
        """Disconnect, stop the server and collect its report."""
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.clients = []
        report, _ = self.server.communicate("stop\n", timeout=30)
        return json.loads(report.splitlines()[-1])

    def close(self) -> None:
        if self.server is not None and self.server.poll() is None:
            self.server.kill()
            self.server.wait()
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.loop.close()

    def check(self, outcome: Outcome) -> None:
        accepted = self.report["accepted"]
        outcome.record(
            accepted == self.submitted == self.accepted and not self.errors,
            f"pool: server accepted {accepted} of {self.submitted} "
            f"submitted shares")
        timed_reference_check(
            outcome,
            [(bytes.fromhex(d), bytes.fromhex(h))
             for d, h in self.report["sample"]],
            "pool")

    def hx_inputs(self) -> tuple[list[bytes], list[bytes]]:
        return self.open_headers[:24 if self.quick else 300], []


class VerifyCached(Workload):
    """One ``HashCore`` re-verifies seeded headers in seeded random order,
    twelve at a time: every widget is in its cache, so execution is the
    work."""

    name = "verify_cached"
    unused_layers = ("engine", "ingest", "chain", "store", "node", "pool",
                     "loadgen")
    HEADERS = 12  # per epoch; fits the 16-entry widget cache
    #: Widget cost varies with the seed; eight sets of twelve keep one
    #: seed's draw from moving the mean much.
    EPOCHS = 8

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.epochs = [[seeded_header(self.rng, EASIEST_BITS).serialize()
                        for _ in range(self.HEADERS)]
                       for _ in range(self.EPOCHS)]
        self.expected: dict[bytes, bytes] = {}
        self.first_epoch_order: list[bytes] = []

    def _warm(self, epoch: int) -> None:
        for header in self.epochs[epoch]:
            self.expected[header] = self.core.hash(header)

    def setup(self) -> None:
        self.core = self.pow_factory()
        self._warm(0)

    def run(self, seconds: float, outcome: Outcome) -> None:
        latencies = []
        for epoch, headers in enumerate(self.epochs):
            if epoch:
                self._warm(epoch)  # untimed: the next twelve enter the cache
            deadline = time.perf_counter() + seconds / self.EPOCHS
            while time.perf_counter() < deadline:
                header = headers[self.rng.randrange(self.HEADERS)]
                if not epoch:
                    self.first_epoch_order.append(header)
                with self.span("verify", op=f"verify{len(latencies)}"):
                    start = time.perf_counter_ns()
                    ok = self.core.verify(header, self.expected[header])
                    latencies.append(time.perf_counter_ns() - start)
                outcome.record(ok, "verify: a cached header failed to verify")
        outcome.metrics.update(
            ops_s=len(latencies) / (sum(latencies) / 1e9),
            op_p50_ms=median_ms(latencies),
            peak_rss_mb=tree_peak_rss_mb(),
        )

    def check(self, outcome: Outcome) -> None:
        picks = random.Random(self.seed).sample(sorted(self.expected),
                                                TIMED_SAMPLE)
        timed_reference_check(
            outcome, [(header, self.expected[header]) for header in picks],
            "verify")

    def hx_inputs(self) -> tuple[list[bytes], list[bytes]]:
        count = 96 if self.quick else 800
        return self.first_epoch_order[:count], self.epochs[0]


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (MineFresh, NodeIngest, PoolShares, VerifyCached)}
