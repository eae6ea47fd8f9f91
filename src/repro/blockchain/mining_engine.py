"""Supervised persistent-worker mining engine: the one multi-process miner.

A process pool torn down after every header re-pays worker spawn and
PoW-function construction on each one, and a fixed chunk size either
starves workers (too small) or serializes the search (too large — a
2048-nonce chunk of HashCore takes most of a minute).  This engine keeps
the miner's machinery alive (:func:`mine_header_engine` wraps it for a
one-shot search):

* **Persistent workers** — a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose initializer constructs the PoW function exactly once per worker
  process; HashCore's compiled-widget LRU and each cached program's JIT
  artifact stay warm across chunks *and across headers*.
* **Adaptive chunk sizing** — per-worker hash rate is tracked as an
  exponential moving average and each batch is sized to take roughly
  ``target_batch_seconds``, so cheap PoWs get big ranges and HashCore gets
  small ones without manual tuning.
* **Early cancellation** — a shared cancel flag (one lock-free byte of
  shared memory) is set the moment any worker reports a solution;
  still-queued chunks are cancelled before they launch, and in-flight
  workers read the flag before every nonce and abandon their ranges
  instead of scanning to the end, so a broadcast solution stops them
  within the hash in hand.
* **Stats channel** — every batch reports hashes done, wall time, worker
  pid and the PoW object's ``cache_stats()`` (when it has one); the
  aggregate is available as :meth:`MiningEngine.report`.

On top of that sits the **supervision layer** — the engine assumes workers
die, widgets hang and seeds are poisonous, and degrades instead of dying:

* **Worker-crash recovery** — a dead worker breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`
  (:class:`~concurrent.futures.process.BrokenProcessPool`); the engine
  sweeps every in-flight nonce chunk onto a requeue list, rebuilds the
  pool with exponential backoff, and resumes the search.  More than
  ``max_respawns`` pool deaths while mining one header raise a structured
  :class:`~repro.errors.EngineFault` with code ``worker-crash``.
* **Hung-chunk watchdog** — each submitted chunk carries a deadline
  (explicit ``chunk_timeout``, or derived from the EMA chunk timing); a
  chunk that outlives it has its workers killed, the pool rebuilt and the
  chunk requeued.  A chunk that times out on every allowed retry raises
  ``EngineFault("chunk-timeout")``.
* **Wall-clock budget** — ``mine_header(deadline=…)`` bounds the whole
  search; on expiry the engine broadcasts cancel, drains cleanly and
  raises ``EngineFault("deadline-exceeded")``.
* **Poisoned seeds** — a nonce whose widget trips its fuse or whose
  generator fails inside a worker is counted and skipped; it poisons that
  seed only, never the batch or the engine.
* **Health report** — respawns, chunk timeouts, requeues, poisoned seeds
  and the workers' tier-degradation counters are aggregated into
  :class:`HealthReport`, folded into :class:`EngineReport` (and printed
  by ``repro mine --workers N``).

Every recovery path is deterministically testable: a test-only
:class:`_FaultPlan` kills the worker executing chunk *N* or stalls chunk
*K*, exactly once each (``tests/test_engine_faults.py``).
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import math
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.blockchain.block import BlockHeader
from repro.core.pow import PowFunction, compact_to_target, meets_target
from repro.errors import EngineFault, PowError, ReproError

#: Per-process state installed by :func:`_engine_init`.
_WORKER_POW: PowFunction | None = None
_WORKER_CANCEL = None
_WORKER_FAULTS = None

#: Nonces handed to ``PowFunction.hash_batch`` per dispatch.  Workers read
#: the cancel flag between slices, so a slice is also the longest an
#: in-flight worker scans past a broadcast solution: with one nonce, the
#: finder hashes nothing past its solution and the other worker at most
#: the nonce in hand.  A fresh HashCore hash takes 12-20 ms, against a
#: few microseconds for the flag read and the call.
_BATCH_NONCES = 1

#: Derived watchdog deadline: never below the floor (covers pool re-init,
#: PoW construction in the initializer and first-chunk jitter), otherwise
#: this many times the EMA-predicted chunk duration.
_WATCHDOG_FLOOR_SECONDS = 30.0
_WATCHDOG_GRACE = 8.0

#: Upper bound on the exponential crash-respawn backoff sleep.
_MAX_RESPAWN_BACKOFF = 2.0


@dataclass(slots=True)
class _FaultPlan:
    """Test-only deterministic fault injection for the supervision paths.

    ``kill_chunk``: the worker that picks up that chunk sequence number
    dies with ``os._exit`` (a hard crash the pool cannot absorb).
    ``stall_chunk``: the worker sleeps ``stall_seconds`` before scanning —
    long enough to trip the watchdog when ``chunk_timeout`` is shorter.

    One-shot semantics live on the *engine* side: when the engine observes
    the crash / hang it clears the corresponding field before rebuilding
    the pool, so the requeued chunk runs clean and the injected counts are
    exact on replay.  Set ``one_shot=False`` to keep re-injecting (used to
    exercise the ``max_respawns`` / ``max_chunk_retries`` limits).
    """

    kill_chunk: int | None = None
    stall_chunk: int | None = None
    stall_seconds: float = 30.0
    one_shot: bool = True

    def apply(self, seq: int) -> None:
        """Executed inside the worker before scanning chunk ``seq``."""
        if self.kill_chunk is not None and seq == self.kill_chunk:
            os._exit(1)  # simulate a hard worker crash (OOM kill, segfault)
        if self.stall_chunk is not None and seq == self.stall_chunk:
            end = time.perf_counter() + self.stall_seconds
            while time.perf_counter() < end:
                time.sleep(0.05)


def _engine_init(
    factory: Callable[[], PowFunction], cancel, fault_plan
) -> None:
    """Pool initializer: construct this worker's PoW function once and
    remember the engine's shared cancel flag (a ``c_bool`` in shared
    memory, read through ``.value``) and the (test-only) fault plan."""
    global _WORKER_POW, _WORKER_CANCEL, _WORKER_FAULTS
    _WORKER_POW = factory()
    _WORKER_CANCEL = cancel
    _WORKER_FAULTS = fault_plan


def _engine_search(args) -> tuple:
    """Worker: scan one nonce range, honouring early cancellation.

    Returns ``(found_nonce_or_None, digest_or_None, hashes_done,
    poisoned_seeds, elapsed_seconds, pid, cancelled,
    cache_stats_or_None)`` — the per-batch record the engine aggregates
    into its hashrate/health report.  A nonce whose hash evaluation raises
    a library error (fuse trip, generator failure) is counted as poisoned
    and skipped; it never takes the batch down.

    The range is scanned ``_BATCH_NONCES`` nonces per slice, one
    ``hash_batch`` call each when the PoW function has one (HashCore
    does), and the cancel flag is read before every slice.  A batch that
    raises is replayed nonce-by-nonce so a single poisoned seed still
    poisons only itself.
    """
    header_bytes, start, count, target, seq = args
    pow_fn = _WORKER_POW
    cancel = _WORKER_CANCEL
    began = time.perf_counter()
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.apply(seq)
    pid = os.getpid()
    if cancel.value:
        # A solution was broadcast while this chunk sat in the queue:
        # don't launch the scan at all.
        return (None, None, 0, 0, time.perf_counter() - began, pid, True,
                None)
    header = BlockHeader.deserialize(header_bytes)
    hash_batch = getattr(pow_fn, "hash_batch", None)
    hashes = 0
    poisoned = 0
    found = None
    digest = None
    cancelled = False
    nonce = start
    end = start + count
    while nonce < end and found is None:
        if cancel.value:
            cancelled = True
            break
        sub = range(nonce, min(nonce + _BATCH_NONCES, end))
        nonce = sub.stop
        datas = [header.with_nonce(n).serialize() for n in sub]
        candidates: list[bytes | None] | None = None
        if hash_batch is not None:
            try:
                candidates = hash_batch(datas)
            except ReproError:
                candidates = None  # replay below to isolate the bad seed
        if candidates is None:
            candidates = []
            for data in datas:
                try:
                    candidates.append(pow_fn.hash(data))
                except ReproError:
                    # Poisoned seed: this nonce's widget cannot be
                    # evaluated (fuse trip, generator failure).  Skip the
                    # seed, keep the batch — and the engine — alive.
                    candidates.append(None)
        for n, candidate in zip(sub, candidates):
            if candidate is None:
                poisoned += 1
                continue
            hashes += 1
            if meets_target(candidate, target):
                found = n
                digest = candidate
                break
    stats_fn = getattr(pow_fn, "cache_stats", None)
    stats = stats_fn() if callable(stats_fn) else None
    elapsed = time.perf_counter() - began
    return (found, digest, hashes, poisoned, elapsed, pid, cancelled, stats)


@dataclass(slots=True)
class _Chunk:
    """One submitted nonce range and its supervision bookkeeping."""

    seq: int
    start: int
    count: int
    attempt: int = 0
    deadline: float = math.inf  # absolute perf_counter watchdog deadline


@dataclass(slots=True)
class WorkerStats:
    """Accumulated per-worker counters from the stats channel."""

    pid: int
    batches: int = 0
    hashes: int = 0
    busy_seconds: float = 0.0
    cancelled_batches: int = 0
    #: Latest ``cache_stats()`` document the worker's PoW object reported
    #: (None when the PoW function exposes no cache statistics).
    cache_stats: dict | None = None

    @property
    def hashrate(self) -> float:
        """This worker's busy-time hash rate.

        0.0 — never a raise or ``inf`` — before the first batch lands or
        when the measured busy time is still zero (a report generated
        before any chunk completes); regression-tested in
        ``tests/test_mining_engine.py``.
        """
        return self.hashes / self.busy_seconds if self.busy_seconds > 0 else 0.0


@dataclass(slots=True)
class HealthReport:
    """Supervision counters over the engine's lifetime.

    All zeros on a healthy run — that is the assertion the happy-path
    tests make.  ``degradations`` aggregates the workers' execution-tier
    fall-back counters (``{"jit->timed": n}``) from the stats channel;
    ``close_errors`` records exceptions raised while
    :meth:`MiningEngine.close` shuts the pool down.
    """

    respawns: int = 0
    chunk_timeouts: int = 0
    requeues: int = 0
    deadline_exceeded: int = 0
    poisoned_seeds: int = 0
    degradations: dict[str, int] = field(default_factory=dict)
    close_errors: list[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when no fault of any kind has been observed."""
        return (
            self.respawns == 0
            and self.chunk_timeouts == 0
            and self.requeues == 0
            and self.deadline_exceeded == 0
            and self.poisoned_seeds == 0
            and not self.degradations
            and not self.close_errors
        )


@dataclass(slots=True)
class EngineReport:
    """Aggregate hashrate report across everything the engine has mined."""

    workers: int
    batches: int
    hashes: int
    wall_seconds: float
    busy_seconds: float
    chunk: int
    per_worker: dict[int, WorkerStats] = field(default_factory=dict)
    health: HealthReport = field(default_factory=HealthReport)
    #: Aggregate widget executions per machine tier across all workers
    #: (``{"jit": n, "timed": n}``) — shows where
    #: attempts actually ran after any tier degradations.  Empty when the
    #: PoW function reports no tier counters (e.g. SHA-256d).
    tier_runs: dict[str, int] = field(default_factory=dict)

    @property
    def hashrate(self) -> float:
        """Aggregate hashes per wall-clock second.

        0.0 before any mining has happened (zero wall time) — the same
        no-raise contract as :attr:`WorkerStats.hashrate`.
        """
        return self.hashes / self.wall_seconds if self.wall_seconds > 0 else 0.0


class MiningEngine:
    """A long-lived, supervised multi-process nonce-search engine.

    ``pow_factory`` must be picklable and is invoked once per worker
    process (see :func:`_engine_init`).  The engine may be used for many
    headers; workers — and the warm caches inside their PoW functions —
    persist until :meth:`close`.  Usable as a context manager.

    Supervision knobs: ``chunk_timeout`` is the per-chunk watchdog
    deadline in seconds (``None``: derived from the EMA chunk timing,
    ``0``: watchdog disabled); ``max_respawns`` bounds pool rebuilds after
    worker crashes *per mined header*; ``max_chunk_retries`` bounds how
    often one chunk may be requeued after timing out;
    ``respawn_backoff`` seeds the exponential post-crash backoff sleep.
    """

    def __init__(
        self,
        pow_factory: Callable[[], PowFunction],
        *,
        workers: int = 2,
        target_batch_seconds: float = 0.5,
        initial_chunk: int = 32,
        min_chunk: int = 8,
        max_chunk: int = 1 << 20,
        chunk_timeout: float | None = None,
        max_respawns: int = 3,
        max_chunk_retries: int = 3,
        respawn_backoff: float = 0.05,
        _fault_plan: _FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise PowError("workers must be >= 1")
        if target_batch_seconds <= 0:
            raise PowError("target_batch_seconds must be positive")
        if not 1 <= min_chunk <= initial_chunk <= max_chunk:
            raise PowError("need 1 <= min_chunk <= initial_chunk <= max_chunk")
        if chunk_timeout is not None and chunk_timeout < 0:
            raise PowError("chunk_timeout must be >= 0 (0 disables)")
        if max_respawns < 0 or max_chunk_retries < 0:
            raise PowError("max_respawns/max_chunk_retries must be >= 0")
        self.pow_factory = pow_factory
        self.workers = workers
        self.target_batch_seconds = target_batch_seconds
        self.min_chunk = min_chunk
        self.max_chunk = max_chunk
        self.chunk_timeout = chunk_timeout
        self.max_respawns = max_respawns
        self.max_chunk_retries = max_chunk_retries
        self.respawn_backoff = respawn_backoff
        self._fault_plan = _fault_plan
        self._chunk = float(initial_chunk)
        self._rate_ema: float | None = None  # per-worker hashes/second
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        # Lock-free on purpose: the watchdog and crash recovery terminate
        # workers, and one killed while holding an Event's lock would
        # leave it held, hanging the parent's next set().  The flag
        # reaches workers as a pool initarg and outlives pool rebuilds.
        self._cancel = multiprocessing.RawValue(ctypes.c_bool, False)
        self._stats: dict[int, WorkerStats] = {}
        self._batches = 0
        self._hashes = 0
        self._busy = 0.0
        self._wall = 0.0
        self._seq = 0  # global chunk sequence number (fault-plan anchor)
        self._health = HealthReport()

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_engine_init,
            initargs=(self.pow_factory, self._cancel, self._fault_plan),
        )

    def _teardown_pool(self, kill: bool = False) -> None:
        """Drop the worker pool; ``kill`` terminates worker processes first
        (the only way to reclaim a pool slot from a hung widget)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 — already-dead process
                    pass
        pool.shutdown(wait=not kill, cancel_futures=True)

    def _chunk_size(self) -> int:
        return max(self.min_chunk, min(self.max_chunk, int(self._chunk)))

    def _watchdog_deadline(self, count: int, now: float) -> float:
        """Absolute deadline for a chunk of ``count`` nonces submitted now."""
        if self.chunk_timeout is not None:
            if self.chunk_timeout == 0:
                return math.inf  # watchdog disabled
            return now + self.chunk_timeout
        estimate = count / self._rate_ema if self._rate_ema else 0.0
        return now + max(_WATCHDOG_FLOOR_SECONDS, _WATCHDOG_GRACE * estimate)

    def _record(
        self,
        pid: int,
        hashes: int,
        elapsed: float,
        cancelled: bool,
        cache_stats: dict | None,
    ) -> None:
        stats = self._stats.get(pid)
        if stats is None:
            stats = self._stats[pid] = WorkerStats(pid=pid)
        stats.batches += 1
        stats.hashes += hashes
        stats.busy_seconds += elapsed
        stats.cancelled_batches += 1 if cancelled else 0
        if cache_stats is not None:
            stats.cache_stats = cache_stats
        self._batches += 1
        self._hashes += hashes
        self._busy += elapsed
        if hashes and elapsed > 0:
            rate = hashes / elapsed
            self._rate_ema = (
                rate
                if self._rate_ema is None
                else 0.7 * self._rate_ema + 0.3 * rate
            )
            self._chunk = max(
                1.0, self._rate_ema * self.target_batch_seconds
            )

    # -- supervision ---------------------------------------------------
    def _recover_from_crash(
        self,
        pending: dict,
        requeue: deque,
        crashes: int,
    ) -> None:
        """A worker died and broke the pool: requeue every in-flight chunk,
        rebuild the pool (with backoff) and keep mining — unless this was
        crash number ``max_respawns + 1`` on the header, which raises
        ``EngineFault("worker-crash")``."""
        if crashes > self.max_respawns:
            raise EngineFault(
                "worker-crash",
                f"worker pool died {crashes} times mining one "
                f"header (max_respawns={self.max_respawns})",
            )
        for chunk in pending.values():
            chunk.attempt += 1
            requeue.append(chunk)
        self._health.requeues += len(pending)
        pending.clear()
        self._health.respawns += 1
        if self._fault_plan is not None and self._fault_plan.one_shot:
            # The injected kill has fired; the rebuilt pool runs clean.
            self._fault_plan = replace(self._fault_plan, kill_chunk=None)
        self._teardown_pool(kill=True)
        time.sleep(
            min(
                self.respawn_backoff * (2 ** (crashes - 1)),
                _MAX_RESPAWN_BACKOFF,
            )
        )
        self._ensure_pool()

    def _expire_hung_chunks(
        self, pending: dict, requeue: deque, now: float, fatal: bool
    ) -> None:
        """Watchdog tick: if any in-flight chunk outlived its deadline,
        kill the pool (the hung worker cannot be reclaimed any other way),
        requeue everything in flight and rebuild.

        ``fatal`` is False once a solution is in hand — a straggling hung
        chunk is then discarded, never escalated to an
        ``EngineFault("chunk-timeout")``.
        """
        expired = [c for c in pending.values() if now >= c.deadline]
        if not expired:
            return
        self._health.chunk_timeouts += len(expired)
        exhausted = [c for c in expired if c.attempt >= self.max_chunk_retries]
        for chunk in pending.values():
            chunk.attempt += 1
            requeue.append(chunk)
        self._health.requeues += len(pending)
        pending.clear()
        if self._fault_plan is not None and self._fault_plan.one_shot:
            self._fault_plan = replace(self._fault_plan, stall_chunk=None)
        self._teardown_pool(kill=True)
        if exhausted and fatal:
            chunk = exhausted[0]
            raise EngineFault(
                "chunk-timeout",
                f"chunk {chunk.seq} (nonces {chunk.start}.."
                f"{chunk.start + chunk.count - 1}) timed out on attempt "
                f"{chunk.attempt + 1} (max_chunk_retries="
                f"{self.max_chunk_retries})",
            )
        if fatal:
            self._ensure_pool()

    def _abandon_inflight(self, pending: dict) -> None:
        """Deadline expiry: broadcast cancel, give running workers a second
        to finish their current slice, then kill whatever is still stuck.

        A slice is one nonce, so a worker normally returns inside the
        second and the pool survives.  A hash longer than a second (the
        timed tier, or a hung widget) costs the pool, which is rebuilt on
        next use."""
        self._cancel.value = True
        for future in pending:
            future.cancel()
        _done, not_done = concurrent.futures.wait(pending, timeout=1.0)
        if not_done:
            self._teardown_pool(kill=True)
        pending.clear()

    def _wait_timeout(
        self, pending: dict, budget: float | None, now: float
    ) -> float | None:
        """How long the next ``wait`` may block before a watchdog or
        deadline check is due (None: nothing to watch)."""
        soonest = min(chunk.deadline for chunk in pending.values())
        if budget is not None:
            soonest = min(soonest, budget)
        if soonest == math.inf:
            return None
        return max(0.01, soonest - now)

    # ------------------------------------------------------------------
    def mine_header(
        self,
        header: BlockHeader,
        *,
        max_attempts: int = 1_000_000,
        start_nonce: int = 0,
        deadline: float | None = None,
    ) -> tuple[BlockHeader, bytes, int]:
        """Search nonces for ``header``; same triple as ``mine_header``.

        ``attempts`` counts nonces actually consumed — hashes computed
        plus poisoned seeds skipped; cancelled ranges credit only what
        they scanned — so it never exceeds ``max_attempts``.
        ``deadline`` bounds the search in wall-clock seconds.

        Raises :class:`PowError` when the nonce budget is exhausted
        without a solution, and :class:`~repro.errors.EngineFault` when
        supervision gives up (codes ``worker-crash``, ``chunk-timeout``,
        ``deadline-exceeded``).
        """
        if max_attempts < 1:
            raise PowError("max_attempts must be >= 1")
        if deadline is not None and deadline <= 0:
            raise PowError("deadline must be positive")
        self._ensure_pool()
        self._cancel.value = False
        target = compact_to_target(header.bits)
        header_bytes = header.serialize()
        end_nonce = start_nonce + max_attempts
        next_nonce = start_nonce
        attempts = 0
        crashes = 0
        best: tuple[int, bytes] | None = None
        pending: dict[concurrent.futures.Future, _Chunk] = {}
        requeue: deque[_Chunk] = deque()
        began = time.perf_counter()
        budget = None if deadline is None else began + deadline
        try:
            while True:
                now = time.perf_counter()
                submit_failed = False
                while (
                    best is None
                    and len(pending) < self.workers
                    and (requeue or next_nonce < end_nonce)
                ):
                    if requeue:
                        chunk = requeue.popleft()
                    else:
                        count = min(self._chunk_size(), end_nonce - next_nonce)
                        chunk = _Chunk(
                            seq=self._seq, start=next_nonce, count=count
                        )
                        self._seq += 1
                        next_nonce += count
                    chunk.deadline = self._watchdog_deadline(chunk.count, now)
                    try:
                        future = self._pool.submit(
                            _engine_search,
                            (header_bytes, chunk.start, chunk.count, target,
                             chunk.seq),
                        )
                    except BrokenProcessPool:
                        # A worker died between waits; recover below.
                        requeue.appendleft(chunk)
                        submit_failed = True
                        break
                    pending[future] = chunk
                if submit_failed:
                    crashes += 1
                    self._recover_from_crash(pending, requeue, crashes)
                    continue
                if not pending:
                    break
                done, _ = concurrent.futures.wait(
                    pending,
                    timeout=self._wait_timeout(pending, budget, now),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                now = time.perf_counter()
                if budget is not None and now >= budget and best is None:
                    self._abandon_inflight(pending)
                    self._health.deadline_exceeded += 1
                    raise EngineFault(
                        "deadline-exceeded",
                        f"no solution within the {deadline}s wall-clock "
                        f"budget ({attempts} attempts)",
                    )
                if not done:
                    self._expire_hung_chunks(
                        pending, requeue, now, fatal=best is None
                    )
                    continue
                broken = False
                for future in done:
                    chunk = pending.pop(future)
                    if future.cancelled():
                        continue  # never launched: nonces never scanned
                    try:
                        (found, digest, hashes, poisoned, elapsed, pid,
                         cancelled, stats) = future.result()
                    except BrokenProcessPool:
                        requeue.appendleft(chunk)
                        chunk.attempt += 1
                        self._health.requeues += 1
                        broken = True
                        continue
                    attempts += hashes + poisoned
                    self._health.poisoned_seeds += poisoned
                    self._record(pid, hashes, elapsed, cancelled, stats)
                    if found is not None and (best is None or found < best[0]):
                        best = (found, digest)
                        # Broadcast: in-flight workers drop their ranges,
                        # still-queued chunks are cancelled before launch.
                        self._cancel.value = True
                        for other in pending:
                            other.cancel()
                if broken:
                    if best is not None:
                        # The search is already won; drop the broken
                        # remains instead of rebuilding mid-drain.
                        pending.clear()
                        self._teardown_pool(kill=True)
                        continue
                    crashes += 1
                    self._recover_from_crash(pending, requeue, crashes)
        finally:
            self._wall += time.perf_counter() - began
        if best is not None:
            return header.with_nonce(best[0]), best[1], attempts
        raise PowError(
            f"no solution in {max_attempts} attempts (mining engine)"
        )

    def _sum_worker_tiers(self, key: str) -> dict[str, int]:
        """Sum one counter map of the workers' tier documents
        (``cache_stats()["tiers"][key]``), such as ``"runs"``.

        Each worker's tier counters are cumulative over the worker
        process's lifetime, so summing the latest snapshot per pid counts
        every event exactly once."""
        aggregate: dict[str, int] = {}
        for stats in self._stats.values():
            tiers = (stats.cache_stats or {}).get("tiers") or {}
            for name, count in tiers.get(key, {}).items():
                aggregate[name] = aggregate.get(name, 0) + count
        return aggregate

    def health(self) -> HealthReport:
        """Current supervision counters (lifetime of the engine)."""
        return replace(
            self._health,
            degradations=self._sum_worker_tiers("degradations"),
            close_errors=list(self._health.close_errors),
        )

    def report(self) -> EngineReport:
        """Aggregate hashrate/stats report over the engine's lifetime."""
        return EngineReport(
            workers=self.workers,
            batches=self._batches,
            hashes=self._hashes,
            wall_seconds=self._wall,
            busy_seconds=self._busy,
            chunk=self._chunk_size(),
            # Copies: a report must not change as the engine mines on.
            per_worker={
                pid: replace(stats) for pid, stats in self._stats.items()
            },
            health=self.health(),
            tier_runs=self._sum_worker_tiers("runs"),
        )

    def close(self) -> None:
        """Shut the pool down.  Safe to call twice; the engine rebuilds its
        pool lazily if mined again afterwards.

        Sets the cancel flag first so straggling workers drop their
        ranges.  An exception from the pool's shutdown is recorded on
        ``health().close_errors`` instead of being swallowed.
        """
        self._cancel.value = True
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception as exc:  # noqa: BLE001
                self._health.close_errors.append(f"pool: {exc!r}")
            self._pool = None

    def __enter__(self) -> "MiningEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def mine_header_engine(
    header: BlockHeader,
    pow_factory: Callable[[], PowFunction],
    *,
    workers: int = 2,
    max_attempts: int = 1_000_000,
    start_nonce: int = 0,
    **engine_kwargs,
) -> tuple[BlockHeader, bytes, int]:
    """One-shot convenience: mine a single header on a fresh engine.

    Prefer holding a :class:`MiningEngine` open when mining several
    headers — that is the whole point of the persistent pool.
    """
    with MiningEngine(pow_factory, workers=workers, **engine_kwargs) as engine:
        return engine.mine_header(
            header, max_attempts=max_attempts, start_nonce=start_nonce
        )
