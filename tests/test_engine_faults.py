"""Deterministic fault-injection tests for the supervised mining engine.

Every fault test pins the chunk size (``chunk=4``) so chunk sequence
number *s* always covers nonces ``[4s, 4s+4)``, and mines a header whose
first SHA-256d solution provably lands in chunk 2 (nonces 8..11).  That
makes the fault schedule exact: a ``_FaultPlan`` keyed on chunk 1 fires
before the solution chunk ever runs, a plan keyed on chunk 2 stalls the
solution chunk itself, and the supervision counters the engine reports
can be asserted with ``==``, not ``>=`` — including on replay with a
second fresh engine (the acceptance criterion).

The whole file is ``faults``-marked: ``tests/conftest.py`` arms a SIGALRM
watchdog around each test so a supervision bug shows up as a failure, not
a hung CI job.
"""

from __future__ import annotations

import functools
import multiprocessing
import time

import pytest

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import BlockHeader
from repro.blockchain.mining_engine import MiningEngine, _FaultPlan
from repro.core.pow import (
    compact_to_target,
    difficulty_to_target,
    meets_target,
    target_to_compact,
)
from repro.errors import EngineFault, GenerationError, PowError

pytestmark = pytest.mark.faults

#: Fixed chunk geometry for every test in this file: chunk seq s covers
#: nonces [4s, 4s+4).
CHUNK = 4

EASY_BITS = target_to_compact(difficulty_to_target(200.0))
IMPOSSIBLE_BITS = target_to_compact(difficulty_to_target(2.0**40))


def _header(bits: int, tag: int = 0) -> BlockHeader:
    return BlockHeader(1, bytes(32), tag.to_bytes(32, "little"), 0, bits, 0)


def _first_solution(header: BlockHeader, limit: int) -> int | None:
    """First nonce in ``[0, limit)`` meeting the header's target (the
    sequential ground truth the engine must reproduce)."""
    pow_fn = Sha256d()
    target = compact_to_target(header.bits)
    for nonce in range(limit):
        digest = pow_fn.hash(header.with_nonce(nonce).serialize())
        if meets_target(digest, target):
            return nonce
    return None


@functools.cache
def _chunk2_header() -> tuple[BlockHeader, int]:
    """A header whose *first* SHA-256d solution lands in chunk 2 (nonces
    8..11): chunks 0 and 1 are then guaranteed solution-free, so faults
    injected on them must be survived before the answer is reachable."""
    bits = target_to_compact(difficulty_to_target(8.0))
    for tag in range(20_000):
        header = _header(bits, tag)
        nonce = _first_solution(header, 3 * CHUNK)
        if nonce is not None and nonce >= 2 * CHUNK:
            return header, nonce
    raise AssertionError("no test header with a chunk-2 first solution")


def _engine(factory=Sha256d, **overrides) -> MiningEngine:
    kwargs = dict(
        workers=2,
        chunk=CHUNK,
        respawn_backoff=0.01,
    )
    kwargs.update(overrides)
    return MiningEngine(factory, **kwargs)


class _PoisonedSha256d(Sha256d):
    """SHA-256d whose widget generator 'fails' for exactly one nonce —
    the poisoned-seed stand-in (module level so workers can pickle it)."""

    POISON_NONCE = 5  # inside chunk 1 of the _chunk2_header search

    def hash(self, data: bytes) -> bytes:
        if BlockHeader.deserialize(data).nonce == self.POISON_NONCE:
            raise GenerationError("injected poisoned seed")
        return super().hash(data)


class _SlowSha256d(Sha256d):
    """SHA-256d at about 2 ms a hash: a 160-nonce chunk then takes about
    0.3 s, long enough for a cancel to land while it is in flight."""

    def hash(self, data: bytes) -> bytes:
        time.sleep(0.002)
        return super().hash(data)


class _SleepySha256d(Sha256d):
    """SHA-256d at 0.2 s a hash: a worker reads the cancel flag before
    every nonce, so it ends the hash in hand well inside the second a
    deadline gives in-flight workers, where a scan of five nonces or more
    without reading the flag would not."""

    def hash(self, data: bytes) -> bytes:
        time.sleep(0.2)
        return super().hash(data)


#: Chunk geometry of the cancellation test.  Workers read the cancel flag
#: before every nonce, so chunk 0's worker reads it 160 times a chunk.
CANCEL_CHUNK = 160


@functools.cache
def _chunk1_header() -> tuple[BlockHeader, int]:
    """A difficulty-2000 header with no solution in chunk 0 and its first
    solution in nonces 160..167, chunk 1's first eight nonces (at most
    eight hashes, about 16 ms into the chunk)."""
    bits = target_to_compact(difficulty_to_target(2000.0))
    for tag in range(100_000):
        header = _header(bits, tag)
        nonce = _first_solution(header, CANCEL_CHUNK + 8)
        if nonce is not None and nonce >= CANCEL_CHUNK:
            return header, nonce
    raise AssertionError("no test header with a chunk-1 first solution")


class TestCrossProcessCancel:
    def test_solution_cancels_inflight_worker(self):
        header, expected = _chunk1_header()
        with _engine(_SlowSha256d, chunk=CANCEL_CHUNK) as engine:
            # Warm both workers, so chunks 0 and 1 start side by side.
            engine.mine_header(
                _header(target_to_compact(difficulty_to_target(1.0))),
                max_attempts=2 * CANCEL_CHUNK,
            )
            before = engine.report()
            solved, digest, attempts = engine.mine_header(
                header, max_attempts=2 * CANCEL_CHUNK
            )
            after = engine.report()
        assert solved.nonce == expected
        assert Sha256d().hash(solved.serialize()) == digest
        # Chunk 0 alone is 160 nonces: fewer attempts means its worker, in
        # another process, saw the broadcast and dropped the rest.
        assert attempts < CANCEL_CHUNK
        cancelled = sum(
            w.cancelled_batches for w in after.per_worker.values()
        ) - sum(w.cancelled_batches for w in before.per_worker.values())
        assert cancelled >= 1


class TestWorkerCrashRecovery:
    def test_kill_recovers_and_finds_known_solution(self):
        header, expected = _chunk2_header()
        # One worker keeps one chunk in flight, so the crash on chunk 1 is
        # always observed before the solution chunk is submitted.  With two
        # workers the other one could scan chunk 2 first, and the engine
        # rightly keeps a found solution without rebuilding the pool.
        plan = _FaultPlan(kill_chunk=1)
        with _engine(workers=1, _fault_plan=plan) as engine:
            solved, digest, attempts = engine.mine_header(
                header, max_attempts=expected + 1
            )
            health = engine.health()
        # max_attempts == expected + 1, so the only admissible solution is
        # the sequential ground truth — despite the mid-search pool death.
        assert solved.nonce == expected
        assert Sha256d().hash(solved.serialize()) == digest
        assert attempts <= expected + 1
        assert health.respawns == 1
        assert health.chunk_timeouts == 0
        assert health.requeues >= 1  # the killed worker's in-flight chunks
        assert not health.healthy

    def test_repeated_kill_exhausts_respawns(self):
        plan = _FaultPlan(kill_chunk=0, one_shot=False)
        with _engine(workers=1, max_respawns=1, _fault_plan=plan) as engine:
            with pytest.raises(EngineFault) as excinfo:
                engine.mine_header(_header(EASY_BITS), max_attempts=64)
            health = engine.health()
        assert excinfo.value.code == "worker-crash"
        assert health.respawns == 1  # rebuilt once, then gave up


class TestHungChunkWatchdog:
    def test_stall_trips_watchdog_and_recovers(self):
        header, expected = _chunk2_header()
        plan = _FaultPlan(stall_chunk=2, stall_seconds=30.0)
        with _engine(chunk_timeout=1.0, _fault_plan=plan) as engine:
            solved, digest, _ = engine.mine_header(
                header, max_attempts=expected + 1
            )
            health = engine.health()
        assert solved.nonce == expected
        assert meets_target(digest, compact_to_target(header.bits))
        assert health.chunk_timeouts == 1
        assert health.respawns == 0
        assert health.requeues >= 1

    def test_stall_on_every_retry_exhausts_chunk_retries(self):
        plan = _FaultPlan(stall_chunk=0, stall_seconds=30.0, one_shot=False)
        with _engine(
            workers=1,
            chunk_timeout=0.4,
            max_chunk_retries=1,
            _fault_plan=plan,
        ) as engine:
            with pytest.raises(EngineFault) as excinfo:
                engine.mine_header(_header(EASY_BITS), max_attempts=64)
            health = engine.health()
        assert excinfo.value.code == "chunk-timeout"
        assert health.chunk_timeouts == 2  # initial attempt + one retry
        # The message names the attempt that timed out: the second.
        assert "on attempt 2 " in str(excinfo.value)


def _child_pids() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


class TestDeadline:
    def test_deadline_raises_structured_fault_and_engine_survives(self):
        engine = _engine(chunk=None)  # adaptive chunks
        try:
            with pytest.raises(EngineFault) as excinfo:
                engine.mine_header(
                    _header(IMPOSSIBLE_BITS),
                    max_attempts=1 << 40,
                    deadline=0.75,
                )
            assert excinfo.value.code == "deadline-exceeded"
            assert engine.health().deadline_exceeded == 1
            # The engine must remain usable after a deadline abort.
            solved, digest, _ = engine.mine_header(
                _header(EASY_BITS), max_attempts=100_000
            )
            assert meets_target(digest, compact_to_target(EASY_BITS))
        finally:
            engine.close()

    def test_deadline_keeps_the_pool(self):
        # A worker hashes one 0.2 s nonce between reads of the cancel
        # flag, so each in-flight worker sees the cancel within the second
        # the deadline grants and the same processes mine the next header.
        # A 32-nonce chunk is 6.4 s of work: a worker that scanned it
        # without reading the flag would be killed.
        trivial = target_to_compact(difficulty_to_target(1.0))
        before = _child_pids()
        with _engine(_SleepySha256d, chunk=32) as engine:
            # Warm: both workers take a chunk; any nonce solves.
            engine.mine_header(_header(trivial), max_attempts=64)
            workers = _child_pids() - before
            assert len(workers) == 2
            hashes = engine.report().hashes
            with pytest.raises(EngineFault) as excinfo:
                engine.mine_header(
                    _header(IMPOSSIBLE_BITS),
                    max_attempts=1 << 40,
                    deadline=0.75,
                )
            assert excinfo.value.code == "deadline-exceeded"
            # No chunk ends before the deadline: the hashes the workers
            # did are counted from the chunks that end in its grace second.
            waited = engine.report().hashes - hashes
            assert waited >= 2
            assert f"({waited} attempts)" in str(excinfo.value)
            _, digest, _ = engine.mine_header(
                _header(trivial, tag=1), max_attempts=64
            )
            assert meets_target(digest, compact_to_target(trivial))
            assert _child_pids() - before == workers
            health = engine.health()
        assert health.respawns == 0
        assert health.deadline_exceeded == 1


class TestPoisonedSeeds:
    def test_poisoned_nonce_is_skipped_not_fatal(self):
        header, expected = _chunk2_header()
        # One worker, as in the kill test: with two, the other worker
        # could scan chunk 2 (the solution) before chunk 1 starts, and the
        # engine rightly cancels chunk 1 without scanning poisoned nonce 5.
        with _engine(_PoisonedSha256d, workers=1) as engine:
            solved, digest, attempts = engine.mine_header(
                header, max_attempts=expected + 1
            )
            health = engine.health()
        assert solved.nonce == expected
        assert Sha256d().hash(solved.serialize()) == digest
        assert health.poisoned_seeds == 1  # exactly nonce 5
        assert attempts <= expected + 1  # poisoned seeds count as attempts


class TestAcceptanceReplay:
    def test_kill_and_stall_still_find_known_nonce_exact_counts_on_replay(
        self,
    ):
        """ISSUE acceptance: one injected worker kill plus one injected
        chunk stall; the engine still returns the correct nonce and the
        health report records *exactly* the injected counts — twice, on
        fresh engines, to prove the schedule is deterministic."""
        header, expected = _chunk2_header()
        for _replay in range(2):
            plan = _FaultPlan(kill_chunk=1, stall_chunk=2, stall_seconds=30.0)
            with _engine(chunk_timeout=1.0, _fault_plan=plan) as engine:
                solved, digest, attempts = engine.mine_header(
                    header, max_attempts=expected + 1
                )
                health = engine.health()
                report = engine.report()
            assert solved.nonce == expected
            assert Sha256d().hash(solved.serialize()) == digest
            assert attempts <= expected + 1
            assert health.respawns == 1
            assert health.chunk_timeouts == 1
            assert health.deadline_exceeded == 0
            assert health.poisoned_seeds == 0
            assert not health.healthy
            # The same counters must surface through EngineReport.
            assert report.health.respawns == 1
            assert report.health.chunk_timeouts == 1


class TestCloseHygiene:
    def test_unexpected_close_error_is_recorded_not_swallowed(self):
        engine = _engine(workers=1)
        engine.mine_header(_header(EASY_BITS), max_attempts=100_000)
        pool = engine._pool
        shutdown = pool.shutdown

        def exploding_shutdown(*args, **kwargs):
            shutdown(*args, **kwargs)
            raise RuntimeError("pool shutdown failed")

        pool.shutdown = exploding_shutdown
        engine.close()  # must complete despite the exploding shutdown
        errors = engine.health().close_errors
        assert len(errors) == 1
        assert errors[0].startswith("pool:")
        assert "RuntimeError" in errors[0]
        assert engine._pool is None


class TestHappyPathHealth:
    def test_clean_run_reports_healthy(self):
        with _engine() as engine:
            solved, digest, _ = engine.mine_header(
                _header(EASY_BITS), max_attempts=100_000
            )
            health = engine.health()
        assert meets_target(digest, compact_to_target(EASY_BITS))
        assert health.healthy
        assert health.respawns == 0
        assert health.chunk_timeouts == 0
        assert health.requeues == 0
        assert health.poisoned_seeds == 0
        assert health.degradations == {}
        assert health.close_errors == []
