"""Tests for the persistent-worker mining engine (SHA-256d PoW for speed,
plus the HashCore variants at test scale)."""

from __future__ import annotations

import concurrent.futures
import multiprocessing

import pytest

from repro.baselines.sha256d import Sha256d
from repro.blockchain import mining_engine
from repro.blockchain.block import BlockHeader
from repro.blockchain.miner import mine_header
from repro.blockchain.mining_engine import (
    EngineReport,
    MiningEngine,
    WorkerStats,
)
from repro.core.default_profile import default_profile
from repro.core.pow import (
    compact_to_target,
    difficulty_to_target,
    meets_target,
    target_to_compact,
)
from repro.core.rotation import RotatingHashCore, SelectionHashCore
from repro.core.suite_profiles import suite_profiles
from repro.errors import GenerationError, PowError
from repro.widgetgen.params import GeneratorParams
from repro.widgetgen.pool import WidgetPool

EASY_BITS = target_to_compact(difficulty_to_target(200.0))
IMPOSSIBLE_BITS = target_to_compact(difficulty_to_target(2.0**40))


def _header(bits: int, tag: int = 0) -> BlockHeader:
    return BlockHeader(1, bytes(32), tag.to_bytes(32, "little"), 0, bits, 0)


class TestMiningEngine:
    def test_finds_solution(self):
        header = _header(EASY_BITS)
        with MiningEngine(Sha256d, workers=2) as engine:
            solved, digest, attempts = engine.mine_header(
                header, max_attempts=100_000
            )
        assert meets_target(digest, compact_to_target(EASY_BITS))
        assert Sha256d().hash(solved.serialize()) == digest
        assert attempts >= 1

    def test_runs_only_its_workers(self):
        # The cancel flag is shared memory, not a server process: an open
        # engine adds exactly its workers to this process's children.
        before = set(multiprocessing.active_children())
        with MiningEngine(Sha256d, workers=2) as engine:
            engine.mine_header(_header(EASY_BITS), max_attempts=100_000)
            added = set(multiprocessing.active_children()) - before
            workers = set(engine._pool._processes)
        assert len(added) == 2
        assert {process.pid for process in added} == workers

    def test_persists_across_headers(self):
        # Two headers on one engine: the pool must be reused, both must
        # solve, and the report must aggregate both searches.
        with MiningEngine(Sha256d, workers=2) as engine:
            for tag in range(2):
                solved, digest, _ = engine.mine_header(
                    _header(EASY_BITS, tag), max_attempts=100_000
                )
                assert meets_target(digest, compact_to_target(EASY_BITS))
            report = engine.report()
        assert report.workers == 2
        assert report.batches >= 2
        assert report.hashes >= 2
        assert report.wall_seconds > 0
        assert report.hashrate > 0

    def test_exhaustion_raises(self):
        with MiningEngine(Sha256d, workers=2, chunk=16) as engine:
            with pytest.raises(PowError):
                engine.mine_header(
                    _header(IMPOSSIBLE_BITS), max_attempts=64
                )

    def test_attempts_never_exceed_max_attempts(self):
        # Budget smaller than the chunk: the submitted range must be
        # trimmed and the attempt count must reflect hashes computed.
        with MiningEngine(Sha256d, workers=2, chunk=1000) as engine:
            solved, digest, attempts = engine.mine_header(
                _header(target_to_compact(difficulty_to_target(2.0))),
                max_attempts=50,
            )
        assert 1 <= attempts <= 50
        assert solved.nonce < 50

    def test_start_nonce_respected(self):
        with MiningEngine(Sha256d, workers=2) as engine:
            solved, _, _ = engine.mine_header(
                _header(EASY_BITS), max_attempts=100_000, start_nonce=500
            )
        assert solved.nonce >= 500

    def test_per_worker_stats_channel(self):
        with MiningEngine(Sha256d, workers=2, chunk=8) as engine:
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS), max_attempts=64)
            report = engine.report()
        assert report.per_worker  # at least one worker reported
        for pid, stats in report.per_worker.items():
            assert stats.pid == pid
            assert stats.batches >= 1
            assert stats.hashes >= 1
            assert stats.busy_seconds > 0
            assert stats.hashrate > 0
        assert sum(s.hashes for s in report.per_worker.values()) == (
            report.hashes
        )

    def test_report_does_not_change_as_mining_goes_on(self):
        # A before/after delta over per_worker must see the second search.
        def counts(report):
            return {
                pid: (s.batches, s.hashes, s.cancelled_batches)
                for pid, s in report.per_worker.items()
            }

        with MiningEngine(Sha256d, workers=2, chunk=8) as engine:
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS), max_attempts=64)
            first = engine.report()
            kept = counts(first)
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS, tag=1),
                                   max_attempts=64)
            second = engine.report()
        assert counts(first) == kept
        assert sum(s.hashes for s in first.per_worker.values()) == 64
        assert sum(s.hashes for s in second.per_worker.values()) == 128

    def test_adaptive_chunk_grows_for_cheap_pow(self):
        # SHA-256d mines hundreds of thousands of nonces per second, so
        # after a few batches the adaptive chunk must leave its initial
        # 32 nonces far behind.
        with MiningEngine(Sha256d, workers=2) as engine:
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS),
                                   max_attempts=20_000)
            report = engine.report()
        assert report.chunk > 32

    def test_bad_params_rejected(self):
        with pytest.raises(PowError):
            MiningEngine(Sha256d, workers=0)
        with pytest.raises(PowError):
            MiningEngine(Sha256d, chunk=0)
        with pytest.raises(PowError):
            MiningEngine(Sha256d).mine_header(
                _header(EASY_BITS), max_attempts=0
            )

    def test_close_is_idempotent_and_reusable(self):
        engine = MiningEngine(Sha256d, workers=1)
        solved, _, _ = engine.mine_header(
            _header(EASY_BITS), max_attempts=100_000
        )
        engine.close()
        engine.close()  # second close must be a no-op
        # Mining again rebuilds the pool lazily.
        solved2, _, _ = engine.mine_header(
            _header(EASY_BITS, tag=1), max_attempts=100_000
        )
        engine.close()
        assert solved.nonce >= 0 and solved2.nonce >= 0


class _SliceRecorder(Sha256d):
    """SHA-256d that records the width of every ``hash_batch`` slice it is
    handed and counts every evaluation, ``hash`` and ``hash_batch`` alike;
    one poisoned nonce fails.  It reports both through ``cache_stats()``
    (module level so workers can pickle it)."""

    POISON_NONCE = 5

    def __init__(self) -> None:
        self.widths: list[int] = []
        self.evaluations = 0

    def hash(self, data: bytes) -> bytes:
        self.evaluations += 1
        if BlockHeader.deserialize(data).nonce == self.POISON_NONCE:
            raise GenerationError("injected poisoned seed")
        return super().hash(data)

    def hash_batch(self, datas: list[bytes]) -> list[bytes]:
        self.widths.append(len(datas))
        return [self.hash(data) for data in datas]

    def cache_stats(self) -> dict:
        return {"slice_widths": list(self.widths),
                "evaluations": self.evaluations}


class TestOneNonceSlices:
    def test_workers_hash_one_nonce_per_slice(self):
        # The cancel flag is read before every nonce, so one-nonce slices
        # stop a worker within one hash of a broadcast solution, and a
        # poisoned nonce is evaluated once, not replayed.
        with MiningEngine(_SliceRecorder, workers=2, chunk=8) as engine:
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS),
                                   max_attempts=16)
            report = engine.report()
        workers = report.per_worker.values()
        widths = [width for stats in workers
                  for width in stats.cache_stats["slice_widths"]]
        assert widths == [1] * 16
        assert sum(s.cache_stats["evaluations"] for s in workers) == 16
        assert report.health.poisoned_seeds == 1


class TestRecordOrder:
    def test_latest_snapshot_wins_when_chunks_finish_together(
        self, monkeypatch
    ):
        # A worker's cache_stats are cumulative, so the engine must fold
        # its chunks' records in the order it ran them.  Here one worker
        # (an in-process thread) runs both chunks, and ``wait`` returns
        # them together, newest first, as iterating its set may.
        real_wait = concurrent.futures.wait

        def wait_newest_first(fs, timeout=None, return_when=None):
            fs = list(fs)
            done, not_done = real_wait(fs, timeout=timeout)
            return sorted(done, key=fs.index, reverse=True), not_done

        engine = MiningEngine(_SliceRecorder, workers=2, chunk=8)
        monkeypatch.setattr(mining_engine, "_WORKER_POW", _SliceRecorder())
        monkeypatch.setattr(mining_engine, "_WORKER_CANCEL", engine._cancel)
        monkeypatch.setattr(mining_engine, "_WORKER_FAULTS", None)
        monkeypatch.setattr(concurrent.futures, "wait", wait_newest_first)
        engine._pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        with engine:
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS), max_attempts=16)
            (stats,) = engine.report().per_worker.values()
        assert stats.batches == 2
        assert stats.cache_stats["slice_widths"] == [1] * 16


class TestZeroElapsedReports:
    """Regression: reports generated before any chunk completes must give
    a 0.0 hashrate, never raise or return inf."""

    def test_report_before_any_mining(self):
        engine = MiningEngine(Sha256d, workers=1)
        try:
            report = engine.report()
        finally:
            engine.close()
        assert report.hashes == 0
        assert report.wall_seconds == 0.0
        assert report.hashrate == 0.0
        assert report.health.healthy

    def test_worker_stats_zero_busy_time(self):
        stats = WorkerStats(pid=1)
        assert stats.hashrate == 0.0
        # A batch whose measured elapsed time rounded to zero must not
        # divide by zero either.
        stats.hashes = 5
        assert stats.busy_seconds == 0.0
        assert stats.hashrate == 0.0

    def test_engine_report_zero_wall_time(self):
        report = EngineReport(
            workers=1, batches=1, hashes=10,
            wall_seconds=0.0, busy_seconds=0.0, chunk=8,
        )
        assert report.hashrate == 0.0


#: Difficulty 4 for the HashCore variants: a handful of test-scale hashes.
VARIANT_BITS = target_to_compact(difficulty_to_target(4.0))


def _rotating_pow() -> RotatingHashCore:
    return RotatingHashCore(suite_profiles(),
                            params=GeneratorParams.test_scale())


def _selection_pow() -> SelectionHashCore:
    pool = WidgetPool(default_profile(), GeneratorParams.test_scale(),
                      pool_size=8)
    return SelectionHashCore(pool, widgets_per_hash=2)


class TestHashCoreVariantsOnEngine:
    """The variants are HashCores, so the engine hands them to its workers
    and folds their tier counters into its report like HashCore's."""

    @pytest.mark.parametrize(
        "factory", [_rotating_pow, _selection_pow],
        ids=["rotating", "selection"],
    )
    def test_variant_mines_like_in_process(self, factory):
        # The nonce budget ends at the in-process solution, so it is the
        # only admissible answer, and its two chunks run on both workers.
        header = _header(VARIANT_BITS)
        expected, expected_digest, _ = mine_header(header, factory())
        chunk = max(1, (expected.nonce + 2) // 2)
        with MiningEngine(factory, workers=2, chunk=chunk) as engine:
            solved, digest, _ = engine.mine_header(
                header, max_attempts=expected.nonce + 1
            )
            report = engine.report()
        assert solved.nonce == expected.nonce
        assert digest == expected_digest
        assert report.tier_runs["jit"] > 0
        assert report.health.degradations == {}
