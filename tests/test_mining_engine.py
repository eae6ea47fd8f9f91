"""Tests for the persistent-worker mining engine (SHA-256d PoW for speed)."""

from __future__ import annotations

import multiprocessing
import os
import tempfile

import pytest

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import BlockHeader
from repro.blockchain.mining_engine import (
    EngineReport,
    MiningEngine,
    WorkerStats,
    mine_header_engine,
)
from repro.core.pow import (
    compact_to_target,
    difficulty_to_target,
    meets_target,
    target_to_compact,
)
from repro.errors import PowError

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

    def test_long_tmpdir_still_mines(self, tmp_path, monkeypatch):
        # The manager's default socket path under this TMPDIR is longer
        # than AF_UNIX allows; the engine must still start and mine.
        long_tmp = tmp_path / ("long-tmpdir-" + "x" * 100)
        long_tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(long_tmp))
        monkeypatch.setattr(tempfile, "tempdir", None)
        monkeypatch.setitem(
            multiprocessing.current_process()._config, "tempdir", None
        )
        header = _header(EASY_BITS)
        with MiningEngine(Sha256d, workers=2) as engine:
            solved, digest, _ = engine.mine_header(
                header, max_attempts=100_000
            )
            socket_dir = engine._manager_dir
        assert meets_target(digest, compact_to_target(EASY_BITS))
        assert Sha256d().hash(solved.serialize()) == digest
        assert socket_dir is not None and not os.path.exists(socket_dir)

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
        with MiningEngine(Sha256d, workers=2, initial_chunk=16,
                          min_chunk=8) as engine:
            with pytest.raises(PowError):
                engine.mine_header(
                    _header(IMPOSSIBLE_BITS), max_attempts=64
                )

    def test_attempts_never_exceed_max_attempts(self):
        # Budget smaller than the initial chunk: the submitted range must
        # be trimmed and the attempt count must reflect hashes computed.
        with MiningEngine(Sha256d, workers=2, initial_chunk=1000,
                          min_chunk=1) as engine:
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
        with MiningEngine(Sha256d, workers=2, initial_chunk=8,
                          min_chunk=1) as engine:
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

    def test_adaptive_chunk_grows_for_cheap_pow(self):
        # SHA-256d mines hundreds of thousands of nonces per second, so
        # after a few batches the adaptive chunk must leave its initial
        # value far behind.
        with MiningEngine(Sha256d, workers=2, initial_chunk=32,
                          target_batch_seconds=0.2) as engine:
            with pytest.raises(PowError):
                engine.mine_header(_header(IMPOSSIBLE_BITS),
                                   max_attempts=20_000)
            report = engine.report()
        assert report.chunk > 32

    def test_bad_params_rejected(self):
        with pytest.raises(PowError):
            MiningEngine(Sha256d, workers=0)
        with pytest.raises(PowError):
            MiningEngine(Sha256d, target_batch_seconds=0.0)
        with pytest.raises(PowError):
            MiningEngine(Sha256d, min_chunk=64, initial_chunk=8)
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


class TestConvenienceWrapper:
    def test_mine_header_engine(self):
        solved, digest, attempts = mine_header_engine(
            _header(EASY_BITS), Sha256d, workers=2, max_attempts=100_000
        )
        assert meets_target(digest, compact_to_target(EASY_BITS))
        assert 1 <= attempts <= 100_000
