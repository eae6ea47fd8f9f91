"""The measurement functions of ``benchmarks/`` that nothing else in
tier-1 runs, at a tiny scale: the JIT translation timing and the mining
engine measurement of ``bench_hashrate.py``, the supervision gate of
``check_regression.py``, the block-log section of ``bench_store.py`` and
the load point of ``bench_poolserver.py`` (``check_regression.py``
imports the last two for its store and pool gates).
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.blockchain import mining_engine

BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")


def _worker_globals() -> tuple:
    return (
        mining_engine._WORKER_POW,
        mining_engine._WORKER_CANCEL,
        mining_engine._WORKER_FAULTS,
    )


@pytest.fixture
def scripts():
    """An importer for the scripts, loading them the way they run
    (``benchmarks/`` on ``sys.path``).  Afterwards ``sys.path`` is
    restored and the modules loaded from ``benchmarks/`` are dropped."""
    saved_path = sys.path[:]
    before = set(sys.modules)
    sys.path.insert(0, BENCHMARKS)
    try:
        yield importlib.import_module
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if path.startswith(BENCHMARKS):
                del sys.modules[name]


def test_measure_translation_times_each_stage(scripts):
    bench_hashrate = scripts("bench_hashrate")
    doc = bench_hashrate.measure_translation("ivy-bridge", 2000, repeats=1)
    assert doc["fast_build_ms"] > 0
    assert doc["jit_compile_ms"] > 0
    assert doc["jit_template_rebind_ms"] > 0
    # Cold compile misses the template cache, the second compile hits it.
    assert (doc["template_cache"]["misses"],
            doc["template_cache"]["hits"]) == (1, 1)


def test_measure_engine_exhausts_every_header(scripts):
    bench_hashrate = scripts("bench_hashrate")
    doc = bench_hashrate.measure_engine("ivy-bridge", 2000, 2, 2, repeats=1)
    assert doc["hash_s"] > 0
    # Two headers, each exhausting its eight-nonce budget on the JIT.
    assert (doc["headers"], doc["attempts_per_header"]) == (2, 8)
    assert doc["tier_runs"]["jit"] == 16


def test_supervision_overhead_restores_worker_globals(scripts):
    check_regression = scripts("check_regression")
    saved = _worker_globals()
    rates = check_regression.measure_supervision_overhead(
        "ivy-bridge", 2000, 2, 2
    )
    assert rates["bare"] > 0
    assert rates["supervised"] > 0
    assert all(a is b for a, b in zip(_worker_globals(), saved))


def test_store_scale_appends_reopens_and_replays(scripts, tmp_path):
    bench_store = scripts("bench_store")
    row = bench_store.store_scale(3, 2, tmp_path)
    assert (row["blocks"], row["txs_per_block"], row["total_txs"]) == (3, 3, 9)
    assert row["append_blocks_s"] > 0
    assert row["replay_seconds"] > 0


def test_pool_run_point_accepts_every_share(scripts):
    bench_poolserver = scripts("bench_poolserver")
    row = bench_poolserver.run_point(2, 3)
    assert (row["clients"], row["shares"], row["errors"]) == (2, 6, 0)
    assert row["shares_per_s"] > 0
    assert 1 <= row["max_batch"] <= 6
