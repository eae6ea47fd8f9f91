"""The two measurement functions of ``benchmarks/`` that nothing else in
tier-1 imports, run at a tiny scale: the JIT translation timing of
``bench_hashrate.py`` and the supervision gate of ``check_regression.py``.
"""

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
    """Both scripts, imported the way they run (``benchmarks/`` on
    ``sys.path``).  Afterwards ``sys.path`` is restored and the modules
    loaded from ``benchmarks/`` are dropped."""
    saved_path = sys.path[:]
    before = set(sys.modules)
    sys.path.insert(0, BENCHMARKS)
    try:
        import bench_hashrate
        import check_regression

        yield bench_hashrate, check_regression
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if path.startswith(BENCHMARKS):
                del sys.modules[name]


def test_measure_translation_times_each_stage(scripts):
    bench_hashrate, _ = scripts
    doc = bench_hashrate.measure_translation("ivy-bridge", 2000, repeats=1)
    assert doc["fast_build_ms"] > 0
    assert doc["jit_compile_ms"] > 0
    assert doc["jit_template_rebind_ms"] > 0
    # Cold compile misses the template cache, the second compile hits it.
    assert (doc["template_cache"]["misses"],
            doc["template_cache"]["hits"]) == (1, 1)


def test_supervision_overhead_restores_worker_globals(scripts):
    _, check_regression = scripts
    saved = _worker_globals()
    rates = check_regression.measure_supervision_overhead(
        "ivy-bridge", 2000, 2, 2
    )
    assert rates["bare"] > 0
    assert rates["supervised"] > 0
    assert all(a is b for a, b in zip(_worker_globals(), saved))

