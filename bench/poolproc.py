"""The ``pool_shares`` server process.

Runs a ``PoolServer(HashCore())`` over a static, never-solved template
with share difficulty 1 and vardiff off, so every share is one full
``H(x)`` and is accepted.  Protocol on stdio, one JSON object per line:
the server prints ``{"port": N}`` once it listens, stops at the first line
(or EOF) on stdin, then prints its report.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys

from repro.core.hashcore import HashCore
from repro.pool.jobs import StaticTemplateSource
from repro.pool.server import PoolConfig, PoolServer

from bench.trace import CapturePow
from bench.workloads import NEVER_SOLVED_BITS, TIMED_SAMPLE, seeded_header


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def serve(seed: int, trace: bool) -> None:
    header = seeded_header(random.Random(seed), NEVER_SOLVED_BITS)
    pow_fn = CapturePow(HashCore())
    server = PoolServer(pow_fn, StaticTemplateSource(header),
                        PoolConfig(share_difficulty=1.0, vardiff=False))

    async def main() -> None:
        await server.start()
        _emit({"port": server.port})
        # Wait for "stop" without a thread: the share verifier's executor
        # threads are part of what peak RSS measures.
        stdin = asyncio.StreamReader()
        await asyncio.get_running_loop().connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
        await stdin.readline()
        # Let the handlers of the clients that just hung up finish closing:
        # stop() does not wait for them, and asyncio.run cancels leftovers.
        for _ in range(100):
            if not server.stats.active_connections:
                break
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.2)
        await server.stop()

    asyncio.run(main())
    batches = pow_fn.batches
    step = max(1, len(batches) // TIMED_SAMPLE)
    stats = server.verifier.stats
    report = {
        "accepted": server.stats.accepted,
        "verifier": {"shares": stats.shares, "batches": stats.batches,
                     "max_batch": stats.max_batch},
        "sample": [[datas[0].hex(), digests[0].hex()]
                   for _, _, datas, digests in batches[::step][:TIMED_SAMPLE]],
    }
    if trace:
        report["batches"] = [[start, end, [data.hex() for data in datas]]
                             for start, end, datas, _ in batches]
    _emit(report)
