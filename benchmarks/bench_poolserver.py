"""Pool-server load benchmark: sustained shares/s under client fan-in.

Drives a real :class:`~repro.pool.server.PoolServer` over loopback TCP
with swarms of blind :class:`~repro.pool.client.PoolClient` load
generators (share difficulty 1.0, vardiff off: every submission is
accepted, no client-side hashing), so the measured work is the server's
own pipeline — framing, grading, batched PoW verification, accounting.

Two measured rows, plus a small committed gate point:

* 100 clients — the throughput point;
* 1000 clients — the concurrency headroom point; the run fails loudly if
  any share errors or a client drops.

SHA-256d keeps per-digest cost trivial, so the rows measure the server's
pipeline rather than the PoW.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_poolserver.py

Writes ``BENCH_pool.json``; ``check_regression.py`` re-runs the gate
point against the committed figure.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import time

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import BlockHeader
from repro.core.pow import difficulty_to_target, target_to_compact
from repro.pool.client import PoolClient
from repro.pool.jobs import StaticTemplateSource
from repro.pool.server import PoolConfig, PoolServer

#: A block target no blind share meets: the bench never rotates jobs.
_HARD_BITS = target_to_compact(difficulty_to_target(2.0**40))

#: Clients are connected in waves so the listener backlog never drops a
#: connection at the 1000-client point.
_CONNECT_WAVE = 100

#: In-flight submissions per client: a stop-and-wait load generator
#: would serialize each client on its share acks and starve the
#: verification batcher; real miners keep hashing with acks on the wire.
_LANES = 8

#: The small committed point ``check_regression.py`` re-runs.
GATE_CLIENTS = 20
GATE_SHARES = 48


def _server() -> PoolServer:
    header = BlockHeader(1, b"\x00" * 32, b"\x33" * 32, 1234, _HARD_BITS, 0)
    return PoolServer(
        Sha256d(),
        StaticTemplateSource(header),
        PoolConfig(
            share_difficulty=1.0,
            vardiff=False,
            nonce_bits=20,
            verify_queue_max=65_536,
            pplns_window=1_000_000.0,
        ),
    )


async def _run_point_async(clients: int, shares_per_client: int) -> dict:
    async with _server() as server:
        swarm = [
            PoolClient("127.0.0.1", server.port, f"acct-{i:04d}")
            for i in range(clients)
        ]
        try:
            for start in range(0, clients, _CONNECT_WAVE):
                await asyncio.gather(
                    *(c.connect() for c in swarm[start:start + _CONNECT_WAVE])
                )
            begin = time.perf_counter()
            accepted = await asyncio.gather(
                *(c.submit_shares(shares_per_client, lanes=_LANES)
                  for c in swarm)
            )
            elapsed = time.perf_counter() - begin
        finally:
            for c in swarm:
                await c.close()
        total = sum(accepted)
        expected = clients * shares_per_client
        errors = sum(sum(c.stats.errors.values()) for c in swarm)
        if total != expected or errors or server.stats.invalid:
            raise RuntimeError(
                f"load run degraded: accepted {total}/{expected}, "
                f"client errors {errors}, server invalid "
                f"{server.stats.invalid}"
            )
        verifier = server.verifier.stats
        return {
            "clients": clients,
            "shares": total,
            "seconds": round(elapsed, 4),
            "shares_per_s": round(total / elapsed, 1),
            "mean_batch": round(verifier.mean_batch, 2),
            "max_batch": verifier.max_batch,
            "errors": errors,
        }


def run_point(clients: int, shares_per_client: int) -> dict:
    """One measured load point (also used by the regression gate)."""
    return asyncio.run(_run_point_async(clients, shares_per_client))


def gate_point(repeats: int = 3) -> dict:
    """Best-of-``repeats`` run of the small committed gate point.

    Best-of damps shared-box scheduling noise the same way the hashrate
    bench does: the fastest run is the least-perturbed measurement.
    """
    rows = [run_point(GATE_CLIENTS, GATE_SHARES) for _ in range(repeats)]
    return max(rows, key=lambda row: row["shares_per_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shares", type=int, default=100,
                        help="shares per client at the 100-client point")
    parser.add_argument("--large-clients", type=int, default=1000,
                        help="client count for the concurrency point")
    parser.add_argument("--large-shares", type=int, default=20,
                        help="shares per client at the concurrency point")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path("BENCH_pool.json"))
    args = parser.parse_args(argv)

    rows = []
    for clients, shares in (
        (100, args.shares),
        (args.large_clients, args.large_shares),
    ):
        row = run_point(clients, shares)
        rows.append(row)
        print(f"{row['clients']:5d} clients: "
              f"{row['shares_per_s']:10.1f} shares/s "
              f"(mean batch {row['mean_batch']:.1f}, "
              f"{row['shares']} shares in {row['seconds']:.2f}s)")

    gate = gate_point()
    print(f"gate point ({GATE_CLIENTS} clients x {GATE_SHARES} shares): "
          f"{gate['shares_per_s']:.1f} shares/s (best of 3)")

    artifact = {
        "pow": "sha256d",
        "share_difficulty": 1.0,
        "rows": rows,
        "gate": gate,
    }
    args.output.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
