"""Stratum-style asyncio mining pool.

The pool layer is the first network entry point that exercises HashCore's
verify path under concurrent multi-client load (the paper's requirement
that verification stay cheap on commodity CPUs, §IV).  It splits into
small, separately testable pieces:

* :mod:`repro.pool.protocol` — the JSON-lines wire format (message
  builders, size limits, stable error codes).
* :mod:`repro.pool.vardiff` — per-client share-difficulty retargeting
  from an EMA of observed share intervals.
* :mod:`repro.pool.payout` — the PPLNS sliding-window payout split.
* :mod:`repro.pool.session` — per-client accounting (accepted / stale /
  invalid shares, ban score, reconnect-safe session ids).
* :mod:`repro.pool.jobs` — job templates from the chain tip + mempool,
  job rotation with clean-jobs flags, nonce-range work units.
* :mod:`repro.pool.verifier` — the batched share-verification queue
  drained through ``PowFunction.hash_batch``.
* :mod:`repro.pool.server` — the asyncio TCP server tying it together.
* :mod:`repro.pool.client` — an asyncio miner / load-generator client
  (used by ``benchmarks/bench_poolserver.py``).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BatchVerifier": ".verifier",
    "ChainTemplateSource": ".jobs",
    "ClientSession": ".session",
    "ClientStats": ".client",
    "Job": ".jobs",
    "JobManager": ".jobs",
    "MAX_LINE_BYTES": ".protocol",
    "PPLNSWindow": ".payout",
    "PoolClient": ".client",
    "PoolConfig": ".server",
    "PoolProtocolError": ".protocol",
    "PoolServer": ".server",
    "PoolStats": ".server",
    "StaticTemplateSource": ".jobs",
    "Vardiff": ".vardiff",
    "VardiffConfig": ".vardiff",
    "VerifierStats": ".verifier",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
