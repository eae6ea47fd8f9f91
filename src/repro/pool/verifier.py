"""Batched share verification.

Every submitted share needs one PoW evaluation — for HashCore that is a
full widget execution (verification *is* recomputation, §IV), far too
expensive to pay per share with per-share event-loop and executor
round-trips on top.  The verifier funnels all clients' shares into one
bounded queue; a single drain task pulls whatever has accumulated (up to
``batch_max``), computes the digests in **one** executor dispatch through
``PowFunction.hash_batch`` (which hashes identical headers once), and
resolves the per-share futures.  Shares select distinct widget programs,
so each still costs one full evaluation; what batching saves is the
per-share executor dispatch and event-loop round trip.  Under load the
batch grows with the backlog, so that overhead amortizes across clients
exactly when it matters; at idle every share still completes in one
round trip.

The queue is bounded: when verification cannot keep up, ``digest``
raises ``overloaded`` instead of buffering without limit, and the server
turns that into an error response — backpressure, not memory growth.
A stopped verifier fails every share it will not verify, queued or in
the executor, with the same ``overloaded`` code, so a server shutdown
never scores its clients' shares as invalid.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.pow import PowFunction
from repro.errors import PoolError
from repro.pool.protocol import PoolProtocolError


@dataclass(slots=True)
class VerifierStats:
    """Batching effectiveness counters."""

    shares: int = 0
    batches: int = 0
    max_batch: int = 0
    rejected_overload: int = 0

    @property
    def mean_batch(self) -> float:
        return self.shares / self.batches if self.batches else 0.0


def _fail_stopped(future: asyncio.Future) -> None:
    """Fail a share the stopped verifier will not verify with
    ``overloaded``, which the server passes through without ban weight."""
    if not future.done():
        future.set_exception(
            PoolProtocolError("overloaded", "verifier stopped")
        )


class BatchVerifier:
    """Queue + drain task computing share digests in batches."""

    def __init__(
        self,
        pow_fn: PowFunction,
        *,
        batch_max: int = 64,
        queue_max: int = 8192,
    ) -> None:
        if batch_max < 1:
            raise PoolError("batch_max must be >= 1")
        if queue_max < 1:
            raise PoolError("queue_max must be >= 1")
        self.pow_fn = pow_fn
        self.batch_max = batch_max
        self.stats = VerifierStats()
        self._queue: asyncio.Queue[tuple[bytes, asyncio.Future]] = (
            asyncio.Queue(maxsize=queue_max)
        )
        self._task: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the drain task (idempotent)."""
        self._closed = False
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._drain(), name="pool-verifier"
            )

    async def stop(self) -> None:
        """Cancel the drain task and fail every share it will not verify:
        the batch in the executor and the queued shares alike."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():
            _fail_stopped(self._queue.get_nowait()[1])

    # ------------------------------------------------------------------
    async def digest(self, data: bytes) -> bytes:
        """Compute the PoW digest of one share's header bytes: enqueue it
        and await the drain task.  Raises ``overloaded`` when the queue is
        full — the caller's backpressure signal.
        """
        if self._closed:
            raise PoolProtocolError("overloaded", "verifier stopped")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((data, future))
        except asyncio.QueueFull:
            self.stats.rejected_overload += 1
            raise PoolProtocolError(
                "overloaded", "verification queue is full"
            ) from None
        return await future

    # ------------------------------------------------------------------
    def _compute(self, datas: list[bytes]) -> list[bytes]:
        """One executor dispatch for a whole batch."""
        hash_batch = getattr(self.pow_fn, "hash_batch", None)
        if hash_batch is not None:
            return hash_batch(datas)
        return [self.pow_fn.hash(data) for data in datas]

    async def _drain(self) -> None:
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._verify(batch)
            except asyncio.CancelledError:
                # ``stop`` cancelled the batch in the executor, whose
                # digests would now never be delivered.
                for _, future in batch:
                    _fail_stopped(future)
                raise

    async def _verify(self, batch: list[tuple[bytes, asyncio.Future]]) -> None:
        loop = asyncio.get_running_loop()
        datas = [item[0] for item in batch]
        try:
            digests = await loop.run_in_executor(None, self._compute, datas)
        except Exception:  # noqa: BLE001 — replayed share by share below
            digests = None
        stats = self.stats
        stats.shares += len(batch)
        stats.batches += 1
        stats.max_batch = max(stats.max_batch, len(batch))
        if digests is None:
            # One poisoned share must not wedge its batch-mates:
            # replay each share alone so only the culprit fails.
            for data, future in batch:
                if future.done():
                    continue
                try:
                    digest = await loop.run_in_executor(
                        None, self.pow_fn.hash, data
                    )
                except Exception as solo_exc:  # noqa: BLE001
                    future.set_exception(solo_exc)
                else:
                    future.set_result(digest)
        else:
            for (data, future), digest in zip(batch, digests):
                if not future.done():
                    future.set_result(digest)
