"""The asyncio mining-pool server.

One TCP connection per client, JSON-lines framing
(:mod:`repro.pool.protocol`).  The handler is deliberately thin: frame
validation, session lookup, and dispatch into the pure components —
vardiff, PPLNS, jobs, sessions — with the only awaited work being the
batched verifier.  Everything else is synchronous bookkeeping, so a
single event loop sustains thousands of clients.

Share grading order (cheapest check first, so floods die early)::

    banned? -> subscribed? -> authorized? -> job live? -> nonce in range?
    -> duplicate? -> [batched PoW digest] -> share target? -> block target?

Backpressure is explicit at both edges: inbound, the verification queue
is bounded (``overloaded`` errors, never unbounded buffering); outbound,
every client has a bounded write queue drained by its own writer task —
a client that stops reading long enough to fill it is disconnected
(``slow_disconnects``) instead of stalling the broadcast path.

A block-solving share triggers the full tip rotation: submit to the
template source (chain validation, ledger application, mempool
``remove_included`` + ``revalidate``), compute the PPLNS payout split,
and broadcast a clean job so every client abandons the dead tip.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.pow import PowFunction, difficulty_to_target, meets_target
from repro.errors import PoolError, ReproError
from repro.pool import protocol
from repro.pool.jobs import Job, JobManager
from repro.pool.payout import PPLNSWindow
from repro.pool.session import ClientSession
from repro.pool.vardiff import VardiffConfig
from repro.pool.verifier import BatchVerifier


@dataclass(frozen=True, slots=True)
class PoolConfig:
    """Server policy knobs."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral (read back from ``PoolServer.port``)
    #: Starting share difficulty for fresh sessions.
    share_difficulty: float = 1.0
    #: Vardiff retargeting policy; ``vardiff=False`` pins the share
    #: difficulty (load benches want a constant).
    vardiff: bool = True
    vardiff_config: VardiffConfig = field(default_factory=VardiffConfig)
    #: Work-unit size: each session owns a ``2**nonce_bits`` nonce range.
    nonce_bits: int = 40
    #: Ban policy: invalid-share weight accumulates; crossing the
    #: threshold bans the session and drops its connections.
    ban_threshold: float = 10.0
    invalid_weight: float = 1.0
    duplicate_weight: float = 0.25
    #: Outbound queue depth per client before a slow-client disconnect.
    write_queue_max: int = 256
    batch_max: int = 64
    verify_queue_max: int = 8192
    #: PPLNS window size in difficulty-1 share units.
    pplns_window: float = 512.0
    #: Live job generations kept grading-eligible.
    max_jobs: int = 4

    def __post_init__(self) -> None:
        if self.share_difficulty < 1.0:
            raise PoolError("share_difficulty must be >= 1")
        if not 1 <= self.nonce_bits <= 48:
            raise PoolError("nonce_bits must be in [1, 48]")
        if self.ban_threshold <= 0:
            raise PoolError("ban_threshold must be positive")
        if self.write_queue_max < 1:
            raise PoolError("write_queue_max must be >= 1")


@dataclass(slots=True)
class PoolStats:
    """Aggregate pool-lifetime counters."""

    connections: int = 0
    active_connections: int = 0
    sessions: int = 0
    accepted: int = 0
    stale: int = 0
    invalid: int = 0
    duplicate: int = 0
    blocks_found: int = 0
    bans: int = 0
    slow_disconnects: int = 0
    protocol_errors: int = 0
    #: Total share difficulty of every accepted share.
    score: float = 0.0


class _Connection:
    """Transport-side state: writer task + bounded outbound queue."""

    def __init__(self, writer: asyncio.StreamWriter, queue_max: int) -> None:
        self.writer = writer
        self.queue: asyncio.Queue[bytes | None] = asyncio.Queue(
            maxsize=queue_max
        )
        self.session: ClientSession | None = None
        self.slow = False
        self.task: asyncio.Task | None = None

    def send(self, message: dict) -> bool:
        """Queue one message; False (and mark slow) when the queue is
        full — the caller disconnects the client."""
        try:
            self.queue.put_nowait(protocol.encode(message))
        except asyncio.QueueFull:
            self.slow = True
            return False
        return True

    async def drain_writer(self) -> None:
        """Writer task: drain the queue to the socket until poisoned."""
        try:
            while True:
                item = await self.queue.get()
                if item is None:
                    break
                self.writer.write(item)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def close(self) -> None:
        # Give the writer a chance to flush already-queued replies (the
        # disconnect reason, typically) before the socket goes away; a
        # wedged peer gets cut off instead of stalling the close.
        if self.task is not None:
            if not self.slow:
                try:
                    self.queue.put_nowait(None)
                except asyncio.QueueFull:
                    self.slow = True
            if self.slow:
                self.task.cancel()
            try:
                await asyncio.wait_for(self.task, timeout=2.0)
            except asyncio.TimeoutError:
                # wait_for already cancelled it; reap the cancellation.
                try:
                    await self.task
                except asyncio.CancelledError:
                    pass
            except asyncio.CancelledError:
                pass
            self.task = None
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class PoolServer:
    """Stratum-style pool over a PoW function and a template source."""

    def __init__(
        self,
        pow_fn: PowFunction,
        source,
        config: PoolConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or PoolConfig()
        self.pow_fn = pow_fn
        self.clock = clock
        self.jobs = JobManager(source, max_jobs=self.config.max_jobs)
        self.verifier = BatchVerifier(
            pow_fn,
            batch_max=self.config.batch_max,
            queue_max=self.config.verify_queue_max,
        )
        self.payouts = PPLNSWindow(self.config.pplns_window)
        self.stats = PoolStats()
        self.sessions: dict[str, ClientSession] = {}
        #: Most recent PPLNS split per found block (block id hex -> split).
        self.payout_log: list[dict] = []
        self._connections: set[_Connection] = set()
        self._closers: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._session_counter = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.jobs.rotate(clean=True)
        self.verifier.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )

    @property
    def port(self) -> int:
        if self._server is None:
            raise PoolError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections):
            await connection.close()
        self._connections.clear()
        if self._closers:
            await asyncio.gather(*self._closers, return_exceptions=True)
        await self.verifier.stop()

    async def __aenter__(self) -> "PoolServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # job rotation
    # ------------------------------------------------------------------
    def rotate_job(self, *, clean: bool) -> Job:
        """Cut a new job and broadcast ``mining.notify`` to every client.

        ``clean=True`` is the new-tip path (stale everything); callers
        refresh timestamps with ``clean=False``.
        """
        job = self.jobs.rotate(clean=clean)
        live = self.jobs.live_ids()
        for session in self.sessions.values():
            session.prune_jobs(live)
        notify = protocol.notification("mining.notify", job.notify_params())
        for connection in list(self._connections):
            if connection.session is None:
                continue
            if not connection.send(notify):
                self.stats.slow_disconnects += 1
                self._disconnect_later(connection)
        return job

    def _disconnect_later(self, connection: _Connection) -> None:
        """Schedule a connection teardown without blocking the caller."""
        self._connections.discard(connection)
        task = asyncio.get_running_loop().create_task(connection.close())
        self._closers.add(task)
        task.add_done_callback(self._closers.discard)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer, self.config.write_queue_max)
        connection.task = asyncio.get_running_loop().create_task(
            connection.drain_writer()
        )
        self._connections.add(connection)
        self.stats.connections += 1
        self.stats.active_connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversize line: unframeable peer, drop it.
                    self.stats.protocol_errors += 1
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                if not await self._handle_line(connection, line):
                    break
                if connection.slow:
                    self.stats.slow_disconnects += 1
                    break
        finally:
            self.stats.active_connections -= 1
            self._connections.discard(connection)
            await connection.close()

    async def _handle_line(self, connection: _Connection, line: bytes) -> bool:
        """Process one wire line; False ends the connection."""
        try:
            message = protocol.decode_line(line)
            request_id, method, params = protocol.parse_request(message)
        except protocol.PoolProtocolError as exc:
            self.stats.protocol_errors += 1
            connection.send(
                protocol.error_response(None, exc.code, str(exc))
            )
            # Unparseable peers are dropped; well-framed bad requests get
            # to try again.
            return exc.code != "parse-error"
        session = connection.session
        if session is not None and session.banned:
            connection.send(
                protocol.error_response(request_id, "banned", "session banned")
            )
            return False
        try:
            if method == "mining.subscribe":
                result = self._subscribe(connection, params)
            elif method == "mining.authorize":
                result = self._authorize(connection, params)
            elif method == "mining.submit":
                result = await self._submit(connection, params)
            else:
                raise protocol.PoolProtocolError(
                    "unknown-method", f"unknown method {method!r}"
                )
        except protocol.PoolProtocolError as exc:
            connection.send(
                protocol.error_response(request_id, exc.code, str(exc))
            )
            session = connection.session
            return not (session is not None and session.banned)
        connection.send(protocol.response(request_id, result))
        if method == "mining.subscribe":
            # The first notify follows the subscribe result.
            job = self.jobs.current
            connection.send(
                protocol.notification("mining.notify", job.notify_params())
            )
        return True

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------
    def _subscribe(self, connection: _Connection, params: dict) -> dict:
        requested = params.get("session")
        if requested is not None:
            session = self.sessions.get(requested)
            if session is None:
                raise protocol.PoolProtocolError(
                    "bad-request", f"unknown session {requested!r}"
                )
            if session.banned:
                raise protocol.PoolProtocolError("banned", "session banned")
        else:
            index = self._session_counter
            self._session_counter += 1
            session = ClientSession.create(
                session_id=f"s{index:06x}",
                index=index,
                config=self.config.vardiff_config,
                difficulty=self.config.share_difficulty,
                nonce_bits=self.config.nonce_bits,
            )
            self.sessions[session.session_id] = session
            self.stats.sessions += 1
        connection.session = session
        return {
            "session": session.session_id,
            "nonce_start": session.nonce_start,
            "nonce_count": session.nonce_count,
            "difficulty": session.difficulty,
            "protocol": protocol.PROTOCOL_VERSION,
        }

    def _authorize(self, connection: _Connection, params: dict) -> dict:
        session = self._require_session(connection)
        account = params.get("account")
        if not isinstance(account, str) or not account:
            raise protocol.PoolProtocolError(
                "bad-request", "account must be a non-empty string"
            )
        session.account = account
        session.authorized = True
        return {"authorized": True, "account": account}

    def _require_session(self, connection: _Connection) -> ClientSession:
        if connection.session is None:
            raise protocol.PoolProtocolError(
                "not-subscribed", "mining.subscribe first"
            )
        return connection.session

    def _punish(
        self, session: ClientSession, weight: float, code: str, message: str
    ) -> protocol.PoolProtocolError:
        """Score an invalid share; bans surface on the raised error."""
        self.stats.invalid += 1
        if session.record_invalid(weight, self.config.ban_threshold):
            self.stats.bans += 1
        return protocol.PoolProtocolError(code, message)

    async def _submit(self, connection: _Connection, params: dict) -> dict:
        session = self._require_session(connection)
        if not session.authorized:
            raise protocol.PoolProtocolError(
                "unauthorized", "mining.authorize first"
            )
        job_id = params.get("job")
        nonce = params.get("nonce")
        if not isinstance(job_id, str) or not isinstance(nonce, int) \
                or isinstance(nonce, bool) or not 0 <= nonce < 1 << 64:
            raise self._punish(
                session, self.config.invalid_weight,
                "bad-request", "submit wants {job: str, nonce: u64}",
            )
        job = self.jobs.get(job_id)
        if job is None:
            # Rotated-out work: no fault of the client's, no ban weight.
            session.counters.stale += 1
            self.stats.stale += 1
            raise protocol.PoolProtocolError(
                "stale-job", f"job {job_id!r} is no longer current"
            )
        if not session.owns_nonce(nonce):
            raise self._punish(
                session, self.config.invalid_weight, "bad-nonce",
                f"nonce {nonce} outside assigned range "
                f"[{session.nonce_start}, "
                f"{session.nonce_start + session.nonce_count})",
            )
        seen = session.seen_nonces.setdefault(job_id, set())
        if nonce in seen:
            session.counters.duplicate += 1
            self.stats.duplicate += 1
            raise self._punish(
                session, self.config.duplicate_weight,
                "duplicate-share", f"nonce {nonce} already submitted",
            )
        seen.add(nonce)
        header = job.header_for(nonce)
        try:
            digest = await self.verifier.digest(header.serialize())
        except protocol.PoolProtocolError:
            # Overloaded: backpressure, not the client's fault.  The share
            # was never graded, so a retry is not a duplicate.
            seen.discard(nonce)
            raise
        except ReproError as exc:
            raise self._punish(
                session, self.config.invalid_weight, "unverifiable",
                f"share cannot be verified: {exc}",
            )
        graded = session.grading_difficulties()
        if not any(
            meets_target(digest, difficulty_to_target(difficulty))
            for difficulty in graded
        ):
            raise self._punish(
                session, self.config.invalid_weight, "low-difficulty",
                f"digest does not meet share difficulty {min(graded)}",
            )
        difficulty = session.difficulty
        session.record_accepted(difficulty)
        self.stats.accepted += 1
        self.stats.score += difficulty
        self.payouts.record_share(session.account, difficulty)
        result: dict = {"status": "accepted", "difficulty": difficulty}
        if meets_target(digest, job.block_target):
            result["block"] = self._solve_block(session, job, nonce)
        self._maybe_retarget(connection, session)
        return result

    def _solve_block(
        self, session: ClientSession, job: Job, nonce: int
    ) -> dict:
        """A share met the block target: submit, pay out, rotate clean."""
        from repro.blockchain.block import Block

        block = Block(
            header=job.header_for(nonce), transactions=job.transactions
        )
        block_id, reward = self.jobs.source.submit_block(block)
        session.counters.blocks_found += 1
        self.stats.blocks_found += 1
        split = self.payouts.splits(reward)
        record = {
            "block": block_id.hex(),
            "height": job.height,
            "finder": session.account,
            "reward": reward,
            "split": split,
        }
        self.payout_log.append(record)
        self.rotate_job(clean=True)
        return {"id": block_id.hex(), "height": job.height, "reward": reward}

    def _maybe_retarget(
        self, connection: _Connection, session: ClientSession
    ) -> None:
        if not self.config.vardiff:
            return
        previous = session.difficulty
        updated = session.vardiff.record_share(self.clock())
        if updated is None:
            return
        session.previous_difficulty = previous
        connection.send(
            protocol.notification(
                "mining.set_difficulty", {"difficulty": updated}
            )
        )
