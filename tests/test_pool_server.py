"""Pool server tests: protocol, grading, vardiff, payouts, end-to-end.

Four layers, cheapest first:

* pure units — wire framing, vardiff retargeting (plus a hypothesis fuzz
  of bursty arrival), PPLNS window arithmetic, the batch verifier;
* server integration over real sockets with an honest/blind client;
* a byte-identical **golden session transcript** pinning the protocol's
  deterministic serialization (``tests/data/pool_golden_session.jsonl``);
* a ``soak``-marked 200-client churn run, skipped unless ``--soak``.

SHA-256d keeps verification cheap; share difficulty 1.0 means every
digest qualifies, so blind clients exercise the full accept path.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import BlockHeader
from repro.blockchain.chain import Blockchain
from repro.blockchain.difficulty import RetargetSchedule
from repro.core.pow import difficulty_to_target, target_to_compact
from repro.errors import PoolError
from repro.pool import protocol
from repro.pool.client import PoolClient
from repro.pool.jobs import ChainTemplateSource, StaticTemplateSource
from repro.pool.payout import PPLNSWindow
from repro.pool.server import PoolConfig, PoolServer, _Connection
from repro.pool.vardiff import Vardiff, VardiffConfig
from repro.pool.verifier import BatchVerifier

pytestmark = pytest.mark.pool

GOLDEN_PATH = Path(__file__).parent / "data" / "pool_golden_session.jsonl"

#: A block target no SHA-256d share will meet by accident (2^-40 each).
HARD_BITS = target_to_compact(difficulty_to_target(2.0**40))


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def static_header() -> BlockHeader:
    return BlockHeader(1, b"\x00" * 32, b"\x22" * 32, 1234, HARD_BITS, 0)


def make_server(**overrides) -> PoolServer:
    """A deterministic static-template server (vardiff off, fake clock)."""
    defaults: dict = dict(vardiff=False, nonce_bits=16)
    defaults.update(overrides)
    ticks = itertools.count()
    return PoolServer(
        Sha256d(),
        StaticTemplateSource(static_header()),
        PoolConfig(**defaults),
        clock=lambda: float(next(ticks)),
    )


class RawClient:
    """Hand-rolled connection for protocol-violation tests."""

    async def open(self, port: int) -> "RawClient":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        return self

    async def send_raw(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def read(self) -> dict:
        line = await self.reader.readline()
        assert line, "connection closed while a message was expected"
        return protocol.decode_line(line)

    async def request(self, request_id, method, params) -> dict:
        await self.send_raw(
            protocol.encode(protocol.request(request_id, method, params))
        )
        return await self.read()

    async def at_eof(self) -> bool:
        return await self.reader.readline() == b""

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# ======================================================================
# wire protocol units
# ======================================================================
class TestProtocol:
    def test_encode_is_deterministic_and_compact(self):
        line = protocol.encode({"b": 1, "a": {"z": None, "y": [1, 2]}})
        assert line == b'{"a":{"y":[1,2],"z":null},"b":1}\n'

    def test_decode_rejects_bad_json(self):
        with pytest.raises(protocol.PoolProtocolError) as exc:
            protocol.decode_line(b"{oops\n")
        assert exc.value.code == "parse-error"

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.PoolProtocolError) as exc:
            protocol.decode_line(b"[1,2,3]\n")
        assert exc.value.code == "parse-error"

    def test_decode_rejects_oversize_line(self):
        line = b'{"pad":"' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(protocol.PoolProtocolError) as exc:
            protocol.decode_line(line)
        assert exc.value.code == "parse-error"

    @pytest.mark.parametrize("frame", [
        {"method": "m", "params": {}},              # missing id
        {"id": True, "method": "m", "params": {}},  # bool id
        {"id": "7", "method": "m", "params": {}},   # string id
        {"id": 1, "params": {}},                    # missing method
        {"id": 1, "method": "", "params": {}},      # empty method
        {"id": 1, "method": "m", "params": [1]},    # non-object params
    ])
    def test_parse_request_rejects_bad_frames(self, frame):
        with pytest.raises(protocol.PoolProtocolError) as exc:
            protocol.parse_request(frame)
        assert exc.value.code == "bad-request"

    def test_unknown_error_code_is_a_programming_error(self):
        with pytest.raises(ValueError):
            protocol.PoolProtocolError("no-such-code", "x")
        with pytest.raises(ValueError):
            protocol.error_response(1, "no-such-code", "x")


# ======================================================================
# vardiff
# ======================================================================
class TestVardiff:
    def test_fast_shares_raise_difficulty_by_max_step(self):
        config = VardiffConfig(target_interval=2.0, retarget_shares=4)
        vd = Vardiff(config, 8.0)
        updated = [vd.record_share(i * 0.1) for i in range(4)]
        # 0.1s EMA against a 2s target wants 20x: clamped to max_step.
        assert updated[:3] == [None, None, None]
        assert updated[3] == 8.0 * config.max_step

    def test_slow_shares_lower_difficulty(self):
        config = VardiffConfig(target_interval=2.0, retarget_shares=4)
        vd = Vardiff(config, 64.0)
        # 5s intervals against a 2s target: rescale by 2/5 at share 4.
        result = [vd.record_share(i * 5.0) for i in range(4)][-1]
        assert result == 64.0 * (2.0 / 5.0)

    def test_on_target_client_is_never_churned(self):
        config = VardiffConfig(target_interval=2.0, retarget_shares=4)
        vd = Vardiff(config, 16.0)
        for i in range(32):
            assert vd.record_share(i * 2.0) is None
        assert vd.difficulty == 16.0
        assert vd.retargets == 0

    def test_difficulty_clamped_to_floor(self):
        config = VardiffConfig(target_interval=2.0, retarget_shares=2,
                               min_difficulty=1.0)
        vd = Vardiff(config, 1.0)
        for i in range(8):
            vd.record_share(i * 100.0)
        assert vd.difficulty == 1.0  # already at the floor: stays put

    def test_wall_clock_retarget_without_share_quota(self):
        config = VardiffConfig(target_interval=2.0, retarget_shares=1000,
                               retarget_seconds=30.0)
        vd = Vardiff(config, 8.0)
        assert vd.record_share(0.0) is None
        assert vd.record_share(40.0) == 8.0 / config.max_step

    def test_config_validation(self):
        for kwargs in ({"target_interval": 0.0}, {"retarget_shares": 0},
                       {"max_step": 1.0}, {"ema_alpha": 0.0},
                       {"deadband": -0.1}, {"min_difficulty": 0.0}):
            with pytest.raises(PoolError):
                VardiffConfig(**kwargs)

    @given(st.lists(
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        min_size=1, max_size=150,
    ))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_bursty_arrival_invariants(self, gaps):
        """Any arrival pattern — bursts of zero-gap shares, long stalls —
        keeps the difficulty clamped, finite, and per-step bounded."""
        config = VardiffConfig()
        vd = Vardiff(config, 64.0)
        now = 0.0
        for gap in gaps:
            now += gap
            before = vd.difficulty
            updated = vd.record_share(now)
            assert config.min_difficulty <= vd.difficulty <= config.max_difficulty
            if updated is None:
                assert vd.difficulty == before  # no silent drift
            else:
                assert updated == vd.difficulty
                ratio = updated / before
                assert 1.0 / config.max_step - 1e-9 <= ratio
                assert ratio <= config.max_step + 1e-9
                # Deadband: a published change is always a real change.
                assert abs(ratio - 1.0) > config.deadband


# ======================================================================
# PPLNS payouts
# ======================================================================
class TestPPLNS:
    def test_splits_conserve_reward_exactly(self):
        window = PPLNSWindow(1000.0)
        for i in range(17):
            window.record_share(f"acct-{i % 5}", 1.0 + (i % 3))
        for reward in (1, 7, 50, 997):
            split = window.splits(reward)
            assert sum(split.values()) == reward
            assert all(amount > 0 for amount in split.values())

    def test_window_evicts_oldest_whole_shares(self):
        window = PPLNSWindow(10.0)
        for account in ("a", "b", "c", "d"):
            window.record_share(account, 4.0)
        # 16 total: dropping "a" still leaves >= 10, so "a" is evicted;
        # dropping "b" too would leave 8 < 10, so "b" stays.
        assert window.weights() == {"b": 4.0, "c": 4.0, "d": 4.0}
        assert window.total_score == 12.0

    def test_straddling_share_keeps_full_weight(self):
        window = PPLNSWindow(10.0)
        window.record_share("a", 8.0)
        window.record_share("b", 4.0)
        # 12 total but removing "a" leaves 4 < 10: "a" straddles the
        # window edge and keeps its whole weight (shares are atomic).
        assert window.weights() == {"a": 8.0, "b": 4.0}
        window.record_share("c", 8.0)  # now 20 - 8 >= 10: "a" goes
        assert window.weights() == {"b": 4.0, "c": 8.0}

    def test_empty_window_pays_nobody(self):
        assert PPLNSWindow(10.0).splits(50) == {}

    def test_largest_remainder_tie_break_is_deterministic(self):
        window = PPLNSWindow(100.0)
        for account in ("c", "a", "b"):
            window.record_share(account, 1.0)
        # 50 over three equal weights: 16 each + 2 remainder to the
        # lexically-first accounts.
        assert window.splits(50) == {"a": 17, "b": 17, "c": 16}

    def test_proportional_to_recent_work_only(self):
        window = PPLNSWindow(8.0)
        for _ in range(100):
            window.record_share("early", 1.0)
        for _ in range(6):
            window.record_share("late", 1.0)
        split = window.splits(80)
        # Window holds the last 8 units: 2 early + 6 late.
        assert split == {"early": 20, "late": 60}


# ======================================================================
# batch verifier
# ======================================================================
class StalledPow:
    """SHA-256d whose every hash blocks until ``release`` is set, so a
    test can hold a batch in the executor."""

    name = "stalled"

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def hash(self, data: bytes) -> bytes:
        self.entered.set()
        self.release.wait(10.0)
        return Sha256d().hash(data)


class TestBatchVerifier:
    def test_concurrent_shares_verify_in_one_batch(self):
        async def scenario():
            pow_fn = Sha256d()
            verifier = BatchVerifier(pow_fn, batch_max=64)
            verifier.start()
            payloads = [b"share-%d" % i for i in range(50)]
            digests = await asyncio.gather(
                *(verifier.digest(p) for p in payloads)
            )
            await verifier.stop()
            assert digests == [pow_fn.hash(p) for p in payloads]
            return verifier.stats

        stats = run(scenario())
        assert stats.shares == 50
        # All 50 enqueue before the drain task wakes: one dispatch.
        assert stats.batches == 1
        assert stats.max_batch == 50
        assert stats.mean_batch == 50.0

    def test_full_queue_raises_overloaded(self):
        async def scenario():
            verifier = BatchVerifier(Sha256d(), queue_max=1)
            # Drain task never started: the queue can only fill.
            first = asyncio.ensure_future(verifier.digest(b"one"))
            await asyncio.sleep(0)
            with pytest.raises(protocol.PoolProtocolError) as exc:
                await verifier.digest(b"two")
            assert exc.value.code == "overloaded"
            assert verifier.stats.rejected_overload == 1
            await verifier.stop()  # fails the still-queued share
            with pytest.raises(PoolError):
                await first

        run(scenario())

    def test_poisoned_share_fails_alone(self):
        class Picky:
            name = "picky"

            def hash(self, data: bytes) -> bytes:
                if data == b"poison":
                    raise PoolError("bad seed")
                return Sha256d().hash(data)

            def hash_batch(self, datas):
                return [self.hash(data) for data in datas]

        async def scenario():
            verifier = BatchVerifier(Picky(), batch_max=8)
            verifier.start()
            results = await asyncio.gather(
                verifier.digest(b"good-1"),
                verifier.digest(b"poison"),
                verifier.digest(b"good-2"),
                return_exceptions=True,
            )
            await verifier.stop()
            return results, verifier.stats

        (good1, poisoned, good2), stats = run(scenario())
        assert good1 == Sha256d().hash(b"good-1")
        assert good2 == Sha256d().hash(b"good-2")
        assert isinstance(poisoned, PoolError)
        # The replayed batch counts like any other.
        assert (stats.shares, stats.batches, stats.max_batch) == (3, 1, 3)

    def test_stop_releases_in_flight_and_queued_shares(self):
        pow_fn = StalledPow()

        async def scenario():
            verifier = BatchVerifier(pow_fn)
            verifier.start()
            in_flight = asyncio.ensure_future(verifier.digest(b"in-flight"))
            await asyncio.to_thread(pow_fn.entered.wait, 5.0)
            queued = asyncio.ensure_future(verifier.digest(b"queued"))
            await asyncio.sleep(0)
            try:
                await verifier.stop()
                # Released within 1 s, not when the stalled hash returns.
                return await asyncio.wait_for(asyncio.gather(
                    in_flight, queued, verifier.digest(b"late"),
                    return_exceptions=True,
                ), 1.0)
            finally:
                pow_fn.release.set()

        for failure in run(scenario()):
            assert isinstance(failure, protocol.PoolProtocolError)
            assert failure.code == "overloaded"

    def test_server_stop_does_not_punish_pending_shares(self):
        pow_fn = StalledPow()

        async def scenario():
            server = PoolServer(
                pow_fn,
                StaticTemplateSource(static_header()),
                PoolConfig(vardiff=False, nonce_bits=16),
            )
            await server.start()
            clients = []
            try:
                for index in range(2):
                    raw = await RawClient().open(server.port)
                    clients.append(raw)
                    session = await raw.request(1, "mining.subscribe", {})
                    await raw.read()
                    await raw.request(2, "mining.authorize", {"account": "a"})
                    nonce = session["result"]["nonce_start"]
                    await raw.send_raw(protocol.encode(protocol.request(
                        3, "mining.submit", {"job": "00000000", "nonce": nonce}
                    )))
                    if index == 0:  # the first share holds the executor
                        await asyncio.to_thread(pow_fn.entered.wait, 5.0)
                for _ in range(200):  # the second share waits in the queue
                    if server.verifier._queue.qsize():
                        break
                    await asyncio.sleep(0.005)
                await server.stop()
                # Both connection handlers finish once their shares fail.
                for _ in range(200):
                    if not server.stats.active_connections:
                        break
                    await asyncio.sleep(0.005)
            finally:
                pow_fn.release.set()
                for raw in clients:
                    await raw.close()
            return server.stats

        stats = run(scenario())
        assert stats.active_connections == 0
        assert stats.invalid == 0

    def test_overloaded_share_can_be_retried(self):
        pow_fn = StalledPow()

        async def submit(raw: RawClient, request_id: int, nonce: int) -> None:
            await raw.send_raw(protocol.encode(protocol.request(
                request_id, "mining.submit", {"job": "00000000", "nonce": nonce}
            )))

        async def scenario():
            server = PoolServer(
                pow_fn,
                StaticTemplateSource(static_header()),
                PoolConfig(vardiff=False, nonce_bits=16, verify_queue_max=1),
            )
            await server.start()
            clients, nonces = [], []
            try:
                for _ in range(3):
                    raw = await RawClient().open(server.port)
                    clients.append(raw)
                    session = await raw.request(1, "mining.subscribe", {})
                    await raw.read()
                    await raw.request(2, "mining.authorize", {"account": "a"})
                    nonces.append(session["result"]["nonce_start"])
                await submit(clients[0], 3, nonces[0])  # holds the executor
                await asyncio.to_thread(pow_fn.entered.wait, 5.0)
                await submit(clients[1], 3, nonces[1])  # fills the queue
                for _ in range(200):
                    if server.verifier._queue.qsize():
                        break
                    await asyncio.sleep(0.005)
                await submit(clients[2], 3, nonces[2])
                refused = await clients[2].read()
                pow_fn.release.set()
                for raw in clients[:2]:
                    await raw.read()
                await submit(clients[2], 4, nonces[2])  # the same share again
                retried = await clients[2].read()
            finally:
                pow_fn.release.set()
                for raw in clients:
                    await raw.close()
                await server.stop()
            return refused, retried, server.stats

        refused, retried, stats = run(scenario())
        assert refused["error"]["code"] == "overloaded"
        # Refused for backpressure, the share was never graded, so its
        # retry is verified rather than scored as a duplicate.
        assert retried["error"] is None
        assert retried["result"]["status"] == "accepted"
        assert (stats.accepted, stats.duplicate, stats.invalid) == (3, 0, 0)


# ======================================================================
# server integration
# ======================================================================
class TestServerIntegration:
    def test_blind_client_shares_accepted(self):
        async def scenario():
            async with make_server() as server:
                async with PoolClient(
                    "127.0.0.1", server.port, "alice"
                ) as client:
                    accepted = await client.submit_shares(10)
                return accepted, server.stats, server.verifier.stats

        accepted, stats, verifier_stats = run(scenario())
        assert accepted == 10
        assert stats.accepted == 10
        assert stats.invalid == 0
        assert stats.score == 10.0
        assert verifier_stats.shares == 10

    def test_submit_before_subscribe(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                reply = await raw.request(
                    1, "mining.submit", {"job": "00000000", "nonce": 1}
                )
                await raw.close()
                return reply

        reply = run(scenario())
        assert reply["error"]["code"] == "not-subscribed"
        assert reply["result"] is None

    def test_submit_before_authorize(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                sub = await raw.request(1, "mining.subscribe", {})
                await raw.read()  # the initial notify
                reply = await raw.request(
                    2, "mining.submit",
                    {"job": "00000000", "nonce": sub["result"]["nonce_start"]},
                )
                await raw.close()
                return sub, reply

        sub, reply = run(scenario())
        assert sub["result"]["session"] == "s000000"
        assert sub["result"]["protocol"] == protocol.PROTOCOL_VERSION
        assert reply["error"]["code"] == "unauthorized"

    def test_malformed_json_disconnects(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.send_raw(b"this is not json\n")
                reply = await raw.read()
                eof = await raw.at_eof()
                await raw.close()
                return reply, eof, server.stats.protocol_errors

        reply, eof, errors = run(scenario())
        assert reply["error"]["code"] == "parse-error"
        assert eof
        assert errors == 1

    def test_oversize_line_disconnects(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.send_raw(
                    b'{"id":1,"method":"mining.subscribe","params":{"pad":"'
                    + b"x" * (2 * protocol.MAX_LINE_BYTES) + b'"}}\n'
                )
                eof = await raw.at_eof()
                await raw.close()
                return eof, server.stats.protocol_errors

        eof, errors = run(scenario())
        assert eof
        assert errors == 1

    def test_bad_request_keeps_connection_usable(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.send_raw(b'{"method":"mining.subscribe"}\n')
                bad = await raw.read()
                good = await raw.request(1, "mining.subscribe", {})
                await raw.close()
                return bad, good

        bad, good = run(scenario())
        assert bad["error"]["code"] == "bad-request"
        assert bad["id"] is None
        assert good["result"]["session"] == "s000000"

    def test_unknown_method(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                reply = await raw.request(5, "mining.extranonce", {})
                await raw.close()
                return reply

        reply = run(scenario())
        assert reply["error"]["code"] == "unknown-method"
        assert reply["id"] == 5

    def test_bad_nonce_flood_bans_the_session(self):
        async def scenario():
            async with make_server(ban_threshold=2.0) as server:
                raw = await RawClient().open(server.port)
                await raw.request(1, "mining.subscribe", {})
                await raw.read()  # notify
                await raw.request(2, "mining.authorize", {"account": "evil"})
                outside = 1 << 20  # beyond the 2**16 nonce range
                first = await raw.request(
                    3, "mining.submit", {"job": "00000000", "nonce": outside}
                )
                second = await raw.request(
                    4, "mining.submit", {"job": "00000000", "nonce": outside}
                )
                dropped = await raw.at_eof()
                await raw.close()
                # The banned session is refused on a fresh connection too.
                raw2 = await RawClient().open(server.port)
                reattach = await raw2.request(
                    1, "mining.subscribe", {"session": "s000000"}
                )
                await raw2.close()
                return first, second, dropped, reattach, server.stats

        first, second, dropped, reattach, stats = run(scenario())
        assert first["error"]["code"] == "bad-nonce"
        assert second["error"]["code"] == "bad-nonce"
        assert dropped  # crossing the threshold drops the connection
        assert reattach["error"]["code"] == "banned"
        assert stats.bans == 1
        assert stats.invalid == 2

    def test_duplicate_share_rejected(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.request(1, "mining.subscribe", {})
                await raw.read()
                await raw.request(2, "mining.authorize", {"account": "a"})
                ok = await raw.request(
                    3, "mining.submit", {"job": "00000000", "nonce": 7}
                )
                dup = await raw.request(
                    4, "mining.submit", {"job": "00000000", "nonce": 7}
                )
                await raw.close()
                return ok, dup, server.stats

        ok, dup, stats = run(scenario())
        assert ok["result"]["status"] == "accepted"
        assert dup["error"]["code"] == "duplicate-share"
        assert stats.duplicate == 1

    def test_stale_job_after_clean_rotation(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.request(1, "mining.subscribe", {})
                await raw.read()
                await raw.request(2, "mining.authorize", {"account": "a"})
                server.rotate_job(clean=True)
                notify = await raw.read()
                reply = await raw.request(
                    3, "mining.submit", {"job": "00000000", "nonce": 1}
                )
                await raw.close()
                return notify, reply, server.stats

        notify, reply, stats = run(scenario())
        assert notify["method"] == "mining.notify"
        assert notify["params"]["clean"] is True
        assert notify["params"]["job"] == "00000001"
        assert reply["error"]["code"] == "stale-job"
        assert stats.stale == 1
        assert stats.invalid == 0  # stale carries no ban weight

    def test_refresh_rotation_keeps_old_job_gradeable(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.request(1, "mining.subscribe", {})
                await raw.read()
                await raw.request(2, "mining.authorize", {"account": "a"})
                server.rotate_job(clean=False)
                await raw.read()  # the refresh notify
                reply = await raw.request(
                    3, "mining.submit", {"job": "00000000", "nonce": 1}
                )
                await raw.close()
                return reply

        reply = run(scenario())
        assert reply["result"]["status"] == "accepted"

    def test_session_reattach_preserves_state(self):
        async def scenario():
            async with make_server() as server:
                async with PoolClient(
                    "127.0.0.1", server.port, "alice"
                ) as client:
                    await client.submit_shares(3)
                    session_id = client.session
                    nonce_start = client.nonce_start
                # A new job between connections: the reattached client
                # restarts its nonce cursor without colliding with its
                # own already-submitted (job, nonce) pairs.
                server.rotate_job(clean=True)
                async with PoolClient(
                    "127.0.0.1", server.port, "alice", session=session_id
                ) as again:
                    await again.submit_shares(2)
                    reattached = (again.session, again.nonce_start)
                session = server.sessions[session_id]
                return (session_id, nonce_start), reattached, \
                    session.counters.accepted, server.stats.sessions

        issued, reattached, accepted, sessions = run(scenario())
        assert reattached == issued
        assert accepted == 5  # one session accumulated both connections
        assert sessions == 1

    def test_unknown_session_reattach_rejected(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                reply = await raw.request(
                    1, "mining.subscribe", {"session": "s00dead"}
                )
                await raw.close()
                return reply

        assert run(scenario())["error"]["code"] == "bad-request"

    def test_rotation_broadcasts_to_all_subscribed_clients(self):
        async def scenario():
            async with make_server() as server:
                async with PoolClient("127.0.0.1", server.port, "a") as one:
                    async with PoolClient(
                        "127.0.0.1", server.port, "b"
                    ) as two:
                        await one.wait_for_job()
                        await two.wait_for_job()
                        server.rotate_job(clean=True)
                        await asyncio.sleep(0.05)
                        return one.stats.notifies, two.stats.notifies

        notifies_one, notifies_two = run(scenario())
        assert notifies_one == 2  # initial + rotation
        assert notifies_two == 2

    def test_slow_client_disconnected_on_broadcast(self):
        async def scenario():
            async with make_server() as server:
                raw = await RawClient().open(server.port)
                await raw.request(1, "mining.subscribe", {})
                await raw.read()
                connection = next(iter(server._connections))
                # Swap in an already-full queue: exactly the state a
                # stalled reader leaves behind once the writer task is
                # blocked on the socket and the queue has filled up.
                connection.queue = asyncio.Queue(maxsize=1)
                connection.queue.put_nowait(b"wedged")
                server.rotate_job(clean=True)
                await asyncio.sleep(0.05)
                stats = server.stats.slow_disconnects
                await raw.close()
                return stats

        assert run(scenario()) == 1

    def test_vardiff_retarget_reaches_the_client(self):
        async def scenario():
            # Fake clock ticks 1s per share against a 2s target: shares
            # arrive 2x too fast, so the first retarget doubles difficulty.
            config = VardiffConfig(target_interval=2.0, retarget_shares=4)
            async with make_server(
                vardiff=True, vardiff_config=config, share_difficulty=4.0,
            ) as server:
                async with PoolClient(
                    "127.0.0.1", server.port, "fast", pow_fn=Sha256d()
                ) as client:
                    for _ in range(4):
                        await client.submit_shares(1)
                    await asyncio.sleep(0.05)
                    session = server.sessions[client.session]
                    return client.stats.retargets, client.difficulty, \
                        session.previous_difficulty

        retargets, difficulty, previous = run(scenario())
        assert retargets == 1
        assert difficulty == 8.0
        assert previous == 4.0

    def test_block_found_rotates_and_pays_out(self):
        async def scenario():
            chain = Blockchain(
                Sha256d(),
                genesis_bits=target_to_compact(difficulty_to_target(2.0)),
                schedule=RetargetSchedule(interval=10_000),
            )
            clock = itertools.count(100)
            source = ChainTemplateSource(chain, now_fn=lambda: next(clock))
            config = PoolConfig(vardiff=False, nonce_bits=16)
            async with PoolServer(Sha256d(), source, config) as server:
                async with PoolClient(
                    "127.0.0.1", server.port, "alice", pow_fn=Sha256d()
                ) as client:
                    for _ in range(200):
                        await client.submit_shares(1)
                        if server.stats.blocks_found:
                            break
                    return (client.stats.blocks, chain.height(),
                            server.payout_log, server.stats.blocks_found)

        blocks, height, payout_log, found = run(scenario())
        assert found >= 1
        assert blocks >= 1
        assert height == found
        record = payout_log[0]
        assert record["finder"] == "alice"
        assert sum(record["split"].values()) == record["reward"]
        assert record["split"] == {"alice": record["reward"]}

    def test_config_validation(self):
        for kwargs in ({"share_difficulty": 0.5}, {"nonce_bits": 0},
                       {"nonce_bits": 64}, {"ban_threshold": 0.0},
                       {"write_queue_max": 0}):
            with pytest.raises(PoolError):
                PoolConfig(**kwargs)


# ======================================================================
# golden session transcript
# ======================================================================
async def _golden_session() -> bytes:
    """Scripted session whose server-side byte transcript is pinned.

    Every source of nondeterminism is fixed: the static header, the fake
    clock, vardiff off, counter-derived session and job ids, sorted-key
    compact JSON.  Any wire-format change must update the golden file —
    deliberately, in the same commit.
    """
    transcript = bytearray()
    async with make_server() as server:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )

        async def speak(raw: bytes, replies: int) -> None:
            writer.write(raw)
            await writer.drain()
            for _ in range(replies):
                transcript.extend(await reader.readline())

        req = protocol.request
        # subscribe answers with the result and the current job notify.
        await speak(protocol.encode(req(1, "mining.subscribe",
                                        {"agent": "golden"})), 2)
        await speak(protocol.encode(req(2, "mining.authorize",
                                        {"account": "miner-a"})), 1)
        await speak(protocol.encode(req(3, "mining.submit",
                                        {"job": "00000000", "nonce": 1})), 1)
        await speak(protocol.encode(req(4, "mining.submit",
                                        {"job": "00000000", "nonce": 1})), 1)
        await speak(protocol.encode(req(5, "mining.submit",
                                        {"job": "00000000",
                                         "nonce": 1 << 20})), 1)
        await speak(protocol.encode(req(6, "foo.bar", {})), 1)
        await speak(b"{oops\n", 1)  # parse-error, then disconnect
        assert await reader.readline() == b""
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return bytes(transcript)


class TestGoldenSession:
    def test_transcript_matches_pinned_bytes(self):
        transcript = run(_golden_session())
        assert transcript == GOLDEN_PATH.read_bytes(), (
            "protocol serialization drifted from the golden transcript; "
            "if the change is intentional, regenerate "
            "tests/data/pool_golden_session.jsonl"
        )

    def test_transcript_is_reproducible(self):
        assert run(_golden_session()) == run(_golden_session())


# ======================================================================
# soak: 200-client churn
# ======================================================================
@pytest.mark.soak
class TestSoakChurn:
    def test_200_client_churn(self):
        """200 concurrent blind clients, two connect/submit/disconnect
        rounds each (the second reattaching its session).  Every share
        must be accepted and every session must survive its churn."""
        CLIENTS, SHARES = 200, 10

        async def one_client(port: int, index: int) -> str:
            async with PoolClient("127.0.0.1", port, f"acct-{index}") as c:
                accepted = await c.submit_shares(SHARES)
                assert accepted == SHARES
                session, resume = c.session, c.next_nonce
            # Churn: reconnect into the same session, keep submitting.
            async with PoolClient(
                "127.0.0.1", port, f"acct-{index}", session=session,
                resume_nonce=resume,
            ) as c:
                accepted = await c.submit_shares(SHARES)
                assert accepted == SHARES
                assert c.session == session
            return session

        async def scenario():
            async with make_server(
                nonce_bits=20, pplns_window=100_000.0
            ) as server:
                sessions = await asyncio.gather(
                    *(one_client(server.port, i) for i in range(CLIENTS))
                )
                return sessions, server.stats, server.verifier.stats

        sessions, stats, verifier_stats = run(scenario(), timeout=90.0)
        assert len(set(sessions)) == CLIENTS
        assert stats.sessions == CLIENTS
        assert stats.accepted == 2 * CLIENTS * SHARES
        assert stats.invalid == 0
        assert stats.bans == 0
        assert stats.connections == 2 * CLIENTS
        assert stats.active_connections == 0
        assert verifier_stats.shares == 2 * CLIENTS * SHARES
        # Concurrency must actually have batched verification work.
        assert verifier_stats.max_batch > 1
