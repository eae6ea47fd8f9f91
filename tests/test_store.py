"""Durable chain-state tests: record codec, block log, crash recovery.

The recovery property this file pins: for a kill at *any* byte offset —
and for a flipped byte at any record offset — reopening the log recovers
exactly the longest checksummed prefix, never a partial record, and a
chain replayed from the recovered log ends at that prefix's last block.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sha256d import Sha256d
from repro.blockchain import (
    Blockchain,
    BlockStore,
    block_id,
    decode_block,
    encode_block,
)
from repro.blockchain.block import Block
from repro.blockchain.difficulty import RetargetSchedule
from repro.blockchain.miner import mine_block
from repro.core.pow import difficulty_to_target, target_to_compact
from repro.errors import ChainError, StoreError

pytestmark = pytest.mark.store

POW = Sha256d()
BITS = target_to_compact(difficulty_to_target(2.0))
SCHEDULE = RetargetSchedule(interval=10_000)

#: magic(8) + genesis_id(32) — where the first record starts.
FILE_HEADER_BYTES = 40


def fresh_chain(store=None) -> Blockchain:
    return Blockchain(POW, schedule=SCHEDULE, genesis_bits=BITS, store=store)


def grow(chain: Blockchain, n: int, extra_txs=None) -> list[bytes]:
    """Mine ``n`` deterministic blocks on the tip; returns their ids."""
    ids = []
    for i in range(n):
        height = chain.height() + 1
        body = [f"cb-{height}".encode()]
        if extra_txs:
            body += extra_txs(height)
        template = Block.build(
            prev_hash=chain.tip_id,
            transactions=body,
            timestamp=100 + height,
            bits=chain.expected_bits(chain.tip_id),
        )
        mined = mine_block(template, POW, max_attempts=500_000, start_nonce=0)
        ids.append(chain.add_block(mined.block))
    return ids


# ----------------------------------------------------------------------
# canonical on-disk log shared by the recovery fuzz (built once)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """``(raw_bytes, extents)`` of a 12-block log.

    ``extents`` is ``[(start, end, bid), ...]`` in log order, so a fuzz
    example can compute the expected surviving prefix for any cut or
    corruption offset without re-reading the file format.
    """
    path = tmp_path_factory.mktemp("canonical") / "chain.log"
    store = BlockStore(path)
    chain = fresh_chain(store=store)
    grow(chain, 12, extra_txs=lambda h: [b"payload-%d" % h * 3, b"x" * h])
    extents = [
        (e.offset, e.offset + e.length, bid)
        for bid, e in sorted(
            ((bid, store.entry(bid)) for bid in store.ids()),
            key=lambda pair: pair[1].offset,
        )
    ]
    store.close()
    return path.read_bytes(), extents


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One reusable scratch file for the fuzz examples."""
    return tmp_path_factory.mktemp("fuzz") / "mangled.log"


def reopen_and_check(path, raw_expected_prefix_ids):
    """Open ``path``, assert the recovered log is exactly the expected
    prefix, idempotent, and replays to its last block.  Returns the
    store."""
    store = BlockStore(path)
    assert store.ids() == raw_expected_prefix_ids
    # Recovery truncated in place: a second scan finds nothing to drop.
    size_after = path.stat().st_size
    store.reopen()
    assert store.recovery["dropped_bytes"] == 0
    assert path.stat().st_size == size_after
    assert store.ids() == raw_expected_prefix_ids
    # The recovered chain replays to the prefix's last block.
    chain = fresh_chain(store=store)
    assert chain.height() == len(raw_expected_prefix_ids)
    assert chain.tip_id == (
        raw_expected_prefix_ids[-1] if raw_expected_prefix_ids
        else chain.genesis_id
    )
    return store


class TestKillAtRandomOffset:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_truncation_recovers_longest_prefix(self, canonical, scratch, data):
        raw, extents = canonical
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        scratch.write_bytes(raw[:cut])
        if cut < FILE_HEADER_BYTES:
            if cut == 0:
                # Empty file: a store opens unbound, ready to bind fresh.
                store = BlockStore(scratch)
                assert store.genesis_id is None and len(store) == 0
            else:
                # A torn *file header* is not a recoverable log.
                with pytest.raises(StoreError):
                    BlockStore(scratch)
            return
        expected = [bid for start, end, bid in extents if end <= cut]
        store = reopen_and_check(scratch, expected)
        store.close()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_corruption_recovers_preceding_prefix(self, canonical, scratch, data):
        raw, extents = canonical
        pos = data.draw(
            st.integers(min_value=FILE_HEADER_BYTES, max_value=len(raw) - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        mangled = bytearray(raw)
        mangled[pos] ^= flip
        scratch.write_bytes(bytes(mangled))
        # Every record at or after the flipped byte is untrusted: record
        # boundaries past a bad length/checksum cannot be relied on.
        expected = [bid for start, end, bid in extents if end <= pos]
        store = reopen_and_check(scratch, expected)
        store.close()


# ----------------------------------------------------------------------
# record codec
# ----------------------------------------------------------------------
class TestRecordCodec:
    def test_round_trip(self):
        chain = fresh_chain()
        (bid,) = grow(chain, 1, extra_txs=lambda h: [b"alpha", b"beta" * 100])
        block = chain.get(bid)
        assert decode_block(encode_block(block)) == block

    def test_trailing_bytes_rejected(self):
        chain = fresh_chain()
        (bid,) = grow(chain, 1)
        payload = encode_block(chain.get(bid))
        with pytest.raises(StoreError):
            decode_block(payload + b"\x00")

    def test_truncated_payload_rejected(self):
        chain = fresh_chain()
        (bid,) = grow(chain, 1, extra_txs=lambda h: [b"tx-body"])
        payload = encode_block(chain.get(bid))
        with pytest.raises(StoreError):
            decode_block(payload[:-3])

    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1,
                    max_size=8, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_bodies_round_trip(self, transactions):
        block = Block.build(
            prev_hash=b"\x11" * 32, transactions=transactions,
            timestamp=7, bits=BITS,
        )
        assert decode_block(encode_block(block)) == block


# ----------------------------------------------------------------------
# block store mechanics
# ----------------------------------------------------------------------
class TestBlockStore:
    def test_append_get_heights(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain(store=store)
        ids = grow(chain, 3)
        assert len(store) == 3
        for height, bid in enumerate(ids, start=1):
            assert store.height_of(bid) == height
            assert block_id(store.get(bid)) == bid
        assert store.ids() == ids

    def test_unbound_append_rejected(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain()
        (bid,) = grow(chain, 1)
        with pytest.raises(StoreError):
            store.append(chain.get(bid))

    def test_unconnected_append_rejected(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain(store=store)
        stranger = Block.build(
            prev_hash=b"\xab" * 32, transactions=[b"zz"], timestamp=5, bits=BITS
        )
        with pytest.raises(StoreError):
            store.append(stranger)

    def test_duplicate_append_rejected(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain(store=store)
        (bid,) = grow(chain, 1)
        with pytest.raises(StoreError):
            store.append(chain.get(bid))

    def test_closed_store_rejects_io(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain(store=store)
        (bid,) = grow(chain, 1)
        store.close()
        with pytest.raises(StoreError):
            store.get(bid)

    def test_genesis_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.log"
        store = BlockStore(path)
        chain = fresh_chain(store=store)
        grow(chain, 1)
        store.close()
        other = BlockStore(path)
        with pytest.raises(StoreError):
            # Different genesis_time → different genesis id → refuse.
            Blockchain(POW, schedule=SCHEDULE, genesis_bits=BITS,
                       genesis_time=999, store=other)

    def test_not_a_store_rejected(self, tmp_path):
        path = tmp_path / "bogus.log"
        path.write_bytes(b"definitely not a block log at all")
        with pytest.raises(StoreError):
            BlockStore(path)

    def test_corrupt_file_header_rejected(self, tmp_path, ):
        path = tmp_path / "a.log"
        store = BlockStore(path)
        chain = fresh_chain(store=store)
        grow(chain, 1)
        store.close()
        raw = bytearray(path.read_bytes())
        raw[2] ^= 0xFF  # inside the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreError):
            BlockStore(path)

    def test_lazy_bodies_stay_on_disk(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain(store=store)
        ids = grow(chain, 2, extra_txs=lambda h: [b"big" * 200])
        # In-memory entries hold headers only; bodies round-trip via disk.
        assert chain._entries[ids[0]].block is None
        assert chain.get(ids[0]).transactions[1] == b"big" * 200
        assert chain.tip().header == chain.tip_header()

    def test_replay_counts_and_tip_verification(self, tmp_path):
        path = tmp_path / "a.log"
        store = BlockStore(path)
        chain = fresh_chain(store=store)
        grow(chain, 4)
        store.close()
        reopened = Blockchain(
            POW, schedule=SCHEDULE, genesis_bits=BITS, store=BlockStore(path)
        )
        assert reopened.replayed == 4
        assert reopened.tip_id == chain.tip_id
        assert reopened.height() == 4

    def test_replay_rejects_unmined_tip(self, tmp_path):
        """A checksummed-but-unmined tip must fail ``verify='tip'``."""
        path = tmp_path / "a.log"
        store = BlockStore(path)
        chain = fresh_chain(store=store)
        grow(chain, 1)
        # Craft a child that satisfies every rule except PoW and append it
        # behind the chain's back (the store doesn't re-check consensus).
        for nonce in range(100_000):
            candidate = Block.build(
                prev_hash=chain.tip_id, transactions=[b"evil"],
                timestamp=500, bits=chain.expected_bits(chain.tip_id),
                nonce=nonce,
            )
            try:
                chain.validate_block(candidate)
            except ChainError:
                break
        else:
            pytest.skip("target too easy to find a failing nonce")
        store.append(candidate)
        store.close()
        with pytest.raises(StoreError):
            Blockchain(POW, schedule=SCHEDULE, genesis_bits=BITS,
                       store=BlockStore(path))
        # verify="none" trusts the checksums and accepts the same log.
        relaxed = Blockchain(POW, schedule=SCHEDULE, genesis_bits=BITS,
                             store=BlockStore(path), verify="none")
        assert relaxed.height() == 2

    def test_forks_persist_and_replay(self, tmp_path):
        path = tmp_path / "a.log"
        store = BlockStore(path)
        chain = fresh_chain(store=store)
        grow(chain, 2)
        # A competing branch from genesis: lighter, stored anyway.
        fork = Block.build(
            prev_hash=chain.genesis_id, transactions=[b"fork-1"],
            timestamp=300, bits=chain.expected_bits(chain.genesis_id),
        )
        mined = mine_block(fork, POW, max_attempts=500_000, start_nonce=7)
        fork_id = chain.add_block(mined.block)
        assert chain.tip_id != fork_id
        store.close()
        reopened = Blockchain(
            POW, schedule=SCHEDULE, genesis_bits=BITS, store=BlockStore(path)
        )
        assert reopened.replayed == 3
        assert fork_id in reopened
        assert reopened.tip_id == chain.tip_id

    def test_stats_shape(self, tmp_path):
        store = BlockStore(tmp_path / "a.log")
        chain = fresh_chain(store=store)
        grow(chain, 2)
        stats = store.stats()
        assert stats["blocks"] == 2
        assert stats["bytes"] == (tmp_path / "a.log").stat().st_size
        assert stats["recovery"] == {"dropped_bytes": 0, "reason": None}


# ----------------------------------------------------------------------
# golden vector: the record format must not drift between PRs
# ----------------------------------------------------------------------
#: sha256 of tests/data/store_golden.log — if the record format changes
#: ON PURPOSE, regenerate the fixture with :func:`build_golden`, update
#: these pins, and say so in the PR.
GOLDEN_SHA256 = "f80173de34c9400862b91a5510ba31bbca0e19285ee562f3b94de96b11e2ee2f"
GOLDEN_BLOCKS = 6
GOLDEN_TIP_PREFIX = "4cf7fb7201bb8502"


def build_golden(path) -> None:
    """Deterministically regenerate the golden log at ``path``."""
    store = BlockStore(path)
    chain = fresh_chain(store=store)
    grow(chain, GOLDEN_BLOCKS,
         extra_txs=lambda h: [b"golden-%d" % h, b"pad" * h])
    store.close()


class TestGoldenVector:
    def test_fixture_bytes_pinned(self, golden_path):
        digest = hashlib.sha256(golden_path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256

    def test_regeneration_is_byte_identical(self, tmp_path, golden_path):
        rebuilt = tmp_path / "rebuilt.log"
        build_golden(rebuilt)
        assert rebuilt.read_bytes() == golden_path.read_bytes()

    def test_reopened_index_state_pinned(self, golden_path):
        store = BlockStore(golden_path)
        try:
            assert len(store) == GOLDEN_BLOCKS
            assert store.recovery == {"dropped_bytes": 0, "reason": None}
            chain = fresh_chain(store=store)
            assert chain.height() == GOLDEN_BLOCKS
            assert chain.tip_id.hex()[:16] == GOLDEN_TIP_PREFIX
            heights = [store.height_of(bid) for bid in store.ids()]
            assert heights == list(range(1, GOLDEN_BLOCKS + 1))
        finally:
            store.close()


@pytest.fixture()
def golden_path(tmp_path):
    import pathlib
    import shutil

    source = pathlib.Path(__file__).parent / "data" / "store_golden.log"
    assert source.exists(), "golden fixture missing — run build_golden"
    # Copy: recovery truncates in place, and the fixture must stay pristine.
    target = tmp_path / "store_golden.log"
    shutil.copy(source, target)
    return target
