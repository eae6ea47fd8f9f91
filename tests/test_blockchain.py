"""Block, difficulty, chain, and miner tests (SHA-256d PoW for speed)."""

import pytest

from repro.baselines.sha256d import Sha256d
from repro.blockchain.block import GENESIS_PREV_HASH, Block, BlockHeader, HEADER_BYTES
from repro.blockchain.chain import Blockchain, block_id
from repro.blockchain.difficulty import RetargetSchedule, next_compact_target
from repro.blockchain.miner import mine_block, mine_header
from repro.core.pow import (
    compact_to_target,
    difficulty_to_target,
    target_to_compact,
    target_to_difficulty,
)
from repro.errors import ChainError, PowError, ValidationError

EASY_BITS = target_to_compact(difficulty_to_target(64.0))
POW = Sha256d()


def make_chain(**kwargs) -> Blockchain:
    kwargs.setdefault("genesis_bits", EASY_BITS)
    return Blockchain(POW, **kwargs)


def extend(chain: Blockchain, parent_id=None, timestamp=None, txs=None):
    parent_id = parent_id or chain.tip_id
    parent = chain.get(parent_id)
    block = Block.build(
        prev_hash=parent_id,
        transactions=txs or [b"coinbase"],
        timestamp=timestamp if timestamp is not None else parent.header.timestamp + 30,
        bits=chain.expected_bits(parent_id),
    )
    mined = mine_block(block, POW, max_attempts=200_000)
    return chain.add_block(mined.block)


class TestHeader:
    def test_serialize_round_trip(self):
        header = BlockHeader(1, bytes(32), bytes(32), 1234, EASY_BITS, 99)
        assert BlockHeader.deserialize(header.serialize()) == header

    def test_serialized_size(self):
        header = BlockHeader(1, bytes(32), bytes(32), 0, EASY_BITS, 0)
        assert len(header.serialize()) == HEADER_BYTES

    def test_nonce_changes_serialization(self):
        header = BlockHeader(1, bytes(32), bytes(32), 0, EASY_BITS, 0)
        assert header.serialize() != header.with_nonce(1).serialize()

    def test_bad_hash_length_rejected(self):
        with pytest.raises(ChainError):
            BlockHeader(1, b"short", bytes(32), 0, EASY_BITS, 0)

    def test_field_ranges_enforced(self):
        with pytest.raises(ChainError):
            BlockHeader(2**32, bytes(32), bytes(32), 0, EASY_BITS, 0)

    def test_deserialize_wrong_size_rejected(self):
        with pytest.raises(ChainError):
            BlockHeader.deserialize(b"\x00" * 10)


class TestBlock:
    def test_build_commits_to_transactions(self):
        block = Block.build(bytes(32), [b"a", b"b"], 0, EASY_BITS)
        block.validate_merkle()

    def test_tampered_transactions_detected(self):
        block = Block.build(bytes(32), [b"a", b"b"], 0, EASY_BITS)
        tampered = Block(header=block.header, transactions=(b"a", b"evil"))
        with pytest.raises(ChainError):
            tampered.validate_merkle()


class TestRetarget:
    def test_slow_blocks_ease_target(self):
        schedule = RetargetSchedule(block_time=30.0, interval=16)
        bits = EASY_BITS
        slow = next_compact_target(schedule, bits, 0, int(2 * schedule.expected_span))
        assert compact_to_target(slow) > compact_to_target(bits)

    def test_fast_blocks_tighten_target(self):
        schedule = RetargetSchedule()
        fast = next_compact_target(
            schedule, EASY_BITS, 0, int(schedule.expected_span / 2)
        )
        assert compact_to_target(fast) < compact_to_target(EASY_BITS)

    def test_on_schedule_keeps_target(self):
        schedule = RetargetSchedule()
        same = next_compact_target(schedule, EASY_BITS, 0, int(schedule.expected_span))
        assert compact_to_target(same) == pytest.approx(
            compact_to_target(EASY_BITS), rel=0.01
        )

    def test_clamped_to_4x(self):
        schedule = RetargetSchedule()
        crazy_slow = next_compact_target(
            schedule, EASY_BITS, 0, int(100 * schedule.expected_span)
        )
        ratio = compact_to_target(crazy_slow) / compact_to_target(EASY_BITS)
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_negative_window_rejected(self):
        with pytest.raises(ChainError):
            next_compact_target(RetargetSchedule(), EASY_BITS, 100, 50)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ChainError):
            RetargetSchedule(block_time=0)
        with pytest.raises(ChainError):
            RetargetSchedule(interval=0)
        with pytest.raises(ChainError):
            RetargetSchedule(clamp=0.5)


class TestMiner:
    def test_mined_header_meets_target(self):
        header = BlockHeader(1, bytes(32), bytes(32), 0, EASY_BITS, 0)
        solved, digest, attempts = mine_header(header, POW, max_attempts=100_000)
        from repro.core.pow import meets_target

        assert meets_target(digest, compact_to_target(EASY_BITS))
        assert attempts >= 1

    def test_attempts_roughly_match_difficulty(self):
        # Difficulty 64: expect ~64 attempts on average; across 20 headers
        # the mean should land within a generous band.
        total = 0
        for i in range(20):
            header = BlockHeader(1, bytes(32), bytes(32), i, EASY_BITS, 0)
            _, _, attempts = mine_header(header, POW, max_attempts=100_000)
            total += attempts
        assert 15 < total / 20 < 250

    def test_exhaustion_raises(self):
        hard_bits = target_to_compact(difficulty_to_target(2**40))
        header = BlockHeader(1, bytes(32), bytes(32), 0, hard_bits, 0)
        with pytest.raises(PowError):
            mine_header(header, POW, max_attempts=10)


class TestChain:
    def test_genesis_present(self):
        chain = make_chain()
        assert chain.height() == 0
        assert chain.tip().header.prev_hash == GENESIS_PREV_HASH

    def test_extend_advances_tip(self):
        chain = make_chain()
        bid = extend(chain)
        assert chain.height() == 1
        assert chain.tip_id == bid

    def test_unknown_parent_rejected(self):
        chain = make_chain()
        orphan = Block.build(bytes(b"\x11" * 32), [b"x"], 30, EASY_BITS)
        with pytest.raises(ChainError):
            chain.add_block(mine_block(orphan, POW, max_attempts=200_000).block)

    def test_insufficient_pow_rejected(self):
        chain = make_chain()
        block = Block.build(chain.tip_id, [b"x"], 30, chain.expected_bits(chain.tip_id))
        # Unmined block: astronomically unlikely to meet difficulty 64.
        with pytest.raises(ChainError):
            chain.add_block(block)

    def test_wrong_bits_rejected(self):
        chain = make_chain()
        wrong_bits = target_to_compact(difficulty_to_target(1.0))
        block = Block.build(chain.tip_id, [b"x"], 30, wrong_bits)
        mined = mine_block(block, POW, max_attempts=200_000)
        with pytest.raises(ChainError):
            chain.add_block(mined.block)

    def test_timestamp_before_parent_rejected(self):
        chain = make_chain(genesis_time=1000)
        block = Block.build(chain.tip_id, [b"x"], 500, chain.expected_bits(chain.tip_id))
        mined = mine_block(block, POW, max_attempts=200_000)
        with pytest.raises(ChainError):
            chain.add_block(mined.block)

    def test_duplicate_rejected(self):
        chain = make_chain()
        parent = chain.tip_id
        block = Block.build(parent, [b"x"], 30, chain.expected_bits(parent))
        mined = mine_block(block, POW, max_attempts=200_000)
        chain.add_block(mined.block)
        with pytest.raises(ChainError):
            chain.add_block(mined.block)

    def test_duplicate_refused_before_pow(self):
        """A block already on the chain is refused by its id, without a
        second PoW evaluation (one H(x) costs milliseconds with HashCore)."""

        class CountingPow(Sha256d):
            calls = 0

            def hash(self, data: bytes) -> bytes:
                self.calls += 1
                return super().hash(data)

        pow_fn = CountingPow()
        chain = Blockchain(pow_fn, genesis_bits=EASY_BITS)
        parent = chain.tip_id
        block = Block.build(parent, [b"x"], 30, chain.expected_bits(parent))
        mined = mine_block(block, POW, max_attempts=200_000)
        chain.add_block(mined.block)
        pow_fn.calls = 0
        with pytest.raises(ValidationError) as excinfo:
            chain.add_block(mined.block)
        assert excinfo.value.code == "duplicate-block"
        assert pow_fn.calls == 0

    def test_retarget_enforced_at_interval(self):
        schedule = RetargetSchedule(block_time=30.0, interval=4)
        chain = make_chain(schedule=schedule)
        # Mine 3 quick blocks (10s apart: fast -> difficulty must rise at
        # height 4).
        for i in range(3):
            extend(chain, timestamp=(i + 1) * 10)
        expected = chain.expected_bits(chain.tip_id)
        assert expected != chain.tip().header.bits
        assert compact_to_target(expected) < compact_to_target(EASY_BITS)
        # A block carrying the parent's old bits is rejected at the boundary.
        stale = Block.build(chain.tip_id, [b"x"], 40, chain.tip().header.bits)
        mined = mine_block(stale, POW, max_attempts=400_000)
        with pytest.raises(ChainError):
            chain.add_block(mined.block)

    def test_fork_choice_by_total_work(self):
        chain = make_chain()
        extend(chain)  # height 1 on branch A
        branch_point = chain.genesis_id
        # Branch B: two blocks from genesis -> more total work.
        b1 = extend(chain, parent_id=branch_point, timestamp=40)
        assert chain.height() == 1  # tie at equal work: first-seen (A) wins
        b2 = extend(chain, parent_id=b1, timestamp=70)
        assert chain.tip_id == b2
        assert chain.height() == 2

    def test_main_chain_walk(self):
        chain = make_chain()
        ids = [chain.genesis_id]
        for _ in range(3):
            ids.append(extend(chain))
        main = chain.main_chain()
        assert [block_id(b) for b in main] == ids

    def test_total_work_accumulates(self):
        chain = make_chain()
        extend(chain)
        extend(chain)
        expected = 2 * target_to_difficulty(compact_to_target(EASY_BITS))
        assert chain.total_work() == pytest.approx(expected)

    def test_get_unknown_block_raises(self):
        with pytest.raises(ChainError):
            make_chain().get(b"\x42" * 32)


class TestDuplicateTransactionRule:
    def test_duplicate_transactions_rejected(self):
        # CVE-2012-2459-style: [a,b,c] and [a,b,c,c] share a merkle root;
        # blocks carrying duplicates must not validate.
        from repro.blockchain.merkle import merkle_root

        distinct = [b"a", b"b", b"c"]
        duplicated = [b"a", b"b", b"c", b"c"]
        assert merkle_root(distinct) == merkle_root(duplicated)
        block = Block.build(bytes(32), distinct, 0, EASY_BITS)
        forged = Block(header=block.header, transactions=tuple(duplicated))
        with pytest.raises(ChainError):
            forged.validate_merkle()
        block.validate_merkle()  # the honest body still validates
