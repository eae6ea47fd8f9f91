"""Lamport signatures, transactions, ledger, and mempool tests."""

import hashlib

import pytest

from repro.blockchain.lamport import (
    ADDRESS_BYTES,
    SIGNATURE_BYTES,
    LamportKeyPair,
    Wallet,
    verify,
)
from repro.blockchain.ledger import BLOCK_REWARD, Account, Ledger
from repro.blockchain.mempool import Mempool
from repro.blockchain.transaction import TRANSACTION_BYTES, Transaction
from repro.errors import ChainError


def wallet(tag: str) -> Wallet:
    return Wallet(hashlib.sha256(tag.encode()).digest())


@pytest.fixture()
def funded():
    """(ledger, alice, bob) with alice holding 1000."""
    ledger = Ledger()
    alice = wallet("alice")
    bob = wallet("bob")
    ledger.register(alice.address, 1000)
    return ledger, alice, bob


class TestLamport:
    def test_sign_verify_round_trip(self):
        pair = LamportKeyPair(b"\x01" * 32)
        signature = pair.sign(b"message")
        assert verify(pair.address, b"message", signature)

    def test_wrong_message_rejected(self):
        pair = LamportKeyPair(b"\x01" * 32)
        signature = pair.sign(b"message")
        assert not verify(pair.address, b"other", signature)

    def test_tampered_signature_rejected(self):
        pair = LamportKeyPair(b"\x01" * 32)
        signature = bytearray(pair.sign(b"message"))
        signature[10] ^= 1
        assert not verify(pair.address, b"message", bytes(signature))

    def test_wrong_address_rejected(self):
        a = LamportKeyPair(b"\x01" * 32)
        b = LamportKeyPair(b"\x02" * 32)
        assert not verify(b.address, b"m", a.sign(b"m"))

    def test_deterministic_keys(self):
        assert LamportKeyPair(b"\x07" * 32).address == LamportKeyPair(b"\x07" * 32).address

    def test_sizes(self):
        pair = LamportKeyPair(b"\x03" * 32)
        assert len(pair.address) == ADDRESS_BYTES
        assert len(pair.sign(b"x")) == SIGNATURE_BYTES

    def test_malformed_inputs_rejected(self):
        assert not verify(b"short", b"m", b"\x00" * SIGNATURE_BYTES)
        assert not verify(b"\x00" * 32, b"m", b"short")
        with pytest.raises(ChainError):
            LamportKeyPair(b"short")


class TestWallet:
    def test_one_time_enforced(self):
        w = wallet("w")
        w.sign(0, b"first")
        with pytest.raises(ChainError):
            w.sign(0, b"second")

    def test_per_nonce_keys_differ(self):
        w = wallet("w")
        assert w.address_for(0) != w.address_for(1)

    def test_identity_is_key_zero(self):
        w = wallet("w")
        assert w.address == w.address_for(0)

    def test_negative_nonce_rejected(self):
        with pytest.raises(ChainError):
            wallet("w").keypair(-1)


class TestTransaction:
    def test_create_and_verify(self, funded):
        _, alice, bob = funded
        tx = Transaction.create(alice, bob.address, amount=100, fee=5, nonce=0)
        assert tx.verify_signature(alice.address)

    def test_serialize_round_trip(self, funded):
        _, alice, bob = funded
        tx = Transaction.create(alice, bob.address, 100, 5, 0)
        again = Transaction.deserialize(tx.serialize())
        assert again == tx
        assert len(tx.serialize()) == TRANSACTION_BYTES

    def test_tampered_amount_fails_verification(self, funded):
        _, alice, bob = funded
        tx = Transaction.create(alice, bob.address, 100, 5, 0)
        forged = Transaction(
            sender=tx.sender, recipient=tx.recipient, amount=999, fee=tx.fee,
            nonce=tx.nonce, next_key=tx.next_key, signature=tx.signature,
        )
        assert not forged.verify_signature(alice.address)

    def test_tx_id_excludes_signature(self, funded):
        _, alice, bob = funded
        tx = Transaction.create(alice, bob.address, 100, 5, 0)
        assert tx.tx_id() == Transaction.deserialize(tx.serialize()).tx_id()

    def test_field_validation(self, funded):
        _, alice, bob = funded
        with pytest.raises(ChainError):
            Transaction(b"short", bob.address, 1, 1, 0, alice.address,
                        b"\x00" * SIGNATURE_BYTES)


class TestLedger:
    def test_transfer_moves_balance(self, funded):
        ledger, alice, bob = funded
        tx = Transaction.create(alice, bob.address, 100, 5, 0)
        ledger.apply_transaction(tx)
        assert ledger.balance(alice.address) == 895
        assert ledger.balance(bob.address) == 100
        assert ledger.nonce(alice.address) == 1

    def test_key_ladder_advances(self, funded):
        ledger, alice, bob = funded
        tx0 = Transaction.create(alice, bob.address, 10, 1, 0)
        ledger.apply_transaction(tx0)
        # Nonce 1 must be signed by the key announced in tx0.
        tx1 = Transaction.create(alice, bob.address, 10, 1, 1)
        ledger.apply_transaction(tx1)
        assert ledger.nonce(alice.address) == 2

    def test_replayed_transaction_rejected(self, funded):
        ledger, alice, bob = funded
        tx = Transaction.create(alice, bob.address, 100, 5, 0)
        ledger.apply_transaction(tx)
        with pytest.raises(ChainError):
            ledger.apply_transaction(tx)  # nonce now stale

    def test_wrong_key_rejected(self, funded):
        ledger, alice, bob = funded
        mallory = wallet("mallory")
        forged = Transaction.create(mallory, bob.address, 100, 5, 0)
        forged = Transaction(
            sender=alice.address, recipient=forged.recipient, amount=100,
            fee=5, nonce=0, next_key=forged.next_key,
            signature=forged.signature,
        )
        with pytest.raises(ChainError):
            ledger.apply_transaction(forged)

    def test_insufficient_balance_rejected(self, funded):
        ledger, alice, bob = funded
        tx = Transaction.create(alice, bob.address, 999, 5, 0)
        with pytest.raises(ChainError):
            ledger.apply_transaction(tx)

    def test_unknown_sender_rejected(self, funded):
        ledger, _, bob = funded
        stranger = wallet("stranger")
        tx = Transaction.create(stranger, bob.address, 1, 0, 0)
        with pytest.raises(ChainError):
            ledger.apply_transaction(tx)

    def test_apply_block_credits_miner(self, funded):
        ledger, alice, bob = funded
        miner = wallet("miner")
        txs = [Transaction.create(alice, bob.address, 100, 5, 0),
               Transaction.create(alice, bob.address, 50, 3, 1)]
        reward = ledger.apply_block(txs, miner.address)
        assert reward == BLOCK_REWARD + 8
        assert ledger.balance(miner.address) == BLOCK_REWARD + 8

    def test_apply_block_atomic(self, funded):
        ledger, alice, bob = funded
        miner = wallet("miner")
        good = Transaction.create(alice, bob.address, 100, 5, 0)
        bad = Transaction.create(alice, bob.address, 100000, 5, 1)  # overdraft
        with pytest.raises(ChainError):
            ledger.apply_block([good, bad], miner.address)
        # Unchanged: the good transaction rolled back too, and the
        # recipient account it created is gone again.
        assert ledger.balance(alice.address) == 1000
        assert ledger.nonce(alice.address) == 0
        assert ledger.accounts == {
            alice.address: Account(1000, 0, alice.address)
        }

    def test_supply_conservation_plus_subsidy(self, funded):
        ledger, alice, bob = funded
        miner = wallet("miner")
        before = ledger.total_supply()
        ledger.apply_block([Transaction.create(alice, bob.address, 100, 5, 0)],
                           miner.address)
        assert ledger.total_supply() == before + BLOCK_REWARD

    def test_double_register_rejected(self, funded):
        ledger, alice, _ = funded
        with pytest.raises(ChainError):
            ledger.register(alice.address, 5)


class TestMempool:
    def test_fee_priority_selection(self, funded):
        ledger, alice, bob = funded
        carol = wallet("carol")
        ledger.register(carol.address, 1000)
        pool = Mempool(ledger)
        cheap = Transaction.create(alice, bob.address, 10, 1, 0)
        rich = Transaction.create(carol, bob.address, 10, 9, 0)
        pool.add(cheap)
        pool.add(rich)
        assert pool.select(1) == [rich]

    def test_nonce_order_respected(self, funded):
        ledger, alice, bob = funded
        pool = Mempool(ledger)
        tx0 = Transaction.create(alice, bob.address, 10, 1, 0)   # low fee
        tx1 = Transaction.create(alice, bob.address, 10, 99, 1)  # high fee
        pool.add(tx0)
        pool.add(tx1)
        selected = pool.select(2)
        assert selected == [tx0, tx1]  # nonce order wins over fee order

    def test_nonce_gap_rejected_on_admission(self, funded):
        ledger, alice, bob = funded
        pool = Mempool(ledger)
        with pytest.raises(ChainError):
            pool.add(Transaction.create(alice, bob.address, 10, 1, 5))

    def test_duplicate_rejected(self, funded):
        ledger, alice, bob = funded
        pool = Mempool(ledger)
        tx = Transaction.create(alice, bob.address, 10, 1, 0)
        pool.add(tx)
        with pytest.raises(ChainError):
            pool.add(tx)

    def test_remove_included_and_revalidate(self, funded):
        ledger, alice, bob = funded
        miner = wallet("miner")
        pool = Mempool(ledger)
        tx0 = Transaction.create(alice, bob.address, 10, 1, 0)
        tx1 = Transaction.create(alice, bob.address, 10, 1, 1)
        pool.add(tx0)
        pool.add(tx1)
        selected = pool.select(1)
        ledger.apply_block(selected, miner.address)
        pool.remove_included(selected)
        assert len(pool) == 1
        assert pool.revalidate() == 0  # tx1 still valid (nonce 1 is next)

    def test_revalidate_evicts_stale(self, funded):
        ledger, alice, bob = funded
        miner = wallet("miner")
        pool = Mempool(ledger)
        tx0 = Transaction.create(alice, bob.address, 10, 1, 0)
        pool.add(tx0)
        # The same tx confirms via another path; pool copy is now stale.
        ledger.apply_block([tx0], miner.address)
        assert pool.revalidate() == 1
        assert len(pool) == 0

    def test_capacity_enforced(self, funded):
        ledger, alice, bob = funded
        pool = Mempool(ledger, max_size=1)
        pool.add(Transaction.create(alice, bob.address, 10, 1, 0))
        with pytest.raises(ChainError):
            pool.add(Transaction.create(alice, bob.address, 10, 1, 1))


class TestEndToEndBlock:
    def test_signed_transactions_in_mined_block(self, funded):
        """Full stack: mempool -> block assembly -> PoW -> chain -> ledger."""
        from repro.baselines.sha256d import Sha256d
        from repro.blockchain.block import Block
        from repro.blockchain.chain import Blockchain
        from repro.blockchain.difficulty import RetargetSchedule
        from repro.blockchain.miner import mine_block
        from repro.core.pow import difficulty_to_target, target_to_compact

        ledger, alice, bob = funded
        miner = wallet("miner")
        pool = Mempool(ledger)
        pool.add(Transaction.create(alice, bob.address, 100, 5, 0))
        pool.add(Transaction.create(alice, bob.address, 200, 7, 1))

        selected = pool.select(10)
        chain = Blockchain(
            Sha256d(),
            genesis_bits=target_to_compact(difficulty_to_target(16.0)),
            schedule=RetargetSchedule(interval=10_000),
        )
        block = Block.build(
            prev_hash=chain.tip_id,
            transactions=[tx.serialize() for tx in selected],
            timestamp=30,
            bits=chain.expected_bits(chain.tip_id),
        )
        mined = mine_block(block, Sha256d(), max_attempts=100_000)
        chain.add_block(mined.block)

        # A validating node re-parses the block body and applies it.
        parsed = [Transaction.deserialize(raw) for raw in mined.block.transactions]
        ledger.apply_block(parsed, miner.address)
        pool.remove_included(parsed)

        assert ledger.balance(bob.address) == 300
        assert ledger.balance(alice.address) == 1000 - 300 - 12
        assert ledger.balance(miner.address) == BLOCK_REWARD + 12
        assert len(pool) == 0
