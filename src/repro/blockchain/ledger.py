"""Account ledger: balances, nonces, expected one-time keys.

The state machine the transactions of
:mod:`repro.blockchain.transaction` drive.  Validation rules:

* the sender account exists and its nonce matches the transaction's;
* the signature verifies against the account's *expected key address*
  (hash-ladder: nonce 0 uses the identity key, later nonces the key the
  previous transaction announced);
* balance covers ``amount + fee``.

``apply_block`` processes a block's transactions in order and credits the
miner with fees plus the block subsidy.  It records the prior state of
only the accounts the block touches, so a failed block rolls back in
O(touched) instead of O(accounts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blockchain.transaction import Transaction
from repro.errors import ChainError

#: Block subsidy credited to the miner per applied block.
BLOCK_REWARD = 50


@dataclass(slots=True)
class Account:
    """Ledger state of one account."""

    balance: int
    nonce: int
    expected_key: bytes


@dataclass(slots=True)
class Ledger:
    """Mutable account state with transactional application."""

    accounts: dict[bytes, Account] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def register(self, address: bytes, balance: int) -> None:
        """Genesis allocation: identity key = ``address`` itself."""
        if address in self.accounts:
            raise ChainError("account already registered")
        if balance < 0:
            raise ChainError("negative genesis balance")
        self.accounts[address] = Account(
            balance=balance, nonce=0, expected_key=address
        )

    def balance(self, address: bytes) -> int:
        account = self.accounts.get(address)
        return account.balance if account else 0

    def nonce(self, address: bytes) -> int:
        account = self.accounts.get(address)
        return account.nonce if account else 0

    # ------------------------------------------------------------------
    def validate_transaction(self, tx: Transaction) -> None:
        """Raise :class:`ChainError` when ``tx`` cannot apply to the
        current state."""
        account = self.accounts.get(tx.sender)
        if account is None:
            raise ChainError("unknown sender account")
        if tx.nonce != account.nonce:
            raise ChainError(
                f"nonce mismatch: expected {account.nonce}, got {tx.nonce}"
            )
        if not tx.verify_signature(account.expected_key):
            raise ChainError("signature does not verify against expected key")
        if account.balance < tx.amount + tx.fee:
            raise ChainError("insufficient balance")

    def _touch(
        self,
        address: bytes,
        touched: dict[bytes, Account | None],
    ) -> None:
        """Record ``address``'s pre-image the first time a block touches it."""
        if address not in touched:
            account = self.accounts.get(address)
            touched[address] = (
                None
                if account is None
                else Account(account.balance, account.nonce, account.expected_key)
            )

    def apply_transaction(self, tx: Transaction) -> None:
        """Validate and apply one transaction (fees escrowed to the block
        application; see :meth:`apply_block`)."""
        self.validate_transaction(tx)
        sender = self.accounts[tx.sender]
        sender.balance -= tx.amount + tx.fee
        sender.nonce += 1
        sender.expected_key = tx.next_key
        recipient = self.accounts.get(tx.recipient)
        if recipient is None:
            # Receiving creates the account; its identity key is its
            # address (the recipient's wallet key 0).
            self.accounts[tx.recipient] = Account(
                balance=tx.amount, nonce=0, expected_key=tx.recipient
            )
        else:
            recipient.balance += tx.amount

    def apply_block(self, transactions: list[Transaction], miner: bytes) -> int:
        """Apply a block's transactions in order; credit subsidy + fees to
        ``miner``.  Returns the miner's total credit.  All-or-nothing: on
        any invalid transaction the touched accounts are restored from
        their pre-images (deleting the ones the block created), so the
        ledger is left unchanged."""
        touched: dict[bytes, Account | None] = {}
        try:
            fees = 0
            for tx in transactions:
                self._touch(tx.sender, touched)
                self._touch(tx.recipient, touched)
                self.apply_transaction(tx)
                fees += tx.fee
        except ChainError:
            for address, prior in touched.items():
                if prior is None:
                    self.accounts.pop(address, None)
                else:
                    self.accounts[address] = prior
            raise
        reward = BLOCK_REWARD + fees
        miner_account = self.accounts.get(miner)
        if miner_account is None:
            self.accounts[miner] = Account(
                balance=reward, nonce=0, expected_key=miner
            )
        else:
            miner_account.balance += reward
        return reward

    def total_supply(self) -> int:
        """Sum of all balances (conservation checks)."""
        return sum(account.balance for account in self.accounts.values())
