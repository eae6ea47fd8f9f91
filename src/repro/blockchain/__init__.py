"""Proof-of-work blockchain substrate.

HashCore replaces only the PoW function of a blockchain ("All other hashing
and other functionality within the blockchain will remain unchanged", §I).
This subpackage provides that surrounding machinery — block headers with
compact difficulty bits, merkle-committed transactions, retargeting, chain
validation with accumulated-work fork choice, a nonce-searching miner, a
statistical multi-miner network simulator, and a fault-injection chaos
harness (seeded drops/partitions/crashes/byzantine peers over the gossip
layer) — so HashCore (and every baseline PoW function) can be exercised
as an actual consensus primitive, on and off the happy path.
"""

from repro.blockchain.merkle import merkle_proof, merkle_root, verify_proof
from repro.blockchain.block import Block, BlockHeader, GENESIS_PREV_HASH
from repro.blockchain.difficulty import RetargetSchedule, next_compact_target
from repro.blockchain.chain import Blockchain, block_id
from repro.blockchain.miner import MinedBlock, mine_block, mine_header
from repro.blockchain.network import NetworkResult, simulate_network
from repro.blockchain.node import Node, ReceiveResult
from repro.blockchain.faults import (
    ByzantinePeer,
    Crash,
    LinkFaults,
    Partition,
    Scenario,
    random_scenario,
)
from repro.blockchain.sim import (
    ChaosNetwork,
    ChaosReport,
    ChaosRunner,
    InvariantChecker,
)
from repro.blockchain.lamport import LamportKeyPair, Wallet
from repro.blockchain.transaction import Transaction
from repro.blockchain.ledger import BLOCK_REWARD, Account, Ledger
from repro.blockchain.mempool import Mempool, fee_rate
from repro.blockchain.store import BlockStore, decode_block, encode_block

__all__ = [
    "merkle_root",
    "merkle_proof",
    "verify_proof",
    "Block",
    "BlockHeader",
    "GENESIS_PREV_HASH",
    "RetargetSchedule",
    "next_compact_target",
    "Blockchain",
    "block_id",
    "MinedBlock",
    "mine_block",
    "mine_header",
    "NetworkResult",
    "simulate_network",
    "Node",
    "ReceiveResult",
    "LinkFaults",
    "Partition",
    "Crash",
    "ByzantinePeer",
    "Scenario",
    "random_scenario",
    "ChaosNetwork",
    "ChaosReport",
    "ChaosRunner",
    "InvariantChecker",
    "LamportKeyPair",
    "Wallet",
    "Transaction",
    "BLOCK_REWARD",
    "Account",
    "Ledger",
    "Mempool",
    "fee_rate",
    "BlockStore",
    "encode_block",
    "decode_block",
]
