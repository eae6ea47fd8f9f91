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

from repro._exports import lazy_exports

_EXPORTS = {
    "merkle_root": ".merkle",
    "merkle_proof": ".merkle",
    "verify_proof": ".merkle",
    "Block": ".block",
    "BlockHeader": ".block",
    "GENESIS_PREV_HASH": ".block",
    "RetargetSchedule": ".difficulty",
    "next_compact_target": ".difficulty",
    "Blockchain": ".chain",
    "block_id": ".chain",
    "MinedBlock": ".miner",
    "mine_block": ".miner",
    "mine_header": ".miner",
    "NetworkResult": ".network",
    "simulate_network": ".network",
    "Node": ".node",
    "ReceiveResult": ".node",
    "LinkFaults": ".faults",
    "Partition": ".faults",
    "Crash": ".faults",
    "ByzantinePeer": ".faults",
    "Scenario": ".faults",
    "random_scenario": ".faults",
    "ChaosNetwork": ".sim",
    "ChaosReport": ".sim",
    "ChaosRunner": ".sim",
    "InvariantChecker": ".sim",
    "LamportKeyPair": ".lamport",
    "Wallet": ".lamport",
    "Transaction": ".transaction",
    "BLOCK_REWARD": ".ledger",
    "Account": ".ledger",
    "Ledger": ".ledger",
    "Mempool": ".mempool",
    "fee_rate": ".mempool",
    "BlockStore": ".store",
    "encode_block": ".store",
    "decode_block": ".store",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
