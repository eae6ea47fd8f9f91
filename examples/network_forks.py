#!/usr/bin/env python3
"""Forks, orphans and reorgs on a multi-node HashCore network.

Runs a three-node flood network where two nodes mine concurrently during
a propagation delay, producing a live fork that work-based fork choice
later resolves — the consensus behaviour HashCore must slot into
unchanged ("All other hashing and other functionality within the
blockchain will remain unchanged", §I).  The network is a
:class:`~repro.blockchain.sim.ChaosNetwork` whose scenario injects no
faults: only the 3-tick link delay.

SHA-256d mining keeps the demo instant; swap ``pow_fn`` for
``HashCore(...)`` to run the identical scenario on real widgets (slower).

Run:  python examples/network_forks.py
"""

from __future__ import annotations

from repro.baselines.sha256d import Sha256d
from repro.blockchain.faults import LinkFaults, Scenario
from repro.blockchain.sim import ChaosNetwork


def show(net: ChaosNetwork, label: str) -> None:
    heights = [node.chain.height() for node in net.nodes]
    tips = [node.tip_id().hex()[:8] for node in net.nodes]
    print(f"{label:<34s} heights={heights} tips={tips} "
          f"converged={net.converged()}")


def settle(net: ChaosNetwork) -> None:
    """Tick long enough for every block to arrive and be re-flooded."""
    for _ in range(2 * net.scenario.link.delay):
        net.tick()


def main() -> None:
    pow_fn = Sha256d()
    net = ChaosNetwork(
        Scenario(
            n_nodes=3,
            relay="flood",
            link=LinkFaults(delay=3),  # room for concurrent blocks
            difficulty=64.0,
        ),
        pow_fn,
    )
    show(net, "genesis")

    print("\n-- node0 and node2 both mine before hearing from each other --")
    net.mine_on(0, [b"coinbase A1"], timestamp=30)
    net.mine_on(2, [b"coinbase B1"], timestamp=31, start_nonce=10**6)
    show(net, "concurrent blocks mined")
    settle(net)
    show(net, "after gossip (equal-work fork)")

    print("\n-- node2 extends its branch; everyone reorgs onto it --")
    net.mine_on(2, [b"coinbase B2"], timestamp=60, start_nonce=10**6)
    settle(net)
    show(net, "after extension")
    for node in net.nodes:
        print(f"  {node.name}: reorgs={node.reorgs} "
              f"blocks known={len(node.chain)} height={node.chain.height()}")

    print("\n-- steady mining converges every round --")
    for height in range(3, 7):
        net.mine_on(height % 3, [f"coinbase {height}".encode()],
                    timestamp=30 * height)
        settle(net)
    show(net, "final")
    main_chain = net.nodes[0].chain.main_chain()
    print("\nmain chain transactions:")
    for block in main_chain:
        print("  ", block.transactions[0].decode())


if __name__ == "__main__":
    main()
