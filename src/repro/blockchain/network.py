"""Statistical multi-miner network simulation.

Real mining with HashCore costs ~0.1 s per attempt, so long-horizon
consensus dynamics (retargeting behaviour, miner revenue shares,
orphan rates) are simulated statistically: block inter-arrival times are
exponential with rate ``total_hashrate / difficulty`` and the winner of
each block is drawn proportionally to hashrate — the standard Poisson
model of PoW mining.  Difficulty evolves through the *same*
:func:`~repro.blockchain.difficulty.next_compact_target` consensus rule the
validating chain uses, so the simulation exercises real consensus code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.blockchain.difficulty import RetargetSchedule, next_compact_target
from repro.core.pow import compact_to_target, target_to_compact, target_to_difficulty, MAX_TARGET
from repro.errors import ChainError
from repro.rng import Xoshiro256


@dataclass(slots=True)
class NetworkResult:
    """Outcome of a simulated mining network run."""

    block_times: list[float] = field(default_factory=list)
    difficulties: list[float] = field(default_factory=list)
    winners: list[int] = field(default_factory=list)
    orphan_candidates: int = 0

    def miner_shares(self, n_miners: int) -> list[float]:
        """Fraction of blocks won by each miner."""
        counts = [0] * n_miners
        for winner in self.winners:
            counts[winner] += 1
        total = len(self.winners) or 1
        return [c / total for c in counts]

    def mean_block_time(self) -> float:
        return sum(self.block_times) / len(self.block_times) if self.block_times else 0.0


@dataclass(slots=True)
class RelayTraffic:
    """Closed-form per-block propagation cost of one relay protocol.

    The chaos harness (:mod:`repro.blockchain.sim`) *measures* these
    quantities; this model predicts them, so benchmark results can be
    sanity-checked against the expected complexity class.
    """

    relay: str
    fanout: int
    #: Expected block-relay messages per block (announces + pulls +
    #: bodies; transaction gossip excluded, as in the measured metric).
    messages_per_block: int
    #: Relay-tree depth — how many store-and-forward generations a block
    #: crosses before the last node has it.
    hops: int


def relay_traffic_model(
    n_nodes: int, relay: str = "flood", fanout: int = 0
) -> RelayTraffic:
    """Expected propagation cost for one block over ``n_nodes``.

    ``flood``: every node forwards the full body to every peer on first
    acceptance — n·(n-1) messages, one hop of useful latency (everyone
    hears directly from the origin's generation).  ``gossip`` /
    ``compact``: each node announces to ``fanout`` peers (n·f) and every
    non-origin node pulls the body exactly once (2·(n-1) for the
    request/response pair); the epidemic reaches the whole network in
    ~log_f(n) generations.  Compact's ``gettxn`` round trips vanish once
    mempools are warm, so the model prices them at zero.
    """
    if relay not in ("flood", "gossip", "compact"):
        raise ChainError(f"unknown relay mode {relay!r}")
    if n_nodes < 2:
        return RelayTraffic(relay=relay, fanout=0, messages_per_block=0, hops=0)
    if relay == "flood":
        return RelayTraffic(
            relay=relay, fanout=n_nodes - 1,
            messages_per_block=n_nodes * (n_nodes - 1), hops=1,
        )
    from repro.blockchain.gossip import resolve_fanout

    f = resolve_fanout(fanout, n_nodes)
    return RelayTraffic(
        relay=relay, fanout=f,
        messages_per_block=n_nodes * f + 2 * (n_nodes - 1),
        hops=max(1, math.ceil(math.log(n_nodes, f)) if f > 1 else n_nodes - 1),
    )


def simulate_network(
    hashrates: Sequence[float] | Callable[[float, int], Sequence[float]],
    n_blocks: int,
    schedule: RetargetSchedule | None = None,
    *,
    initial_difficulty: float = 100.0,
    propagation_delay: float = 0.0,
    seed: int = 1,
) -> NetworkResult:
    """Simulate ``n_blocks`` of mining.

    ``hashrates`` is either a fixed per-miner hash/s vector or a callable
    ``(time_seconds, height) -> vector`` for time-varying scenarios (e.g.
    the hardware-repurposing discussion of §VI-D).  ``propagation_delay``
    counts near-simultaneous solutions (inter-arrival below the delay) as
    orphan candidates.
    """
    schedule = schedule or RetargetSchedule()
    if initial_difficulty < 1.0:
        raise ChainError("initial_difficulty must be >= 1")
    rng = Xoshiro256(seed)
    result = NetworkResult()

    bits = target_to_compact(max(1, int(MAX_TARGET / initial_difficulty)))
    now = 0.0
    window_start = 0.0
    for height in range(1, n_blocks + 1):
        rates = list(hashrates(now, height)) if callable(hashrates) else list(hashrates)
        if not rates or min(rates) < 0 or sum(rates) <= 0:
            raise ChainError("hashrates must be non-negative with positive total")
        difficulty = target_to_difficulty(compact_to_target(bits))
        total_rate = sum(rates)
        # Exponential inter-arrival: -ln(U) * difficulty / total_hashrate.
        u = max(rng.random(), 1e-12)
        dt = -math.log(u) * difficulty / total_rate
        now += dt
        result.block_times.append(dt)
        result.difficulties.append(difficulty)
        # Winner proportional to hashrate.
        result.winners.append(rng.sample_weighted(rates))
        if propagation_delay > 0.0 and dt < propagation_delay:
            result.orphan_candidates += 1
        # Retarget through the real consensus rule.
        if height % schedule.interval == 0:
            bits = next_compact_target(
                schedule, bits, int(window_start), int(now)
            )
            window_start = now
    return result
