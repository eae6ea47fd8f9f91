"""Widget *selection* from a fixed pool — the §VI-A alternative.

Instead of generating widgets at runtime, a chain may fix a large widget
pool at genesis and have each hash seed select an ordered subset to
execute: "gating the input string and using the result to select some
ordered set of these widgets to be executed, resulting in an output string
to be hashed."  The trade-offs the paper discusses (storage vs generation
time vs per-widget-ASIC risk) are measurable on this implementation, and
the E9 bench does exactly that.

The pool itself is deterministic: member *i* is the widget generated from
``sha256(pool_tag || i)`` against the pool's profile, so two nodes
constructing the pool from the same consensus parameters hold identical
widgets without shipping gigabytes of code.
"""

from __future__ import annotations

import hashlib
import struct

from typing import TYPE_CHECKING

from repro.core.seed import HashSeed
from repro.errors import GenerationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.core.widget import Widget
from repro.machine.cpu import Machine
from repro.profiling.profile import PerformanceProfile
from repro.rng import Xoshiro256
from repro.widgetgen.generator import WidgetGenerator
from repro.widgetgen.params import GeneratorParams


class WidgetPool:
    """A fixed, deterministically constructed widget pool."""

    def __init__(
        self,
        profile: PerformanceProfile,
        params: GeneratorParams | None = None,
        pool_size: int = 64,
        pool_tag: bytes = b"hashcore-pool-v1",
    ) -> None:
        if pool_size < 2:
            raise GenerationError("pool needs at least 2 widgets")
        self.pool_tag = pool_tag
        self.generator = WidgetGenerator(profile, params)
        self.widgets: list["Widget"] = []
        self._selections = 0
        for index in range(pool_size):
            member_seed = HashSeed(
                hashlib.sha256(pool_tag + struct.pack("<I", index)).digest()
            )
            self.widgets.append(self.generator.widget(member_seed))

    def __len__(self) -> int:
        return len(self.widgets)

    def storage_bytes(self) -> int:
        """Total encoded size of the pool — the §VI-A storage cost."""
        return sum(widget.code_bytes() for widget in self.widgets)

    def select(self, seed: HashSeed, count: int = 1) -> list["Widget"]:
        """The ordered widget subset a hash seed selects.

        Selection is sampling *without replacement* driven by a PRNG whose
        64-bit seed folds the first 128 bits of the hash seed
        (``raw[:8] ^ raw[8:16]``; the fold is consensus for this variant).
        All pool members are reachable and the order matters (the paper's
        "ordered set").
        """
        if not 1 <= count <= len(self.widgets):
            raise GenerationError(
                f"count must be in [1, {len(self.widgets)}], got {count}"
            )
        self._selections += 1
        state = int.from_bytes(seed.raw[:8], "little") ^ int.from_bytes(
            seed.raw[8:16], "little"
        )
        rng = Xoshiro256(state)
        indices = list(range(len(self.widgets)))
        chosen = []
        for _ in range(count):
            pick = rng.next_u64() % len(indices)
            chosen.append(indices.pop(pick))
        return [self.widgets[i] for i in chosen]

    def fingerprint(self) -> str:
        """Pool identity: hash over member fingerprints (consensus check)."""
        acc = hashlib.sha256()
        for widget in self.widgets:
            acc.update(bytes.fromhex(widget.fingerprint()))
        return acc.hexdigest()

    def cache_stats(self) -> dict:
        """Selection count plus the JIT artifacts built and their build/hit
        counters, summed over every member program — how warm the pool's
        compiled widgets are (the quantity persistent mining workers
        preserve across chunks)."""
        stats = [widget.program.cache_stats() for widget in self.widgets]
        return {
            "widgets": len(self.widgets),
            "selections": self._selections,
            "jit_ready": sum(s["jit_ready"] for s in stats),
            "programs": {
                key: sum(s[key] for s in stats)
                for key in ("jit_builds", "jit_hits")
            },
        }


class SelectionHashCore:
    """HashCore with widget *selection* instead of generation (§VI-A).

    ``H(x) = G(s || W_{i1}(s-memory) || ... || W_{ik}(...))`` where the
    gate output ``s`` selects ``widgets_per_hash`` pool members.  Execution
    memory still derives from each selected widget's own plan, so outputs
    stay deterministic.  Implements the :class:`~repro.core.pow.PowFunction`
    protocol, so it drops into the miner/chain like any other PoW.
    """

    name = "hashcore-select"

    def __init__(
        self,
        pool: WidgetPool,
        machine: Machine | None = None,
        widgets_per_hash: int = 1,
        gate=None,
        mode: str = "auto",
    ) -> None:
        from repro.core.hash_gate import HashGate
        from repro.machine.cpu import resolve_mode

        self.pool = pool
        self.machine = machine or Machine()
        self.widgets_per_hash = widgets_per_hash
        self.gate = gate or HashGate()
        self.mode = resolve_mode(mode, ValueError)

    def seed_of(self, data: bytes) -> HashSeed:
        return HashSeed(self.gate(data))

    def hash(self, data: bytes) -> bytes:
        seed = self.seed_of(data)
        parts = [seed.raw]
        for widget in self.pool.select(seed, self.widgets_per_hash):
            parts.append(widget.execute(self.machine, mode=self.mode).output)
        return self.gate(b"".join(parts))

    def verify(self, data: bytes, digest: bytes) -> bool:
        """Verification is recomputation, as for generated HashCore."""
        return self.hash(data) == digest

    def cache_stats(self) -> dict:
        """The underlying pool's cache statistics (see
        :meth:`WidgetPool.cache_stats`)."""
        return self.pool.cache_stats()
