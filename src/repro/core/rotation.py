"""HashCore variants that change only which widgets a seed runs.

Theorem 1 holds whatever the widgets are, so both variants here are
:class:`~repro.core.hashcore.HashCore` subclasses that override one
widget-choice method and share everything else: the gates, hashing,
batching, tracing, verification, the widget LRU and the stats document.

**Profile rotation** (:class:`RotatingHashCore`).  The paper evaluates
widgets generated against a single profile (Leela) and notes "there is
nothing unique about this workload, and similar widgets could be produced
for a variety of workload performance profiles" (§V).  Experiment E8 of
this reproduction quantifies why variety matters: widgets from an
integer-only profile leave FP/vector units idle, so a profile-specific
ASIC can strip them.  Here the hash seed *also* selects which profile of a
consensus-fixed suite the widget is generated against, so an ASIC must
provision for the union of all profiles' demands — the §IV-A goal of
stressing every structure in proportion to its importance.  The profile
index is ``seed mod n`` over the full 256-bit seed, so a miner cannot
steer inputs toward a profile its hardware favours without breaking the
first gate's pre-image resistance (§IV's "select a particular widget
instantiation" argument applies unchanged).

**Pool selection** (:class:`SelectionHashCore`).  Instead of generating
widgets at runtime, a chain may fix a :class:`~repro.widgetgen.pool.WidgetPool`
at genesis and have each seed select an ordered subset of it to execute
(§VI-A; experiment E9 measures the trade-off).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.hash_gate import HashGate
from repro.core.hashcore import HashCore
from repro.core.seed import HashSeed
from repro.core.widget import Widget
from repro.errors import ConfigError
from repro.machine.config import MachineConfig
from repro.machine.cpu import Machine
from repro.profiling.profile import PerformanceProfile
from repro.widgetgen.generator import WidgetGenerator
from repro.widgetgen.params import GeneratorParams

if TYPE_CHECKING:
    from repro.widgetgen.pool import WidgetPool


class RotatingHashCore(HashCore):
    """HashCore whose seed selects one of several consensus profiles
    (:meth:`generator_for` is its one override)."""

    name = "hashcore-rotating"

    def __init__(
        self,
        profiles: Sequence[PerformanceProfile],
        machine: Machine | MachineConfig | None = None,
        params: GeneratorParams | None = None,
        gate: HashGate | None = None,
        mode: str = "auto",
    ) -> None:
        if not profiles:
            raise ConfigError("need at least one profile")
        super().__init__(profiles[0], machine, params, gate, mode=mode)
        self.profiles = list(profiles)
        self.generators = [WidgetGenerator(p, params) for p in self.profiles]

    def profile_index(self, seed: HashSeed) -> int:
        """Which suite profile this seed selects."""
        return int.from_bytes(seed.raw, "little") % len(self.profiles)

    def generator_for(self, seed: HashSeed) -> WidgetGenerator:
        return self.generators[self.profile_index(seed)]


class SelectionHashCore(HashCore):
    """HashCore with widget *selection* instead of generation (§VI-A).

    ``H(x) = G(s || W_{i1}(...) || ... || W_{ik}(...))`` where the gate
    output ``s`` selects ``widgets_per_hash`` pool members
    (:meth:`widgets` is its one override).  Execution memory still derives
    from each selected widget's own plan, so outputs stay deterministic.
    The members are compiled once, with the pool, so there is no widget
    LRU (its capacity reads 0).
    """

    name = "hashcore-select"

    def __init__(
        self,
        pool: WidgetPool,
        machine: Machine | MachineConfig | None = None,
        widgets_per_hash: int = 1,
        gate: HashGate | None = None,
        mode: str = "auto",
    ) -> None:
        if widgets_per_hash > len(pool):
            raise ValueError(
                f"widgets_per_hash must be <= the pool's {len(pool)} members"
            )
        generator = pool.generator
        super().__init__(generator.profile, machine, generator.params, gate,
                         widgets_per_hash, widget_cache_size=0, mode=mode)
        self.pool = pool

    def widgets(self, seed: HashSeed) -> list[Widget]:
        return self.pool.select(seed, self.widgets_per_hash)

    def cache_stats(self) -> dict:
        """:meth:`HashCore.cache_stats` plus the pool's ``widgets`` and
        ``selections`` counts."""
        return {**super().cache_stats(), **self.pool.cache_stats()}
