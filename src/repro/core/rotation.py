"""Profile-rotating HashCore — hardening the single-profile design.

The paper evaluates widgets generated against a single profile (Leela) and
notes "there is nothing unique about this workload, and similar widgets
could be produced for a variety of workload performance profiles" (§V).
Experiment E8 of this reproduction quantifies why variety matters: widgets
from an integer-only profile leave FP/vector units idle, so a
profile-specific ASIC can strip them.

:class:`RotatingHashCore` closes that gap: the hash seed *also* selects
which profile of a consensus-fixed suite the widget is generated against,
so an ASIC must provision for the union of all profiles' demands — the
§IV-A goal of stressing every structure in proportion to its importance.
The profile index is ``seed mod n`` over the full 256-bit seed, so a miner
cannot steer inputs toward a profile its hardware favours without breaking
the first gate's pre-image resistance (§IV's "select a particular widget
instantiation" argument applies unchanged).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.hash_gate import HashGate
from repro.core.hashcore import HashCoreTrace
from repro.core.seed import HashSeed
from repro.errors import ConfigError
from repro.machine.config import MachineConfig
from repro.machine.cpu import Machine, resolve_mode
from repro.profiling.profile import PerformanceProfile
from repro.widgetgen.generator import WidgetGenerator
from repro.widgetgen.params import GeneratorParams


class RotatingHashCore:
    """HashCore whose seed selects one of several consensus profiles."""

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
        if machine is None:
            machine = Machine()
        elif isinstance(machine, MachineConfig):
            machine = Machine(machine)
        self.mode = resolve_mode(mode, ConfigError)
        self.profiles = list(profiles)
        self.machine = machine
        self.gate = gate or HashGate()
        self.generators = [WidgetGenerator(p, params) for p in self.profiles]

    # ------------------------------------------------------------------
    def seed_of(self, data: bytes) -> HashSeed:
        return HashSeed(self.gate(data))

    def profile_index(self, seed: HashSeed) -> int:
        """Which suite profile this seed selects."""
        return int.from_bytes(seed.raw, "little") % len(self.profiles)

    def hash(self, data: bytes) -> bytes:
        """PoW digest on the configured mode's engine (the fastest
        functional tier by default)."""
        return self.hash_with_trace(data, mode=self.mode).digest

    def hash_with_trace(self, data: bytes, *, mode: str = "timed") -> HashCoreTrace:
        """Hash plus intermediates; ``mode`` defaults to the timed engine
        so trace counters stay meaningful (see :class:`HashCore`)."""
        seed = self.seed_of(data)
        generator = self.generators[self.profile_index(seed)]
        widget = generator.widget(seed)
        result = widget.execute(self.machine, mode=mode)
        digest = self.gate(seed.raw + result.output)
        return HashCoreTrace(
            seed=seed,
            widget=widget,
            result=result,
            digest=digest,
            widgets=[widget],
            results=[result],
        )

    def verify(self, data: bytes, digest: bytes) -> bool:
        return self.hash(data) == digest
