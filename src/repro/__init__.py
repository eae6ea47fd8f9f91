"""HashCore reproduction: PoW functions for general purpose processors.

A full implementation of *HashCore: Proof-of-Work Functions for General
Purpose Processors* (Georghiades, Flolid, Vishwanath — ICDCS 2019) plus
every substrate its evaluation depends on:

* :mod:`repro.core` — HashCore itself: hash gates, the Table I hash seed,
  widgets, ``H(x) = G(s || W(s))``, PoW target arithmetic.
* :mod:`repro.isa` / :mod:`repro.machine` — the synthetic x86-like ISA and
  the microarchitectural simulator standing in for the paper's Xeon.
* :mod:`repro.workloads` / :mod:`repro.profiling` — the SPEC-like reference
  suite (Leela et al.) and the PerfProx-style profiler.
* :mod:`repro.widgetgen` — inverted benchmarking: seed + profile → widget.
* :mod:`repro.blockchain` — headers, difficulty, chain, miner, network sim.
* :mod:`repro.baselines` — SHA-256d, scrypt-like, Equihash-like,
  RandomX-like competitor PoW functions.
* :mod:`repro.asicmodel` — the ASIC-advantage economics model.
* :mod:`repro.analysis` — stats, reporting, and the machine-checked
  Theorem 1 reduction.

Quickstart::

    from repro import HashCore
    hc = HashCore()
    digest = hc.hash(b"block header bytes")
    assert hc.verify(b"block header bytes", digest)
"""

from repro.core import (
    HashCore,
    RotatingHashCore,
    SelectionHashCore,
    HashCoreTrace,
    HashGate,
    HashSeed,
    SeedField,
    Widget,
    WidgetResult,
    hash_gate,
    meets_target,
    difficulty_to_target,
    target_to_difficulty,
)
from repro.core.default_profile import default_profile
from repro.core.suite_profiles import suite_profiles
from repro.machine import Machine, MachineConfig
from repro.machine.config import ivy_bridge, mobile_arm, modern_desktop, preset, scalar_inorder
from repro.profiling import PerformanceProfile, profile_program, profile_workload
from repro.widgetgen import GeneratorParams, WidgetGenerator, WidgetPool
from repro.workloads import SUITE, get_workload
from repro.blockchain import Block, BlockHeader, Blockchain, mine_block, simulate_network
from repro.baselines import EquihashLike, RandomXLike, ScryptLike, Sha256d
from repro.asicmodel import AsicModel, PowTraits, utilization_from_counters
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "HashCore",
    "HashCoreTrace",
    "HashGate",
    "HashSeed",
    "SeedField",
    "Widget",
    "WidgetResult",
    "hash_gate",
    "meets_target",
    "difficulty_to_target",
    "target_to_difficulty",
    "default_profile",
    "suite_profiles",
    "Machine",
    "MachineConfig",
    "ivy_bridge",
    "mobile_arm",
    "scalar_inorder",
    "modern_desktop",
    "preset",
    "PerformanceProfile",
    "profile_program",
    "profile_workload",
    "GeneratorParams",
    "WidgetGenerator",
    "WidgetPool",
    "SelectionHashCore",
    "RotatingHashCore",
    "SUITE",
    "get_workload",
    "Block",
    "BlockHeader",
    "Blockchain",
    "mine_block",
    "simulate_network",
    "Sha256d",
    "ScryptLike",
    "EquihashLike",
    "RandomXLike",
    "AsicModel",
    "PowTraits",
    "utilization_from_counters",
    "ReproError",
    "__version__",
]
