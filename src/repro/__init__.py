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

from repro._exports import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "HashCore": ".core.hashcore",
    "HashCoreTrace": ".core.hashcore",
    "HashGate": ".core.hash_gate",
    "HashSeed": ".core.seed",
    "SeedField": ".core.seed",
    "Widget": ".core.widget",
    "WidgetResult": ".core.widget",
    "hash_gate": ".core.hash_gate",
    "meets_target": ".core.pow",
    "difficulty_to_target": ".core.pow",
    "target_to_difficulty": ".core.pow",
    "default_profile": ".core.default_profile",
    "suite_profiles": ".core.suite_profiles",
    "Machine": ".machine.cpu",
    "MachineConfig": ".machine.config",
    "ivy_bridge": ".machine.config",
    "mobile_arm": ".machine.config",
    "scalar_inorder": ".machine.config",
    "modern_desktop": ".machine.config",
    "preset": ".machine.config",
    "PerformanceProfile": ".profiling.profile",
    "profile_program": ".profiling.profiler",
    "profile_workload": ".profiling.profiler",
    "GeneratorParams": ".widgetgen.params",
    "WidgetGenerator": ".widgetgen.generator",
    "WidgetPool": ".widgetgen.pool",
    "SelectionHashCore": ".core.rotation",
    "RotatingHashCore": ".core.rotation",
    "SUITE": ".workloads.suite",
    "get_workload": ".workloads.suite",
    "Block": ".blockchain.block",
    "BlockHeader": ".blockchain.block",
    "Blockchain": ".blockchain.chain",
    "mine_block": ".blockchain.miner",
    "simulate_network": ".blockchain.network",
    "Sha256d": ".baselines.sha256d",
    "ScryptLike": ".baselines.scrypt_like",
    "EquihashLike": ".baselines.equihash_like",
    "RandomXLike": ".baselines.randomx_like",
    "AsicModel": ".asicmodel.advantage",
    "PowTraits": ".asicmodel.advantage",
    "utilization_from_counters": ".asicmodel.advantage",
    "ReproError": ".errors",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
