"""The consensus default profile (Leela on the Ivy-Bridge-like machine).

HashCore's widget generator is parameterised by a performance profile; the
paper uses the profile of SPEC CPU 2017's Leela measured on a Xeon E5-2430
v2.  Every miner must target the *same* profile — it is a consensus
parameter, like the difficulty rules — so the default profile ships as
baked constants rather than being re-measured at runtime (re-measuring
would also be needlessly slow in every process).

``measure_default_profile()`` regenerates the constants; the test suite
asserts the baked values still match a fresh measurement, so the constants
cannot silently drift from the simulator.  These constants are the only
copy: :mod:`repro.core.suite_profiles` imports them as its ``"leela"``
entry, and ``HashCore()`` imports only this small module.
"""

from __future__ import annotations

from functools import lru_cache

from repro.profiling.profile import PerformanceProfile

#: Baked measurement of ``profile_workload(LeelaWorkload(), Machine())``.
#: Regenerate with ``measure_default_profile().to_dict()``.
DEFAULT_PROFILE_DICT: dict = {
    "schema": 1,
    "name": "leela",
    "machine": "ivy-bridge-like",
    "dynamic_instructions": 218634,
    "instruction_mix": {
        "int_alu": 0.6417940485011481,
        "int_mul": 0.053655881518885444,
        "fp_alu": 0.0030278913618192963,
        "load": 0.10195577997932619,
        "store": 0.053655881518885444,
        "branch": 0.14590594326591472,
        "vector": 0.0,
        "system": 4.57385402087507e-06
    },
    "branch_taken_rate": 0.6473667711598746,
    "branch_accuracy": 0.9212852664576803,
    "biased_branch_fraction": 0.75,
    "dep_distance_hist": [
        0.4514565337254181,
        0.18195184708693254,
        0.056612984745451206,
        0.060650615695644186,
        0.22231666972982908,
        0.027011349016724865,
        0.0,
        0.0
    ],
    "stride_hist": [
        0.002028397565922921,
        0.004968104183202517,
        0.004791721786165741,
        0.02769203633477379,
        0.2354705000440956,
        0.6577299585501367,
        0.06731928153570274
    ],
    "block_size_mean": 6.853484216795712,
    "working_set_bytes": 71936,
    "l1_hit_rate": 0.9654047381106343,
    "ipc": 1.0913910326168346,
    "extras": {
        "div_share": 0.900179012871878,
        "fdiv_share": 0.3323262839879154
    }
}


@lru_cache(maxsize=1)
def default_profile() -> PerformanceProfile:
    """The baked Leela consensus profile."""
    return PerformanceProfile.from_dict(DEFAULT_PROFILE_DICT)


def measure_default_profile() -> PerformanceProfile:
    """Re-measure the default profile from a live Leela run (slow path)."""
    from repro.machine.cpu import Machine
    from repro.profiling.profiler import profile_workload
    from repro.workloads.leela import LeelaWorkload

    return profile_workload(LeelaWorkload(), Machine())
