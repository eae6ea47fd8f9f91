"""Baked consensus profiles for the whole workload suite.

:class:`~repro.core.rotation.RotatingHashCore` needs a consensus-fixed
*set* of profiles (the seed selects among them per hash).  Like the
default Leela profile, the suite ships as baked constants so every miner
targets identical generation parameters; a test asserts the constants
still match fresh measurements, so they cannot silently drift from the
simulator.  The suite's Leela entry *is* the default profile's dict
(:data:`~repro.core.default_profile.DEFAULT_PROFILE_DICT`), so the
consensus default is written down once.

Regenerate with :func:`measure_suite_profiles`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.default_profile import DEFAULT_PROFILE_DICT
from repro.profiling.profile import PerformanceProfile

#: Baked measurements of every suite workload on the reference machine.
SUITE_PROFILE_DICTS: dict[str, dict] = {
    "compress": {
        "schema": 1,
        "name": "compress",
        "machine": "ivy-bridge-like",
        "dynamic_instructions": 449737,
        "instruction_mix": {
            "int_alu": 0.5928487093568019,
            "int_mul": 0.026682260965853376,
            "fp_alu": 0.0,
            "load": 0.1902334030777988,
            "store": 0.026682260965853376,
            "branch": 0.16355114211194544,
            "vector": 0.0,
            "system": 2.223521747154448e-06
        },
        "branch_taken_rate": 0.7015158724763783,
        "branch_accuracy": 0.8374821562096391,
        "biased_branch_fraction": 0.6666666666666666,
        "dep_distance_hist": [
            0.565902563060515,
            0.09604200190019056,
            0.10593287823952287,
            0.13607780895945346,
            0.03576037828071197,
            0.04138955554213096,
            0.018894814017475163,
            0.0
        ],
        "stride_hist": [
            0.005525371604305484,
            0.5187288569964121,
            0.0003485392106611994,
            0.0016401845207585854,
            0.015202460276781137,
            0.08856996412096362,
            0.3699846232701179
        ],
        "block_size_mean": 6.114281829923187,
        "working_set_bytes": 161536,
        "l1_hit_rate": 0.8582953205883861,
        "ipc": 0.682998613841012,
        "extras": {
            "div_share": 0.0,
            "fdiv_share": 0.0
        }
    },
    "graph": {
        "schema": 1,
        "name": "graph",
        "machine": "ivy-bridge-like",
        "dynamic_instructions": 299931,
        "instruction_mix": {
            "int_alu": 0.46654063767999976,
            "int_mul": 0.0,
            "fp_alu": 0.0,
            "load": 0.2667280141099119,
            "store": 0.0,
            "branch": 0.2667280141099119,
            "vector": 0.0,
            "system": 3.334100176373899e-06
        },
        "branch_taken_rate": 0.750925,
        "branch_accuracy": 0.7505,
        "biased_branch_fraction": 0.5,
        "dep_distance_hist": [
            0.5456405592815733,
            0.1818801864271911,
            0.09059906786404456,
            0.1818801864271911,
            0.0,
            0.0,
            0.0,
            0.0
        ],
        "stride_hist": [
            0.0,
            0.00017500437510937773,
            0.0,
            0.00045001125028125703,
            0.006275156878921973,
            0.054701367534188354,
            0.9383984599614991
        ],
        "block_size_mean": 3.749125,
        "working_set_bytes": 262144,
        "l1_hit_rate": 0.11085,
        "ipc": 0.1960226994221882,
        "extras": {
            "div_share": 0.0,
            "fdiv_share": 0.0
        }
    },
    "leela": DEFAULT_PROFILE_DICT,
    "matrix": {
        "schema": 1,
        "name": "matrix",
        "machine": "ivy-bridge-like",
        "dynamic_instructions": 245782,
        "instruction_mix": {
            "int_alu": 0.10004801002514423,
            "int_mul": 0.0,
            "fp_alu": 0.19998616660292454,
            "load": 0.09999104897836295,
            "store": 0.0,
            "branch": 0.10001546085555492,
            "vector": 0.4999552448918147,
            "system": 4.0686461986638565e-06
        },
        "branch_taken_rate": 0.9997152387926125,
        "branch_accuracy": 0.9997152387926125,
        "biased_branch_fraction": 0.5,
        "dep_distance_hist": [
            0.0,
            0.0,
            0.0,
            0.5,
            0.5,
            0.0,
            0.0,
            0.0
        ],
        "stride_hist": [
            0.0,
            0.0,
            0.0,
            0.999796541200407,
            0.0,
            0.0,
            0.0002034587995930824
        ],
        "block_size_mean": 9.998413473273127,
        "working_set_bytes": 393216,
        "l1_hit_rate": 0.7,
        "ipc": 2.3592335289106465,
        "extras": {
            "div_share": 0.0,
            "fdiv_share": 0.0
        }
    },
    "media": {
        "schema": 1,
        "name": "media",
        "machine": "ivy-bridge-like",
        "dynamic_instructions": 458892,
        "instruction_mix": {
            "int_alu": 0.76179798296767,
            "int_mul": 0.0,
            "fp_alu": 0.0,
            "load": 0.18861082782005353,
            "store": 0.0,
            "branch": 0.049589010050295056,
            "vector": 0.0,
            "system": 2.1791619814684065e-06
        },
        "branch_taken_rate": 0.5907892423976094,
        "branch_accuracy": 0.8951045878010195,
        "biased_branch_fraction": 0.8,
        "dep_distance_hist": [
            0.22518059323206202,
            0.42811088107926876,
            0.025366285980900845,
            0.019214041372907147,
            0.15219771588540507,
            0.10146514392360338,
            0.025366285980900845,
            0.023099052544951947
        ],
        "stride_hist": [
            0.0,
            0.0,
            0.0,
            0.7802736180440007,
            0.07616934738398964,
            0.003974856720281013,
            0.1395821778517286
        ],
        "block_size_mean": 20.16571453682545,
        "working_set_bytes": 163200,
        "l1_hit_rate": 0.9384647379609945,
        "ipc": 1.1247931878846706,
        "extras": {
            "div_share": 0.0,
            "fdiv_share": 0.0
        }
    }
}


@lru_cache(maxsize=1)
def suite_profiles() -> tuple[PerformanceProfile, ...]:
    """The baked suite profiles, in sorted-name order (consensus order)."""
    return tuple(
        PerformanceProfile.from_dict(SUITE_PROFILE_DICTS[name])
        for name in sorted(SUITE_PROFILE_DICTS)
    )


def measure_suite_profiles() -> dict[str, dict]:
    """Re-measure every profile from live runs (slow path)."""
    from repro.machine.cpu import Machine
    from repro.profiling.profiler import profile_workload
    from repro.workloads.suite import SUITE, get_workload

    machine = Machine()
    return {
        name: profile_workload(get_workload(name), machine).to_dict()
        for name in sorted(SUITE)
    }
