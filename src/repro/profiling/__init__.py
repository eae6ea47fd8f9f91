"""Workload profiling — the front half of the PerfProx pipeline (§IV-B).

PerfProx profiles a workload "on a variety of performance metrics such as
instruction mix, branch behavior, memory access patterns, and data
dependencies" and then synthesises a proxy matching that profile.  This
subpackage produces exactly that profile from a run of a reference workload
on the simulated machine; :mod:`repro.widgetgen` is the back half that
consumes it.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "PerformanceProfile": ".profile",
    "profile_program": ".profiler",
    "profile_workload": ".profiler",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
