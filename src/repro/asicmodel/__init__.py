"""ASIC-advantage modeling.

The paper's motivation (§II, §III) is an economic claim: for PoW functions
that use only a subset of a GPP's resources, "any PoW function that
utilizes only a subset of the resources within a GPP is vulnerable to an
ASIC that mimics the GPP with respect to that subset and strips away
everything else" (§I).  This subpackage turns that argument into a model:

1. a die-area / power inventory of the GPP's resources
   (:mod:`~repro.asicmodel.resources`),
2. a per-PoW-function *utilization vector* — hand-documented for the
   classical baselines, measured from simulator counters for the VM-based
   functions (:func:`~repro.asicmodel.advantage.utilization_from_counters`),
3. the hypothetical best-ASIC construction: strip unused resources, resize
   kept ones to demand, and harden fixed dataflows
   (:class:`~repro.asicmodel.advantage.AsicModel`).

The output — hashrate-per-area and hashrate-per-watt advantage factors —
reproduces the ordering the paper argues for: SHA-256d ≫ scrypt >
Equihash > RandomX-like > HashCore ≈ 1.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Resource": ".resources",
    "GPP_RESOURCES": ".resources",
    "total_area": ".resources",
    "total_power": ".resources",
    "PowTraits": ".advantage",
    "AsicAdvantage": ".advantage",
    "AsicModel": ".advantage",
    "utilization_from_counters": ".advantage",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
