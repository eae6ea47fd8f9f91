"""Analysis utilities: statistics, figure/table rendering, and the
machine-checked Theorem 1 reduction."""

from repro._exports import lazy_exports

_EXPORTS = {
    "DistributionSummary": ".stats",
    "summarize": ".stats",
    "ascii_histogram": ".stats",
    "gaussian_fit": ".stats",
    "ks_distance": ".stats",
    "CollisionReduction": ".reduction",
    "find_gate_collision_from_h_collision": ".reduction",
    "render_table": ".report",
    "HashrateEstimate": ".hashrate",
    "estimate_hashrate": ".hashrate",
    "rolling_hashrate": ".hashrate",
    "CentralizationResult": ".market",
    "centralization_study": ".market",
    "gini": ".market",
    "histogram_svg": ".svg",
    "save_histogram": ".svg",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
