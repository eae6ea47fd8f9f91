"""HashCore — the paper's primary contribution.

``H(x) = G(s || W(s))`` with ``s = G(x)``: a first hash gate produces the
256-bit hash seed, the seed drives widget generation + execution, and a
second hash gate binds the seed and the widget output into the final hash
(§IV, Figure 1).  Collision resistance of ``H`` reduces to that of the hash
gate ``G`` regardless of anything about the widget machinery (Theorem 1).

Public surface:

* :func:`~repro.core.hash_gate.hash_gate` — the SHA-256 hash gate ``G``.
* :class:`~repro.core.seed.HashSeed` — the Table I seed-field split.
* :class:`~repro.core.hashcore.HashCore` — the full PoW function.
* :class:`~repro.core.rotation.RotatingHashCore` and
  :class:`~repro.core.rotation.SelectionHashCore` — the variants that
  change which widgets a seed runs (§V, §VI-A).
* :class:`~repro.core.widget.Widget` — a generated, compiled widget.
* :mod:`~repro.core.pow` — target/difficulty arithmetic shared by HashCore
  and the baseline PoW functions.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "HASH_GATE_BYTES": ".hash_gate",
    "HashGate": ".hash_gate",
    "hash_gate": ".hash_gate",
    "HashSeed": ".seed",
    "SeedField": ".seed",
    "Widget": ".widget",
    "WidgetResult": ".widget",
    "HashCore": ".hashcore",
    "HashCoreTrace": ".hashcore",
    "RotatingHashCore": ".rotation",
    "SelectionHashCore": ".rotation",
    "MAX_TARGET": ".pow",
    "PowFunction": ".pow",
    "compact_to_target": ".pow",
    "difficulty_to_target": ".pow",
    "meets_target": ".pow",
    "target_to_compact": ".pow",
    "target_to_difficulty": ".pow",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
