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

from repro.core.hash_gate import HASH_GATE_BYTES, HashGate, hash_gate
from repro.core.seed import HashSeed, SeedField
from repro.core.widget import Widget, WidgetResult
from repro.core.hashcore import HashCore, HashCoreTrace
from repro.core.rotation import RotatingHashCore, SelectionHashCore
from repro.core.pow import (
    MAX_TARGET,
    PowFunction,
    compact_to_target,
    difficulty_to_target,
    meets_target,
    target_to_compact,
    target_to_difficulty,
)

__all__ = [
    "HASH_GATE_BYTES",
    "HashGate",
    "hash_gate",
    "HashSeed",
    "SeedField",
    "Widget",
    "WidgetResult",
    "HashCore",
    "HashCoreTrace",
    "RotatingHashCore",
    "SelectionHashCore",
    "MAX_TARGET",
    "PowFunction",
    "compact_to_target",
    "difficulty_to_target",
    "meets_target",
    "target_to_compact",
    "target_to_difficulty",
]
