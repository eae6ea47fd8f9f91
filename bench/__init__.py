"""End-to-end benchmark of the HashCore system.

Four workloads (``mine_fresh``, ``node_ingest``, ``pool_shares``,
``verify_cached``) drive the system only through its public entry points
and report the metrics ``BENCHMARK.json`` names.  Run from the repository
root::

    python3 -m bench run --workload mine_fresh --seed 1 --seconds 20 --trace 0

See ``bench/README.md`` for the workloads, the metrics and how to compare
two sets of runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Repository root: the benchmark package sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for traces and the node workload's block logs.
OUT_DIR = ROOT / ".bench_out"


def load_spec() -> dict:
    """The benchmark definition (``BENCHMARK.json`` at the root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Raises ``SystemExit`` when the checkout has no source tree, so a
    benchmark copied away from the code it measures fails loudly instead
    of measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no source tree at {SRC}; nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {SRC}")
