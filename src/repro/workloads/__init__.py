"""Reference workloads — the reproduction's stand-in for SPEC CPU 2017.

The paper profiles the *Leela* integer-speed workload (a Go engine) from
SPEC CPU 2017 and generates widgets matching its execution profile.  SPEC
itself is proprietary and native, so this subpackage implements a small
suite of workloads *in the synthetic ISA*, one per major SPEC behaviour
class:

* :class:`~repro.workloads.leela.LeelaWorkload` — branchy integer MCTS-style
  Go-engine kernel (the paper's profiled workload).
* :class:`~repro.workloads.compress.CompressWorkload` — LZ-style hash-chain
  match kernel (xz-like): integer + hash-table loads/stores.
* :class:`~repro.workloads.matrix.MatrixWorkload` — FP/vector stencil sweep
  (bwaves/lbm-like): high ILP, streaming memory.
* :class:`~repro.workloads.graph.GraphWorkload` — pointer-chasing sparse
  traversal (mcf-like): latency-bound dependent loads.
* :class:`~repro.workloads.media.MediaWorkload` — motion-estimation SAD
  search (x264-like): integer/load heavy with early-exit branches.

Only the workloads' *performance profiles* feed the widget generator (as in
PerfProx), so behavioural similarity at the counter level — instruction mix,
branch behaviour, locality, dependency structure — is what matters, not
functional equivalence with SPEC sources.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "MemoryDirective": ".base",
    "Workload": ".base",
    "WorkloadImage": ".base",
    "LeelaWorkload": ".leela",
    "CompressWorkload": ".compress",
    "MatrixWorkload": ".matrix",
    "GraphWorkload": ".graph",
    "MediaWorkload": ".media",
    "SUITE": ".suite",
    "get_workload": ".suite",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
