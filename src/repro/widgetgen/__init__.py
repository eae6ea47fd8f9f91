"""Widget generation — inverted benchmarking (§IV-B).

The back half of the PerfProx pipeline, modified as the paper describes:

1. the 256-bit hash seed is folded into the performance profile (Table I):
   five fields add *positive* noise to the instruction-type targets, one
   perturbs branch behaviour, and two seed the structure ("basic block
   vector") and memory PRNGs;
2. a synthetic program — the *widget* — is generated to match the perturbed
   profile: basic blocks, guards with calibrated biases, inner loops, memory
   streams over hot/cold regions and a pointer-chase ring, and data
   dependencies matching the profiled distance distribution;
3. the widget IR is compiled to the synthetic ISA (the stand-in for the
   paper's Python → C → GCC → x86 chain) and executed with periodic register
   snapshots forming the widget output.

Everything is a pure function of ``(profile, seed, params)``: the same seed
always yields the byte-identical program, which is what lets other miners
verify a HashCore hash.
"""

from repro.widgetgen.params import GeneratorParams
from repro.widgetgen.ir import BlockSpec, GuardSpec, LoopSpec, WidgetSpec
from repro.widgetgen.memstream import MemoryPlan, plan_memory
from repro.widgetgen.generator import WidgetGenerator, generate_spec
from repro.widgetgen.codegen import compile_spec
from repro.widgetgen.pool import WidgetPool

__all__ = [
    "GeneratorParams",
    "BlockSpec",
    "GuardSpec",
    "LoopSpec",
    "WidgetSpec",
    "MemoryPlan",
    "plan_memory",
    "WidgetGenerator",
    "generate_spec",
    "compile_spec",
    "WidgetPool",
]
