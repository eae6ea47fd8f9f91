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

from repro._exports import lazy_exports

_EXPORTS = {
    "GeneratorParams": ".params",
    "BlockSpec": ".ir",
    "GuardSpec": ".ir",
    "LoopSpec": ".ir",
    "WidgetSpec": ".ir",
    "MemoryPlan": ".memstream",
    "plan_memory": ".memstream",
    "WidgetGenerator": ".generator",
    "generate_spec": ".generator",
    "compile_spec": ".codegen",
    "WidgetPool": ".pool",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
