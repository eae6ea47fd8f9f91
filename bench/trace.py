"""Spans, timing proxies and the per-stage profile of ``H(x)``.

Everything here measures the system from outside: spans are opened in the
benchmark's own code around calls into a layer, and the proxies are the
objects the benchmark hands to the system's constructors in place of the
real ``PowFunction`` or ``BlockStore``.  Nothing inside ``repro`` is
instrumented.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from pathlib import Path

from repro.core.hashcore import HashCore
from repro.core.widget import Widget
from repro.isa.program import Program
from repro.machine.jit import clear_template_cache, template_cache_stats
from repro.widgetgen.codegen import compile_spec

#: The traced stage sum may differ from the untraced time per hash by at
#: most this share; beyond it the trace no longer describes the system.
#: Fewer traced hashes than the minimum cannot resolve that share.
STAGE_SUM_TOLERANCE = 0.10
STAGE_SUM_MIN_HASHES = 100

#: The translator each execution tier runs before it can execute a
#: program (what ``Machine.run`` asks the program for).
TRANSLATORS = {
    "jit": Program.jit_code,
    "fast": Program.fast_handlers,
    "timed": Program.code_tuples,
}


class Tracer:
    """In-memory span recorder.

    A span is ``{"id", "name", "start_ns", "end_ns", "parent", "op"}``;
    ``parent`` is the id of the enclosing span and ``op`` identifies the
    operation (block, share, hash) the span belongs to.  Children inherit
    their parent's ``op``.  Single-threaded: the open-span stack is shared.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, op=None) -> "_Span":
        return _Span(self, name, op)

    def add(self, name: str, start_ns: int, end_ns: int, op=None) -> None:
        """Record a span timed elsewhere (another process's monotonic clock
        is the same clock on Linux)."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "start_ns": start_ns, "end_ns": end_ns,
                           "parent": None, "op": op})

    def write(self, path: Path) -> dict:
        """Write the spans as JSONL and the self-time summary beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        summary = summarize(self.spans)
        path.with_suffix(".summary.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n")
        return summary


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, op) -> None:
        stack = tracer._stack
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = tracer.spans[parent]["op"]
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "start_ns": 0,
                       "end_ns": 0, "parent": parent, "op": op}

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._stack.append(self.record["id"])
        self.record["start_ns"] = time.perf_counter_ns()
        return self

    def __exit__(self, *_exc) -> None:
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer._stack.pop()


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total and self time in ms.  Self time is a
    span's duration minus the time its child spans cover."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = (child_ns.get(span["parent"], 0)
                                        + span["end_ns"] - span["start_ns"])
    out: dict[str, dict] = {}
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        row = out.setdefault(span["name"],
                             {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += duration / 1e6
        row["self_ms"] += (duration - child_ns.get(span["id"], 0)) / 1e6
    return out


# ----------------------------------------------------------------------
# proxies handed to the system's constructors
# ----------------------------------------------------------------------
class TimedPow:
    """``PowFunction`` proxy that records a span around every ``hash``."""

    def __init__(self, inner, tracer: Tracer, span: str) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.span_name = span

    def hash(self, data: bytes) -> bytes:
        with self.tracer.span(self.span_name):
            return self.inner.hash(data)


class TimedStore:
    """``BlockStore`` proxy that records a span around every ``append``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def append(self, block) -> int:
        with self.tracer.span("store.append"):
            return self.inner.append(block)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class DispatchTimer:
    """Mining-engine ``PowFunction`` proxy, built inside each worker.

    Times every ``hash_batch`` dispatch the engine makes and reports the
    timings back through the engine's own stats channel, which ships the
    PoW object's ``cache_stats()`` document with every finished chunk.
    The timings are cumulative per worker: the engine keeps only each
    worker's latest document.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        #: ``(start_ns, end_ns, nonces)`` per dispatch.
        self.dispatches: list[tuple[int, int, int]] = []

    @classmethod
    def around(cls, pow_factory) -> "DispatchTimer":
        return cls(pow_factory())

    def hash(self, data: bytes) -> bytes:
        return self.inner.hash(data)

    def hash_batch(self, datas: list[bytes]) -> list[bytes]:
        start = time.perf_counter_ns()
        digests = self.inner.hash_batch(datas)
        self.dispatches.append((start, time.perf_counter_ns(), len(datas)))
        return digests

    def cache_stats(self) -> dict:
        stats_fn = getattr(self.inner, "cache_stats", None)
        stats = stats_fn() if callable(stats_fn) else {}
        stats["bench_dispatches"] = list(self.dispatches)
        return stats


class CapturePow:
    """Pool-server ``PowFunction`` proxy: keeps every verified batch
    (timing, inputs and digests) for the latency split and the digest
    cross-check.  The share verifier calls ``hash_batch``."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        #: ``(start_ns, end_ns, datas, digests)`` per batch.
        self.batches: list[tuple[int, int, list[bytes], list[bytes]]] = []

    def hash(self, data: bytes) -> bytes:
        return self.hash_batch([data])[0]

    def hash_batch(self, datas: list[bytes]) -> list[bytes]:
        start = time.perf_counter_ns()
        digests = self.inner.hash_batch(datas)
        self.batches.append((start, time.perf_counter_ns(), list(datas),
                             list(digests)))
        return digests


# ----------------------------------------------------------------------
# H(x) stage profile
# ----------------------------------------------------------------------
#: Staged digests compared with ``core.hash`` after the profile.
DIGEST_CHECKS = 8


def hx_profile(datas: list[bytes], make_core, tracer: Tracer,
               warm: list[bytes] = ()) -> tuple[dict, list[tuple[bool, str]]]:
    """Profile ``H(x)`` stage by stage over ``datas``.

    The JIT template cache is emptied first, since the workload may have
    compiled these very inputs.  The inputs then alternate between two
    evaluations on one core from ``make_core``, warmed with ``warm`` for
    the cached-widget regime:

    * even-numbered inputs: ``core.hash``, timed as a whole (untraced);
    * odd-numbered inputs: the stage calls ``HashCore`` makes — gate,
      generate, codegen, translate, execute, gate — each in its own span,
      with a widget LRU like ``HashCore``'s.

    Alternating puts both under the same machine load; on a shared host
    that load drifts between two passes run one after the other by more
    than the tolerance.  Distinct inputs also keep the untraced hash from
    leaving a JIT template the traced one would then hit.

    Returns the per-layer metrics (per traced hash) and its checks as
    ``(passed, failure message)``: staged digests must equal
    ``core.hash``'s, and the mean stage sum per hash must be within
    :data:`STAGE_SUM_TOLERANCE` of the mean untraced time per hash (when
    at least :data:`STAGE_SUM_MIN_HASHES` hashes were traced).
    """
    clear_template_cache()
    core = make_core()
    translate = TRANSLATORS[core.mode]
    cache: OrderedDict[bytes, Widget] = OrderedDict()

    def widget_for(seed) -> Widget | None:
        widget = cache.get(seed.raw)
        if widget is not None:
            cache.move_to_end(seed.raw)
        return widget

    def remember(seed, widget: Widget) -> None:
        cache[seed.raw] = widget
        if len(cache) > HashCore.DEFAULT_WIDGET_CACHE_SIZE:
            cache.popitem(last=False)

    for data in warm:  # the same warm-up on both paths
        core.hash(data)
        seed = core.seed_of(data)
        if widget_for(seed) is None:
            remember(seed, core.generator.widget(seed))
        widget_for(seed).execute(core.machine, mode=core.mode)
    widgets_before = core.cache_stats()["widget_cache"]
    first_span = len(tracer.spans)
    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    staged: list[tuple[bytes, bytes]] = []
    template_hits = template_lookups = retired = 0
    for op, data in enumerate(datas):
        start = time.perf_counter_ns()
        if op % 2 == 0:
            core.hash(data)
            untraced_ns.append(time.perf_counter_ns() - start)
            continue
        with tracer.span("hx", op=f"hx{op}"):
            with tracer.span("hx.gate"):
                seed = core.seed_of(data)
            widget = widget_for(seed)
            if widget is None:
                with tracer.span("hx.generate"):
                    spec = core.generator.spec(seed)
                with tracer.span("hx.codegen"):
                    program = compile_spec(spec)
                widget = Widget(spec=spec, program=program)
                remember(seed, widget)
            templates = template_cache_stats()
            with tracer.span("hx.translate"):
                translate(widget.program)
            after = template_cache_stats()
            with tracer.span("hx.execute"):
                result = widget.execute(core.machine, mode=core.mode)
            with tracer.span("hx.gate"):
                digest = core.gate(seed.raw + result.output)
        traced_ns.append(time.perf_counter_ns() - start)
        template_hits += after["hits"] - templates["hits"]
        template_lookups += (after["hits"] + after["misses"]
                             - templates["hits"] - templates["misses"])
        retired += result.counters.retired
        staged.append((data, digest))
    widgets_after = core.cache_stats()["widget_cache"]

    checks = [(core.hash(data) == digest,
               f"hx: staged digest differs from H(x) for input {data!r}")
              for data, digest in staged[:DIGEST_CHECKS]]
    n = len(traced_ns)
    stage_ns: dict[str, int] = {}
    for span in tracer.spans[first_span:]:
        if span["name"] != "hx":
            stage_ns[span["name"]] = (stage_ns.get(span["name"], 0)
                                      + span["end_ns"] - span["start_ns"])
    untraced_mean = sum(untraced_ns) / len(untraced_ns)
    stage_mean = sum(stage_ns.values()) / n
    if n >= STAGE_SUM_MIN_HASHES:
        checks.append((
            abs(stage_mean / untraced_mean - 1.0) <= STAGE_SUM_TOLERANCE,
            f"hx: traced stage sum {stage_mean / 1e6:.3f} ms/hash is not "
            f"within {STAGE_SUM_TOLERANCE:.0%} of the untraced "
            f"{untraced_mean / 1e6:.3f} ms/hash"))
    widget_hits = widgets_after["hits"] - widgets_before["hits"]
    widget_lookups = widget_hits + (widgets_after["misses"]
                                    - widgets_before["misses"])
    metrics = {
        f"{name}_ms": stage_ns.get(name, 0) / n / 1e6
        for name in ("hx.gate", "hx.generate", "hx.codegen", "hx.translate",
                     "hx.execute")
    }
    metrics.update({
        "hx.retired": retired / n,
        "hx.ns_per_instr": stage_ns["hx.execute"] / retired,
        "jit.template_hit_frac": (template_hits / template_lookups
                                  if template_lookups else 0.0),
        "hashcore.widget_hit_frac": (widget_hits / widget_lookups
                                     if widget_lookups else 0.0),
        "trace.overhead_frac": sum(traced_ns) / n / untraced_mean - 1.0,
    })
    return metrics, checks
