"""HashCore: the complete PoW function (§IV, Figure 1).

::

    s = G(x)              # hash gate -> 256-bit hash seed
    w = W(s)              # run the widgets s selects (generated from s,
                          #   compiled), collect register-snapshot output
    H(x) = G(s || w)      # hash gate over seed || widget output

The hash seed appears in the second gate's input, which is what makes the
collision-resistance reduction work no matter what ``W`` does (Theorem 1 —
implemented and machine-checked in :mod:`repro.analysis.reduction`).

So the paper's variants differ only in which widgets a seed runs:
:class:`HashCore` implements ``H`` for all of them, and
:meth:`HashCore.widgets` is the one hook for that choice (the rotation and
selection subclasses are in :mod:`repro.core.rotation`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.hash_gate import HashGate
from repro.core.seed import HashSeed
from repro.core.widget import Widget, WidgetResult
from repro.machine.config import MachineConfig
from repro.machine.cpu import Machine, resolve_mode
from repro.machine.jit import template_cache_stats
from repro.profiling.profile import PerformanceProfile
from repro.widgetgen.generator import WidgetGenerator
from repro.widgetgen.params import GeneratorParams


@dataclass(slots=True)
class HashCoreTrace:
    """All intermediate artifacts of one HashCore evaluation — exposed for
    experiments and debugging; ``digest`` is what the chain consumes.

    ``widget``/``result`` are the first (often only) widget of the
    evaluation; with ``widgets_per_hash > 1`` (§IV: "multiple widgets could
    be generated for a given input string and executed sequentially"),
    ``widgets``/``results`` carry the full sequence.  Constructors always
    pass the full sequence explicitly (``[widget]``/``[result]`` in the
    single-widget case), so both lists are guaranteed non-empty.
    """

    seed: HashSeed
    widget: Widget
    result: WidgetResult
    digest: bytes
    widgets: list[Widget]
    results: list[WidgetResult]


class HashCore:
    """The HashCore PoW function.

    The consensus parameters are the profile, the generator parameters, the
    gate, and the machine's *memory size* (addresses wrap modulo it): two
    miners sharing those always compute the same ``hash(x)`` — verification
    *is* recomputation, as with any PoW function.  The machine's
    *microarchitecture* (width, caches, predictor) affects only how fast
    the hash is computed, never its value: the widget output is purely
    architectural state, which is what lets x86 desktops and ARM phones
    (§VI-B) participate in one network.

    Arguments default to the paper's setup: the Leela profile on the
    Ivy-Bridge-like machine with SHA-256 gates.

    Execution is tiered: ``mode`` selects the engine :meth:`hash` and
    :meth:`verify` run widgets on.  The default ``"auto"`` resolves to the
    fastest tier, the JIT (differential-tested bit-identical to the timing
    model, so digests are unaffected); ``"jit"`` pins it and ``"timed"``
    forces the full timing model.  :meth:`hash_with_trace` defaults to the
    timed path regardless, because callers of the trace API are usually
    after the performance counters.

    A variant overrides one widget-choice method, :meth:`widgets` or
    :meth:`generator_for`, and shares everything else.
    """

    name = "hashcore"

    #: Default compiled-widget LRU capacity.  Verifiers re-derive the same
    #: widget for every nonce attempt on a header and for every block
    #: re-validation, so a small cache skips generate+compile on those
    #: paths at negligible memory cost; pass ``widget_cache_size=0`` to
    #: disable caching entirely.
    DEFAULT_WIDGET_CACHE_SIZE = 16

    def __init__(
        self,
        profile: PerformanceProfile | None = None,
        machine: Machine | MachineConfig | None = None,
        params: GeneratorParams | None = None,
        gate: HashGate | None = None,
        widgets_per_hash: int = 1,
        widget_cache_size: int = DEFAULT_WIDGET_CACHE_SIZE,
        mode: str = "auto",
    ) -> None:
        if profile is None:
            from repro.core.default_profile import default_profile

            profile = default_profile()
        if machine is None:
            machine = Machine()
        elif isinstance(machine, MachineConfig):
            machine = Machine(machine)
        if widgets_per_hash < 1:
            raise ValueError("widgets_per_hash must be >= 1")
        if widget_cache_size < 0:
            raise ValueError("widget_cache_size must be >= 0")
        self.mode = resolve_mode(mode)
        self.profile = profile
        self.machine = machine
        self.gate = gate or HashGate()
        self.generator = WidgetGenerator(profile, params)
        self.widgets_per_hash = widgets_per_hash
        # Verifiers re-derive the same widget for every nonce attempt on a
        # header and for every block re-validation; a small LRU of compiled
        # widgets keyed by seed skips the generate+compile step (it cannot
        # skip execution — that *is* the proof of work).
        self._cache_size = widget_cache_size
        self._widget_cache: dict[bytes, Widget] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    # ------------------------------------------------------------------
    def seed_of(self, data: bytes) -> HashSeed:
        """First hash gate: derive the hash seed for an input."""
        return HashSeed(self.gate(data))

    def generator_for(self, seed: HashSeed) -> WidgetGenerator:
        """The generator ``seed``'s widget comes from: the one profile's
        (:class:`~repro.core.rotation.RotatingHashCore` picks per seed)."""
        return self.generator

    def widget_for(self, seed: HashSeed) -> Widget:
        """Generate and compile the widget selected by ``seed`` (cached
        when ``widget_cache_size > 0``)."""
        if self._cache_size == 0:
            self._cache_misses += 1
            return self.generator_for(seed).widget(seed)
        cached = self._widget_cache.get(seed.raw)
        if cached is not None:
            # Refresh LRU position (dict preserves insertion order).
            del self._widget_cache[seed.raw]
            self._widget_cache[seed.raw] = cached
            self._cache_hits += 1
            return cached
        self._cache_misses += 1
        widget = self.generator_for(seed).widget(seed)
        self._widget_cache[seed.raw] = widget
        if len(self._widget_cache) > self._cache_size:
            del self._widget_cache[next(iter(self._widget_cache))]
            self._cache_evictions += 1
        return widget

    def widgets(self, seed: HashSeed) -> list[Widget]:
        """The widgets ``seed`` runs, in order.

        The seed's own widget comes first.  With ``widgets_per_hash > 1``,
        widget *i* (for i >= 1) comes from the sub-seed ``G(s || i)`` — the
        sequential multi-widget variant of §IV.  All of them come through
        the widget LRU.
        """
        widgets = [self.widget_for(seed)]
        for index in range(1, self.widgets_per_hash):
            sub_seed = HashSeed(self.gate(seed.raw + struct.pack("<I", index)))
            widgets.append(self.widget_for(sub_seed))
        return widgets

    def cache_stats(self) -> dict:
        """The stats document: the compiled-widget LRU's counters, the
        machine's tier counters (runs, JIT artifact builds and reuses,
        degradations) and the process-wide JIT template cache.  Every
        count is cumulative, so none shrinks when the LRU evicts.

        The mining engine's per-worker stats channel and
        ``benchmarks/bench_hashrate.py`` both report this document.
        """
        return {
            "widget_cache": {
                "capacity": self._cache_size,
                "size": len(self._widget_cache),
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
                "hit_rate": round(
                    self._cache_hits
                    / (self._cache_hits + self._cache_misses),
                    4,
                )
                if (self._cache_hits + self._cache_misses)
                else 0.0,
            },
            # The machine's tier counters; the mining engine folds its
            # runs and degradations (empty on a healthy machine) into
            # EngineReport via the stats channel.
            "tiers": self.machine.tier_stats(),
            # Process-wide JIT region cache: a program identical to a
            # previously compiled one, constants included, shares its
            # loop regions and skips codegen and compile(); fresh widgets
            # do not repeat, so it does not hit in mining.  Shared across
            # HashCore instances by design — entries key on code, not on
            # seeds.  It keeps 16 entries, this class's default widget
            # LRU size: each holds a compiled module, and at 256 a
            # process hashing fresh widgets grew by ~20 MB.
            "jit_templates": template_cache_stats(),
        }

    def hash(self, data: bytes) -> bytes:
        """Compute ``H(data) = G(s || W(s))`` on the configured mode's
        engine (the JIT by default — the hot loop of mining)."""
        return self.hash_with_trace(data, mode=self.mode).digest

    def hash_batch(self, datas: list[bytes]) -> list[bytes]:
        """Compute ``H(data)`` for a sequence of inputs in one call.

        Digests come back in input order, and a repeated input is hashed
        once.  Each digest is computed the way :meth:`hash` computes it.
        Every nonce selects its own widget program, so there is nothing to
        share between inputs; the win is one call per batch, which is
        what the pool's share verifier (one executor dispatch per batch)
        relies on.  The mining engine's worker loop hands it one nonce
        per call, so it can read its cancel flag before every hash.
        """
        digests: dict[bytes, bytes] = {}
        for data in datas:
            if data not in digests:
                # Not through self.hash: a subclass overriding both
                # methods would otherwise apply its override twice.
                digests[data] = self.hash_with_trace(
                    data, mode=self.mode
                ).digest
        return [digests[data] for data in datas]

    def hash_with_trace(self, data: bytes, *, mode: str = "timed") -> HashCoreTrace:
        """Compute the hash and return every intermediate artifact.

        The outputs of the :meth:`widgets` the seed runs are concatenated
        in sequence under the second gate.

        ``mode`` defaults to ``"timed"`` (not the instance mode): trace
        callers usually want meaningful performance counters, which only
        the timing path collects.  Pass ``mode="jit"`` for a fast trace
        whose counters report only ``retired``.  The digest is identical
        either way.
        """
        seed = self.seed_of(data)
        widgets = self.widgets(seed)
        results = [widget.execute(self.machine, mode=mode) for widget in widgets]
        digest = self.gate(seed.raw + b"".join(result.output for result in results))
        return HashCoreTrace(
            seed=seed,
            widget=widgets[0],
            result=results[0],
            digest=digest,
            widgets=widgets,
            results=results,
        )

    def verify(self, data: bytes, digest: bytes) -> bool:
        """Check a claimed digest by full recomputation.

        HashCore is deliberately *not* a cheaply verifiable PoW: a verifier
        must run the widget too (§IV-B lists the three programs every
        evaluation runs).  The cost is one hash evaluation, the same as for
        the miner's single attempt.
        """
        return self.hash(data) == digest
