"""The widget's initial memory image.

A widget's first run for a memory size builds its memory from the plan's
directives (the authoritative fill code) and copies out every directive
window; later runs restore those windows into a fresh zeroed memory.
Each test here fails if the image were captured after execution (the
program's stores would leak into the next run) or if one buffer were
reused between runs or attempts.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

from repro.core.hashcore import HashCore
from repro.core.widget import Widget
from repro.isa.builder import ProgramBuilder
from repro.machine.config import MachineConfig, preset
from repro.machine.cpu import Machine
from repro.rng import MASK64
from repro.widgetgen.memstream import HOT_WORDS
from repro.workloads.base import MemoryDirective
from tests.conftest import seed_of
from tests.test_golden_vectors import GOLDEN


def _directive_memory(widget: Widget, machine: Machine):
    """The initial memory built the authoritative way."""
    memory = machine.new_memory()
    for directive in widget.spec.plan.directives():
        directive.apply(memory)
    return memory


def _window_words(memory, directive) -> list[int]:
    return [memory.read(directive.start + i) for i in range(directive.count)]


def _scribbler(name: str = "image-scribbler"):
    """Loads each of the first 64 hot words, folds it into r3 (which the
    snapshots record) and stores it back incremented."""
    b = ProgramBuilder(name)
    b.movi(1, 0)
    b.movi(3, 0)
    with b.loop(2, 64):
        b.load(4, 1)
        b.xor(3, 3, 4)
        b.addi(4, 4, 1)
        b.store(4, 1)
        b.addi(1, 1, 1)
    return b.build()


class _WrappingPlan:
    """A plan whose windows straddle the end of a ``size``-word memory."""

    def __init__(self, size: int) -> None:
        self.size = size

    def directives(self) -> list[MemoryDirective]:
        return [
            MemoryDirective("random", 11, 0, 64),
            MemoryDirective("random", 7, self.size - 100, 300),
            MemoryDirective("ring", 9, self.size - 50, 128),
            MemoryDirective("value", 0x1234, self.size - 8, 16),
        ]


class TestRestoredImage:
    def test_second_build_equals_directive_build(self, generator):
        widget = generator.widget(seed_of("image-second-build"))
        machine = Machine()
        directives = widget.spec.plan.directives()
        reference = _directive_memory(widget, machine)
        size = reference.size_words

        # The program stores into its windows, so an image captured after
        # execution would differ from the reference below.
        executed = _directive_memory(widget, machine)
        machine.run(widget.program, executed, mode="jit",
                    max_instructions=int(widget.spec.meta["fuse"]))
        assert any(_window_words(executed, d) != _window_words(reference, d)
                   for d in directives)

        widget.execute(machine, mode="jit")  # first run: image captured
        # Dirty a restored memory everywhere the next build must not see.
        dirty = widget.initial_memory(machine)
        for directive in directives:
            dirty.fill_value(MASK64, directive.start, directive.count)
        dirty.write(size - 1, 0xDEAD)

        restored = widget.initial_memory(machine)
        assert restored is not dirty
        for directive in directives:
            assert (_window_words(restored, directive)
                    == _window_words(reference, directive))
        assert restored.read(size - 1) == reference.read(size - 1) == 0

    def test_overwriting_program_repeats_on_every_run_and_tier(
        self, generator
    ):
        spec = replace(
            generator.spec(seed_of("image-scribbler")),
            name="image-scribbler", snapshot_interval=16,
        )
        widget = Widget(spec=spec, program=_scribbler())
        reference = Widget(spec=spec, program=_scribbler())
        expected = reference.execute(Machine(), mode="timed").output
        machine = Machine()
        outputs = [widget.execute(machine, mode="jit").output
                   for _ in range(3)]
        outputs.append(widget.execute(machine, mode="timed").output)
        assert outputs == [expected] * 4
        assert machine.tier_stats()["degradations"] == {}

    def test_one_widget_across_memory_sizes(self, generator):
        seed = seed_of("image-two-sizes")
        small = Machine(preset("mobile-arm"))
        large = Machine(preset("ivy-bridge"))
        assert (small.config.memory_words, large.config.memory_words) == (
            1 << 20, 1 << 21,
        )
        expected = {
            machine: generator.widget(seed).execute(machine, mode="jit").output
            for machine in (small, large)
        }
        widget = generator.widget(seed)
        for machine in (small, large, small, large):
            assert widget.execute(machine, mode="jit").output == (
                expected[machine]
            )
            assert widget.initial_memory(machine).words == (
                _directive_memory(widget, machine).words
            )

    def test_wrapping_window_restores_identically(self, generator):
        machine = Machine(MachineConfig(memory_words=1 << 12))
        size = machine.config.memory_words
        spec = replace(
            generator.spec(seed_of("image-wrap")),
            name="image-wrap", plan=_WrappingPlan(size), snapshot_interval=16,
        )
        widget = Widget(spec=spec, program=_scribbler("image-wrap"))
        reference = _directive_memory(widget, machine)
        first = widget.initial_memory(machine)
        # Four windows, three of them wrapping: seven pieces.
        assert len(widget._images[size]) == 7
        restored = widget.initial_memory(machine)
        assert first.words == restored.words == reference.words

        outputs = [widget.execute(machine, mode="jit").output
                   for _ in range(3)]
        outputs.append(widget.execute(machine, mode="timed").output)
        assert len(set(outputs)) == 1


class TestRetryOnCachedWidget:
    def test_jit_fault_on_cached_widget_retries_on_fresh_image(
        self, test_params
    ):
        data = b"abc"
        core = HashCore(params=test_params, mode="jit")
        assert core.hash(data).hex() == GOLDEN[data]  # image captured
        widget = core.widget_for(core.seed_of(data))
        jit = widget.program.jit_code()  # the artifact the first hash used
        assert any(region is not None for region in jit.regions)

        def scribbling(real):
            # Run the real code, wreck the hot window, then fail mid-run:
            # the timed retry must start from a clean image.
            def compiled(st, *args):
                real(st, *args)
                for addr in range(HOT_WORDS):
                    st.w[addr] = addr
                raise RuntimeError("injected mid-run fault")

            return compiled

        jit.regions = [scribbling(r) if r is not None else None
                       for r in jit.regions]

        assert core.hash(data).hex() == GOLDEN[data]
        assert core.cache_stats()["tiers"]["degradations"] == {
            "jit->timed": 1,
        }
        assert widget.program.jit_blocked


class TestConcurrentFirstRuns:
    def test_racing_threads_build_one_image(self, generator):
        # Verifier threads may run one fresh widget at once: each builds
        # the image and stores it, and every run must still see the
        # directive-built memory.
        seed = seed_of("image-threads")
        expected = generator.widget(seed).execute(Machine(), mode="timed")
        widget = generator.widget(seed)
        machine = Machine()
        outputs: list[bytes] = []
        lock = threading.Lock()

        def run() -> None:
            for _ in range(2):
                output = widget.execute(machine, mode="timed").output
                with lock:
                    outputs.append(output)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outputs == [expected.output] * 8
        assert widget.initial_memory(machine).words == (
            _directive_memory(widget, machine).words
        )
