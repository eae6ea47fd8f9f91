"""Simulated main memory: a flat, word-addressed array of 64-bit values.

Addresses wrap modulo the (power-of-two) memory size, so no program can
fault on a wild address — a property the widget generator relies on: any
seed-derived address stream is safe to execute.

Storage is a raw byte buffer exposed as a ``memoryview`` cast to 64-bit
words: indexing it returns and accepts plain Python ints (so every
interpreter tier uses it exactly like the historical list backend), while
bulk initialisation writes through a zero-copy numpy view of the same
buffer when numpy is available.  The buffer backend makes a fresh
machine-sized memory an allocation instead of a 2M-element Python list
build — the single largest per-hash cost in the fresh-widget (mining)
regime — and bulk fills no longer round-trip numpy output through
``tolist``.  The scalar fill implementations remain authoritative and
bit-identical.
"""

from __future__ import annotations

import sys

from repro.errors import ConfigError
from repro.rng import MASK64, Xoshiro256, splitmix64

try:  # numpy accelerates bulk fills; the scalar path is authoritative.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in CI
    _np = None


def _splitmix64_block(seed: int, count: int) -> list[int]:
    """``count`` SplitMix64 outputs for stream ``seed`` (scalar reference)."""
    return [splitmix64((seed + i) & MASK64) for i in range(1, count + 1)]


def _splitmix64_block_np(seed: int, count: int):
    """Vectorised twin of :func:`_splitmix64_block` (uint64 wraps like the
    scalar code masks).  Returns a numpy ``uint64`` array."""
    with _np.errstate(over="ignore"):
        x = _np.arange(1, count + 1, dtype=_np.uint64) + _np.uint64(seed & MASK64)
        z = x + _np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> _np.uint64(31))
    return z


class Memory:
    """Word-addressed simulated RAM."""

    __slots__ = ("_buf", "words", "mask", "size_words")

    def __init__(self, size_words: int) -> None:
        if size_words <= 0 or size_words & (size_words - 1):
            raise ConfigError(f"memory size must be a positive power of two, got {size_words}")
        self.size_words = size_words
        self.mask = size_words - 1
        self._buf = bytearray(size_words * 8)
        # Plain-int indexing view: words[i] returns/accepts Python ints in
        # [0, 2**64), which is exactly the invariant every store site keeps.
        self.words = memoryview(self._buf).cast("Q")

    # ------------------------------------------------------------------
    # pickling: memoryviews don't pickle, the raw bytes do
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[int, bytes]:
        return (self.size_words, bytes(self._buf))

    def __setstate__(self, state: tuple[int, bytes]) -> None:
        size_words, raw = state
        self.size_words = size_words
        self.mask = size_words - 1
        self._buf = bytearray(raw)
        self.words = memoryview(self._buf).cast("Q")

    # ------------------------------------------------------------------
    # direct access (the CPU inlines these for speed; they exist for
    # workload setup and tests)
    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        return self.words[addr & self.mask]

    def write(self, addr: int, value: int) -> None:
        self.words[addr & self.mask] = value & MASK64

    def np_words(self):
        """Zero-copy numpy ``uint64`` view of the whole memory, or ``None``
        when numpy is unavailable.  Writes through the view are visible to
        :attr:`words` immediately (same buffer) — the bulk fills use this
        instead of materialising Python ints."""
        if _np is None:
            return None
        return _np.frombuffer(self._buf, dtype=_np.uint64)

    # ------------------------------------------------------------------
    # deterministic initialisation helpers
    # ------------------------------------------------------------------
    def fill_random(self, seed: int, start: int, count: int) -> None:
        """Fill ``count`` words from ``start`` with SplitMix64(seed) output.

        The contents depend only on ``(seed, start, count)``.
        """
        if count < 0:
            raise ConfigError("count must be non-negative")
        start &= self.mask
        if _np is not None and count >= 1024 and count <= self.size_words:
            block = _splitmix64_block_np(seed, count)
            view = self.np_words()
            first = self.size_words - start
            if count <= first:
                view[start : start + count] = block
            else:  # wraps once: two in-order slice writes
                view[start:] = block[:first]
                view[: count - first] = block[first:]
            return
        words, mask = self.words, self.mask
        for offset, value in enumerate(_splitmix64_block(seed, count)):
            words[(start + offset) & mask] = value

    def fill_pointer_ring(self, seed: int, start: int, count: int) -> None:
        """Install a pointer-chasing ring over ``count`` slots from ``start``.

        Each slot holds the absolute word address of the next slot in a
        single random cycle, so ``addr = mem[addr]`` visits every slot before
        repeating — the classic dependent-load pattern used by
        latency-bound workload phases and by widget memory streams.
        """
        if count < 2:
            raise ConfigError("pointer ring needs at least 2 slots")
        order = list(range(count))
        rng = Xoshiro256(seed)
        rng.shuffle(order)
        words, mask = self.words, self.mask
        for i in range(count):
            src = (start + order[i]) & mask
            dst = (start + order[(i + 1) % count]) & mask
            words[src] = dst

    def fill_value(self, value: int, start: int, count: int) -> None:
        """Set ``count`` words from ``start`` to a constant."""
        value &= MASK64
        start &= self.mask
        if start + count <= self.size_words:
            # One buffer-level splice: no per-word Python loop.
            self._buf[start * 8 : (start + count) * 8] = (
                value.to_bytes(8, sys.byteorder) * count
            )
        else:
            words, mask = self.words, self.mask
            for offset in range(count):
                words[(start + offset) & mask] = value
