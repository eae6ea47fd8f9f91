"""Simulated main memory: a flat, word-addressed array of 64-bit values.

Addresses wrap modulo the (power-of-two) memory size, so no program can
fault on a wild address — a property the widget generator relies on: any
seed-derived address stream is safe to execute.

Storage is an anonymous private ``mmap`` exposed as a ``memoryview`` cast
to 64-bit words: indexing it returns and accepts plain Python ints (so
every interpreter tier uses it exactly like the historical list backend),
while bulk initialisation writes through a zero-copy numpy view of the
same buffer when numpy is available.  The kernel supplies the zero pages
only when a run touches them, so a fresh machine-sized memory (16 MiB on
the default machine) costs its footprint, not its size: widgets touch a
few tens of KiB.  The mapping is ``MAP_PRIVATE``, so a forked engine
worker gets a copy-on-write view of any memory it inherits, never a
shared one.  The scalar fill implementations remain authoritative and
bit-identical.
"""

from __future__ import annotations

import mmap
import sys
from typing import Iterable

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
        self._buf = mmap.mmap(-1, size_words * 8, flags=mmap.MAP_PRIVATE)
        # Plain-int indexing view: words[i] returns/accepts Python ints in
        # [0, 2**64), which is exactly the invariant every store site keeps.
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

    def window(self, start: int, count: int) -> list[tuple[int, bytes]]:
        """Copy out ``count`` words from ``start`` as ``(word_address,
        raw_bytes)`` pieces: one piece, or two when the window wraps at the
        memory size.  :meth:`load` writes the pieces back."""
        start &= self.mask
        count = min(count, self.size_words)
        first = min(count, self.size_words - start)
        pieces = [(start, self._buf[start * 8 : (start + first) * 8])]
        if count > first:
            pieces.append((0, self._buf[: (count - first) * 8]))
        return pieces

    def load(self, pieces: Iterable[tuple[int, bytes]]) -> None:
        """Write :meth:`window` pieces back, in order."""
        buf = self._buf
        for start, raw in pieces:
            buf[start * 8 : start * 8 + len(raw)] = raw

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
