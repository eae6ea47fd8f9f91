"""Simulated main memory: a flat, word-addressed array of 64-bit values.

Addresses wrap modulo the (power-of-two) memory size, so no program can
fault on a wild address — a property the widget generator relies on: any
seed-derived address stream is safe to execute.

Storage is an anonymous private ``mmap`` exposed as a ``memoryview`` cast
to 64-bit words: indexing it returns and accepts plain Python ints (so
every interpreter tier uses it exactly like the historical list backend),
and the bulk fills write it by whole slices.  The kernel supplies the zero
pages only when a run touches them, so a fresh machine-sized memory (16 MiB
on the default machine) costs its footprint, not its size: widgets touch a
few tens of KiB.  The mapping is ``MAP_PRIVATE``, so a forked engine
worker gets a copy-on-write view of any memory it inherits, never a
shared one.

The SplitMix64 fill computes a whole block at once on Python ints, one
64-bit lane per word (:func:`_splitmix64_block`), so no process on the
hash path imports numpy; its words equal :func:`repro.rng.splitmix64`'s.
"""

from __future__ import annotations

import mmap
import sys
from array import array
from functools import lru_cache
from typing import Iterable

from repro.errors import ConfigError
from repro.rng import (
    MASK64,
    SPLITMIX64_GAMMA,
    SPLITMIX64_MUL1,
    SPLITMIX64_MUL2,
    Xoshiro256,
)


def _lanes(words: array) -> int:
    """The int whose 64-bit lane ``i`` (counting from bit 0) is ``words[i]``
    (on a big-endian host ``words`` is byte-swapped in place)."""
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


@lru_cache(maxsize=4)
def _lane_constants(count: int) -> tuple[int, ...]:
    """Per-``count`` lane constants of :func:`_splitmix64_block`: every
    lane 1, lane ``i`` holding ``i``, the even and the odd lanes all ones,
    and each lane's low 34, 37 and 33 bits (what survives a right shift by
    30, 27 and 31).  A widget fills one or two distinct counts: 2048 hot
    words, 2048 to 8192 cold ones on the built-in profiles."""
    ones = _lanes(array("Q", [1]) * count)
    even = _lanes((array("Q", [MASK64, 0]) * ((count + 1) // 2))[:count])
    return (
        ones,
        _lanes(array("Q", range(count))),
        even,
        (even << 64) & ((1 << 64 * count) - 1),
        ones * ((1 << 34) - 1),
        ones * ((1 << 37) - 1),
        ones * ((1 << 33) - 1),
    )


def _splitmix64_block(seed: int, count: int) -> array:
    """Words ``splitmix64((seed + i) & MASK64)`` for ``i`` in ``1..count``.

    Each word is one 64-bit lane of one int, so every step of the mixer is
    one big-int operation over the whole block: a right shift masks off the
    bits that crossed in from the lane above, and a multiply takes the even
    and the odd lanes apart, so each 128-bit product has an empty lane above
    it to spill into.
    """
    ones, index, even, odd, low34, low37, low33 = _lane_constants(count)
    base = (seed + 1 + SPLITMIX64_GAMMA) & MASK64
    z = base * ones + index
    # From lane ``wrap`` on, ``base + i`` reached 2**64 and carried 1 into
    # the lane above: take those carries back out.
    wrap = (1 << 64) - base
    if wrap < count:
        z -= ones >> 64 * wrap << 64 * (wrap + 1)
    z ^= z >> 30 & low34
    z = (z & even) * SPLITMIX64_MUL1 & even | (z & odd) * SPLITMIX64_MUL1 & odd
    z ^= z >> 27 & low37
    z = (z & even) * SPLITMIX64_MUL2 & even | (z & odd) * SPLITMIX64_MUL2 & odd
    z ^= z >> 31 & low33
    words = array("Q", z.to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


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
        """Fill ``count`` words from ``start`` with SplitMix64(seed) output:
        word ``i`` is ``splitmix64((seed + i + 1) & MASK64)``, written at
        ``start + i`` modulo the memory size.

        The contents depend only on ``(seed, start, count)``.  When ``count``
        exceeds the memory size only the last ``size_words`` words stay, as
        writing every word in order would leave them.
        """
        if count < 0:
            raise ConfigError("count must be non-negative")
        if count > self.size_words:
            skip = count - self.size_words
            seed, start, count = seed + skip, start + skip, self.size_words
        self._install(start, _splitmix64_block(seed, count))

    def fill_pointer_ring(self, seed: int, start: int, count: int) -> None:
        """Install a pointer-chasing ring over ``count`` slots from ``start``.

        Each slot holds the absolute word address of the next slot in a
        single random cycle, so ``addr = mem[addr]`` visits every slot before
        repeating — the classic dependent-load pattern used by
        latency-bound workload phases and by widget memory streams.  The
        cycle is a Fisher–Yates shuffle of the slots by
        ``Xoshiro256(seed)``, taken in shuffled order.  A ring takes 2 to
        ``size_words`` slots: past the memory size, slots would alias.
        """
        if count < 2:
            raise ConfigError("pointer ring needs at least 2 slots")
        if count > self.size_words:
            raise ConfigError(
                f"pointer ring of {count} slots exceeds the {self.size_words}-word memory"
            )
        order = list(range(count))
        Xoshiro256(seed).shuffle(order)
        start &= self.mask
        first = min(count, self.size_words - start)
        address = [*range(start, start + first), *range(count - first)]
        successor = [0] * count
        previous = order[-1]
        for slot in order:
            successor[previous] = address[slot]
            previous = slot
        self._install(start, array("Q", successor))

    def _install(self, start: int, words: array) -> None:
        """Write ``words`` (at most ``size_words`` of them) from ``start``:
        one slice, or two when they wrap at the memory end."""
        start &= self.mask
        block = memoryview(words)
        count = len(block)
        first = min(count, self.size_words - start)
        self.words[start : start + first] = block[:first]
        if count > first:
            self.words[: count - first] = block[first:]

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
