"""Simulated memory unit tests."""

import os
import sys

import pytest

from repro.errors import ConfigError
from repro.machine import memory as memory_module
from repro.machine.memory import Memory
from repro.rng import MASK64, Xoshiro256

GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment


def scalar_splitmix64_fill(size, seed, start, count):
    """Word list of a ``size``-word memory after ``fill_random(seed, start,
    count)``: word ``i`` is SplitMix64 of ``seed + i + 1``, written in order
    at ``start + i`` modulo ``size``."""
    words = [0] * size
    for i in range(count):
        z = (seed + i + 1 + GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        words[(start + i) % size] = z ^ (z >> 31)
    return words


def scalar_pointer_ring(size, seed, start, count):
    """Word list of a ``size``-word memory after ``fill_pointer_ring(seed,
    start, count)``: a ``next_u64``-driven Fisher-Yates over the slots, then
    each slot in ring order points at the next."""
    order = list(range(count))
    rng = Xoshiro256(seed)
    for i in range(count - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    words = [0] * size
    for i in range(count):
        words[(start + order[i]) % size] = (start + order[(i + 1) % count]) % size
    return words


class TestBasics:
    def test_read_write(self):
        memory = Memory(1024)
        memory.write(10, 42)
        assert memory.read(10) == 42

    def test_write_masks_to_64_bits(self):
        memory = Memory(1024)
        memory.write(0, 1 << 70)
        assert memory.read(0) == (1 << 70) & MASK64

    def test_addresses_wrap(self):
        memory = Memory(1024)
        memory.write(1024 + 5, 7)
        assert memory.read(5) == 7

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            Memory(1000)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            Memory(0)


class TestFillRandom:
    def test_deterministic(self):
        a = Memory(4096)
        b = Memory(4096)
        a.fill_random(99, 10, 500)
        b.fill_random(99, 10, 500)
        assert a.words == b.words

    def test_seed_changes_contents(self):
        a = Memory(1024)
        b = Memory(1024)
        a.fill_random(1, 0, 100)
        b.fill_random(2, 0, 100)
        assert a.words[:100] != b.words[:100]

    @pytest.mark.parametrize("count", [1, 3, 2048, 2049, 1 << 17])
    def test_matches_scalar_splitmix64(self, count):
        # Seeds whose SplitMix64 state ``seed + i + 1 + gamma`` wraps 2**64
        # at the first, second, middle and last word, one whose
        # ``seed + i + 1`` wraps at the first, and ones outside [0, 2**64).
        size = 1 << 17
        wrap_state = (1 << 64) - 1 - GAMMA
        for seed in (
            *(wrap_state - i for i in (0, 1, count // 2, count - 1)),
            12345, MASK64, -3, (1 << 70) + 5,
        ):
            memory = Memory(size)
            memory.fill_random(seed, 100, count)
            assert memory.words.tolist() == scalar_splitmix64_fill(
                size, seed, 100, count), (seed, count)

    def test_window_wrapping_the_memory_end_matches_scalar(self):
        size = 4096
        for start, count in ((size - 10, 2048), (size - 1, 3), (1000, size)):
            memory = Memory(size)
            memory.fill_random(0xC01D, start, count)
            assert memory.words.tolist() == scalar_splitmix64_fill(
                size, 0xC01D, start, count), (start, count)

    def test_count_past_the_memory_size_keeps_the_last_words(self):
        # The scalar loop overwrites earlier words: the last size_words stay.
        size = 1024
        for start, count in ((100, 3000), (0, 2048), (5, size + 1)):
            memory = Memory(size)
            memory.fill_random(99, start, count)
            assert memory.words.tolist() == scalar_splitmix64_fill(
                size, 99, start, count), (start, count)

    def test_lane_constants_are_built_once_per_count(self):
        # A baseline's 32768-word scratch fill reuses its lane constants.
        memory = Memory(1 << 15)
        memory.fill_random(1, 0, 1 << 15)
        before = memory_module._lane_constants.cache_info()
        memory.fill_random(2, 0, 1 << 15)
        after = memory_module._lane_constants.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_fill_outside_range_untouched(self):
        memory = Memory(1024)
        memory.fill_random(7, 100, 50)
        assert all(w == 0 for w in memory.words[:100])
        assert all(w != 0 for w in memory.words[100:150])

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            Memory(64).fill_random(1, 0, -1)


class TestPointerRing:
    def test_forms_single_cycle(self):
        memory = Memory(1024)
        count = 64
        memory.fill_pointer_ring(5, 100, count)
        visited = set()
        addr = 100
        for _ in range(count):
            assert addr not in visited
            visited.add(addr)
            addr = memory.read(addr)
        assert addr == 100  # back to start after exactly `count` hops
        assert visited == {100 + i for i in range(count)}

    def test_deterministic(self):
        a = Memory(512)
        b = Memory(512)
        a.fill_pointer_ring(3, 0, 128)
        b.fill_pointer_ring(3, 0, 128)
        assert a.words == b.words

    def test_matches_scalar_fisher_yates_ring(self):
        size = 4096
        for seed, start, count in (
            (0x4163, 1000, 512),        # no wrap
            (0x6EAF, size - 100, 512),  # wraps the memory end
            (7, 0, size),               # the whole memory
            (7, 33, size),              # the whole memory, rotated
            (3, 5, 2),
        ):
            memory = Memory(size)
            memory.fill_pointer_ring(seed, start, count)
            assert memory.words.tolist() == scalar_pointer_ring(
                size, seed, start, count), (seed, start, count)

    def test_too_small_ring_rejected(self):
        with pytest.raises(ConfigError):
            Memory(64).fill_pointer_ring(1, 0, 1)

    def test_ring_longer_than_memory_rejected(self):
        # Slots past the memory size alias earlier ones: no single cycle.
        with pytest.raises(ConfigError):
            Memory(64).fill_pointer_ring(1, 0, 65)


class TestFillValue:
    def test_constant_fill(self):
        memory = Memory(256)
        memory.fill_value(9, 10, 20)
        assert list(memory.words[10:30]) == [9] * 20
        assert memory.words[9] == 0

    def test_splice_and_wrap_paths_agree_with_write(self):
        size = 256
        for start, count in ((10, 20), (size - 5, 12), (0, size)):
            filled, written = Memory(size), Memory(size)
            filled.fill_value(0xABCDEF, start, count)
            for offset in range(count):
                written.write(start + offset, 0xABCDEF)
            assert filled.words == written.words, (start, count)


class TestMmapBacking:
    def test_untouched_words_read_zero(self):
        size = 1 << 21
        memory = Memory(size)
        memory.write(12345, 1)
        for addr in (0, 1, 4095, 4096, 12344, 12346, size // 2, size - 1):
            assert memory.read(addr) == 0, addr

    def test_words_and_window_bytes_share_storage(self):
        memory = Memory(1024)
        memory.words[7] = 0xFEEDFACECAFEBEEF
        [(_, raw)] = memory.window(7, 1)
        assert raw == (0xFEEDFACECAFEBEEF).to_bytes(8, sys.byteorder)
        memory.load([(1023, MASK64.to_bytes(8, sys.byteorder))])
        assert memory.words[1023] == MASK64

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self):
        # A forked engine worker must never write into its parent's memory.
        memory = Memory(1024)
        memory.write(5, 1)
        pid = os.fork()
        if pid == 0:  # child: write, then leave without running pytest on
            code = 1
            try:
                memory.write(5, 99)
                code = 0 if memory.read(5) == 99 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert memory.read(5) == 1

    def test_window_splits_at_the_memory_size_and_loads_back(self):
        source = Memory(64)
        source.fill_random(3, 0, 64)
        assert [(start, len(raw)) for start, raw in source.window(60, 10)] == [
            (60, 32), (0, 48),
        ]
        assert [(start, len(raw)) for start, raw in source.window(5, 100)] == [
            (5, 8 * 59), (0, 8 * 5),
        ]
        target = Memory(64)
        target.load(source.window(60, 10))
        for addr in range(64):
            expected = source.read(addr) if addr >= 60 or addr < 6 else 0
            assert target.read(addr) == expected, addr

    def test_window_is_a_copy(self):
        memory = Memory(64)
        memory.write(3, 9)
        pieces = memory.window(0, 8)
        memory.write(3, 10)
        assert memoryview(pieces[0][1]).cast("Q")[3] == 9
