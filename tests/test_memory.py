"""Simulated memory unit tests."""

import os

import pytest

from repro.errors import ConfigError
from repro.machine.memory import Memory, _splitmix64_block, _splitmix64_block_np
from repro.rng import MASK64


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

    def test_numpy_and_scalar_paths_agree(self):
        # The numpy fast path must be bit-identical to the reference.
        assert _splitmix64_block(12345, 2000) == _splitmix64_block_np(12345, 2000).tolist()

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

    def test_too_small_ring_rejected(self):
        with pytest.raises(ConfigError):
            Memory(64).fill_pointer_ring(1, 0, 1)


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

    def test_numpy_view_and_words_share_storage(self):
        memory = Memory(1024)
        view = memory.np_words()
        view[7] = 0xFEEDFACECAFEBEEF
        assert memory.words[7] == 0xFEEDFACECAFEBEEF
        memory.words[1023] = MASK64
        assert int(view[1023]) == MASK64

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
