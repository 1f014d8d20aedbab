"""Functional memory: faults, speculative suppression, snapshots."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import DataSegment, Memory, MemoryFault


class TestBasics:
    def test_default_zero(self):
        assert Memory().load(100) == 0

    def test_store_load_roundtrip(self):
        mem = Memory()
        mem.store(7, 99)
        assert mem.load(7) == 99

    def test_len_counts_written_words(self):
        mem = Memory()
        mem.store(1, 1)
        mem.store(2, 2)
        assert len(mem) == 2

    def test_load_block(self):
        mem = Memory()
        mem.load_block(10, [5, 6, 7])
        assert [mem.load(10 + i) for i in range(3)] == [5, 6, 7]


class TestFaults:
    def test_load_below_zero_faults(self):
        with pytest.raises(MemoryFault):
            Memory().load(-1)

    def test_load_beyond_limit_faults(self):
        mem = Memory(limit=16)
        with pytest.raises(MemoryFault):
            mem.load(16)

    def test_store_beyond_limit_faults(self):
        mem = Memory(limit=16)
        with pytest.raises(MemoryFault):
            mem.store(99, 1)

    def test_speculative_load_suppresses_fault(self):
        """Section 2.2: non-faulting loads return a defined value instead
        of trapping, which is what makes hoisting above the resolution
        point legal."""
        mem = Memory(limit=16)
        assert mem.load(1 << 30, speculative=True) == 0
        assert mem.faults_suppressed == 1

    def test_speculative_load_of_valid_address_reads_normally(self):
        mem = Memory()
        mem.store(3, 8)
        assert mem.load(3, speculative=True) == 8
        assert mem.faults_suppressed == 0


class TestFromSegment:
    def test_holds_the_segment_words(self):
        segment = DataSegment({3: 7, 0: 1.5, 15: -2})
        mem = Memory.from_segment(segment, limit=16)
        assert [mem.load(a) for a in (0, 3, 15, 4)] == [1.5, 7, -2, 0]
        assert mem.snapshot() == ((0, 1.5), (3, 7), (15, -2))
        assert segment.bounds() == (0, 15)

    @pytest.mark.parametrize("address", [-1, 16, 1 << 40])
    def test_word_outside_the_limit_faults(self, address):
        with pytest.raises(MemoryFault, match=hex(address)):
            Memory.from_segment(DataSegment({3: 7, address: 1}), limit=16)

    def test_empty_segment(self):
        assert len(Memory.from_segment(DataSegment(), limit=1)) == 0


class TestSnapshot:
    def test_snapshot_sorted_and_zero_free(self):
        mem = Memory()
        mem.store(5, 50)
        mem.store(2, 20)
        mem.store(9, 0)  # explicit zero is dropped
        assert mem.snapshot() == ((2, 20), (5, 50))

    @given(st.dictionaries(st.integers(0, 1000), st.integers(-100, 100),
                           max_size=20))
    def test_snapshot_matches_contents(self, contents):
        mem = Memory()
        for addr, value in contents.items():
            mem.store(addr, value)
        snapshot = dict(mem.snapshot())
        for addr, value in contents.items():
            if value != 0:
                assert snapshot[addr] == value
            else:
                assert addr not in snapshot
