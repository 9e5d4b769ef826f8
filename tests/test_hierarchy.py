"""Unit tests for the CPU cache hierarchy."""

import random

import pytest

from repro.config import CacheConfig
from repro.mem.hierarchy import CacheHierarchy


def tiny_hierarchy(levels=2) -> CacheHierarchy:
    configs = [
        CacheConfig(size_bytes=2 * 64 * 2, ways=2),       # 4 lines
        CacheConfig(size_bytes=4 * 64 * 2, ways=2),       # 8 lines
        CacheConfig(size_bytes=8 * 64 * 2, ways=2),       # 16 lines
    ]
    return CacheHierarchy(configs[:levels])


class TestReads:
    def test_first_read_misses_to_memory(self):
        hierarchy = tiny_hierarchy()
        event = hierarchy.access(0, is_write=False)
        assert event.hit_level is None
        assert event.fills == 1

    def test_second_read_hits_l1(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0, is_write=False)
        event = hierarchy.access(0, is_write=False)
        assert event.hit_level == 0
        assert event.fills == 0

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = tiny_hierarchy()
        # 0, 2, 6 share L1 set 0 (2 sets); in L2 (4 sets) 2 and 6 share
        # set 2 while 0 stays alone in set 0 and survives
        hierarchy.access(0, is_write=False)
        hierarchy.access(2, is_write=False)
        hierarchy.access(6, is_write=False)
        event = hierarchy.access(0, is_write=False)
        assert event.hit_level == 1

    def test_stats_track_hits_and_misses(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0, is_write=False)
        hierarchy.access(0, is_write=False)
        assert hierarchy.stats["cpu.read_misses"] == 1
        assert hierarchy.stats["cpu.read_hits"] == 1

    def test_rejects_empty_hierarchy(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])


class TestPersistentWrites:
    def test_writes_through(self):
        hierarchy = tiny_hierarchy()
        event = hierarchy.access(0, is_write=True, persistent=True)
        assert event.persists == [0]

    def test_installs_clean(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0, is_write=True, persistent=True)
        event = hierarchy.access(0, is_write=False)
        assert event.hit_level == 0

    def test_no_writeback_on_later_eviction(self):
        hierarchy = tiny_hierarchy(levels=1)
        hierarchy.access(0, is_write=True, persistent=True)
        event1 = hierarchy.access(4, is_write=False)
        event2 = hierarchy.access(8, is_write=False)
        assert event1.writebacks == [] and event2.writebacks == []

    def test_write_clears_scratch_dirtiness(self):
        hierarchy = tiny_hierarchy(levels=1)
        hierarchy.access(0, is_write=True, persistent=False)
        hierarchy.access(0, is_write=True, persistent=True)
        hierarchy.access(4, is_write=False)
        event = hierarchy.access(8, is_write=False)
        assert event.writebacks == []


class TestScratchWrites:
    def test_no_immediate_memory_write(self):
        hierarchy = tiny_hierarchy()
        event = hierarchy.access(0, is_write=True, persistent=False)
        assert event.persists == []
        assert event.fills == 1  # write-allocate

    def test_dirty_line_written_back_from_llc(self):
        hierarchy = tiny_hierarchy(levels=1)
        hierarchy.access(0, is_write=True, persistent=False)
        hierarchy.access(4, is_write=False)
        event = hierarchy.access(8, is_write=False)
        assert event.writebacks == [0]
        assert hierarchy.stats["cpu.llc_writebacks"] == 1

    def test_dirty_line_spills_to_next_level_first(self):
        hierarchy = tiny_hierarchy(levels=2)
        hierarchy.access(0, is_write=True, persistent=False)
        hierarchy.access(2, is_write=False)
        event = hierarchy.access(6, is_write=False)
        # evicted dirty line lands in L2 (where it still resides from
        # the fill), not memory
        assert event.writebacks == []


class TestWritebackAccounting:
    def test_every_counted_writeback_reaches_memory(self):
        """Each dirty line the LLC evicts is counted once and carried on
        the event that evicted it, so the controller writes it: random
        scratch stores and reads on a 2-line L1 over a 4-line L2, where
        refills above an L2 read hit evict too."""
        for seed in range(20):
            hierarchy = CacheHierarchy([
                CacheConfig(size_bytes=2 * 64, ways=2),
                CacheConfig(size_bytes=4 * 64, ways=2),
            ])
            rng = random.Random(seed)
            carried = 0
            for step in range(300):
                event = hierarchy.access(rng.randrange(12),
                                         is_write=rng.random() < 0.5,
                                         persistent=False)
                carried += len(event.writebacks)
                counted = hierarchy.stats["cpu.llc_writebacks"]
                assert counted == carried, "seed %d, step %d: counted " \
                    "%d, carried %d" % (seed, step, counted, carried)


class TestDrop:
    def test_drop_loses_everything(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0, is_write=False)
        hierarchy.drop()
        event = hierarchy.access(0, is_write=False)
        assert event.hit_level is None
