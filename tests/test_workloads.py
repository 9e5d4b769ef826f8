"""Unit + property tests for the workload suite."""

import pytest

from repro.bench.characterize import characterize
from repro.errors import AllocationError
from repro.workloads import (
    ALL_WORKLOADS,
    MACRO_WORKLOADS,
    MICRO_WORKLOADS,
    Op,
    OpKind,
    PersistentHeap,
    ZipfianSampler,
    make_workload,
)
from repro.workloads.btree import BTreeWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.rbtree import RBTreeWorkload

LINES = 64 * 1024


class TestHeap:
    def test_bump_allocation(self):
        heap = PersistentHeap(100)
        assert heap.alloc(10) == 0
        assert heap.alloc(5) == 10
        assert heap.used == 15
        assert heap.free == 85

    def test_exhaustion(self):
        heap = PersistentHeap(10)
        heap.alloc(10)
        with pytest.raises(AllocationError):
            heap.alloc(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PersistentHeap(0)
        with pytest.raises(ValueError):
            PersistentHeap(10).alloc(0)


class TestTraceBuilder:
    """Trace-record checks (the class name keeps the test's ID)."""

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Op(OpKind.READ, -1)
        with pytest.raises(ValueError):
            Op(OpKind.READ, 0, instructions=-5)


class TestRegistry:
    def test_paper_suite_composition(self):
        assert MICRO_WORKLOADS == ["array", "btree", "hash", "queue",
                                   "rbtree"]
        assert MACRO_WORKLOADS == ["tpcc", "ycsb"]
        assert len(ALL_WORKLOADS) == 7

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            make_workload("nope", LINES)


class TestAllWorkloadsCommon:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_ops_are_valid(self, name):
        workload = make_workload(name, LINES, operations=80)
        ops = list(workload.ops())
        assert ops, "workload emitted nothing"
        for op in ops:
            assert isinstance(op, Op)
            assert 0 <= op.addr < LINES
            assert op.instructions >= 0

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_deterministic_per_seed(self, name):
        first = list(make_workload(name, LINES, operations=50,
                                   seed=3).ops())
        second = list(make_workload(name, LINES, operations=50,
                                    seed=3).ops())
        assert first == second

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_seed_changes_trace(self, name):
        first = list(make_workload(name, LINES, operations=50,
                                   seed=3).ops())
        second = list(make_workload(name, LINES, operations=50,
                                    seed=4).ops())
        assert first != second

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_contains_persists_and_writes(self, name):
        stats = characterize(
            make_workload(name, LINES, operations=80).ops()
        )
        assert stats["writes"] > 0
        assert stats["persists"] > 0


class TestBTree:
    def test_invariants_after_inserts(self):
        workload = BTreeWorkload(LINES, operations=400, seed=11)
        list(workload.ops())
        workload.check_invariants()
        assert workload.size > 200

    def test_splits_allocate_lines(self):
        workload = BTreeWorkload(LINES, operations=300,
                                 lookup_fraction=0.0)
        list(workload.ops())
        assert workload.heap.used > 10  # root + split nodes

    def test_lookup_finds_inserted_key(self):
        workload = BTreeWorkload(LINES, operations=50,
                                 lookup_fraction=0.0)
        list(workload.ops())
        workload._emitted = []
        workload.insert(123456789)
        assert workload.lookup(123456789)


class TestRBTree:
    def test_invariants_after_inserts(self):
        workload = RBTreeWorkload(LINES, operations=400, seed=11)
        list(workload.ops())
        workload.check_invariants()
        assert workload.size > 200

    def test_lookup_finds_inserted_key(self):
        workload = RBTreeWorkload(LINES, operations=50,
                                  lookup_fraction=0.0)
        list(workload.ops())
        workload._emitted = []
        workload.insert(10 ** 9 + 7)
        assert workload.lookup(10 ** 9 + 7)

    def test_rotations_write_multiple_lines(self):
        """Ascending keys force rotations: more writes than one per
        insert."""
        workload = RBTreeWorkload(LINES, operations=60,
                                  lookup_fraction=0.0)
        workload._emitted = []
        emitted = []
        for key in range(40):
            workload._emitted = []
            workload.insert(key)
            emitted.extend(workload._emitted)
        writes = sum(1 for op in emitted if op.kind is OpKind.WRITE)
        assert writes > 40


class TestHashTable:
    def test_probing_bounded_by_load_factor(self):
        workload = HashTableWorkload(LINES, operations=600,
                                     table_lines=512)
        list(workload.ops())
        assert workload.load_factor() <= 0.75

    def test_inserts_then_updates(self):
        workload = HashTableWorkload(LINES, operations=100,
                                     update_fraction=1.0)
        ops = list(workload.ops())
        assert ops  # first op falls back to insert when table empty


class TestZipfian:
    def test_skew_prefers_low_ranks(self):
        import random
        sampler = ZipfianSampler(1000, theta=0.99)
        rng = random.Random(1)
        samples = [sampler.sample(rng) for _ in range(4000)]
        top_decile = sum(1 for s in samples if s < 100)
        assert top_decile > len(samples) * 0.4

    def test_validates_size(self):
        with pytest.raises(ValueError):
            ZipfianSampler(0)

    def test_samples_in_range(self):
        import random
        sampler = ZipfianSampler(10)
        rng = random.Random(2)
        assert all(0 <= sampler.sample(rng) < 10 for _ in range(500))


class TestTpcc:
    def test_transactions_touch_multiple_tables(self):
        workload = make_workload("tpcc", LINES, operations=20)
        ops = list(workload.ops())
        addrs = {op.addr for op in ops}
        # stock, district, orders and log regions are all represented
        assert any(a >= workload.stock for a in addrs)
        assert any(workload.district <= a < workload.customer
                   for a in addrs)
        assert any(a >= workload.log_region for a in addrs)

    def test_one_persist_per_transaction(self):
        workload = make_workload("tpcc", LINES, operations=25)
        assert characterize(workload.ops())["persists"] == 25
