"""Unit tests for the machine, timing and energy models."""

import pytest

from repro.config import small_config
from repro.errors import RecoveryError
from repro.sim.energy import energy_from_stats
from repro.sim.machine import Machine
from repro.sim.timing import SFENCE_NS, WRITE_QUEUE_ENTRIES, TimingModel
from repro.util.stats import Stats
from repro.workloads.trace import Op, OpKind

from conftest import run_small_workload


class TestTimingModel:
    def setup_method(self):
        self.timing = TimingModel()

    def test_instructions_advance_time(self):
        self.timing.advance_instructions(1000)
        assert self.timing.instructions == 1000
        assert self.timing.now_ns > 0

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValueError):
            self.timing.advance_instructions(-1)

    def test_cache_hit_latency_by_level(self):
        before = self.timing.now_ns
        self.timing.cache_hit(0)
        l1 = self.timing.now_ns - before
        self.timing.cache_hit(2)
        llc = self.timing.now_ns - before - l1
        assert llc > l1

    def test_memory_reads_stall(self):
        self.timing.memory_reads(2)
        assert self.timing.read_stall_ns == pytest.approx(2 * 63.0)

    def test_zero_reads_free(self):
        self.timing.memory_reads(0)
        assert self.timing.now_ns == 0

    def test_writes_fill_queue_then_stall(self):
        self.timing.memory_writes(WRITE_QUEUE_ENTRIES)
        assert self.timing.write_stall_ns == 0
        self.timing.memory_writes(1)
        assert self.timing.write_stall_ns > 0

    def test_persist_barrier_waits_for_drain(self):
        self.timing.memory_writes(3)
        before = self.timing.now_ns
        self.timing.persist_barrier()
        assert self.timing.now_ns - before >= 3 * 300.0

    def test_barrier_on_empty_queue_costs_fence_only(self):
        before = self.timing.now_ns
        self.timing.persist_barrier()
        assert self.timing.now_ns - before == pytest.approx(SFENCE_NS)

    def test_ipc_definition(self):
        self.timing.advance_instructions(2000)
        assert self.timing.ipc == pytest.approx(
            self.timing.instructions / self.timing.cycles
        )

    def test_ipc_zero_when_idle(self):
        assert self.timing.ipc == 0.0


class TestEnergyModel:
    def test_traffic_energy(self):
        stats = Stats()
        stats.add("nvm.data_reads", 4)
        stats.add("nvm.meta_writes", 2)
        energy = energy_from_stats(stats)
        assert energy.read_nj == pytest.approx(4 * 0.5)
        assert energy.write_nj == pytest.approx(2 * 2.5)

    def test_static_energy_scales_with_time(self):
        stats = Stats()
        short = energy_from_stats(stats, elapsed_ns=1000)
        long = energy_from_stats(stats, elapsed_ns=2000)
        assert long.static_nj == pytest.approx(2 * short.static_nj)

    def test_total(self):
        stats = Stats()
        stats.add("nvm.st_writes", 1)
        energy = energy_from_stats(stats, elapsed_ns=100)
        assert energy.total_nj == pytest.approx(
            energy.write_nj + energy.static_nj
        )


class TestMachineLifecycle:
    def test_apply_after_crash_rejected(self):
        machine = Machine(small_config(), scheme="star")
        machine.crash()
        with pytest.raises(RecoveryError):
            machine.apply(Op(OpKind.READ, 0))

    def test_double_crash_rejected(self):
        machine = Machine(small_config(), scheme="star")
        machine.crash()
        with pytest.raises(RecoveryError):
            machine.crash()

    def test_recover_without_crash_rejected(self):
        machine = Machine(small_config(), scheme="star")
        with pytest.raises(RecoveryError):
            machine.recover()

    def test_crash_latches_cache_tree_root(self):
        machine = Machine(small_config(), scheme="star")
        run_small_workload(machine, operations=40)
        expected = machine.controller.compute_cache_tree_root()
        machine.crash()
        assert machine.registers.cache_tree_root == expected

    def test_crash_drops_volatile_state(self):
        machine = Machine(small_config(), scheme="star")
        run_small_workload(machine, operations=40)
        machine.crash()
        assert len(machine.controller.meta_cache) == 0

    def test_recovery_traffic_separated_from_runtime(self):
        machine = Machine(small_config(), scheme="star")
        run_small_workload(machine, operations=60)
        runtime_writes = machine.nvm.total_writes()
        machine.crash()
        report = machine.recover()
        assert machine.stats["nvm.meta_writes"] + \
            machine.stats["nvm.data_writes"] + \
            machine.stats["nvm.ra_writes"] == runtime_writes
        # recovery writes = restored-node write-backs + the counted
        # zeroing of the non-zero index lines found during locate
        assert machine.recovery_stats["nvm.meta_writes"] + \
            machine.recovery_stats["nvm.ra_writes"] == report.nvm_writes
        assert machine.recovery_stats["nvm.ra_writes"] == \
            report.ra_lines_cleared


class TestMachineResult:
    def test_result_fields_populated(self):
        machine = Machine(small_config(), scheme="star")
        run_small_workload(machine, operations=60)
        result = machine.result("hash")
        assert result.scheme == "star"
        assert result.workload == "hash"
        assert result.instructions > 0
        assert result.ipc > 0
        assert result.energy_nj > 0
        assert result.nvm_writes == machine.nvm.total_writes()

    def test_persist_ops_slow_the_run(self):
        """A trace with barriers takes longer than one without."""
        config = small_config()
        with_barriers = Machine(config, scheme="wb")
        without = Machine(config, scheme="wb")
        ops = [Op(OpKind.WRITE, line, 100) for line in range(0, 256, 8)]
        barriers = []
        for op in ops:
            barriers.extend([op, Op(OpKind.PERSIST, 0, 0)])
        with_barriers.run(barriers)
        without.run(ops)
        assert with_barriers.timing.now_ns > without.timing.now_ns

    def test_read_hits_do_not_touch_memory(self):
        machine = Machine(small_config(), scheme="wb")
        machine.run([Op(OpKind.READ, 0, 10), Op(OpKind.READ, 0, 10)])
        assert machine.stats["cpu.read_hits"] == 1
        assert machine.stats["nvm.data_reads"] == 1

    def test_scratch_writes_reach_memory_via_eviction(self):
        machine = Machine(small_config(), scheme="wb")
        ops = [Op(OpKind.WRITE, line, 10, persistent=False)
               for line in range(0, 8192, 8)]
        machine.run(ops)
        assert machine.stats["cpu.llc_writebacks"] > 0
        assert machine.stats["nvm.data_writes"] > 0
