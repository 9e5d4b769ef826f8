"""A simple in-order timing model for *relative* IPC (Fig. 12).

The paper reports IPC normalized to the write-back baseline, so what the
model must capture is how each scheme's extra NVM writes translate into
lost cycles: writes occupy the bounded write-pending queue, the queue
drains at the slow PCM write rate (tWR = 300 ns), and persist barriers
stall until it is empty. Reads stall the core for the PCM array read
latency when they miss the hierarchy.

This is deliberately not a pipeline simulator; see DESIGN.md for the
substitution argument.
"""

from __future__ import annotations

from repro.config import CPUConfig, NVMTimings
from repro.mem.writequeue import WritePendingQueue

HIT_LATENCY_NS = (1.0, 4.0, 12.0)
"""Per-level cache hit latencies (L1, L2, LLC) at 2 GHz-ish budgets."""


class TimingModel:
    """Accumulates simulated time from instruction and memory events."""

    def __init__(self, cpu: CPUConfig, nvm: NVMTimings,
                 stats=None) -> None:
        self.cpu = cpu
        self.nvm = nvm
        self.now_ns = 0.0
        self.instructions = 0
        self.read_stall_ns = 0.0
        self.write_stall_ns = 0.0
        self.barrier_stall_ns = 0.0
        # bound once: every op advances the clock through these
        self._base_cpi = cpu.base_cpi
        self._cycle_ns = cpu.cycle_ns
        self._read_latency_ns = nvm.read_latency_ns
        self.wpq = WritePendingQueue(
            cpu.write_queue_entries, nvm.t_wr_ns, cpu.write_ports,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def advance_instructions(self, count: int) -> None:
        """Retire ``count`` instructions at the base CPI."""
        if count < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += count
        self.now_ns += count * self._base_cpi * self._cycle_ns

    def cache_hit(self, level: int) -> None:
        """A load served by cache level ``level`` (0-based)."""
        self.now_ns += HIT_LATENCY_NS[min(level, len(HIT_LATENCY_NS) - 1)]

    def memory_reads(self, count: int) -> None:
        """``count`` demand NVM line reads on the critical path."""
        if count <= 0:
            return
        stall = count * self._read_latency_ns
        self.read_stall_ns += stall
        self.now_ns += stall

    def memory_writes(self, count: int) -> None:
        """``count`` NVM line writes entering the write-pending queue."""
        enqueue = self.wpq.enqueue
        for _ in range(count):
            stall, _completion = enqueue(self.now_ns)
            self.write_stall_ns += stall
            self.now_ns += stall

    def persist_barrier(self) -> None:
        """clwb+sfence semantics: wait until all queued writes are
        durable, plus the fixed fence cost."""
        stall = self.wpq.drain_time(self.now_ns)
        self.barrier_stall_ns += stall
        self.now_ns += stall + self.cpu.sfence_ns

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        return self.now_ns / self.cpu.cycle_ns

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the simulated run."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles
