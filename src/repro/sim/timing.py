"""A simple in-order timing model for *relative* IPC (Fig. 12).

The paper reports IPC normalized to the write-back baseline, so what the
model must capture is how each scheme's extra NVM writes translate into
lost cycles: writes occupy the bounded write-pending queue, the queue
drains at the slow PCM write rate (tWR = 300 ns), and persist barriers
stall until it is empty. Reads stall the core for the PCM array read
latency when they miss the hierarchy.

This is deliberately not a pipeline simulator; see DESIGN.md for the
substitution argument.

The constants are Table I's. Of its PCM timings the model uses tRCD,
tCL and tWR, and it runs the 8 cores as one instruction stream
(DESIGN.md §2).
"""

from __future__ import annotations

from repro.mem.writequeue import WritePendingQueue

HIT_LATENCY_NS = (1.0, 4.0, 12.0)
"""Per-level cache hit latencies (L1, L2, LLC) at 2 GHz-ish budgets."""

T_RCD_NS = 48.0
"""PCM row-to-column delay (Table I)."""

T_CL_NS = 15.0
"""PCM column access latency (Table I)."""

READ_LATENCY_NS = T_RCD_NS + T_CL_NS
"""Array read latency seen by a demand miss (63 ns)."""

T_WR_NS = 300.0
"""PCM write pulse (Table I): the write-pending queue's service time."""

CYCLE_NS = 1.0 / 2.0
"""Clock period of the 2 GHz cores (Table I)."""

BASE_CPI = 1.0
"""Cycles per retired instruction outside memory stalls."""

WRITE_QUEUE_ENTRIES = 32
"""Write-pending queue capacity."""

SFENCE_NS = 10.0
"""Fixed pipeline cost of the ordering fence itself."""


class TimingModel:
    """Accumulates simulated time from instruction and memory events."""

    def __init__(self, stats=None) -> None:
        self.now_ns = 0.0
        self.instructions = 0
        self.read_stall_ns = 0.0
        self.write_stall_ns = 0.0
        self.barrier_stall_ns = 0.0
        self.wpq = WritePendingQueue(
            WRITE_QUEUE_ENTRIES, T_WR_NS, stats=stats,
        )

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def advance_instructions(self, count: int) -> None:
        """Retire ``count`` instructions at the base CPI."""
        if count < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += count
        self.now_ns += count * BASE_CPI * CYCLE_NS

    def cache_hit(self, level: int) -> None:
        """A load served by cache level ``level`` (0-based)."""
        self.now_ns += HIT_LATENCY_NS[min(level, len(HIT_LATENCY_NS) - 1)]

    def memory_reads(self, count: int) -> None:
        """``count`` demand NVM line reads on the critical path."""
        if count <= 0:
            return
        stall = count * READ_LATENCY_NS
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
        self.now_ns += stall + SFENCE_NS

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        return self.now_ns / CYCLE_NS

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the simulated run."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles
