"""The memory controller's write-pending queue (WPQ) timing model.

PCM writes are slow (tWR = 300 ns). Writes are buffered in a bounded
queue and drained one at a time by the device; the CPU only stalls when
the queue is full or when a persist barrier must wait for the queue to
drain. Persistence schemes that issue extra NVM writes (Anubis' shadow
table, strict persistence's branch write-through) occupy drain bandwidth
and therefore lengthen barrier stalls — this queue is what turns write
amplification into the IPC differences of Fig. 12.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Tuple


class WritePendingQueue:
    """A bounded write queue drained by ``ports`` parallel PCM banks."""

    __slots__ = ("capacity", "service_ns", "ports", "stats",
                 "_occupancy_hist", "_port_free_ns", "_completions",
                 "_clock_ns")

    def __init__(self, capacity: int, service_ns: float,
                 ports: int = 1, stats=None) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if service_ns <= 0:
            raise ValueError("service time must be positive")
        if ports < 1:
            raise ValueError("need at least one drain port")
        self.capacity = capacity
        self.service_ns = service_ns
        self.ports = ports
        self.stats = stats
        """Optional :class:`~repro.util.stats.Stats`; when set, each
        enqueue records the pre-insert occupancy in the
        ``wpq.occupancy`` histogram and full-queue stalls bump
        ``wpq.full_stalls``."""
        # bound once: enqueue fires on every NVM write
        self._occupancy_hist = (
            stats.registry.histogram("wpq.occupancy")
            if stats is not None and stats.enabled else None
        )
        self._port_free_ns = [0.0] * ports
        self._completions: Deque[float] = deque()
        self._clock_ns = 0.0

    def __len__(self) -> int:
        return len(self._completions)

    def _advance_clock(self, now_ns: float) -> None:
        """Enforce monotonic observation times.

        Every internal shortcut — ``_retire`` popping from the left,
        the full-queue stall reading ``_completions[0]``, and
        ``drain_time`` reading ``_completions[-1]`` — relies on the
        completion deque being sorted, which only holds when callers
        present non-decreasing ``now_ns`` values (each write picks the
        earliest-free bank, so with monotonic issue times every new
        completion lands at or after the previous one). A caller that
        travels back in time would silently corrupt barrier stalls, so
        it is rejected loudly instead; :meth:`reset` (a crash) is the
        one sanctioned way to rewind the clock.
        """
        if now_ns < self._clock_ns:
            raise ValueError(
                "WPQ observed time going backwards (%.3f ns after "
                "%.3f ns); completions are only non-decreasing for "
                "monotonic issue times" % (now_ns, self._clock_ns)
            )
        self._clock_ns = now_ns

    def _retire(self, now_ns: float) -> None:
        while self._completions and self._completions[0] <= now_ns:
            self._completions.popleft()

    def enqueue(self, now_ns: float) -> Tuple[float, float]:
        """Add one write at ``now_ns``.

        Returns ``(stall_ns, completion_ns)``: the time the issuing core
        must stall because the queue was full, and when this write will
        be durable. Successive completions are non-decreasing because
        writes always pick the earliest-free bank; that guarantee only
        holds for non-decreasing ``now_ns``, which is enforced —
        out-of-order observation raises ``ValueError``.
        """
        self._advance_clock(now_ns)
        self._retire(now_ns)
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(len(self._completions))
        stall_ns = 0.0
        if len(self._completions) >= self.capacity:
            if self.stats is not None:
                self.stats.add("wpq.full_stalls")
            head_ns = self._completions[0]
            stall_ns = head_ns - now_ns
            # retire by the head's own time: now + (head - now) can
            # round below head and leave the queue over capacity
            self._retire(head_ns)
        issue_ns = now_ns + stall_ns
        port = min(range(self.ports), key=self._port_free_ns.__getitem__)
        start_ns = max(issue_ns, self._port_free_ns[port])
        completion_ns = start_ns + self.service_ns
        self._port_free_ns[port] = completion_ns
        self._completions.append(completion_ns)
        return stall_ns, completion_ns

    def drain_time(self, now_ns: float) -> float:
        """Stall needed at ``now_ns`` for the queue to empty (barrier).

        Waiting exactly the returned stall reaches the last completion:
        where ``now + (last - now)`` rounds below ``last``, the stall is
        one ulp longer.
        """
        self._advance_clock(now_ns)
        self._retire(now_ns)
        if not self._completions:
            return 0.0
        last_ns = self._completions[-1]
        stall_ns = last_ns - now_ns
        if now_ns + stall_ns < last_ns:
            stall_ns = math.nextafter(stall_ns, math.inf)
        return stall_ns

    def reset(self) -> None:
        """Empty the queue (a crash): contents and the clock are lost."""
        self._completions.clear()
        self._port_free_ns = [0.0] * self.ports
        self._clock_ns = 0.0
