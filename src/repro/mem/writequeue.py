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
    """A bounded write queue drained by one PCM write port."""

    __slots__ = ("capacity", "service_ns", "stats", "_occupancy_hist",
                 "_free_ns", "_completions", "_clock_ns")

    def __init__(self, capacity: int, service_ns: float,
                 stats=None) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if service_ns <= 0:
            raise ValueError("service time must be positive")
        self.capacity = capacity
        self.service_ns = service_ns
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
        self._free_ns = 0.0
        """When the port finishes its last accepted write."""
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
        present non-decreasing ``now_ns`` values (the port serves
        writes in arrival order, so with monotonic arrival times every
        new completion lands at or after the previous one). A caller that
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
        the port serves writes in arrival order; that guarantee only
        holds for non-decreasing ``now_ns``, which is enforced —
        out-of-order observation raises ``ValueError``.
        """
        # _advance_clock and _retire inlined: this runs per NVM write
        # (_advance_clock still raises for time going backwards)
        if now_ns < self._clock_ns:
            self._advance_clock(now_ns)
        self._clock_ns = now_ns
        completions = self._completions
        while completions and completions[0] <= now_ns:
            completions.popleft()
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(len(completions))
        stall_ns = 0.0
        if len(completions) >= self.capacity:
            if self.stats is not None:
                self.stats.add("wpq.full_stalls")
            head_ns = completions[0]
            stall_ns = head_ns - now_ns
            # retire by the head's own time: now + (head - now) can
            # round below head and leave the queue over capacity
            while completions and completions[0] <= head_ns:
                completions.popleft()
        completion_ns = (max(now_ns + stall_ns, self._free_ns)
                         + self.service_ns)
        self._free_ns = completion_ns
        completions.append(completion_ns)
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
        self._free_ns = 0.0
        self._clock_ns = 0.0
