# lint: disable-file=STAR003
#   this module IS the sanctioned wall-clock seam for repro.lab: every
#   timeout/backoff decision in the scheduler goes through a Clock
#   instance so tests substitute FakeClock and the rest of the lab
#   package stays free of wall-clock reads (STAR003 covers repro/lab).
"""Wall-clock seam for the lab scheduler.

Job timeouts, retry backoff and shard wall-time measurement all need a
clock, but wall-clock reads are banned from deterministic paths
(STAR003) and make scheduler tests slow and flaky. This module is the
single place the lab package touches real time:

* :class:`Clock` — the production clock (monotonic ``perf_counter`` and
  a real ``sleep``),
* :class:`FakeClock` — a manually-advanced test double whose ``sleep``
  returns instantly, so timeout/backoff tests run in microseconds,
* :class:`BackoffPolicy` — the pure, capped exponential delay
  schedule that every retry wait in the lab derives from. The policy
  only *computes* delays; waiting them out always goes through a
  ``Clock`` instance, so FakeClock tests stay deterministic.

Everything else in ``repro.lab`` receives a clock instance; nothing
else may import :mod:`time`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class BackoffPolicy:
    """A retry delay schedule: attempt number in, seconds out.

    Retry ``attempt`` waits ``base_s * 2**(attempt-1)``, capped at
    ``cap_s`` so a long retry chain cannot grow an unbounded sleep.
    Shared by the lease board's retry requeues
    (:mod:`repro.lab.lease`), the workers' idle re-claim pacing
    (:mod:`repro.lab.farm`) and the HTTP client's request retries.
    """

    base_s: float = 0.5
    cap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.cap_s < 0:
            raise ConfigError("backoff base/cap must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        # 2.0 ** 1024 raises OverflowError: an idle worker counts
        # attempts without bound, and the cap is reached long before
        doublings = min(attempt - 1, 1023)
        return min(self.base_s * 2.0 ** doublings, self.cap_s)


class Clock:
    """Monotonic wall clock + sleep, injectable for tests."""

    def now(self) -> float:
        """Seconds on a monotonic clock (zero point is arbitrary)."""
        return time.perf_counter()

    def wall(self) -> float:
        """Seconds since the epoch.

        Heartbeat files written by worker processes must carry
        timestamps a *different* process can compare against its own
        clock (``perf_counter`` zero points are per-process), so the
        live-telemetry plane stamps snapshots with epoch time through
        this seam.
        """
        return time.time()

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (the scheduler's poll/backoff waits)."""
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """A deterministic clock for scheduler tests.

    ``sleep`` advances simulated time instead of blocking, so a test
    exercising a 30s timeout plus exponential backoff completes
    immediately while the scheduler observes exactly the elapsed time
    it expects.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.sleeps: list = []

    def now(self) -> float:
        return self._now

    def wall(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.sleeps.append(seconds)
            self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        self._now += seconds
