"""Unit + property tests for the write-pending queue."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mem.writequeue import WritePendingQueue


class TestValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WritePendingQueue(0, 100.0)

    def test_rejects_zero_service(self):
        with pytest.raises(ValueError):
            WritePendingQueue(4, 0.0)


class TestSinglePort:
    def test_first_write_no_stall(self):
        queue = WritePendingQueue(4, 100.0)
        stall, completion = queue.enqueue(0.0)
        assert stall == 0.0
        assert completion == 100.0

    def test_serialized_service(self):
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(0.0)
        _stall, completion = queue.enqueue(0.0)
        assert completion == 200.0

    def test_full_queue_stalls(self):
        queue = WritePendingQueue(2, 100.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        stall, _completion = queue.enqueue(0.0)
        assert stall == 100.0  # waits for the first completion

    def test_retirement_frees_capacity(self):
        queue = WritePendingQueue(2, 100.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        stall, _completion = queue.enqueue(250.0)
        assert stall == 0.0

    def test_drain_time(self):
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        assert queue.drain_time(0.0) == 200.0
        assert queue.drain_time(150.0) == 50.0
        assert queue.drain_time(500.0) == 0.0

    def test_reset(self):
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(0.0)
        queue.reset()
        assert len(queue) == 0
        assert queue.drain_time(0.0) == 0.0


class TestMonotonicClock:
    """Out-of-order observation must fail loudly, not corrupt state.

    Every internal shortcut (``_retire`` popping left, the full-queue
    stall reading ``_completions[0]``, ``drain_time`` reading
    ``_completions[-1]``) assumes the completion deque is sorted, which
    only holds for non-decreasing ``now_ns``. A caller that reordered
    timing-model calls would otherwise silently produce wrong barrier
    stalls — exactly the failure mode this guard pins down.
    """

    def test_enqueue_rejects_time_travel(self):
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(500.0)
        with pytest.raises(ValueError):
            queue.enqueue(499.0)

    def test_drain_time_rejects_time_travel(self):
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(500.0)
        with pytest.raises(ValueError):
            queue.drain_time(0.0)

    def test_equal_times_allowed(self):
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(500.0)
        queue.enqueue(500.0)
        assert queue.drain_time(500.0) == 200.0

    def test_reset_rewinds_the_clock(self):
        """A crash (reset) is the one sanctioned rewind."""
        queue = WritePendingQueue(4, 100.0)
        queue.enqueue(1000.0)
        queue.reset()
        stall, completion = queue.enqueue(0.0)
        assert stall == 0.0
        assert completion == 100.0


@given(st.lists(st.floats(min_value=0.0, max_value=50.0),
                max_size=100))
@settings(max_examples=50, deadline=None)
def test_completions_monotonic_and_stalls_nonnegative(gaps):
    """Completion times never go backwards; stalls are never negative."""
    queue = WritePendingQueue(4, 30.0)
    now = 0.0
    last_completion = 0.0
    for gap in gaps:
        now += gap
        stall, completion = queue.enqueue(now)
        assert stall >= 0.0
        assert completion >= last_completion
        assert completion >= now
        last_completion = completion
        now += stall


@given(st.lists(st.floats(min_value=0.0, max_value=40.0),
                max_size=120),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
# now + (head - now) rounds below head here: the stall must still free
# the head's slot
@example(gaps=[1.8021137430051317, 1.0], capacity=1)
def test_full_queue_stall_clears_exactly_one_slot(gaps, capacity):
    """A full-queue stall lasts exactly until the oldest write retires,
    and occupancy never exceeds capacity."""
    queue = WritePendingQueue(capacity, 30.0)
    now = 0.0
    for gap in gaps:
        now += gap
        occupancy_before = len(queue)
        assert occupancy_before <= capacity
        stall, _completion = queue.enqueue(now)
        if occupancy_before < capacity:
            assert stall == 0.0
        now += stall
        assert len(queue) <= capacity


@given(st.lists(st.floats(min_value=0.0, max_value=60.0),
                min_size=1, max_size=80))
@settings(max_examples=50, deadline=None)
# now + (last - now) rounds below last here: the drain must still reach it
@example(gaps=[1.9267029295781195, 1.9267029295781195,
               1.9267029295781195, 1.3042936770394231])
def test_retire_at_deadline(gaps):
    """Waiting exactly ``drain_time`` empties the queue — no residue,
    and a zero-length drain immediately after."""
    queue = WritePendingQueue(8, 25.0)
    now = 0.0
    for gap in gaps:
        now += gap
        stall, _completion = queue.enqueue(now)
        now += stall
    deadline = now + queue.drain_time(now)
    assert queue.drain_time(deadline) == 0.0
    assert len(queue) == 0


@given(st.lists(st.floats(min_value=0.0, max_value=50.0),
                max_size=60),
       st.lists(st.floats(min_value=0.0, max_value=50.0),
                max_size=60))
@settings(max_examples=50, deadline=None)
def test_reset_mid_run_restores_cold_behaviour(before, after):
    """After a mid-run reset the queue behaves like a freshly built one,
    regardless of how much history preceded the crash."""
    queue = WritePendingQueue(4, 30.0)
    now = 0.0
    for gap in before:
        now += gap
        stall, _completion = queue.enqueue(now)
        now += stall
    queue.reset()
    fresh = WritePendingQueue(4, 30.0)
    now = 0.0
    for gap in after:
        now += gap
        assert queue.enqueue(now) == fresh.enqueue(now)
        stall = queue.drain_time(now)
        assert stall == fresh.drain_time(now)
        now += stall
