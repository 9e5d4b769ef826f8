"""Local campaigns and the execute loop: resume equivalence,
retry/timeout/backoff, graceful draining, sharded == serial, no
chunk barrier.

Failure-path tests script outcomes through a fake runner driven by
``FakeClock``, so no real processes hang and no real time passes.
The equivalence tests execute real (tiny) cells.
"""

import json
import signal

import pytest

from repro.bench.runner import config_for_scale
from repro.errors import ConfigError
from repro.lab.clock import BackoffPolicy, FakeClock
from repro.lab.farm import run_local
from repro.lab.scheduler import Scheduler, find_journal, read_journals
from repro.lab.spec import bench_spec
from repro.lab.store import ResultStore
from repro.util.stats import Stats

CONFIG = config_for_scale("smoke")


def real_specs(count=4, operations=40):
    cells = [("wb", "array"), ("star", "array"),
             ("wb", "hash"), ("star", "hash")]
    return [
        bench_spec(CONFIG, scheme, workload, operations, seed=7)
        for scheme, workload in cells[:count]
    ]


def export_text(store):
    return json.dumps(store.export(), sort_keys=True)


# ----------------------------------------------------------------------
# scripted runner (no processes, no wall time)
# ----------------------------------------------------------------------
class FakeHandle:
    def __init__(self, outcome, clock):
        self.outcome = outcome  # ("ok", payload)/("error", msg)/None
        self.clock = clock
        self.started = clock.now()
        self.finished = None  # when the scheduler first saw the outcome
        self.stopped = False

    def poll(self):
        if self.outcome is not None and self.finished is None:
            self.finished = self.clock.now()
        return self.outcome

    def stop(self):
        self.stopped = True


class FakeRunner:
    """Pops one scripted outcome per (spec, attempt); None = hang."""

    def __init__(self, script):
        self.script = {key: list(value)
                       for key, value in script.items()}
        self.handles = []

    def start(self, spec, clock):
        outcome = self.script[spec.spec_hash].pop(0)
        handle = FakeHandle(outcome, clock)
        self.handles.append(handle)
        return handle


def assert_board_retry_schedule(handles):
    """The lease board's fixed retry policy, as a cell that errors on
    every execution sees it: exactly three runs, the second starting
    at least 0.5 s and the third at least 1.0 s after the failure
    before it."""
    assert len(handles) == 3
    first, second, third = handles
    assert second.started - first.finished >= 0.5
    assert third.started - second.finished >= 1.0


class TestBackoffPolicy:
    def test_exponential_delays_double_and_cap(self):
        policy = BackoffPolicy(base_s=1.0, cap_s=5.0)
        assert [policy.delay(n) for n in (0, 1, 2, 3, 4, 10)] == \
            [0.0, 1.0, 2.0, 4.0, 5.0, 5.0]

    def test_an_unbounded_attempt_count_stays_at_the_cap(self):
        # a worker idling for hours counts past 2**10 re-claims
        assert BackoffPolicy(base_s=0.2, cap_s=15.0).delay(5000) == 15.0
        assert BackoffPolicy(base_s=0.0, cap_s=15.0).delay(5000) == 0.0

    def test_negative_base_or_cap_is_rejected(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base_s=-1.0)
        with pytest.raises(ConfigError):
            BackoffPolicy(cap_s=-1.0)


class TestFailurePaths:
    def _run(self, script, specs, runner_class=None, **kwargs):
        stats = Stats(enabled=True)
        store = ResultStore(kwargs.pop("root"), stats=stats)
        runner = (runner_class or FakeRunner)(script)
        report = run_local(store, specs, clock=FakeClock(),
                           stats=stats, runner=runner, **kwargs)
        return report, stats, store, runner

    def test_error_then_success_retries_with_backoff(self, tmp_path):
        spec = real_specs(count=1)[0]
        payload = {"version": 1}
        report, stats, store, runner = self._run(
            {spec.spec_hash: [("error", "boom"), ("ok", payload)]},
            [spec], root=tmp_path / "lab",
        )
        assert report.completed == 1 and report.failed == 0
        assert stats.get("lab.farm.cells_requeued") == 1
        # the retry waited out the board's first delay on the fake clock
        assert (runner.handles[1].started
                - runner.handles[0].finished) >= 0.5
        assert store.get(spec).payload == payload

    def test_exponential_backoff_doubles_the_retry_gaps(self, tmp_path):
        spec = real_specs(count=1)[0]
        report, _stats, _store, runner = self._run(
            {spec.spec_hash: [("error", "a"), ("error", "b"),
                              ("ok", {"version": 1})]},
            [spec], root=tmp_path / "lab",
        )
        assert report.completed == 1
        first, second, third = runner.handles
        assert second.started - first.finished >= 0.5
        assert third.started - second.finished >= 1.0  # doubled

    def test_hung_worker_times_out_and_is_retried(self, tmp_path):
        spec = real_specs(count=1)[0]
        report, stats, _store, runner = self._run(
            {spec.spec_hash: [None, ("ok", {"version": 1})]},
            [spec], root=tmp_path / "lab", timeout_s=1.0,
        )
        assert report.completed == 1
        assert stats.get("lab.jobs.timeouts") == 1
        assert runner.handles[0].stopped

    def test_exhausted_retries_report_a_permanent_failure(
            self, tmp_path):
        spec = real_specs(count=1)[0]
        report, stats, store, runner = self._run(
            {spec.spec_hash: [("error", "a\nboom")] * 9},
            [spec], root=tmp_path / "lab",
        )
        assert_board_retry_schedule(runner.handles)
        assert report.failed == 1 and not report.ok
        assert report.failures[0]["attempts"] == 3
        assert report.failures[0]["error"] == "boom"
        # three failed executions; the board failed the cell once
        assert stats.get("lab.jobs.failed") == 3
        assert stats.get("lab.farm.cells_requeued") == 2
        assert stats.get("lab.farm.cells_failed") == 1
        journal = read_journals(store)[0]
        assert journal["status"] == "failed"

    def test_stop_request_drains_inflight_and_checkpoints(
            self, tmp_path):
        specs = real_specs(count=3)
        script = {
            spec.spec_hash: [("ok", {"version": 1})] for spec in specs
        }

        class StopAfterFirst(FakeRunner):
            """A real Ctrl-C as the first cell launches."""

            def start(inner, spec, clock):
                if not inner.handles:
                    signal.raise_signal(signal.SIGINT)
                return FakeRunner.start(inner, spec, clock)

        report, _stats, store, runner = self._run(
            script, specs, runner_class=StopAfterFirst,
            root=tmp_path / "lab", name="drained",
        )
        # the in-flight cell committed; the rest were never launched
        assert len(runner.handles) == 1
        assert report.completed == 1
        assert report.interrupted and report.remaining == 2
        journal = read_journals(store)[0]
        assert journal["status"] == "interrupted"
        assert [c["stored"] for c in journal["checkpoints"]] == [0, 1]
        assert find_journal(store, journal["campaign_id"][:6])

    def test_second_stop_aborts_inflight_and_reports_interrupted(
            self, tmp_path):
        specs = real_specs(count=2)
        script = {spec.spec_hash: [None] for spec in specs}

        class AbortAfterLaunch(FakeRunner):
            """Two real Ctrl-Cs once both shards run a hung cell."""

            def start(inner, spec, clock):
                handle = FakeRunner.start(inner, spec, clock)
                if len(inner.handles) == len(specs):
                    signal.raise_signal(signal.SIGINT)
                    signal.raise_signal(signal.SIGINT)
                return handle

        report, _stats, store, runner = self._run(
            script, specs, runner_class=AbortAfterLaunch,
            root=tmp_path / "lab", name="aborted", jobs=2,
        )
        assert len(runner.handles) == 2
        assert all(handle.stopped for handle in runner.handles)
        assert report.completed == 0 and report.failed == 0
        assert report.interrupted and report.remaining == 2
        assert read_journals(store)[0]["status"] == "interrupted"

    def test_execute_writes_no_journal(self, tmp_path):
        specs = real_specs(count=2)
        store = ResultStore(tmp_path / "lab")
        seen = []
        Scheduler(store).execute(
            specs, on_cell=lambda spec, error: seen.append(
                (spec.spec_hash, error)))
        assert seen == [(spec.spec_hash, None) for spec in specs]
        assert read_journals(store) == []
        assert len(store) == 2

    def test_a_failed_cell_runs_again_on_the_next_run(self, tmp_path):
        """The board is re-seeded from the grid and the store on every
        run, so a cell that failed permanently is tried again."""
        spec = real_specs(count=1)[0]
        root = tmp_path / "lab"
        first, _stats, _store, _runner = self._run(
            {spec.spec_hash: [("error", "boom")] * 3}, [spec], root=root,
        )
        assert first.failed == 1
        second, _stats, store, _runner = self._run(
            {spec.spec_hash: [("ok", {"version": 1})]}, [spec],
            root=root,
        )
        assert second.ok and second.completed == 1
        assert read_journals(store)[0]["status"] == "complete"


class TimedHandle:
    """A cell that finishes ``duration`` fake seconds after launch."""

    def __init__(self, clock, duration):
        self.clock = clock
        self.started = clock.now()
        self.duration = duration

    def poll(self):
        if self.clock.now() - self.started >= self.duration:
            return ("ok", {"version": 1})
        return None

    def stop(self):
        pass


class TestNoChunkBarrier:
    def test_a_free_shard_starts_the_next_cell_at_once(self, tmp_path):
        """With two shards, the third cell starts as soon as the first
        finishes, while the second is still running."""
        specs = real_specs(count=3)
        durations = dict(zip(
            sorted(spec.spec_hash for spec in specs), (1.0, 5.0, 1.0)))
        starts = {}

        class Runner:
            def start(self, spec, clock):
                starts[spec.spec_hash] = clock.now()
                return TimedHandle(clock, durations[spec.spec_hash])

        report = run_local(ResultStore(tmp_path / "lab"), specs,
                           jobs=2, clock=FakeClock(), runner=Runner())
        assert report.ok and report.completed == 3
        first, second, third = sorted(durations)
        assert starts[first] == starts[second] == 0.0
        assert 1.0 <= starts[third] < durations[second]


class TestResumeEquivalence:
    def test_kill_and_resume_is_bit_identical_to_serial(self, tmp_path):
        specs = real_specs()
        serial = ResultStore(tmp_path / "serial")
        run_local(serial, specs)

        stats = Stats(enabled=True)
        resumed = ResultStore(tmp_path / "resumed", stats=stats)
        first = run_local(resumed, specs, stats=stats, max_cells=2)
        assert first.interrupted and first.completed == 2
        second = run_local(resumed, specs, stats=stats)
        assert not second.interrupted

        # the resume executed only the remaining cells...
        assert second.resumed == 2 and second.completed == 2
        assert stats.get("lab.store.hits") == 2
        assert stats.get("lab.store.puts") == 4
        # ...and the merged store is indistinguishable from serial
        assert export_text(resumed) == export_text(serial)

    def test_rerunning_a_complete_campaign_computes_nothing(
            self, tmp_path):
        specs = real_specs(count=2)
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "lab", stats=stats)
        run_local(store, specs, stats=stats)
        report = run_local(store, specs, stats=stats)
        assert report.resumed == 2 and report.completed == 0
        assert stats.get("lab.store.puts") == 2

    def test_sharded_run_is_bit_identical_to_serial(self, tmp_path):
        specs = real_specs()
        serial = ResultStore(tmp_path / "serial")
        run_local(serial, specs)
        sharded = ResultStore(tmp_path / "sharded")
        report = run_local(sharded, specs, jobs=2, timeout_s=120)
        assert report.completed == len(specs) and report.ok
        assert export_text(sharded) == export_text(serial)
