"""Farm coordinator + workers: churned N-worker == serial.

The acceptance property is byte-equivalence: however many workers, how
ever they die, the merged authoritative store exports exactly what a
serial local run over the same specs exports. Churn is driven
on a shared ``FakeClock`` (worker idle sleeps advance the same clock
lease deadlines are checked against), so steal scenarios run
deterministically in microseconds.
"""

import json

from repro.bench.runner import config_for_scale
from repro.lab.clock import FakeClock
from repro.lab.farm import (
    Coordinator,
    Worker,
    board_path,
    run_local,
    telemetry_dir,
    worker_store_path,
)
from repro.lab.lease import LeaseBoard
from repro.lab.scheduler import read_journals
from repro.lab.spec import bench_spec
from repro.lab.store import ResultStore
from repro.obs import catalog
from repro.obs.live import aggregate_heartbeats
from repro.util.stats import Stats

CONFIG = config_for_scale("smoke")


def make_specs(count=4, operations=40):
    cells = [("wb", "array"), ("star", "array"),
             ("wb", "hash"), ("star", "hash")]
    return [
        bench_spec(CONFIG, scheme, workload, operations, seed=7)
        for scheme, workload in cells[:count]
    ]


def export_text(store):
    return json.dumps(store.export(), sort_keys=True)


def serial_export(tmp_path, specs):
    store = ResultStore(tmp_path / "serial")
    run_local(store, specs)
    return export_text(store)


def make_farm(tmp_path, clock=None, **kwargs):
    stats = Stats(enabled=True)
    store = ResultStore(tmp_path / "auth", stats=stats)
    coordinator = Coordinator(store, tmp_path / "farm",
                              clock=clock or FakeClock(),
                              stats=stats, **kwargs)
    return coordinator, store, stats


class TestFarmEquivalence:
    def test_single_worker_farm_matches_serial(self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        coordinator, store, _stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="farm")
        Worker(tmp_path / "farm", "w1", clock=FakeClock()).run()
        report = coordinator.run(specs, name="farm", max_wall_s=60)
        assert report.ok and report.completed == len(specs)
        assert export_text(store) == reference
        coordinator.close()

    def test_two_worker_split_matches_serial(self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        coordinator, store, _stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="farm")
        # each pool takes half the board
        first = Worker(tmp_path / "farm", "w1", clock=FakeClock(),
                       max_cells=2).run()
        second = Worker(tmp_path / "farm", "w2", clock=FakeClock(),
                        max_cells=2).run()
        assert first["done"] == 2 and second["done"] == 2
        coordinator.run(specs, name="farm", max_wall_s=60)
        assert export_text(store) == reference
        # both pools shipped into their own stores
        assert len(ResultStore(
            worker_store_path(tmp_path / "farm", "w1"))) == 2
        assert len(ResultStore(
            worker_store_path(tmp_path / "farm", "w2"))) == 2
        coordinator.close()

    def test_stored_cells_are_settled_not_recomputed(self, tmp_path):
        specs = make_specs()
        coordinator, store, _stats = make_farm(tmp_path)
        run_local(store, specs[:2])  # pre-store half
        report = coordinator.prepare(specs, name="farm")
        assert report.resumed == 2
        summary = Worker(tmp_path / "farm", "w1",
                         clock=FakeClock()).run()
        assert summary["done"] == 2  # only the missing half executed
        coordinator.close()


class TestChurn:
    def test_dead_worker_cells_are_stolen_and_export_matches(
            self, tmp_path):
        """A worker claims cells then vanishes (kill -9); a survivor
        sharing the clock steals them once the deadlines pass."""
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        clock = FakeClock()
        coordinator, store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="churn")

        board = LeaseBoard(board_path(tmp_path / "farm"), clock=clock)
        victim = board.claim("victim", lease_s=5.0, limit=2)
        assert len(victim) == 2  # ...and the victim never returns

        survivor_stats = Stats(enabled=True)
        summary = Worker(tmp_path / "farm", "survivor", clock=clock,
                         stats=survivor_stats, lease_s=5.0).run()
        assert summary["done"] == len(specs)
        assert summary["stolen"] == 2
        assert survivor_stats.get("lab.farm.leases_stolen") == 2

        coordinator.run(specs, name="churn", max_wall_s=60)
        assert export_text(store) == reference
        board.close()
        coordinator.close()

    def test_zombie_completion_is_fenced_and_merge_dedups(
            self, tmp_path):
        """The zombie computed its cell but lost the lease: its
        completion is rejected, yet its store merges harmlessly
        because the thief's payload is byte-identical."""
        specs = make_specs(1)
        reference = serial_export(tmp_path, specs)
        clock = FakeClock()
        coordinator, store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="fence")

        board = LeaseBoard(board_path(tmp_path / "farm"), clock=clock)
        (lease,) = board.claim("zombie", lease_s=5.0)
        zombie_store = ResultStore(
            worker_store_path(tmp_path / "farm", "zombie"))
        run_local(zombie_store, specs, clock=clock)  # slow compute
        clock.advance(6.0)  # ...past the deadline

        Worker(tmp_path / "farm", "thief", clock=clock,
               lease_s=5.0).run()
        assert not board.complete("zombie", lease.spec_hash,
                                  lease.fence)
        report = coordinator.run(specs, name="fence", max_wall_s=60)
        assert report.ok
        assert export_text(store) == reference
        board.close()
        coordinator.close()


class TestFailurePaths:
    def test_persistent_failure_is_terminal_across_workers(
            self, tmp_path):
        """A cell that errors on every attempt exhausts the
        cross-worker budget and the campaign reports it failed."""
        from test_lab_scheduler import FakeRunner

        specs = make_specs(1)
        clock = FakeClock()
        coordinator, _store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="failing")

        script = {specs[0].spec_hash: [("error", "boom")] * 3}
        summary = Worker(tmp_path / "farm", "w1", clock=clock,
                         runner=FakeRunner(script)).run()
        assert summary["failed"] == 1 and summary["done"] == 0

        report = coordinator.run(specs, name="failing", max_wall_s=60)
        assert report.failed == 1 and not report.ok
        assert report.failures[0]["error"] == "boom"
        journal = read_journals(coordinator.store)[0]
        assert journal["status"] == "failed"
        coordinator.close()


    def test_failing_cell_executes_max_attempts_times(self, tmp_path):
        """The board's fixed policy is the farm's one retry budget: a
        cell that errors on every execution runs 3 times, not 3 board
        attempts times the in-pool scheduler retries, and each retry
        waits out the board's delay."""
        from test_lab_scheduler import FakeRunner, assert_board_retry_schedule

        specs = make_specs(1)
        clock = FakeClock()
        coordinator, _store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="failing")

        runner = FakeRunner({specs[0].spec_hash: [("error", "boom")] * 9})
        summary = Worker(tmp_path / "farm", "w1", clock=clock,
                         runner=runner).run()
        assert summary["failed"] == 1
        assert_board_retry_schedule(runner.handles)
        (row,) = coordinator.board.rows()
        assert (row["state"], row["attempts"]) == ("failed", 3)
        report = coordinator.run(specs, name="failing", max_wall_s=60)
        assert report.failed == 1
        coordinator.close()


class TestLeasesPerShard:
    def test_a_two_shard_worker_holds_at_most_two_leases(
            self, tmp_path):
        from test_lab_scheduler import TimedHandle

        specs = make_specs()
        clock = FakeClock()
        coordinator, _store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="held")
        held = []

        class Runner:
            """Samples the worker's leases as each cell launches."""

            def start(self, spec, clock):
                held.append(sum(
                    1 for row in coordinator.board.rows()
                    if row["state"] == "leased"
                    and row["owner"] == "w1"))
                return TimedHandle(clock, 1.0 + len(held))

        summary = Worker(tmp_path / "farm", "w1", clock=clock, jobs=2,
                         runner=Runner()).run()
        assert summary["done"] == len(specs)
        assert len(held) == len(specs) and max(held) == 2
        coordinator.close()


class TestObservability:
    def test_heartbeats_cover_coordinator_and_workers(self, tmp_path):
        specs = make_specs(2)
        clock = FakeClock()
        coordinator, _store, stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="obs")
        Worker(tmp_path / "farm", "w1", clock=FakeClock()).run()
        coordinator.run(specs, name="obs", max_wall_s=60)

        aggregate = aggregate_heartbeats(
            telemetry_dir(tmp_path / "farm"),
            now_wall=clock.wall(), stale_after_s=1e9,
        )
        names = sorted(view.worker for view in aggregate.workers)
        assert names == ["coordinator", "w1"]
        assert aggregate.corrupt == 0
        # the merged registry carries the farm's claim counters
        merged = dict(aggregate.registry.counters())
        assert merged.get("lab.farm.leases_claimed") == 2
        coordinator.close()

    def test_every_emitted_farm_metric_is_catalogued(self, tmp_path):
        specs = make_specs(2)
        coordinator, _store, stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="cat")
        worker_stats = Stats(enabled=True)
        Worker(tmp_path / "farm", "w1", clock=FakeClock(),
               stats=worker_stats).run()
        coordinator.run(specs, name="cat", max_wall_s=60)
        emitted = (
            [name for name, _ in stats.registry.counters()]
            + [name for name, _ in stats.registry.gauges()]
            + [name for name, _ in worker_stats.registry.counters()]
            + [name for name, _ in worker_stats.registry.gauges()]
        )
        farm_names = sorted(
            name for name in emitted if name.startswith("lab.farm.")
        )
        assert farm_names  # the farm plane actually emitted
        for name in farm_names:
            assert catalog.lookup(name) is not None, name
        coordinator.close()


class TestBookkeeping:
    """A farm cell costs its simulation: one provenance lookup per
    process, no journal outside the coordinator's store, and a merge
    that indexes in one transaction yet converges after a failure."""

    def test_farm_spawns_one_git_and_leaves_no_worker_journal(
            self, tmp_path, monkeypatch):
        from repro.lab import store as store_module

        specs = [bench_spec(CONFIG, scheme, workload, 40, seed=seed)
                 for seed in range(4)
                 for scheme in ("wb", "star")
                 for workload in ("array", "hash")]
        assert len(specs) == 16
        reference = serial_export(tmp_path, specs)

        spawned = []
        real_run = store_module.subprocess.run

        def counting_run(args, *rest, **kwargs):
            if args[0] == "git":
                spawned.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(store_module.subprocess, "run", counting_run)
        store_module.git_revision.cache_clear()
        try:
            coordinator, store, _stats = make_farm(tmp_path)
            coordinator.prepare(specs, name="bookkeeping")
            Worker(tmp_path / "farm", "w1", clock=FakeClock()).run()
            report = coordinator.run(specs, name="bookkeeping",
                                     max_wall_s=60)
            coordinator.close()
        finally:
            store_module.git_revision.cache_clear()
        assert report.ok and report.completed == len(specs)
        assert len(spawned) <= 1
        worker_store = ResultStore(worker_store_path(tmp_path / "farm",
                                                     "w1"))
        assert len(worker_store) == len(specs)
        assert read_journals(worker_store) == []
        assert not worker_store.campaigns_path.exists()
        assert len(read_journals(store)) == 1
        assert export_text(store) == reference

    def _computed_farm(self, tmp_path, specs):
        coordinator, store, _stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="merge")
        Worker(tmp_path / "farm", "w1", clock=FakeClock()).run()
        return coordinator, store

    def test_merge_failing_while_writing_blobs_converges(
            self, tmp_path, monkeypatch):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        coordinator, store = self._computed_farm(tmp_path, specs)

        real_write = ResultStore._write_blob
        writes = []

        def failing_write(self, record):
            writes.append(record.spec_hash)
            if len(writes) == 3:
                raise OSError("disk full (injected)")
            return real_write(self, record)

        monkeypatch.setattr(ResultStore, "_write_blob", failing_write)
        try:
            coordinator.merge()
        except OSError:
            pass
        else:
            raise AssertionError("the injected failure did not fire")
        monkeypatch.setattr(ResultStore, "_write_blob", real_write)
        # blobs came first: nothing was indexed yet
        assert len(store) == 0
        assert coordinator.merge() == len(specs)
        assert export_text(store) == reference
        coordinator.close()

    def test_merge_failing_inside_the_index_transaction_converges(
            self, tmp_path, monkeypatch):
        import sqlite3

        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        coordinator, store = self._computed_farm(tmp_path, specs)
        conn = store._connect()

        class FailingConn:
            """Indexes two rows, then fails mid-transaction."""

            def __enter__(self):
                return conn.__enter__()

            def __exit__(self, *exc_info):
                return conn.__exit__(*exc_info)

            def executemany(self, sql, rows):
                conn.executemany(sql, list(rows)[:2])
                raise sqlite3.OperationalError("injected")

            def __getattr__(self, name):
                return getattr(conn, name)

        monkeypatch.setattr(store, "_connect", lambda: FailingConn())
        try:
            coordinator.merge()
        except sqlite3.OperationalError:
            pass
        else:
            raise AssertionError("the injected failure did not fire")
        monkeypatch.undo()
        # rolled back: no partial index, and the write lock is free
        assert len(store) == 0
        other = sqlite3.connect(str(store.index_path), timeout=0)
        other.execute("BEGIN IMMEDIATE")
        other.rollback()
        other.close()
        assert coordinator.merge() == len(specs)
        assert export_text(store) == reference
        coordinator.close()

    def test_store_hits_count_only_resumed_cells(self, tmp_path):
        specs = make_specs()
        coordinator, _store, stats = make_farm(tmp_path)
        coordinator.prepare(specs, name="hits")
        worker_stats = Stats(enabled=True)
        Worker(tmp_path / "farm", "w1", clock=FakeClock(),
               stats=worker_stats).run()
        report = coordinator.run(specs, name="hits", max_wall_s=60)
        assert report.ok and report.resumed == 0
        assert stats.get("lab.store.hits") == 0
        assert worker_stats.get("lab.store.hits") == 0
        coordinator.close()

        # a half-stored campaign: the coordinator's hits are exactly
        # the resumed cells, the worker's still none
        resumed_root = tmp_path / "resumed"
        coordinator, store, stats = make_farm(resumed_root)
        run_local(ResultStore(store.root), specs[:2])
        report = coordinator.prepare(specs, name="hits")
        assert report.resumed == 2
        assert stats.get("lab.store.hits") == report.resumed
        worker_stats = Stats(enabled=True)
        summary = Worker(resumed_root / "farm", "w1", clock=FakeClock(),
                         stats=worker_stats).run()
        assert summary["done"] == 2
        assert worker_stats.get("lab.store.hits") == 0
        coordinator.close()


class StopRunner:
    """Wraps the inline runner: requests the worker's stop (once, or
    twice for an abort) from inside the first cell's launch."""

    def __init__(self, stops=1, hang=False):
        from repro.lab.scheduler import InlineRunner

        self.worker = None
        self.stops = stops
        self.hang = hang
        self.inner = InlineRunner()
        self.started = []

    def start(self, spec, clock):
        self.started.append(spec.spec_hash)
        if len(self.started) == 1:
            for _ in range(self.stops):
                self.worker.request_stop()
        if self.hang:
            self.handle = HungHandle(clock.now())
            return self.handle
        return self.inner.start(spec, clock)


class HungHandle:
    def __init__(self, started):
        self.started = started
        self.stopped = False

    def poll(self):
        return None

    def stop(self):
        self.stopped = True


class TestWorkerStop:
    def _farm(self, tmp_path, runner, **kwargs):
        specs = make_specs()
        clock = FakeClock()
        coordinator, _store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="stop")
        worker = Worker(tmp_path / "farm", "w1", clock=clock,
                        runner=runner, **kwargs)
        runner.worker = worker
        return coordinator, worker, specs

    def test_first_stop_settles_the_inflight_chunk_then_stops(
            self, tmp_path):
        runner = StopRunner()
        # the stop lands while the first cell runs: it settles, and
        # no further lease is claimed
        coordinator, worker, specs = self._farm(tmp_path, runner)
        summary = worker.run()
        assert summary["interrupted"]
        assert summary["done"] == 1 and summary["failed"] == 0
        assert len(runner.started) == 1
        counts = coordinator.board.counts()
        # one settled; a lease is claimed per free shard only, so none
        # is left claimed but never run
        assert counts["done"] == 1
        assert counts["leased"] == 0
        assert counts["pending"] == len(specs) - 1
        coordinator.close()

    def test_second_stop_aborts_the_inflight_cell(self, tmp_path):
        runner = StopRunner(stops=2, hang=True)
        coordinator, worker, _specs = self._farm(tmp_path, runner)
        summary = worker.run()
        assert summary["interrupted"] and runner.handle.stopped
        assert summary["done"] == 0 and summary["failed"] == 0
        # the aborted cell is neither stored nor failed: its lease
        # stays with the worker until it expires
        rows = {row["state"] for row in coordinator.board.rows()}
        assert "failed" not in rows
        assert coordinator.board.counts()["leased"] == 1
        assert len(worker.store) == 0
        coordinator.close()

    def test_a_stop_during_an_idle_wait_claims_nothing_more(
            self, tmp_path):
        """Ctrl-C while a peer holds every cell: once the wait ends,
        the worker exits instead of stealing the expired leases."""
        specs = make_specs(2)

        class StopWhileIdle(FakeClock):
            def sleep(inner, seconds):
                super().sleep(seconds)
                worker.request_stop()

        clock = StopWhileIdle()
        coordinator, _store, _stats = make_farm(tmp_path, clock=clock)
        coordinator.prepare(specs, name="idle")
        coordinator.board.claim("peer", lease_s=0.1, limit=len(specs))
        worker = Worker(tmp_path / "farm", "w1", clock=clock)
        summary = worker.run()
        assert summary["interrupted"]
        assert summary["done"] == 0 and summary["stolen"] == 0
        assert {row["owner"] for row in coordinator.board.rows()} == {
            "peer"}
        coordinator.close()
